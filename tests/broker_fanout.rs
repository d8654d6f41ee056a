//! The sharded notification fabric under contention: subscription
//! lifecycle ops racing concurrent publishes, lease-expiry eviction
//! from the index, and the queued delivery path isolating a slow
//! consumer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wsrf_grid::notification::{broker, NotificationListener, NotificationMessage, TopicExpression};
use wsrf_grid::prelude::*;
use wsrf_grid::wsrf::store::MemoryStore;

const BROKER_ADDR: &str = "inproc://hub/Broker";

struct Fabric {
    net: Arc<InProcNetwork>,
    clock: Clock,
    broker_epr: EndpointReference,
    store: Arc<MemoryStore>,
    registry: Arc<MetricsRegistry>,
}

fn fabric(clock: Clock) -> Fabric {
    let registry = MetricsRegistry::enabled();
    let net = InProcNetwork::with_metrics(clock.clone(), NetConfig::default(), &registry);
    let store = Arc::new(MemoryStore::new());
    let b = broker::notification_broker(
        "Broker",
        BROKER_ADDR,
        store.clone(),
        clock.clone(),
        net.clone(),
    );
    b.register(&net);
    let broker_epr = b.core().service_epr();
    Fabric {
        net,
        clock,
        broker_epr,
        store,
        registry,
    }
}

fn evt(topic: &str) -> NotificationMessage {
    NotificationMessage::new(topic, Element::local("Evt"))
}

fn destroy(net: &InProcNetwork, sub: &EndpointReference) {
    let mut env = Envelope::new(Element::new(
        "http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-ResourceLifetime-1.2-draft-01.xsd",
        "Destroy",
    ));
    wsrf_grid::soap::MessageInfo::request(
        sub.clone(),
        wsrf_grid::wsrf::porttypes::wsrl_action("Destroy"),
    )
    .apply(&mut env);
    let resp = net.call(&sub.address, env).unwrap();
    assert!(!resp.is_fault(), "Destroy must ack cleanly");
}

/// Subscriptions destroyed while publisher threads hammer the broker:
/// no panic, no delivery after `Destroy` acknowledges, and the index
/// agrees with the (empty) store afterwards.
#[test]
fn destroy_racing_concurrent_publish() {
    let f = fabric(Clock::manual());
    let stop = Arc::new(AtomicBool::new(false));
    let publishers: Vec<_> = (0..4)
        .map(|p| {
            let net = f.net.clone();
            let epr = f.broker_epr.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut n = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    broker::publish(&net, &epr, &evt(&format!("churn/p{p}/{}", n % 7))).unwrap();
                    n += 1;
                }
            })
        })
        .collect();

    // Churn subscriptions against the publish storm.
    for round in 0..30 {
        let addr = format!("inproc://churn/l{round}");
        let l = NotificationListener::register(&f.net, &addr);
        let sub = broker::subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::full("churn//"),
            None,
        )
        .unwrap();
        if round % 3 == 0 {
            broker::set_subscription_paused(&f.net, &sub, true).unwrap();
            broker::set_subscription_paused(&f.net, &sub, false).unwrap();
        }
        destroy(&f.net, &sub);
        // Inline manual-clock delivery: once Destroy acks, nothing
        // more may arrive for this listener.
        let settled = l.total();
        for _ in 0..50 {
            std::hint::spin_loop();
        }
        assert_eq!(
            l.total(),
            settled,
            "delivery after destroy ack (round {round})"
        );
        f.net.unregister(&addr);
    }
    stop.store(true, Ordering::Relaxed);
    for t in publishers {
        t.join().unwrap();
    }

    // Store and index agree: both empty.
    use wsrf_grid::wsrf::store::ResourceStore;
    assert_eq!(f.store.list("Broker").len(), 0, "store drained");
    let resp = broker::publish_counted(&f.net, &f.broker_epr, &evt("churn/p0/0")).unwrap();
    assert_eq!(
        resp.body.attr_value("delivered"),
        Some("0"),
        "index matches the empty store"
    );
    assert_eq!(
        f.registry.snapshot().gauge("broker.index.subscriptions"),
        Some(0)
    );
}

/// A lease expiring mid-storm evicts the subscription from the index
/// exactly like an explicit destroy.
#[test]
fn lease_expiry_evicts_from_index_under_load() {
    let f = fabric(Clock::manual());
    let l = NotificationListener::register(&f.net, "inproc://lease/l");
    broker::subscribe(
        &f.net,
        &f.broker_epr,
        &l.epr(),
        &TopicExpression::full("leased//"),
        Some(10.0),
    )
    .unwrap();
    broker::publish(&f.net, &f.broker_epr, &evt("leased/x")).unwrap();
    assert_eq!(l.total(), 1);
    f.clock.advance(Duration::from_secs(11));
    let resp = broker::publish_counted(&f.net, &f.broker_epr, &evt("leased/x")).unwrap();
    assert_eq!(resp.body.attr_value("delivered"), Some("0"));
    assert_eq!(l.total(), 1, "no delivery past the lease");
    use wsrf_grid::wsrf::store::ResourceStore;
    assert_eq!(f.store.list("Broker").len(), 0, "resource reaped");
    assert_eq!(
        f.registry.snapshot().gauge("broker.index.subscriptions"),
        Some(0)
    );
}

/// On a non-manual clock deliveries ride per-consumer queues drained
/// by the worker pool: a consumer sleeping in its handler delays only
/// itself, not the rest of the fan-out.
#[test]
fn slow_consumer_does_not_stall_the_fanout() {
    let f = fabric(Clock::scaled(1000.0));
    let fast = NotificationListener::register(&f.net, "inproc://fast/l");
    let slow = NotificationListener::register(&f.net, "inproc://slow/l");
    slow.on_topic(TopicExpression::full("t//"), |_| {
        std::thread::sleep(Duration::from_millis(100));
    });
    broker::subscribe(
        &f.net,
        &f.broker_epr,
        &fast.epr(),
        &TopicExpression::full("t//"),
        None,
    )
    .unwrap();
    broker::subscribe(
        &f.net,
        &f.broker_epr,
        &slow.epr(),
        &TopicExpression::full("t//"),
        None,
    )
    .unwrap();

    const N: usize = 20;
    for i in 0..N {
        broker::publish(&f.net, &f.broker_epr, &evt(&format!("t/{i}"))).unwrap();
    }
    // The slow consumer needs >= N * 100ms of wall time (per-consumer
    // FIFO, one drainer); the fast one must finish well before that.
    assert!(
        fast.wait_for(N, Duration::from_millis(1500)),
        "fast consumer stalled behind the slow one"
    );
    assert!(slow.total() < N, "slow consumer cannot have finished yet");
    assert!(
        slow.wait_for(N, Duration::from_secs(30)),
        "slow consumer must still receive everything"
    );
    // Per-consumer order holds end to end: publisher -> broker and
    // broker -> consumer are each one FIFO.
    let expected: Vec<String> = (0..N).map(|i| format!("t/{i}")).collect();
    for (name, l) in [("fast", &fast), ("slow", &slow)] {
        let topics: Vec<String> = l.received().iter().map(|m| m.topic.to_string()).collect();
        assert_eq!(
            topics, expected,
            "{name} consumer saw publishes out of order"
        );
    }
}

/// Pause/resume racing the publish storm never wedges and ends in a
/// deliverable state.
#[test]
fn pause_resume_racing_concurrent_publish() {
    let f = fabric(Clock::manual());
    let l = NotificationListener::register(&f.net, "inproc://pr/l");
    let sub = broker::subscribe(
        &f.net,
        &f.broker_epr,
        &l.epr(),
        &TopicExpression::full("pr//"),
        None,
    )
    .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let publisher = {
        let net = f.net.clone();
        let epr = f.broker_epr.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                broker::publish(&net, &epr, &evt("pr/x")).unwrap();
            }
        })
    };
    for _ in 0..50 {
        broker::set_subscription_paused(&f.net, &sub, true).unwrap();
        broker::set_subscription_paused(&f.net, &sub, false).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    publisher.join().unwrap();

    let before = l.total();
    broker::publish(&f.net, &f.broker_epr, &evt("pr/x")).unwrap();
    assert_eq!(l.total(), before + 1, "resumed subscription still delivers");
}
