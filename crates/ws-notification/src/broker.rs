//! WS-BrokeredNotification: the Notification Broker service.
//!
//! "While the web service generating the event could maintain its own
//! list of parties interested in receiving that event, it is more
//! convenient to use the Notification Broker service as a multicast
//! mechanism" (§4.3). The broker here is a full WSRF service whose
//! **resources are subscriptions**: they are created by `Subscribe`,
//! pausable, destroyable and lease-limited through the standard
//! WS-ResourceLifetime port types, and their state (consumer, topic
//! expression, paused flag) is visible through the standard
//! WS-ResourceProperties port types — one of the nicest illustrations
//! of the paper's "everything is a WS-Resource" theme.
//!
//! # The sharded fan-out path
//!
//! The store stays the source of truth for subscription state, but
//! `Notify` no longer rescans it: a [`SubscriptionIndex`] keeps
//! compiled entries (parsed [`TopicExpression`] + consumer EPR +
//! paused flag) bucketed by the expression's concrete root prefix
//! across hash shards, with a catch-all bucket for wildcard-first
//! expressions (`//exit`). The index is a write-through cache: every
//! mutation of the broker's resource table — `Subscribe`,
//! `Pause`/`Resume`, WSRL `Destroy`/`SetTerminationTime`, lease-expiry
//! timers, even `SetResourceProperties` — funnels through the
//! [`ResourceStore`] decorator that owns the invalidation, so no code
//! path can strand a stale entry.
//!
//! Delivery is inline (synchronous, subscription-ordered) on manual
//! clocks — the deterministic test network depends on that — and
//! batched through per-consumer queues drained by a small worker pool
//! on scaled/realtime clocks, so one slow consumer occupies one worker
//! instead of serializing the whole fan-out. Duplicate notifications
//! to the same consumer (overlapping subscriptions) are coalesced.
//! Transport failures are counted, reported in `NotifyResponse`, and
//! auto-pause a subscription after a configurable streak.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use simclock::{Clock, SimTime};
use wsrf_core::container::{action_uri, Ctx, OpKind, Service, ServiceBuilder};
use wsrf_core::faults;
use wsrf_core::properties::PropertyDoc;
use wsrf_core::store::{ResourceStore, StoreError};
use wsrf_obs::{Counter, CounterFamily, EventKind, EventLog, Gauge, Severity};
use wsrf_soap::{ns, BaseFault, EndpointReference, Envelope, MessageInfo, SoapFault, TraceContext};
use wsrf_transport::pool::ThreadPool;
use wsrf_transport::{InProcNetwork, TransportError};
use wsrf_xml::xpath::Path;
use wsrf_xml::{Element, QName};

use crate::message::{notify_action, NotificationMessage};
use crate::topics::{Dialect, TopicExpression, TopicPath};

/// Property names of a subscription resource.
fn p_consumer() -> QName {
    QName::new(ns::WSNT, "ConsumerReference")
}
fn p_expression() -> QName {
    QName::new(ns::WSNT, "TopicExpression")
}
fn p_paused() -> QName {
    QName::new(ns::WSNT, "Paused")
}

/// Tunables of the broker fan-out path.
#[derive(Clone)]
pub struct BrokerConfig {
    /// Consecutive transport failures after which a subscription is
    /// auto-paused (visible through its `Paused` resource property).
    pub autopause_after: u32,
    /// Maximum concrete topics retained by the `GetCurrentMessage`
    /// cache.
    pub current_cache_cap: usize,
    /// Maximum distinct topic *roots* minting their own
    /// `broker.topic.<root>.*` counter pair; the rest share
    /// `broker.topic.other.*`.
    pub topic_root_cap: usize,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            autopause_after: 3,
            current_cache_cap: 512,
            topic_root_cap: 64,
        }
    }
}

// ---------------------------------------------------------------------
// Sharded subscription index
// ---------------------------------------------------------------------

const INDEX_SHARDS: usize = 16;

fn shard_of(root: &str) -> usize {
    let mut h = DefaultHasher::new();
    root.hash(&mut h);
    (h.finish() as usize) % INDEX_SHARDS
}

/// One subscription, compiled once at write time instead of re-parsed
/// on every publish.
struct CompiledSub {
    key: String,
    expr: TopicExpression,
    consumer: EndpointReference,
    paused: AtomicBool,
    /// Set when the entry leaves the index (destroy, lease expiry,
    /// recompile); an in-flight fan-out that already snapshotted this
    /// entry re-checks the flag at send time so a destroyed
    /// subscription cannot deliver after `Destroy` acknowledged.
    dead: AtomicBool,
    consecutive_failures: AtomicU32,
}

impl CompiledSub {
    fn compile(key: &str, doc: &PropertyDoc) -> Option<CompiledSub> {
        let expr_el = doc.get(&p_expression()).first()?;
        let dialect = expr_el.attr_value("Dialect").and_then(Dialect::from_uri)?;
        let expr = TopicExpression::parse(dialect, &expr_el.text_content());
        let consumer = EndpointReference::from_element(doc.get(&p_consumer()).first()?).ok()?;
        Some(CompiledSub {
            key: key.to_string(),
            expr,
            consumer,
            paused: AtomicBool::new(doc.text(&p_paused()).as_deref() == Some("true")),
            dead: AtomicBool::new(false),
            consecutive_failures: AtomicU32::new(0),
        })
    }

    fn live(&self) -> bool {
        !self.dead.load(Ordering::Acquire) && !self.paused.load(Ordering::Acquire)
    }
}

/// Write-through cache of compiled subscriptions, bucketed by the
/// expression's concrete root prefix. `notify_op` touches exactly one
/// shard bucket (plus the wildcard bucket) per message instead of the
/// whole resource table.
struct SubscriptionIndex {
    /// root → entries, spread over hash shards for lock granularity.
    shards: Vec<RwLock<HashMap<String, Vec<Arc<CompiledSub>>>>>,
    /// Expressions with no concrete first segment (`//exit`, `*/x`)
    /// can match any root; scanned on every publish.
    wildcard: RwLock<Vec<Arc<CompiledSub>>>,
    /// Control-plane lookup for invalidation; never touched by
    /// `notify_op`.
    by_key: RwLock<HashMap<String, Arc<CompiledSub>>>,
    size: Gauge,
}

impl SubscriptionIndex {
    fn new(size: Gauge) -> SubscriptionIndex {
        SubscriptionIndex {
            shards: (0..INDEX_SHARDS).map(|_| RwLock::default()).collect(),
            wildcard: RwLock::default(),
            by_key: RwLock::default(),
            size,
        }
    }

    /// Reflect a created or saved subscription document. Pause/resume
    /// saves update the compiled entry in place; a changed expression
    /// or consumer recompiles and re-buckets it.
    fn upsert(&self, key: &str, doc: &PropertyDoc) {
        let Some(fresh) = CompiledSub::compile(key, doc) else {
            // The doc no longer parses as a subscription; drop any
            // stale entry rather than match on garbage.
            self.remove(key);
            return;
        };
        let mut by_key = self.by_key.write();
        match by_key.get(key) {
            Some(existing)
                if existing.expr == fresh.expr
                    && existing.consumer.address == fresh.consumer.address =>
            {
                let paused = fresh.paused.load(Ordering::Relaxed);
                existing.paused.store(paused, Ordering::Release);
                if !paused {
                    // A resume forgives the failure streak.
                    existing.consecutive_failures.store(0, Ordering::Relaxed);
                }
                return;
            }
            Some(_) => {
                let old = by_key.remove(key).unwrap();
                old.dead.store(true, Ordering::Release);
                self.evict_from_bucket(&old);
            }
            None => {}
        }
        let sub = Arc::new(fresh);
        match sub.expr.concrete_root() {
            Some(root) => self.shards[shard_of(root)]
                .write()
                .entry(root.to_string())
                .or_default()
                .push(sub.clone()),
            None => self.wildcard.write().push(sub.clone()),
        }
        by_key.insert(key.to_string(), sub);
        self.size.set(by_key.len() as i64);
    }

    /// Reflect a destroyed subscription (WSRL `Destroy`, lease expiry).
    fn remove(&self, key: &str) {
        let mut by_key = self.by_key.write();
        if let Some(old) = by_key.remove(key) {
            old.dead.store(true, Ordering::Release);
            self.evict_from_bucket(&old);
            self.size.set(by_key.len() as i64);
        }
    }

    fn evict_from_bucket(&self, sub: &Arc<CompiledSub>) {
        match sub.expr.concrete_root() {
            Some(root) => {
                let mut shard = self.shards[shard_of(root)].write();
                if let Some(bucket) = shard.get_mut(root) {
                    bucket.retain(|s| !Arc::ptr_eq(s, sub));
                    if bucket.is_empty() {
                        shard.remove(root);
                    }
                }
            }
            None => self.wildcard.write().retain(|s| !Arc::ptr_eq(s, sub)),
        }
    }

    /// Live, unpaused entries whose expression matches `topic`: the
    /// topic root's bucket plus the wildcard bucket — never the full
    /// table.
    fn matching(&self, topic: &TopicPath) -> Vec<Arc<CompiledSub>> {
        let mut out = Vec::new();
        let root = topic.root();
        {
            let shard = self.shards[shard_of(root)].read();
            if let Some(bucket) = shard.get(root) {
                out.extend(
                    bucket
                        .iter()
                        .filter(|s| s.live() && s.expr.matches(topic))
                        .cloned(),
                );
            }
        }
        out.extend(
            self.wildcard
                .read()
                .iter()
                .filter(|s| s.live() && s.expr.matches(topic))
                .cloned(),
        );
        out
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.by_key.read().len()
    }
}

/// [`ResourceStore`] decorator owning index invalidation. Wrapping the
/// store (rather than hooking individual operations) catches *every*
/// mutation path: the Subscribe handler, the standard WSRL lifetime
/// ops, lease-expiry timers firing `store.destroy` directly from the
/// clock, and WSRP `SetResourceProperties` edits.
struct IndexingStore {
    inner: Arc<dyn ResourceStore>,
    /// The broker's service/table name; other tables on a shared store
    /// pass through untouched.
    service: String,
    index: Arc<SubscriptionIndex>,
}

impl ResourceStore for IndexingStore {
    fn create(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        self.inner.create(service, key, doc)?;
        if service == self.service {
            self.index.upsert(key, doc);
        }
        Ok(())
    }

    fn load(&self, service: &str, key: &str) -> Result<PropertyDoc, StoreError> {
        self.inner.load(service, key)
    }

    fn save(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        self.inner.save(service, key, doc)?;
        if service == self.service {
            self.index.upsert(key, doc);
        }
        Ok(())
    }

    fn destroy(&self, service: &str, key: &str) -> Result<(), StoreError> {
        let result = self.inner.destroy(service, key);
        if service == self.service
            && (result.is_ok() || matches!(result, Err(StoreError::NotFound(_))))
        {
            self.index.remove(key);
        }
        result
    }

    fn exists(&self, service: &str, key: &str) -> bool {
        self.inner.exists(service, key)
    }

    fn list(&self, service: &str) -> Vec<String> {
        self.inner.list(service)
    }

    fn query(&self, service: &str, path: &Path) -> Vec<String> {
        self.inner.query(service, path)
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

// ---------------------------------------------------------------------
// Bounded GetCurrentMessage cache
// ---------------------------------------------------------------------

/// Two-generation (segmented-LRU) cache of the last message per
/// concrete topic. Inserts land in `hot`; when `hot` fills half the
/// cap, it becomes `cold` and a fresh generation starts, so topics not
/// re-published (or re-read) within a generation age out. Total size
/// is bounded by `cap` with O(1) operations — no per-publish eviction
/// scan.
struct CurrentCache {
    cap: usize,
    hot: HashMap<String, NotificationMessage>,
    cold: HashMap<String, NotificationMessage>,
}

impl CurrentCache {
    fn new(cap: usize) -> CurrentCache {
        CurrentCache {
            cap: cap.max(2),
            hot: HashMap::new(),
            cold: HashMap::new(),
        }
    }

    fn insert(&mut self, topic: String, msg: NotificationMessage) {
        self.cold.remove(&topic);
        self.hot.insert(topic, msg);
        if self.hot.len() >= (self.cap / 2).max(1) {
            self.cold = std::mem::take(&mut self.hot);
        }
    }

    fn get(&mut self, topic: &str) -> Option<&NotificationMessage> {
        if !self.hot.contains_key(topic) {
            if let Some(m) = self.cold.remove(topic) {
                self.hot.insert(topic.to_string(), m);
            }
        }
        self.hot.get(topic)
    }

    fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }
}

// ---------------------------------------------------------------------
// Delivery fabric
// ---------------------------------------------------------------------

/// How many queued deliveries a worker takes per queue visit.
const DRAIN_BATCH: usize = 64;

/// Worker threads draining per-consumer delivery queues on non-manual
/// clocks (manual-clock delivery stays inline).
const DELIVERY_WORKERS: usize = 4;

struct Delivery {
    sub: Arc<CompiledSub>,
    msg: Arc<NotificationMessage>,
    trace: Option<TraceContext>,
}

struct ConsumerQueue {
    q: VecDeque<Delivery>,
    /// True while a pool worker owns this queue; guarantees per-consumer
    /// FIFO with at most one drainer.
    draining: bool,
}

enum SendOutcome {
    Delivered,
    Failed,
    Skipped,
}

/// Owns the actual sends: failure accounting, auto-pause, and (on
/// non-manual clocks) the per-consumer batched queues drained by a
/// small worker pool.
struct DeliveryFabric {
    net: Arc<InProcNetwork>,
    /// The broker's (indexing) store — auto-pause writes through it so
    /// the `Paused` RP and the compiled entry stay in sync.
    store: Arc<dyn ResourceStore>,
    service: String,
    autopause_after: u32,
    failures: Counter,
    autopaused: Counter,
    /// Structured event log + clock for the auto-pause event's
    /// virtual timestamp.
    events: EventLog,
    clock: Clock,
    pool: OnceLock<ThreadPool>,
    queues: Mutex<HashMap<String, Arc<Mutex<ConsumerQueue>>>>,
}

impl DeliveryFabric {
    fn send_now(
        &self,
        sub: &CompiledSub,
        msg: &NotificationMessage,
        trace: Option<TraceContext>,
    ) -> SendOutcome {
        if !sub.live() {
            return SendOutcome::Skipped;
        }
        // Forward preserving the original producer reference.
        let mut env = msg.to_envelope(&sub.consumer);
        if let Some(tc) = &trace {
            tc.stamp(&mut env);
        }
        match self.net.send_oneway(&sub.consumer.address, env) {
            Ok(()) => {
                sub.consecutive_failures.store(0, Ordering::Relaxed);
                SendOutcome::Delivered
            }
            Err(_) => {
                self.failures.inc();
                let streak = sub.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
                if streak >= self.autopause_after {
                    self.autopause(sub);
                }
                SendOutcome::Failed
            }
        }
    }

    /// Pause a subscription whose consumer keeps failing. Written
    /// through the store so the `Paused` resource property reflects it
    /// (and, via the indexing decorator, the compiled entry too).
    fn autopause(&self, sub: &CompiledSub) {
        if sub.paused.swap(true, Ordering::AcqRel) {
            return;
        }
        self.autopaused.inc();
        let after = self.autopause_after;
        self.events.emit(
            Severity::Warn,
            EventKind::DeliveryAutopause,
            &self.service,
            self.clock.now().as_nanos(),
            || {
                format!(
                    "subscription {} auto-paused after {after} delivery failures",
                    sub.key
                )
            },
        );
        if let Ok(mut doc) = self.store.load(&self.service, &sub.key) {
            doc.set_text(p_paused(), "true");
            let _ = self.store.save(&self.service, &sub.key, &doc);
        }
    }

    fn pool(&self) -> &ThreadPool {
        self.pool
            .get_or_init(|| ThreadPool::new(DELIVERY_WORKERS, "broker-delivery"))
    }

    fn enqueue(self: &Arc<Self>, delivery: Delivery) {
        let addr = delivery.sub.consumer.address.clone();
        let queue = self
            .queues
            .lock()
            .entry(addr)
            .or_insert_with(|| {
                Arc::new(Mutex::new(ConsumerQueue {
                    q: VecDeque::new(),
                    draining: false,
                }))
            })
            .clone();
        let start_drain = {
            let mut q = queue.lock();
            q.q.push_back(delivery);
            if q.draining {
                false
            } else {
                q.draining = true;
                true
            }
        };
        if start_drain {
            let fabric = self.clone();
            self.pool().execute(move || fabric.drain(&queue));
        }
    }

    /// Drain one consumer's queue in batches. A slow consumer pins one
    /// worker; every other consumer keeps flowing on the rest of the
    /// pool.
    fn drain(&self, queue: &Arc<Mutex<ConsumerQueue>>) {
        loop {
            let batch: Vec<Delivery> = {
                let mut q = queue.lock();
                if q.q.is_empty() {
                    q.draining = false;
                    return;
                }
                let n = q.q.len().min(DRAIN_BATCH);
                q.q.drain(..n).collect()
            };
            for d in batch {
                let _ = self.send_now(&d.sub, &d.msg, d.trace);
            }
        }
    }
}

/// Everything the broker's operation closures share.
struct BrokerState {
    index: Arc<SubscriptionIndex>,
    fabric: Arc<DeliveryFabric>,
    current: Mutex<CurrentCache>,
    cache_size: Gauge,
    publishes: Counter,
    deliveries: Counter,
    coalesced: Counter,
    topic_publishes: CounterFamily,
    topic_deliveries: CounterFamily,
}

/// Build the Notification Broker service with default tunables.
///
/// * `Subscribe` (WSNT action) — create a subscription resource.
/// * `Notify` (WSNT action, one-way) — fan a notification out to every
///   matching, unpaused subscription.
/// * `PauseSubscription` / `ResumeSubscription` (resource ops).
/// * `Destroy` / `SetTerminationTime` — inherited standard port types.
pub fn notification_broker(
    name: &str,
    address: &str,
    store: Arc<dyn ResourceStore>,
    clock: Clock,
    net: Arc<InProcNetwork>,
) -> Arc<Service> {
    notification_broker_with(name, address, store, clock, net, BrokerConfig::default())
}

/// [`notification_broker`] with explicit [`BrokerConfig`] tunables.
pub fn notification_broker_with(
    name: &str,
    address: &str,
    store: Arc<dyn ResourceStore>,
    clock: Clock,
    net: Arc<InProcNetwork>,
    config: BrokerConfig,
) -> Arc<Service> {
    let registry = net.metrics_registry().clone();
    let index = Arc::new(SubscriptionIndex::new(
        registry.gauge("broker.index.subscriptions"),
    ));
    let effective_store: Arc<dyn ResourceStore> = Arc::new(IndexingStore {
        inner: store,
        service: name.to_string(),
        index: index.clone(),
    });
    // A durable store may already hold subscriptions from a previous
    // incarnation; seed the index so they match immediately.
    for key in effective_store.list(name) {
        if let Ok(doc) = effective_store.load(name, &key) {
            index.upsert(&key, &doc);
        }
    }
    let fabric = Arc::new(DeliveryFabric {
        net: net.clone(),
        store: effective_store.clone(),
        service: name.to_string(),
        autopause_after: config.autopause_after.max(1),
        failures: registry.counter("broker.delivery_failures"),
        autopaused: registry.counter("broker.autopaused"),
        events: registry.events().clone(),
        clock: clock.clone(),
        pool: OnceLock::new(),
        queues: Mutex::new(HashMap::new()),
    });
    let state = Arc::new(BrokerState {
        index,
        fabric,
        current: Mutex::new(CurrentCache::new(config.current_cache_cap)),
        cache_size: registry.gauge("broker.current_cache.size"),
        publishes: registry.counter("broker.publishes"),
        deliveries: registry.counter("broker.deliveries"),
        coalesced: registry.counter("broker.coalesced"),
        topic_publishes: registry.counter_family(
            "broker.topic",
            "publishes",
            config.topic_root_cap,
        ),
        topic_deliveries: registry.counter_family(
            "broker.topic",
            "deliveries",
            config.topic_root_cap,
        ),
    });
    let s_notify = state.clone();
    let s_get = state;
    ServiceBuilder::new(name, address, effective_store)
        .key_property(format!("{{{}}}SubscriptionKey", ns::WSNT))
        .raw_operation(subscribe_action(), OpKind::Static, subscribe_op)
        .raw_operation(notify_action(), OpKind::Static, move |ctx| {
            notify_op(ctx, &s_notify)
        })
        .raw_operation(
            format!("{}/GetCurrentMessage", ns::WSNT),
            OpKind::Static,
            move |ctx| {
                let topic = ctx
                    .body
                    .find(ns::WSNT, "Topic")
                    .map(|t| t.text_content())
                    .filter(|t| !t.is_empty())
                    .ok_or_else(|| faults::bad_request("GetCurrentMessage requires Topic"))?;
                match s_get.current.lock().get(&topic) {
                    Some(msg) => {
                        Ok(Element::new(ns::WSNT, "GetCurrentMessageResponse")
                            .child(msg.to_element()))
                    }
                    None => Err(BaseFault::new(
                        "wsnt:NoCurrentMessageOnTopic",
                        format!("no message has been published on '{topic}'"),
                    )),
                }
            },
        )
        .raw_operation(
            format!("{}/PauseSubscription", ns::WSNT),
            OpKind::Resource,
            |ctx| set_paused_op(ctx, true),
        )
        .raw_operation(
            format!("{}/ResumeSubscription", ns::WSNT),
            OpKind::Resource,
            |ctx| set_paused_op(ctx, false),
        )
        .build(clock, net)
}

/// The `Subscribe` action URI.
pub fn subscribe_action() -> String {
    format!("{}/Subscribe", ns::WSNT)
}

fn subscribe_op(ctx: &mut Ctx<'_>) -> Result<Element, BaseFault> {
    let consumer_el = ctx
        .body
        .find(ns::WSNT, "ConsumerReference")
        .ok_or_else(|| faults::bad_request("Subscribe requires ConsumerReference"))?;
    let consumer = EndpointReference::from_element(consumer_el)
        .map_err(|e| faults::bad_request(&format!("bad ConsumerReference: {e}")))?;
    let expr_el = ctx
        .body
        .find(ns::WSNT, "TopicExpression")
        .ok_or_else(|| faults::bad_request("Subscribe requires TopicExpression"))?;
    let dialect = expr_el
        .attr_value("Dialect")
        .and_then(Dialect::from_uri)
        .ok_or_else(|| faults::bad_request("unknown topic expression dialect"))?;
    let expr = TopicExpression::parse(dialect, &expr_el.text_content());

    let mut doc = PropertyDoc::new();
    doc.update(
        p_consumer(),
        vec![consumer.to_element_named(ns::WSNT, "ConsumerReference")],
    );
    doc.update(
        p_expression(),
        vec![Element::with_name(p_expression())
            .attr("Dialect", dialect.uri())
            .text(expr.text())],
    );
    doc.set_text(p_paused(), "false");
    let sub_epr = ctx.core.create_resource(doc)?;

    // Optional lease. `InitialTerminationTime` is a *duration in
    // seconds from now* (WS-BaseNotification's relative form): a
    // subscription created at t=100 with a 30-second lease dies at
    // t=130, not instantly at the long-gone absolute t=30.
    if let Some(itt) = ctx.body.find(ns::WSNT, "InitialTerminationTime") {
        let text = itt.text_content();
        if !text.trim().is_empty() {
            let secs: f64 = text
                .trim()
                .parse()
                .map_err(|_| faults::bad_request("InitialTerminationTime must be seconds"))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(faults::bad_request(
                    "InitialTerminationTime must be a non-negative number of seconds",
                ));
            }
            let key = sub_epr
                .resource_key()
                .ok_or_else(|| faults::bad_request("subscription EPR carries no resource key"))?
                .to_string();
            let at = SimTime::from_secs_f64(ctx.core.clock.now().as_secs_f64() + secs);
            ctx.core.set_termination_time(&key, Some(at));
        }
    }

    Ok(Element::new(ns::WSNT, "SubscribeResponse")
        .child(sub_epr.to_element_named(ns::WSNT, "SubscriptionReference")))
}

fn set_paused_op(ctx: &mut Ctx<'_>, paused: bool) -> Result<Element, BaseFault> {
    let doc = ctx.resource_mut()?;
    doc.set_text(p_paused(), if paused { "true" } else { "false" });
    let local = if paused {
        "PauseSubscriptionResponse"
    } else {
        "ResumeSubscriptionResponse"
    };
    Ok(Element::new(ns::WSNT, local))
}

fn notify_op(ctx: &mut Ctx<'_>, state: &Arc<BrokerState>) -> Result<Element, BaseFault> {
    // Decode the incoming notification(s).
    let messages: Vec<Arc<NotificationMessage>> = ctx
        .body
        .find_all(ns::WSNT, "NotificationMessage")
        .filter_map(NotificationMessage::from_element)
        .map(Arc::new)
        .collect();
    if messages.is_empty() {
        return Err(faults::bad_request("Notify carried no NotificationMessage"));
    }
    {
        let mut cur = state.current.lock();
        for m in &messages {
            cur.insert(m.topic.to_string(), (**m).clone());
        }
        state.cache_size.set(cur.len() as i64);
    }

    // Fan out to matching subscriptions, propagating the publisher's
    // trace context so deliveries stay in the submission's span tree.
    let trace = ctx.trace;
    let core = ctx.core.clone();
    let fanout_span = core.metrics.timer("broker.fanout").start(&core.clock);
    state.publishes.add(messages.len() as u64);
    for m in &messages {
        state.topic_publishes.counter(m.topic.root()).inc();
    }

    let mut delivered = 0usize;
    let mut failed = 0usize;
    let mut coalesced = 0usize;
    // Per-message set of consumer addresses already served: a consumer
    // holding several overlapping subscriptions hears each message
    // once (its earliest subscription wins).
    let mut seen: Vec<HashSet<String>> = vec![HashSet::new(); messages.len()];

    // Union of matching entries across the batch, in subscription
    // order (keys are "<svc>-<n>"): consumers that subscribed earlier
    // hear about an event before consumers whose handling might
    // publish *further* events, which keeps client-visible causality
    // intact on the inline test network.
    let mut matched: Vec<Arc<CompiledSub>> = Vec::new();
    for m in &messages {
        matched.extend(state.index.matching(&m.topic));
    }
    matched.sort_by(|a, b| (a.key.len(), &a.key).cmp(&(b.key.len(), &b.key)));
    matched.dedup_by(|a, b| a.key == b.key);
    // Manual clocks deliver inline and synchronously — the
    // deterministic test network depends on it. Scaled and realtime
    // clocks hand deliveries to per-consumer queues drained by the
    // worker pool.
    let inline = core.clock.is_manual();
    for sub in &matched {
        for (i, m) in messages.iter().enumerate() {
            if !sub.expr.matches(&m.topic) || !sub.live() {
                continue;
            }
            if !seen[i].insert(sub.consumer.address.clone()) {
                coalesced += 1;
                continue;
            }
            state.topic_deliveries.counter(m.topic.root()).inc();
            if inline {
                match state.fabric.send_now(sub, m, trace) {
                    SendOutcome::Delivered => delivered += 1,
                    SendOutcome::Failed => failed += 1,
                    SendOutcome::Skipped => {}
                }
            } else {
                state.fabric.enqueue(Delivery {
                    sub: sub.clone(),
                    msg: m.clone(),
                    trace,
                });
                delivered += 1;
            }
        }
    }
    state.deliveries.add(delivered as u64);
    state.coalesced.add(coalesced as u64);
    fanout_span.finish();
    Ok(Element::new(ns::WSNT, "NotifyResponse")
        .attr("delivered", delivered.to_string())
        .attr("failed", failed.to_string())
        .attr("coalesced", coalesced.to_string()))
}

// ---------------------------------------------------------------------
// Client-side helpers
// ---------------------------------------------------------------------

/// Subscribe `consumer` to `expression` at the broker; returns the
/// subscription's EPR. `initial_termination` is a lease duration in
/// seconds *from now* (see [`subscribe_op`]'s relative
/// `InitialTerminationTime` semantics).
pub fn subscribe(
    net: &InProcNetwork,
    broker: &EndpointReference,
    consumer: &EndpointReference,
    expression: &TopicExpression,
    initial_termination: Option<f64>,
) -> Result<EndpointReference, SoapFault> {
    let mut body = Element::new(ns::WSNT, "Subscribe")
        .child(consumer.to_element_named(ns::WSNT, "ConsumerReference"))
        .child(
            Element::new(ns::WSNT, "TopicExpression")
                .attr("Dialect", expression.dialect.uri())
                .text(expression.text()),
        );
    if let Some(secs) = initial_termination {
        body.push_child(Element::new(ns::WSNT, "InitialTerminationTime").text(format!("{secs}")));
    }
    let mut env = Envelope::new(body);
    MessageInfo::request(broker.clone(), subscribe_action()).apply(&mut env);
    let resp = net
        .call(&broker.address, env)
        .map_err(|e| SoapFault::server(e.to_string()))?;
    if let Some(f) = resp.fault() {
        return Err(f);
    }
    let sref = resp
        .body
        .find(ns::WSNT, "SubscriptionReference")
        .ok_or_else(|| SoapFault::server("SubscribeResponse missing SubscriptionReference"))?;
    EndpointReference::from_element(sref).map_err(|e| SoapFault::server(e.to_string()))
}

/// Publish a notification *through* the broker (one-way).
pub fn publish(
    net: &InProcNetwork,
    broker: &EndpointReference,
    msg: &NotificationMessage,
) -> Result<(), TransportError> {
    net.send_oneway(&broker.address, msg.to_envelope(broker))
}

/// Publish via request/response, returning the broker's
/// `NotifyResponse` (with its `delivered`/`failed`/`coalesced`
/// attributes) instead of fire-and-forget.
pub fn publish_counted(
    net: &InProcNetwork,
    broker: &EndpointReference,
    msg: &NotificationMessage,
) -> Result<Envelope, SoapFault> {
    let mut env = msg.to_envelope(broker);
    MessageInfo::request(broker.clone(), notify_action()).apply(&mut env);
    net.call(&broker.address, env)
        .map_err(|e| SoapFault::server(e.to_string()))
}

/// Pause or resume a subscription by its EPR.
pub fn set_subscription_paused(
    net: &InProcNetwork,
    subscription: &EndpointReference,
    paused: bool,
) -> Result<(), SoapFault> {
    let op = if paused {
        "PauseSubscription"
    } else {
        "ResumeSubscription"
    };
    let mut env = Envelope::new(Element::new(ns::WSNT, op));
    MessageInfo::request(subscription.clone(), format!("{}/{op}", ns::WSNT)).apply(&mut env);
    let resp = net
        .call(&subscription.address, env)
        .map_err(|e| SoapFault::server(e.to_string()))?;
    match resp.fault() {
        Some(f) => Err(f),
        None => Ok(()),
    }
}

/// Fetch the last message published on a concrete topic
/// (WS-BaseNotification `GetCurrentMessage`).
pub fn get_current_message(
    net: &InProcNetwork,
    broker: &EndpointReference,
    topic: &str,
) -> Result<Option<NotificationMessage>, SoapFault> {
    let body = Element::new(ns::WSNT, "GetCurrentMessage")
        .child(Element::new(ns::WSNT, "Topic").text(topic));
    let mut env = Envelope::new(body);
    MessageInfo::request(broker.clone(), format!("{}/GetCurrentMessage", ns::WSNT)).apply(&mut env);
    let resp = net
        .call(&broker.address, env)
        .map_err(|e| SoapFault::server(e.to_string()))?;
    if let Some(f) = resp.fault() {
        if f.error_code() == Some("wsnt:NoCurrentMessageOnTopic") {
            return Ok(None);
        }
        return Err(f);
    }
    Ok(resp
        .body
        .find(ns::WSNT, "NotificationMessage")
        .and_then(NotificationMessage::from_element))
}

/// The action URI helper shared with `wsrf-core` services (re-export
/// for symmetry with service-defined operations).
pub fn broker_action(service: &str, op: &str) -> String {
    action_uri(service, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consumer::NotificationListener;
    use wsrf_core::store::MemoryStore;

    struct Fixture {
        net: Arc<InProcNetwork>,
        clock: Clock,
        broker_epr: EndpointReference,
        #[allow(dead_code)]
        broker: Arc<Service>,
    }

    fn fixture() -> Fixture {
        fixture_with(BrokerConfig::default())
    }

    fn fixture_with(config: BrokerConfig) -> Fixture {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let broker = notification_broker_with(
            "Broker",
            "inproc://hub/Broker",
            Arc::new(MemoryStore::new()),
            clock.clone(),
            net.clone(),
            config,
        );
        broker.register(&net);
        let broker_epr = broker.core().service_epr();
        Fixture {
            net,
            clock,
            broker_epr,
            broker,
        }
    }

    fn msg(topic: &str) -> NotificationMessage {
        NotificationMessage::new(topic, Element::new(ns::UVACG, "Evt").text(topic))
            .from_producer(EndpointReference::service("inproc://m1/Exec"))
    }

    #[test]
    fn broker_multicasts_to_matching_subscribers() {
        let f = fixture();
        let sched = NotificationListener::register(&f.net, "inproc://hub/sched-listener");
        let client = NotificationListener::register(&f.net, "inproc://client/listener");
        let other = NotificationListener::register(&f.net, "inproc://other/listener");
        subscribe(
            &f.net,
            &f.broker_epr,
            &sched.epr(),
            &TopicExpression::full("js-1//"),
            None,
        )
        .unwrap();
        subscribe(
            &f.net,
            &f.broker_epr,
            &client.epr(),
            &TopicExpression::full("js-1//"),
            None,
        )
        .unwrap();
        subscribe(
            &f.net,
            &f.broker_epr,
            &other.epr(),
            &TopicExpression::full("js-2//"),
            None,
        )
        .unwrap();

        publish(&f.net, &f.broker_epr, &msg("js-1/job/exit")).unwrap();
        assert_eq!(sched.count(), 1);
        assert_eq!(client.count(), 1);
        assert_eq!(other.count(), 0);
        // Producer reference survives brokering.
        assert_eq!(
            sched.received()[0].producer.as_ref().unwrap().address,
            "inproc://m1/Exec"
        );
    }

    #[test]
    fn pause_and_resume() {
        let f = fixture();
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        let sub = subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::simple("t"),
            None,
        )
        .unwrap();
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 1);

        set_subscription_paused(&f.net, &sub, true).unwrap();
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 1, "paused");

        set_subscription_paused(&f.net, &sub, false).unwrap();
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 2, "resumed");
    }

    #[test]
    fn subscription_is_a_queryable_resource() {
        let f = fixture();
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        let sub = subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::full("a/*/c"),
            None,
        )
        .unwrap();
        // Read its TopicExpression through the standard port type.
        let mut env =
            Envelope::new(Element::new(ns::WSRP, "GetResourceProperty").text("TopicExpression"));
        MessageInfo::request(
            sub,
            wsrf_core::porttypes::wsrp_action("GetResourceProperty"),
        )
        .apply(&mut env);
        let resp = f.net.call("inproc://hub/Broker", env).unwrap();
        assert_eq!(resp.body.text_content(), "a/*/c");
    }

    #[test]
    fn subscription_lease_expires() {
        let f = fixture();
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::simple("t"),
            Some(30.0),
        )
        .unwrap();
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 1);
        f.clock.advance(std::time::Duration::from_secs(31));
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 1, "expired subscription no longer delivers");
    }

    #[test]
    fn initial_termination_time_is_relative_to_now() {
        let f = fixture();
        // Let virtual time run well past the lease duration first: a
        // 30-second lease taken at t=100 must expire at t=130, not be
        // treated as the long-past absolute time t=30.
        f.clock.advance(std::time::Duration::from_secs(100));
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::simple("t"),
            Some(30.0),
        )
        .unwrap();
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 1, "lease still live right after subscribing");
        f.clock.advance(std::time::Duration::from_secs(29));
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 2, "lease still live at t+29s");
        f.clock.advance(std::time::Duration::from_secs(2));
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 2, "lease expired at t+31s");
    }

    #[test]
    fn destroy_subscription_stops_delivery() {
        let f = fixture();
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        let sub = subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::simple("t"),
            None,
        )
        .unwrap();
        let mut env = Envelope::new(Element::new(ns::WSRL, "Destroy"));
        MessageInfo::request(sub, wsrf_core::porttypes::wsrl_action("Destroy")).apply(&mut env);
        let resp = f.net.call("inproc://hub/Broker", env).unwrap();
        assert!(!resp.is_fault());
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l.count(), 0);
        // The broker reports zero matches too: index and store agree.
        let resp = publish_counted(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(resp.body.attr_value("delivered"), Some("0"));
    }

    #[test]
    fn overlapping_subscriptions_coalesce_to_one_delivery() {
        let f = fixture();
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::full("a//"),
            None,
        )
        .unwrap();
        subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::full("a/b//"),
            None,
        )
        .unwrap();
        let resp = publish_counted(&f.net, &f.broker_epr, &msg("a/b/c")).unwrap();
        assert_eq!(l.count(), 1, "one consumer, one copy");
        assert_eq!(resp.body.attr_value("delivered"), Some("1"));
        assert_eq!(resp.body.attr_value("coalesced"), Some("1"));
        // A topic matching only one of the expressions is unaffected.
        publish(&f.net, &f.broker_epr, &msg("a/x")).unwrap();
        assert_eq!(l.count(), 2);
    }

    #[test]
    fn failed_deliveries_are_counted_and_autopause_the_subscription() {
        let f = fixture_with(BrokerConfig {
            autopause_after: 3,
            ..BrokerConfig::default()
        });
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        let sub = subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::simple("t"),
            None,
        )
        .unwrap();
        // The consumer vanishes from the network.
        f.net.unregister("inproc://c/l");
        for _ in 0..2 {
            let resp = publish_counted(&f.net, &f.broker_epr, &msg("t")).unwrap();
            assert_eq!(resp.body.attr_value("delivered"), Some("0"));
            assert_eq!(resp.body.attr_value("failed"), Some("1"));
        }
        // Third consecutive failure trips the auto-pause.
        let resp = publish_counted(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(resp.body.attr_value("failed"), Some("1"));
        let mut env = Envelope::new(Element::new(ns::WSRP, "GetResourceProperty").text("Paused"));
        MessageInfo::request(
            sub.clone(),
            wsrf_core::porttypes::wsrp_action("GetResourceProperty"),
        )
        .apply(&mut env);
        let resp = f.net.call("inproc://hub/Broker", env).unwrap();
        assert_eq!(resp.body.text_content(), "true", "auto-paused RP visible");
        // Re-registering alone does not resume the paused subscription…
        let l2 = NotificationListener::register(&f.net, "inproc://c/l");
        let resp = publish_counted(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(resp.body.attr_value("delivered"), Some("0"));
        assert_eq!(l2.count(), 0);
        // …an explicit Resume does.
        set_subscription_paused(&f.net, &sub, false).unwrap();
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        assert_eq!(l2.count(), 1);
    }

    #[test]
    fn a_successful_delivery_resets_the_failure_streak() {
        let f = fixture_with(BrokerConfig {
            autopause_after: 2,
            ..BrokerConfig::default()
        });
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        let sub = subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::simple("t"),
            None,
        )
        .unwrap();
        // fail, succeed, fail, succeed… never two in a row.
        for _ in 0..3 {
            f.net.unregister("inproc://c/l");
            publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
            NotificationListener::register(&f.net, "inproc://c/l");
            publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        }
        let mut env = Envelope::new(Element::new(ns::WSRP, "GetResourceProperty").text("Paused"));
        MessageInfo::request(
            sub,
            wsrf_core::porttypes::wsrp_action("GetResourceProperty"),
        )
        .apply(&mut env);
        let resp = f.net.call("inproc://hub/Broker", env).unwrap();
        assert_eq!(resp.body.text_content(), "false", "streak never reached 2");
    }

    #[test]
    fn get_current_message_returns_latest_per_topic() {
        let f = fixture();
        assert_eq!(
            get_current_message(&f.net, &f.broker_epr, "t").unwrap(),
            None
        );
        publish(&f.net, &f.broker_epr, &msg("t")).unwrap();
        publish(&f.net, &f.broker_epr, &msg("other")).unwrap();
        let m2 = NotificationMessage::new("t", Element::new(ns::UVACG, "Evt").text("second"));
        publish(&f.net, &f.broker_epr, &m2).unwrap();
        let got = get_current_message(&f.net, &f.broker_epr, "t")
            .unwrap()
            .unwrap();
        assert_eq!(got.payload.text_content(), "second");
        let other = get_current_message(&f.net, &f.broker_epr, "other")
            .unwrap()
            .unwrap();
        assert_eq!(other.topic.to_string(), "other");
    }

    #[test]
    fn current_message_cache_is_bounded() {
        let f = fixture_with(BrokerConfig {
            current_cache_cap: 8,
            ..BrokerConfig::default()
        });
        for i in 0..40 {
            publish(&f.net, &f.broker_epr, &msg(&format!("t{i}"))).unwrap();
        }
        // The earliest topics aged out of the bounded cache…
        assert_eq!(
            get_current_message(&f.net, &f.broker_epr, "t0").unwrap(),
            None
        );
        // …the most recent survive.
        assert!(get_current_message(&f.net, &f.broker_epr, "t39")
            .unwrap()
            .is_some());
    }

    #[test]
    fn current_cache_two_generation_bound_holds() {
        let mut c = CurrentCache::new(8);
        for i in 0..1000 {
            c.insert(format!("t{i}"), msg("x"));
            assert!(
                c.len() <= 8,
                "cache exceeded cap at insert {i}: {}",
                c.len()
            );
        }
        assert!(c.get("t999").is_some());
        assert!(c.get("t0").is_none());
    }

    #[test]
    fn current_cache_gauge_stays_exact_across_generation_swaps() {
        // The `broker.current_cache.size` gauge is set on every Notify;
        // a shadow CurrentCache replays the same insert sequence so the
        // gauge can be checked against the true hot+cold length even as
        // eviction swaps generations.
        let clock = Clock::manual();
        let registry = wsrf_obs::MetricsRegistry::enabled();
        let net = InProcNetwork::with_metrics(
            clock.clone(),
            wsrf_transport::NetConfig::default(),
            &registry,
        );
        let broker = notification_broker_with(
            "Broker",
            "inproc://hub/Broker",
            Arc::new(MemoryStore::new()),
            clock,
            net.clone(),
            BrokerConfig {
                current_cache_cap: 8,
                ..BrokerConfig::default()
            },
        );
        broker.register(&net);
        let bepr = broker.core().service_epr();
        let gauge = registry.gauge("broker.current_cache.size");

        let mut shadow = CurrentCache::new(8);
        for i in 0..40 {
            // Cycle through 13 topics so inserts mix fresh topics (which
            // evict) with re-publishes of resident ones (which must not
            // grow the cache).
            let topic = format!("t{}", i % 13);
            publish(&net, &bepr, &msg(&topic)).unwrap();
            shadow.insert(topic, msg("x"));
            assert_eq!(
                gauge.get(),
                shadow.len() as i64,
                "gauge diverged from cache length at insert {i}"
            );
            assert!(gauge.get() <= 8, "gauge exceeded cap at insert {i}");
        }

        // GetCurrentMessage promotes cold entries back to the hot
        // generation but never changes the cache size.
        let before = gauge.get();
        assert!(get_current_message(&net, &bepr, "t0").unwrap().is_some());
        assert_eq!(gauge.get(), before, "read path must not move the gauge");
    }

    #[test]
    fn index_tracks_subscribe_pause_destroy_and_expiry() {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let registry = wsrf_obs::MetricsRegistry::disabled();
        let index = Arc::new(SubscriptionIndex::new(registry.gauge("x")));
        let store: Arc<dyn ResourceStore> = Arc::new(IndexingStore {
            inner: Arc::new(MemoryStore::new()),
            service: "Broker".into(),
            index: index.clone(),
        });
        let broker = {
            // Build on the *pre-wrapped* store so this test can watch
            // the index directly.
            let b = notification_broker_with(
                "Broker",
                "inproc://hub/Broker",
                store.clone(),
                clock.clone(),
                net.clone(),
                BrokerConfig::default(),
            );
            b.register(&net);
            b
        };
        let bepr = broker.core().service_epr();
        let l = NotificationListener::register(&net, "inproc://c/l");
        let sub = subscribe(&net, &bepr, &l.epr(), &TopicExpression::simple("t"), None).unwrap();
        assert_eq!(index.len(), 1, "subscribe populated the outer index");
        let mut env = Envelope::new(Element::new(ns::WSRL, "Destroy"));
        MessageInfo::request(sub, wsrf_core::porttypes::wsrl_action("Destroy")).apply(&mut env);
        net.call("inproc://hub/Broker", env).unwrap();
        assert_eq!(index.len(), 0, "destroy evicted the outer index");
        // Lease expiry evicts too.
        subscribe(
            &net,
            &bepr,
            &l.epr(),
            &TopicExpression::simple("t"),
            Some(5.0),
        )
        .unwrap();
        assert_eq!(index.len(), 1);
        clock.advance(std::time::Duration::from_secs(6));
        assert_eq!(index.len(), 0, "lease expiry evicted the outer index");
    }

    #[test]
    fn get_current_message_requires_topic() {
        let f = fixture();
        let mut env = Envelope::new(Element::new(ns::WSNT, "GetCurrentMessage"));
        MessageInfo::request(
            f.broker_epr.clone(),
            format!("{}/GetCurrentMessage", ns::WSNT),
        )
        .apply(&mut env);
        let resp = f.net.call("inproc://hub/Broker", env).unwrap();
        assert_eq!(resp.fault().unwrap().error_code(), Some("wsrf:BadRequest"));
    }

    #[test]
    fn subscribe_without_consumer_faults() {
        let f = fixture();
        let mut env = Envelope::new(Element::new(ns::WSNT, "Subscribe"));
        MessageInfo::request(f.broker_epr.clone(), subscribe_action()).apply(&mut env);
        let resp = f.net.call("inproc://hub/Broker", env).unwrap();
        assert_eq!(resp.fault().unwrap().error_code(), Some("wsrf:BadRequest"));
    }

    #[test]
    fn negative_initial_termination_time_faults() {
        let f = fixture();
        let l = NotificationListener::register(&f.net, "inproc://c/l");
        let err = subscribe(
            &f.net,
            &f.broker_epr,
            &l.epr(),
            &TopicExpression::simple("t"),
            Some(-5.0),
        )
        .unwrap_err();
        assert_eq!(err.error_code(), Some("wsrf:BadRequest"));
    }

    #[test]
    fn notify_with_no_messages_faults() {
        let f = fixture();
        let mut env = Envelope::new(Element::new(ns::WSNT, "Notify"));
        MessageInfo::request(f.broker_epr.clone(), notify_action()).apply(&mut env);
        let resp = f.net.call("inproc://hub/Broker", env).unwrap();
        assert!(resp.is_fault());
    }
}
