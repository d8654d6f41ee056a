//! The simulated campus network.
//!
//! Every machine's services register here under their full address
//! (`inproc://machine01/ExecutionService`, `soap.tcp://client/files`).
//! Message *costs* come from the [`NetConfig`] model against the shared
//! virtual clock; message *delivery* is an in-process method call, so a
//! whole campus grid runs in one address space at memory speed while
//! still exhibiting realistic timing and traffic metrics.
//!
//! Because delivery passes the [`Envelope`] by value — no wire text is
//! ever produced — this transport's receive path is already "zero
//! parse": the inbound-lazy machinery ([`Endpoint::handle_wire`], the
//! container's pull-scan routing) only comes into play on the socket
//! transports, which own real receive buffers.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use simclock::{Clock, SimTime};
use wsrf_obs::{Histogram, HistogramFamily, MetricsRegistry};
use wsrf_soap::{Envelope, Uri};

use crate::endpoint::Endpoint;
use crate::error::TransportError;
use crate::netsim::NetConfig;
use crate::obs::LinkObs;
use crate::pool::ThreadPool;

/// Traffic counters, readable at any time (experiments E5/E8 plot
/// these).
#[derive(Default)]
pub struct NetMetrics {
    /// Request/response exchanges completed.
    pub calls: AtomicU64,
    /// One-way messages accepted for delivery.
    pub oneways: AtomicU64,
    /// Serialized payload bytes moved (requests + responses).
    pub bytes: AtomicU64,
    /// Accumulated modeled (virtual) transfer time in nanoseconds.
    pub modeled_nanos: AtomicU64,
    /// Messages dropped because the destination vanished between
    /// scheduling and delivery.
    pub undeliverable: AtomicU64,
}

impl NetMetrics {
    /// Snapshot of (calls, oneways, bytes, modeled transfer time).
    pub fn snapshot(&self) -> (u64, u64, u64, Duration) {
        (
            self.calls.load(Ordering::Relaxed),
            self.oneways.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            Duration::from_nanos(self.modeled_nanos.load(Ordering::Relaxed)),
        )
    }

    fn record(&self, bytes: u64, modeled: Duration) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.modeled_nanos
            .fetch_add(modeled.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// The simulated network fabric.
pub struct InProcNetwork {
    clock: Clock,
    /// Shared with deferred one-way deliveries, which re-resolve their
    /// destination at delivery time (see [`InProcNetwork::send_oneway`]).
    registry: Arc<RwLock<HashMap<String, Arc<dyn Endpoint>>>>,
    /// Cost model: read on every call/oneway, written only when a
    /// test or bench reconfigures the net — hence a RwLock, so
    /// concurrent senders never serialize on it.
    config: RwLock<NetConfig>,
    /// Counters for experiments.
    pub metrics: Arc<NetMetrics>,
    /// Registry-backed observability (no-op unless constructed via
    /// [`InProcNetwork::with_metrics`]).
    obs: LinkObs,
    /// The deployment's registry; services built on this network
    /// default their metrics to it.
    obs_registry: Arc<MetricsRegistry>,
    /// Modeled (virtual) transfer time per message, nanoseconds.
    obs_modeled: Histogram,
    /// Per-authority breakdown of the same, bounded: authorities come
    /// from an open set (every client id is one), so past the cap the
    /// long tail shares `transport.inproc.modeled.other_ns` instead of
    /// minting a histogram per name.
    obs_modeled_by_auth: HistogramFamily,
    pool: ThreadPool,
    /// Deferred one-ways on non-manual clocks, one FIFO lane per
    /// destination address. A lane is in the map exactly while one pool
    /// worker drains it, so each destination handles its messages one
    /// at a time and in send order, and a slow one holds one worker.
    lanes: Arc<Mutex<HashMap<String, VecDeque<InFlight>>>>,
}

/// A deferred one-way and the virtual time its modeled transfer ends.
struct InFlight {
    env: Envelope,
    due: SimTime,
}

impl InProcNetwork {
    /// A network with zero-cost links (deterministic tests).
    pub fn new(clock: Clock) -> Arc<Self> {
        Self::with_config(clock, NetConfig::default())
    }

    /// A network with an explicit cost model.
    pub fn with_config(clock: Clock, config: NetConfig) -> Arc<Self> {
        Self::with_metrics(clock, config, &MetricsRegistry::disabled())
    }

    /// A network that additionally records traffic into a metrics
    /// registry (`transport.inproc.*`).
    pub fn with_metrics(
        clock: Clock,
        config: NetConfig,
        registry: &Arc<MetricsRegistry>,
    ) -> Arc<Self> {
        Arc::new(InProcNetwork {
            clock,
            registry: Arc::new(RwLock::new(HashMap::new())),
            config: RwLock::new(config),
            metrics: Arc::new(NetMetrics::default()),
            obs: LinkObs::new(registry, "inproc"),
            obs_modeled: registry.histogram("transport.inproc.modeled_ns"),
            obs_modeled_by_auth: registry.histogram_family(
                "transport.inproc.modeled",
                "_ns",
                MODELED_AUTHORITY_CAP,
            ),
            obs_registry: registry.clone(),
            pool: ThreadPool::new(4, "inproc-oneway"),
            lanes: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// The clock this network charges costs against.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The metrics registry this network records into (a disabled
    /// registry unless constructed via [`InProcNetwork::with_metrics`]).
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.obs_registry
    }

    /// Replace the cost model (benches sweep this).
    pub fn set_config(&self, config: NetConfig) {
        *self.config.write() = config;
    }

    /// Register an endpoint at a full address
    /// (`scheme://authority/path`). Re-registering replaces.
    pub fn register(&self, address: impl Into<String>, endpoint: Arc<dyn Endpoint>) {
        self.registry
            .write()
            .insert(normalize(&address.into()), endpoint);
    }

    /// Remove an endpoint; true if it existed.
    pub fn unregister(&self, address: &str) -> bool {
        self.registry.write().remove(&normalize(address)).is_some()
    }

    /// Addresses currently registered (diagnostics).
    pub fn addresses(&self) -> Vec<String> {
        let mut v: Vec<String> = self.registry.read().keys().cloned().collect();
        v.sort();
        v
    }

    fn lookup(&self, address: &str) -> Result<Arc<dyn Endpoint>, TransportError> {
        // Keys were normalized at register time, and callers almost
        // always pass already-normalized addresses — probe with the
        // borrowed key and only allocate a normalized copy when the
        // address actually needs fixing up.
        let reg = self.registry.read();
        let found = if is_normalized(address) {
            reg.get(address)
        } else {
            reg.get(normalize(address).as_str())
        };
        found
            .cloned()
            .ok_or_else(|| TransportError::NoRoute(address.to_string()))
    }

    /// Exact wire size of `env`, computed by a single counting pass
    /// over the serializer — no render, no clone. Feeds the serialize
    /// metrics when the registry is live.
    fn wire_size(&self, env: &Envelope) -> u64 {
        if self.obs_registry.is_enabled() {
            let t0 = std::time::Instant::now();
            let bytes = env.wire_len() as u64;
            self.obs.record_serialize(bytes, t0);
            bytes
        } else {
            env.wire_len() as u64
        }
    }

    fn cost(&self, address: &str, bytes: u64) -> Duration {
        match Uri::parse(address) {
            Some(u) => self
                .config
                .read()
                .transfer_time(&u.scheme, &u.authority, bytes),
            None => Duration::ZERO,
        }
    }

    /// Synchronous request/response exchange.
    ///
    /// The caller experiences the modeled request + response transfer
    /// times: on a scaled clock it genuinely sleeps (scaled); on a
    /// manual clock costs are recorded in [`NetMetrics`] but delivery
    /// is inline, keeping tests single-threaded and deterministic.
    pub fn call(&self, to: &str, mut env: Envelope) -> Result<Envelope, TransportError> {
        let started = std::time::Instant::now();
        let ep = self.lookup(to)?;
        // Hop span (noop unless tracing): re-stamps the trace header
        // before byte accounting so the wire size reflects what is
        // delivered. Finishes when the exchange completes.
        let mut hop = self.obs.hop_span(&mut env, "transport.call", &self.clock);
        if let Some(s) = hop.as_mut() {
            s.annotate("to", to);
        }
        let req_bytes = self.wire_size(&env);
        let req_cost = self.cost(to, req_bytes);
        self.metrics.record(req_bytes, req_cost);
        self.record_modeled(to, req_cost);
        self.charge(req_cost);
        let resp = ep
            .handle(env)
            .ok_or_else(|| TransportError::NoResponse(to.to_string()))?;
        let resp_bytes = self.wire_size(&resp);
        let resp_cost = self.cost(to, resp_bytes);
        self.metrics.record(resp_bytes, resp_cost);
        self.record_modeled(to, resp_cost);
        self.charge(resp_cost);
        self.metrics.calls.fetch_add(1, Ordering::Relaxed);
        self.obs.record_call(req_bytes, resp_bytes, started);
        Ok(resp)
    }

    /// One-way message: returns as soon as the message is "on the
    /// wire". Routing failures surface immediately; delivery happens
    /// after the modeled transfer time (via the clock in manual mode,
    /// via the destination's FIFO lane on the worker pool in scaled
    /// mode).
    pub fn send_oneway(&self, to: &str, mut env: Envelope) -> Result<(), TransportError> {
        let started = std::time::Instant::now();
        let ep = self.lookup(to)?;
        let mut hop = self.obs.hop_span(&mut env, "transport.oneway", &self.clock);
        if let Some(s) = hop.as_mut() {
            s.annotate("to", to);
        }
        let bytes = self.wire_size(&env);
        let cost = self.cost(to, bytes);
        self.metrics.record(bytes, cost);
        self.record_modeled(to, cost);
        self.metrics.oneways.fetch_add(1, Ordering::Relaxed);
        self.obs.record_oneway(bytes, started);
        if self.clock.is_manual() && cost.is_zero() {
            ep.handle(env);
            return Ok(());
        }
        // Deferred delivery late-binds the destination: the endpoint
        // is re-resolved when the message "arrives", not captured at
        // send time. A container that unregistered (crashed) in the
        // meantime drops the message (`undeliverable`); one that
        // re-registered (restarted, or a standby taking over the
        // address) receives it — exactly the wire semantics a real
        // network would give a rebound listener.
        drop(ep);
        let addr = if is_normalized(to) {
            to.to_string()
        } else {
            normalize(to)
        };
        if self.clock.is_manual() {
            let registry = self.registry.clone();
            let metrics = self.metrics.clone();
            self.clock
                .schedule(cost, move |_| deliver(&registry, &metrics, &addr, env));
            return Ok(());
        }
        let due = self.clock.now() + cost;
        {
            let mut lanes = self.lanes.lock();
            if let Some(lane) = lanes.get_mut(&addr) {
                lane.push_back(InFlight { env, due });
                return Ok(());
            }
            lanes.insert(addr.clone(), VecDeque::from([InFlight { env, due }]));
        }
        let lanes = self.lanes.clone();
        let registry = self.registry.clone();
        let metrics = self.metrics.clone();
        let clock = self.clock.clone();
        self.pool.execute(move || loop {
            let next = {
                let mut lanes = lanes.lock();
                let lane = lanes.get_mut(&addr).expect("a lane outlives its drainer");
                match lane.pop_front() {
                    Some(next) => next,
                    None => {
                        lanes.remove(&addr);
                        return;
                    }
                }
            };
            clock.sleep(next.due.since(clock.now()));
            deliver(&registry, &metrics, &addr, next.env);
        });
        Ok(())
    }

    /// Record one modeled transfer: the aggregate histogram plus the
    /// per-authority breakdown ([`modeled_metric_name`]) that lets a
    /// feedback policy see which machine's link is slow. The breakdown
    /// rides a bounded [`HistogramFamily`]: the first
    /// [`MODELED_AUTHORITY_CAP`] authorities get their own histogram
    /// (cached handles — no per-transfer name formatting), the rest
    /// share the `other` overflow.
    fn record_modeled(&self, to: &str, cost: Duration) {
        self.obs_modeled.record_duration(cost);
        if self.obs_registry.is_enabled() {
            if let Some(u) = Uri::parse(to) {
                let h = if u.authority.bytes().any(|b| b.is_ascii_uppercase()) {
                    self.obs_modeled_by_auth
                        .histogram(&u.authority.to_ascii_lowercase())
                } else {
                    self.obs_modeled_by_auth.histogram(&u.authority)
                };
                h.record_duration(cost);
            }
        }
    }

    /// Charge a modeled duration to the caller.
    fn charge(&self, cost: Duration) {
        if !cost.is_zero() && !self.clock.is_manual() {
            self.clock.sleep(cost);
        }
    }
}

/// Hand a deferred one-way to whatever endpoint holds `addr` now.
fn deliver(
    registry: &RwLock<HashMap<String, Arc<dyn Endpoint>>>,
    metrics: &NetMetrics,
    addr: &str,
    env: Envelope,
) {
    let found = registry.read().get(addr).cloned();
    match found {
        Some(ep) => {
            ep.handle(env);
        }
        None => {
            metrics.undeliverable.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn normalize(address: &str) -> String {
    address.trim_end_matches('/').to_ascii_lowercase()
}

/// True when [`normalize`] would return `address` unchanged, so the
/// lookup can probe the map without allocating.
fn is_normalized(address: &str) -> bool {
    !address.ends_with('/') && !address.bytes().any(|b| b.is_ascii_uppercase())
}

/// Max distinct authorities holding their own modeled-transfer
/// histogram; the rest share `transport.inproc.modeled.other_ns`.
pub const MODELED_AUTHORITY_CAP: usize = 64;

/// Metric name of the per-authority modeled-transfer histogram, e.g.
/// `transport.inproc.modeled.machine01_ns`. Feedback-aware schedulers
/// read these to learn which links are slow. Only the first
/// [`MODELED_AUTHORITY_CAP`] authorities get their own series; past
/// the cap the name resolves to an empty histogram and the samples
/// live in the shared overflow.
pub fn modeled_metric_name(authority: &str) -> String {
    format!(
        "transport.inproc.modeled.{}_ns",
        authority.to_ascii_lowercase()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::FnEndpoint;
    use wsrf_xml::Element;

    fn echo() -> Arc<dyn Endpoint> {
        Arc::new(FnEndpoint::new("echo", Some))
    }

    fn ping() -> Envelope {
        Envelope::new(Element::local("Ping"))
    }

    #[test]
    fn call_routes_to_registered_endpoint() {
        let net = InProcNetwork::new(Clock::manual());
        net.register("inproc://m1/Echo", echo());
        let resp = net.call("inproc://m1/Echo", ping()).unwrap();
        assert_eq!(resp, ping());
        let (calls, oneways, bytes, _) = net.metrics.snapshot();
        assert_eq!((calls, oneways), (1, 0));
        assert!(bytes > 0);
    }

    #[test]
    fn modeled_per_authority_histograms_are_bounded() {
        let reg = MetricsRegistry::enabled();
        let net = InProcNetwork::with_metrics(Clock::manual(), NetConfig::default(), &reg);
        // Twice the cap of distinct authorities (every client id is
        // one in real runs) must not mint twice the cap of metrics.
        for i in 0..(MODELED_AUTHORITY_CAP * 2) {
            let addr = format!("inproc://auth{i:03}/Echo");
            net.register(&addr, echo());
            net.call(&addr, ping()).unwrap();
        }
        let snap = reg.snapshot();
        let per_auth = snap
            .entries
            .iter()
            .filter(|(n, _)| n.starts_with("transport.inproc.modeled."))
            .count();
        // cap named series + the shared overflow.
        assert_eq!(per_auth, MODELED_AUTHORITY_CAP + 1);
        // In-cap authorities keep the modeled_metric_name contract the
        // feedback policy reads through (2 samples: request + response).
        assert_eq!(
            snap.histogram(&modeled_metric_name("auth000"))
                .unwrap()
                .count,
            2
        );
        // The long tail lands in the overflow, none of it lost.
        assert_eq!(
            snap.histogram("transport.inproc.modeled.other_ns")
                .unwrap()
                .count,
            2 * MODELED_AUTHORITY_CAP as u64
        );
        assert!(snap
            .histogram(&modeled_metric_name(&format!(
                "auth{:03}",
                MODELED_AUTHORITY_CAP + 1
            )))
            .is_none());
    }

    #[test]
    fn unknown_address_is_no_route() {
        let net = InProcNetwork::new(Clock::manual());
        assert_eq!(
            net.call("inproc://nowhere/X", ping()),
            Err(TransportError::NoRoute("inproc://nowhere/X".into()))
        );
        assert_eq!(
            net.send_oneway("inproc://nowhere/X", ping()),
            Err(TransportError::NoRoute("inproc://nowhere/X".into()))
        );
    }

    #[test]
    fn addresses_are_case_insensitive_and_slash_tolerant() {
        let net = InProcNetwork::new(Clock::manual());
        net.register("inproc://M1/Echo/", echo());
        assert!(net.call("INPROC://m1/echo", ping()).is_ok());
    }

    #[test]
    fn unregister_removes_route() {
        let net = InProcNetwork::new(Clock::manual());
        net.register("inproc://m1/Echo", echo());
        assert!(net.unregister("inproc://m1/Echo"));
        assert!(!net.unregister("inproc://m1/Echo"));
        assert!(matches!(
            net.call("inproc://m1/Echo", ping()),
            Err(TransportError::NoRoute(_))
        ));
    }

    #[test]
    fn oneway_with_zero_cost_delivers_inline_on_manual_clock() {
        use std::sync::atomic::AtomicUsize;
        let net = InProcNetwork::new(Clock::manual());
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        net.register(
            "inproc://m1/Sink",
            Arc::new(FnEndpoint::new("sink", move |_| {
                h.fetch_add(1, Ordering::SeqCst);
                None
            })),
        );
        net.send_oneway("inproc://m1/Sink", ping()).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn oneway_with_modeled_cost_waits_for_advance() {
        use std::sync::atomic::AtomicUsize;
        let clock = Clock::manual();
        let cfg = NetConfig {
            default: crate::netsim::LinkProfile {
                latency: Duration::from_millis(10),
                bandwidth_bps: u64::MAX,
                overhead_bytes: 0,
                inflation: 1.0,
            },
            ..NetConfig::default()
        };
        let net = InProcNetwork::with_config(clock.clone(), cfg);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        net.register(
            "inproc://m1/Sink",
            Arc::new(FnEndpoint::new("sink", move |_| {
                h.fetch_add(1, Ordering::SeqCst);
                None
            })),
        );
        net.send_oneway("inproc://m1/Sink", ping()).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 0, "not yet delivered");
        clock.advance(Duration::from_millis(10));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scheduled_oneway_delivers_to_rebound_endpoint_not_stale_one() {
        // A container that restarts between a message being "on the
        // wire" and arriving must receive it at its new endpoint; a
        // vanished one must count as undeliverable, not deliver to the
        // stale registration.
        use std::sync::atomic::AtomicUsize;
        let clock = Clock::manual();
        let cfg = NetConfig {
            default: crate::netsim::LinkProfile {
                latency: Duration::from_millis(10),
                bandwidth_bps: u64::MAX,
                overhead_bytes: 0,
                inflation: 1.0,
            },
            ..NetConfig::default()
        };
        let net = InProcNetwork::with_config(clock.clone(), cfg);
        let old_hits = Arc::new(AtomicUsize::new(0));
        let new_hits = Arc::new(AtomicUsize::new(0));
        let (o, n) = (old_hits.clone(), new_hits.clone());
        net.register(
            "inproc://m1/Sink",
            Arc::new(FnEndpoint::new("old", move |_| {
                o.fetch_add(1, Ordering::SeqCst);
                None
            })),
        );
        // In flight, then the container restarts (unregister + register).
        net.send_oneway("inproc://m1/Sink", ping()).unwrap();
        net.unregister("inproc://m1/Sink");
        net.register(
            "inproc://m1/Sink",
            Arc::new(FnEndpoint::new("new", move |_| {
                n.fetch_add(1, Ordering::SeqCst);
                None
            })),
        );
        clock.advance(Duration::from_millis(10));
        assert_eq!(old_hits.load(Ordering::SeqCst), 0, "stale endpoint hit");
        assert_eq!(
            new_hits.load(Ordering::SeqCst),
            1,
            "rebound endpoint missed"
        );

        // In flight with no one rebinding: dropped and counted.
        net.send_oneway("inproc://m1/Sink", ping()).unwrap();
        net.unregister("inproc://m1/Sink");
        clock.advance(Duration::from_millis(10));
        assert_eq!(new_hits.load(Ordering::SeqCst), 1);
        assert_eq!(net.metrics.undeliverable.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn endpoint_returning_none_on_call_is_an_error() {
        let net = InProcNetwork::new(Clock::manual());
        net.register(
            "inproc://m1/Sink",
            Arc::new(FnEndpoint::new("sink", |_| None)),
        );
        assert!(matches!(
            net.call("inproc://m1/Sink", ping()),
            Err(TransportError::NoResponse(_))
        ));
    }

    #[test]
    fn modeled_time_accumulates_in_metrics() {
        let clock = Clock::manual();
        let cfg = NetConfig {
            default: crate::netsim::LinkProfile {
                latency: Duration::from_millis(5),
                bandwidth_bps: u64::MAX,
                overhead_bytes: 0,
                inflation: 1.0,
            },
            ..NetConfig::default()
        };
        let net = InProcNetwork::with_config(clock, cfg);
        net.register("inproc://m1/Echo", echo());
        net.call("inproc://m1/Echo", ping()).unwrap();
        let (_, _, _, modeled) = net.metrics.snapshot();
        assert_eq!(modeled, Duration::from_millis(10), "request + response");
    }

    #[test]
    fn scaled_clock_call_experiences_latency() {
        let clock = Clock::scaled(1000.0); // 1 virtual ms = 1 real us
        let cfg = NetConfig {
            default: crate::netsim::LinkProfile {
                latency: Duration::from_secs(1), // 1 virtual s = 1 real ms
                bandwidth_bps: u64::MAX,
                overhead_bytes: 0,
                inflation: 1.0,
            },
            ..NetConfig::default()
        };
        let net = InProcNetwork::with_config(clock, cfg);
        net.register("inproc://m1/Echo", echo());
        let t0 = std::time::Instant::now();
        net.call("inproc://m1/Echo", ping()).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(2),
            "two modeled seconds"
        );
    }
}
