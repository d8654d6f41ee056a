//! Socket plumbing: each hosted endpoint sits behind a span-recording
//! [`Hosted`] wrapper on a real server, and its address on the grid's
//! `InProcNetwork` is taken over by a [`Relay`] (`soap.tcp` frames) or
//! an [`HttpRelay`] (the client → Scheduler edge).
//!
//! A relay checks a connection out of its pool for the length of one
//! exchange, so nested hops never share a connection, and returns it
//! afterwards, so a grid opens only as many connections per address as
//! it ever has exchanges in flight to it. (A connection per calling
//! thread and address would open hundreds per grid: every server
//! thread opens its own, and the closed ones pile up in `TIME_WAIT`
//! until connects slow down.) A relay sends one-way messages as call
//! frames: the one-way has then been handled before its sender
//! returns, which is what the in-process network does on a manual
//! clock. Without that, virtual time would race real time.
//!
//! Tracing links a server thread's spans to the calling thread's: a
//! relay hands its thread context to the target wrapper's offer slot
//! just before each exchange (a grid runs one exchange at a time, so
//! the slot is never contended), and a connection owned by one thread
//! introduces that thread once with a hello frame (see [`connect`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wsrf_soap::ns;
use wsrf_soap::{Envelope, SoapFault};
use wsrf_transport::http::http_call;
use wsrf_transport::tcpframe::FramedClient;
use wsrf_transport::{Endpoint, TransportError};
use wsrf_xml::Element;

use crate::affinity;
use crate::trace::{self, ThreadCtx};

/// What a wrapper or relay fronts. Only the broker needs telling
/// apart: a `Notify` into it is a publish, while the `Notify` it sends
/// on to a listener is a delivery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Broker,
    Other,
}

/// Process-wide counters at the layer boundaries. The error counter
/// always runs; the others only while tracing is on.
pub struct Counters {
    pub relay_errors: AtomicU64,
    /// Fault responses.
    pub faults: AtomicU64,
    /// `Notify` messages sent to the broker.
    pub publishes: AtomicU64,
    /// Messages carrying a `wsse:Security` header.
    pub tokens: AtomicU64,
}

pub static COUNTERS: Counters = Counters {
    relay_errors: AtomicU64::new(0),
    faults: AtomicU64::new(0),
    publishes: AtomicU64::new(0),
    tokens: AtomicU64::new(0),
};

static MEASURING: AtomicBool = AtomicBool::new(false);
static EXCHANGES: Mutex<Vec<f64>> = Mutex::new(Vec::new());
static WIRES: Mutex<Vec<String>> = Mutex::new(Vec::new());
static SEEN: AtomicU64 = AtomicU64::new(0);

/// Request wires kept for the XML/SOAP replays.
const WIRE_CAP: usize = 512;

/// Start or stop collecting exchange latencies (the timed window).
pub fn set_measuring(on: bool) {
    MEASURING.store(on, Ordering::SeqCst);
}

/// Record one exchange as seen by its caller, when measuring.
pub fn record_exchange(started: Instant) {
    if MEASURING.load(Ordering::Relaxed) {
        let us = started.elapsed().as_nanos() as f64 / 1e3;
        EXCHANGES.lock().expect("exchange log poisoned").push(us);
    }
}

/// Take the exchange latencies (µs) recorded so far.
pub fn take_exchanges() -> Vec<f64> {
    std::mem::take(&mut *EXCHANGES.lock().expect("exchange log poisoned"))
}

/// Take the captured request wires.
pub fn take_wires() -> Vec<String> {
    SEEN.store(0, Ordering::Relaxed);
    std::mem::take(&mut *WIRES.lock().expect("wire log poisoned"))
}

fn action(env: &Envelope) -> String {
    env.header(ns::WSA, "Action")
        .map(|a| a.text_content())
        .unwrap_or_default()
}

/// Traced-run bookkeeping for a request crossing into `kind`: WS-Security
/// tokens carried, notifications published, and (for socket hops) a
/// sample of request wires, kept with reservoir sampling so the
/// replays see the whole run.
pub fn observe_request(env: &Envelope, kind: Kind, capture: bool) {
    if env.header(ns::WSSE, "Security").is_some() {
        COUNTERS.tokens.fetch_add(1, Ordering::Relaxed);
    }
    if kind == Kind::Broker && action(env).ends_with("/Notify") {
        COUNTERS.publishes.fetch_add(1, Ordering::Relaxed);
    }
    if capture {
        let n = SEEN.fetch_add(1, Ordering::Relaxed) as usize;
        let mut wires = WIRES.lock().expect("wire log poisoned");
        if wires.len() < WIRE_CAP {
            wires.push(env.to_xml());
        } else {
            let j = (crate::rng::mix(n as u64) % (n as u64 + 1)) as usize;
            if j < WIRE_CAP {
                wires[j] = env.to_xml();
            }
        }
    }
}

/// Traced-run bookkeeping for a response: fault responses.
pub fn observe_response(resp: &Envelope) {
    if resp.is_fault() {
        COUNTERS.faults.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Connection hello: tells the server thread which thread calls it and,
// optionally, which CPU to share with that thread.
// ---------------------------------------------------------------------

const HELLO_MARK: &str = "fig3bench-hello:";

fn hello(token: u64, cpu: Option<usize>) -> Envelope {
    let cpu = cpu.map_or(String::new(), |c| format!("/{c}"));
    Envelope::new(Element::new("urn:fig3bench", "Hello").text(format!("{HELLO_MARK}{token}{cpu}")))
}

/// The caller token and CPU in a hello frame, if `wire` is one.
fn hello_token(wire: &str) -> Option<(u64, Option<usize>)> {
    if wire.len() > 512 {
        return None;
    }
    let at = wire.find(HELLO_MARK)? + HELLO_MARK.len();
    let number = |s: &str| -> String { s.chars().take_while(char::is_ascii_digit).collect() };
    let digits = number(&wire[at..]);
    let token = digits.parse().ok()?;
    let rest = &wire[at + digits.len()..];
    let cpu = rest.strip_prefix('/').and_then(|r| number(r).parse().ok());
    Some((token, cpu))
}

/// Open a `soap.tcp` connection owned by the calling thread and
/// introduce that thread to the server. With `cpu`, the calling thread
/// and the server thread that answers the connection are both pinned
/// to that CPU.
pub fn connect(authority: &str, cpu: Option<usize>) -> Result<FramedClient, TransportError> {
    if let Some(cpu) = cpu {
        affinity::pin_current(cpu);
    }
    let client = FramedClient::connect(authority)?;
    match client.call(&hello(trace::current_ctx().token(), cpu)) {
        Ok(_) | Err(TransportError::NoResponse(_)) => Ok(client),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------

/// Where a relay leaves its thread context for the server thread.
pub type Offer = Mutex<Option<Arc<ThreadCtx>>>;

fn offer(slot: &Offer) {
    *slot.lock().expect("offer slot poisoned") = Some(trace::current_ctx());
}

/// Server-side wrapper around one endpoint: a span named after its
/// layer around every message it handles. Sockets reach it through
/// `handle_wire`; only the in-process network calls `handle`, and
/// there the wrapper is the caller's view of the exchange.
pub struct Hosted {
    inner: Arc<dyn Endpoint>,
    layer: &'static str,
    kind: Kind,
    /// Caller handed over by the relay in front of this wrapper.
    offered: Arc<Offer>,
}

impl Hosted {
    pub fn new(inner: Arc<dyn Endpoint>, layer: &'static str, kind: Kind) -> Arc<Self> {
        Arc::new(Hosted {
            inner,
            layer,
            kind,
            offered: Arc::new(Mutex::new(None)),
        })
    }

    /// The slot a relay hands its caller through.
    pub fn offer_slot(&self) -> Arc<Offer> {
        self.offered.clone()
    }
}

impl Endpoint for Hosted {
    fn handle(&self, env: Envelope) -> Option<Envelope> {
        let started = Instant::now();
        let traced = trace::enabled();
        if traced {
            observe_request(&env, self.kind, false);
        }
        let span = trace::span(self.layer);
        let resp = self.inner.handle(env);
        drop(span);
        record_exchange(started);
        if let (true, Some(r)) = (traced, &resp) {
            observe_response(r);
        }
        resp
    }

    fn handle_wire(&self, wire: &str) -> Option<Envelope> {
        if let Some((token, cpu)) = hello_token(wire) {
            if let Some(ctx) = trace::ctx_by_token(token) {
                trace::set_caller(ctx);
            }
            if let Some(cpu) = cpu {
                affinity::pin_current(cpu);
            }
            return None;
        }
        if trace::enabled() {
            if let Some(ctx) = self.offered.lock().expect("offer slot poisoned").take() {
                trace::set_caller(ctx);
            }
        }
        let _span = trace::span(self.layer);
        self.inner.handle_wire(wire)
    }

    fn name(&self) -> &str {
        self.layer
    }
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

fn relay_failure(to: &str, e: TransportError) -> Option<Envelope> {
    COUNTERS.relay_errors.fetch_add(1, Ordering::Relaxed);
    Some(SoapFault::server(format!("relay to {to} failed: {e}")).to_envelope())
}

/// Forwards every message for one address over `soap.tcp`.
pub struct Relay {
    authority: String,
    kind: Kind,
    idle: Mutex<Vec<FramedClient>>,
    target: Arc<Offer>,
}

impl Relay {
    pub fn new(authority: String, kind: Kind, target: Arc<Offer>) -> Arc<Self> {
        Arc::new(Relay {
            authority,
            kind,
            idle: Mutex::new(Vec::new()),
            target,
        })
    }

    fn exchange(&self, env: &Envelope) -> Result<Envelope, TransportError> {
        let idle = self.idle.lock().expect("relay pool poisoned").pop();
        let conn = match idle {
            Some(c) => c,
            None => FramedClient::connect(&self.authority)?,
        };
        let result = conn.call(env);
        if matches!(result, Ok(_) | Err(TransportError::NoResponse(_))) {
            self.idle.lock().expect("relay pool poisoned").push(conn);
        }
        result
    }

    /// Close every idle connection, which ends the server threads
    /// serving them.
    pub fn close(&self) {
        self.idle.lock().expect("relay pool poisoned").clear();
    }
}

impl Endpoint for Relay {
    fn handle(&self, env: Envelope) -> Option<Envelope> {
        let traced = trace::enabled();
        if traced {
            observe_request(&env, self.kind, true);
            offer(&self.target);
        }
        let started = Instant::now();
        let span = trace::span("wsrf-transport.relay");
        let result = self.exchange(&env);
        drop(span);
        record_exchange(started);
        match result {
            Ok(resp) => {
                if traced {
                    observe_response(&resp);
                }
                Some(resp)
            }
            Err(TransportError::NoResponse(_)) => None,
            Err(e) => relay_failure(&self.authority, e),
        }
    }

    fn name(&self) -> &str {
        "relay"
    }
}

/// Forwards every message for one address as an HTTP POST.
pub struct HttpRelay {
    authority: String,
    path: String,
    target: Arc<Offer>,
}

impl HttpRelay {
    pub fn new(authority: String, path: &str, target: Arc<Offer>) -> Arc<Self> {
        Arc::new(HttpRelay {
            authority,
            path: path.to_string(),
            target,
        })
    }
}

impl Endpoint for HttpRelay {
    fn handle(&self, env: Envelope) -> Option<Envelope> {
        let traced = trace::enabled();
        if traced {
            observe_request(&env, Kind::Other, true);
            offer(&self.target);
        }
        let started = Instant::now();
        let span = trace::span("wsrf-transport.relay");
        let result = http_call(&self.authority, &self.path, &env);
        drop(span);
        record_exchange(started);
        match result {
            Ok(resp) => {
                if traced {
                    observe_response(&resp);
                }
                Some(resp)
            }
            Err(e) => relay_failure(&self.authority, e),
        }
    }

    fn name(&self) -> &str {
        "http-relay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrf_transport::tcpframe::FramedServer;
    use wsrf_transport::FnEndpoint;

    #[test]
    fn hello_tokens_round_trip_and_ordinary_wires_are_not_hellos() {
        assert_eq!(hello_token(&hello(42, None).to_xml()), Some((42, None)));
        assert_eq!(hello_token(&hello(7, Some(3)).to_xml()), Some((7, Some(3))));
        let plain = Envelope::new(Element::new("urn:x", "Ping").text("fig3bench")).to_xml();
        assert_eq!(hello_token(&plain), None);
    }

    #[test]
    fn relay_returns_what_the_endpoint_returns() {
        let echo: Arc<dyn Endpoint> = Arc::new(FnEndpoint::new("echo", |env: Envelope| {
            (env.body.name.local != "Oneway").then_some(env)
        }));
        let hosted = Hosted::new(echo.clone(), "echo", Kind::Other);
        let relay_offer = hosted.offer_slot();
        let server = FramedServer::start(hosted).unwrap();
        let relay = Relay::new(server.authority(), Kind::Other, relay_offer);
        for i in 0..5 {
            let req = Envelope::new(Element::new("urn:x", "Ping").attr("i", i.to_string()));
            assert_eq!(relay.handle(req.clone()), echo.handle(req));
        }
        let oneway = Envelope::new(Element::new("urn:x", "Oneway"));
        assert_eq!(relay.handle(oneway.clone()), echo.handle(oneway));
        relay.close();
    }

    #[test]
    fn relay_errors_become_faults_not_panics() {
        let relay = Relay::new("127.0.0.1:1".into(), Kind::Other, Arc::default());
        let before = COUNTERS.relay_errors.load(Ordering::Relaxed);
        let resp = relay.handle(Envelope::new(Element::new("urn:x", "Ping")));
        assert!(resp.expect("a fault envelope").is_fault());
        assert!(COUNTERS.relay_errors.load(Ordering::Relaxed) > before);
    }
}
