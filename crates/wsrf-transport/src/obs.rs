//! Per-transport observability handles.
//!
//! Each transport owns a [`LinkObs`] created against a deployment's
//! [`MetricsRegistry`]; with the default disabled registry every handle
//! is a no-op, so the hot paths pay only a branch. When the registry
//! carries a live [`Tracer`], [`LinkObs::hop_span`] additionally opens
//! a child span per traced message, so every transport hop shows up in
//! the causal span tree between the sender's and the receiver's spans.

use std::sync::Arc;
use std::time::Instant;

use simclock::Clock;
use wsrf_obs::{
    scoped_parent, ActiveSpan, Counter, Histogram, MetricsRegistry, SpanContext, Tracer,
};
use wsrf_soap::{Envelope, TraceContext};

/// Message/byte counters plus a per-transfer latency histogram for one
/// transport link (`transport.<kind>.*` metric names).
pub struct LinkObs {
    /// Request/response exchanges.
    pub calls: Counter,
    /// One-way messages.
    pub oneways: Counter,
    /// Payload bytes received by this side.
    pub bytes_in: Counter,
    /// Payload bytes sent by this side.
    pub bytes_out: Counter,
    /// Wall-clock time per transfer, nanoseconds.
    pub latency: Histogram,
    /// Wall-clock time spent serializing (or size-passing) envelopes
    /// for the wire, nanoseconds per message.
    pub serialize: Histogram,
    /// Exact serialized envelope bytes produced for the wire (both
    /// directions), as computed by the single render/size pass.
    pub wire_bytes: Counter,
    /// The deployment's tracer (noop unless the registry was built with
    /// tracing enabled).
    pub tracer: Tracer,
    /// Transport kind, used as the span "service" for hop spans
    /// (interned so hop spans record without allocating it).
    kind: Arc<str>,
}

impl LinkObs {
    pub fn new(registry: &MetricsRegistry, kind: &str) -> Self {
        let p = format!("transport.{kind}");
        LinkObs {
            calls: registry.counter(&format!("{p}.calls")),
            oneways: registry.counter(&format!("{p}.oneways")),
            bytes_in: registry.counter(&format!("{p}.bytes_in")),
            bytes_out: registry.counter(&format!("{p}.bytes_out")),
            latency: registry.histogram(&format!("{p}.latency_ns")),
            serialize: registry.histogram(&format!("{p}.serialize_ns")),
            wire_bytes: registry.counter(&format!("{p}.wire_bytes")),
            tracer: registry.tracer().clone(),
            kind: kind.into(),
        }
    }

    /// Open a transport-hop span as a child of the trace context in
    /// `env`'s headers, re-stamping the envelope with the hop's own
    /// context so the receiver parents under the hop. Returns `None`
    /// (and leaves `env` untouched) when the tracer is disabled or the
    /// message carries no trace header — transports never start traces,
    /// they only extend them.
    pub fn hop_span(&self, env: &mut Envelope, name: &str, clock: &Clock) -> Option<ActiveSpan> {
        if !self.tracer.is_enabled() {
            return None;
        }
        let span = self.hop(TraceContext::from_envelope(env)?, name, clock);
        if span.is_recording() {
            let c = span.context();
            TraceContext::new(c.trace_id, c.span_id, c.sampled).stamp(env);
        }
        Some(span)
    }

    /// Open a transport-hop span under the header context `tc`, or
    /// under the hop span a socket server has offered this thread for
    /// the same trace ([`wsrf_obs::with_scoped_parent`]): a message a
    /// socket request relays in process nests under the socket hop.
    pub(crate) fn hop(&self, tc: TraceContext, name: &str, clock: &Clock) -> ActiveSpan {
        let parent = scoped_parent(SpanContext {
            trace_id: tc.trace_id,
            span_id: tc.span_id,
            sampled: tc.sampled,
        });
        self.tracer
            .start_child(parent, name, self.kind.clone(), clock)
    }

    /// Record one wire serialization (or exact-size pass): the bytes it
    /// produced and the wall-clock time it took.
    pub fn record_serialize(&self, bytes: u64, started: Instant) {
        self.wire_bytes.add(bytes);
        self.serialize.record_duration(started.elapsed());
    }

    /// Record one completed exchange.
    pub fn record_call(&self, bytes_in: u64, bytes_out: u64, started: Instant) {
        self.calls.inc();
        self.bytes_in.add(bytes_in);
        self.bytes_out.add(bytes_out);
        self.latency.record_duration(started.elapsed());
    }

    /// Record one accepted one-way message.
    pub fn record_oneway(&self, bytes: u64, started: Instant) {
        self.oneways.inc();
        self.bytes_in.add(bytes);
        self.latency.record_duration(started.elapsed());
    }
}
