//! Distributed tracing for the WSRF testbed.
//!
//! A [`Tracer`] hands out causal spans: every dispatched operation,
//! transport hop and notification fan-out opens a child span under the
//! context carried in the incoming SOAP message, so one job-set
//! submission yields one connected span tree covering every service it
//! touched (the Figure 3 sequence end-to-end).
//!
//! Design follows the metrics registry's rules:
//!
//! 1. **Opt-out is free.** A disabled tracer is an `Option::None`; every
//!    call is a branch and the `ActiveSpan` guards it returns read no
//!    clocks and allocate nothing.
//! 2. **Sampling is decided at the root.** `sample_every = n` records
//!    every n-th trace; unsampled traces still propagate their ids (so
//!    the header format stays stable) but record nothing anywhere.
//! 3. **Finished spans land in a bounded ring.** One short mutex-guarded
//!    push per finished span; when the ring is full the oldest span is
//!    dropped (and counted) rather than blocking or growing.
//!
//! Spans carry both time bases, like [`crate::Timer`]: virtual
//! nanoseconds from [`simclock::Clock`] (what the simulation says
//! happened) and real nanoseconds (what the host spent).

use std::cell::Cell;
use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use simclock::Clock;

use crate::{Counter, MetricsRegistry};

/// Whether (and how much) a [`Tracer`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    enabled: bool,
    sample_every: u64,
    capacity: usize,
}

impl TraceConfig {
    /// Tracing on, every trace sampled, default ring capacity.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            sample_every: 1,
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// Tracing off (the default): spans cost a branch, nothing more.
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            sample_every: 1,
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// Record only every n-th root trace (children inherit the root's
    /// decision). `0` is treated as `1`.
    pub fn with_sample_every(mut self, n: u64) -> Self {
        self.sample_every = n.max(1);
        self
    }

    /// Bound on retained finished spans.
    pub fn with_capacity(mut self, spans: usize) -> Self {
        self.capacity = spans.max(1);
        self
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

/// Default bound on the finished-span ring.
pub const DEFAULT_CAPACITY: usize = 4096;

/// The propagated identity of a span: what travels in the SOAP header.
///
/// `trace_id == 0` means "no trace" — the zero context propagates
/// nothing and records nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    pub trace_id: u64,
    pub span_id: u64,
    pub sampled: bool,
}

impl SpanContext {
    /// The absent context.
    pub fn none() -> Self {
        SpanContext {
            trace_id: 0,
            span_id: 0,
            sampled: false,
        }
    }

    /// Whether this context identifies a real trace.
    pub fn is_active(&self) -> bool {
        self.trace_id != 0
    }
}

/// A completed span with its causal link.
///
/// Names and services are `Arc<str>` so hot callers (the container
/// keeps one interned name per operation) record spans without
/// allocating; annotation keys are `&'static str` for the same reason.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedSpan {
    pub trace_id: u64,
    pub span_id: u64,
    /// Parent span id within the same trace; `0` for roots.
    pub parent_id: u64,
    pub name: Arc<str>,
    /// The service (or transport) that ran the span.
    pub service: Arc<str>,
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
    pub real_ns: u64,
    pub annotations: Vec<(&'static str, String)>,
}

struct TracerInner {
    sample_every: u64,
    capacity: usize,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    ring: Mutex<VecDeque<FinishedSpan>>,
    traces_started: Counter,
    spans_finished: Counter,
    spans_dropped: Counter,
}

impl TracerInner {
    fn push(&self, span: FinishedSpan) {
        let mut ring = self.ring.lock();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.spans_dropped.inc();
        }
        ring.push_back(span);
        drop(ring);
        self.spans_finished.inc();
    }
}

/// Hands out spans and retains the finished ones. Cloning shares the
/// ring; a disabled tracer is `None` inside and free to call.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// The disabled tracer.
    pub fn noop() -> Self {
        Tracer { inner: None }
    }

    /// Build a tracer; its `trace.*` counters register in `metrics`
    /// (no-ops when that registry is disabled).
    pub fn new(config: TraceConfig, metrics: &MetricsRegistry) -> Self {
        if !config.is_enabled() {
            return Tracer::noop();
        }
        Tracer {
            inner: Some(Arc::new(TracerInner {
                sample_every: config.sample_every.max(1),
                capacity: config.capacity.max(1),
                next_trace: AtomicU64::new(1),
                next_span: AtomicU64::new(1),
                ring: Mutex::new(VecDeque::new()),
                traces_started: metrics.counter("trace.traces_started"),
                spans_finished: metrics.counter("trace.spans_finished"),
                spans_dropped: metrics.counter("trace.spans_dropped"),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start a new trace. Applies the sampling decision; an unsampled
    /// root still gets a trace id (so propagation stays coherent) but
    /// neither it nor any descendant records.
    pub fn start_root(
        &self,
        name: impl Into<Arc<str>>,
        service: impl Into<Arc<str>>,
        clock: &Clock,
    ) -> ActiveSpan {
        let Some(inner) = &self.inner else {
            return ActiveSpan {
                rec: None,
                ctx: SpanContext::none(),
            };
        };
        let trace_id = inner.next_trace.fetch_add(1, Ordering::Relaxed);
        inner.traces_started.inc();
        // The trace id doubles as the sampling tick (ids start at 1,
        // so the very first trace is always sampled).
        if (trace_id - 1) % inner.sample_every != 0 {
            return ActiveSpan {
                rec: None,
                ctx: SpanContext {
                    trace_id,
                    span_id: 0,
                    sampled: false,
                },
            };
        }
        let span_id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        ActiveSpan {
            rec: Some(Recording {
                inner: inner.clone(),
                parent_id: 0,
                name: name.into(),
                service: service.into(),
                clock: clock.clone(),
                virt_start_ns: clock.now().as_nanos(),
                real_start: Instant::now(),
                annotations: Vec::new(),
            }),
            ctx: SpanContext {
                trace_id,
                span_id,
                sampled: true,
            },
        }
    }

    /// Open a child of `parent`. When the tracer is disabled or the
    /// parent is unsampled/absent, the guard is a pass-through: it
    /// records nothing and its context is the parent's, so downstream
    /// propagation keeps working unchanged.
    pub fn start_child(
        &self,
        parent: SpanContext,
        name: impl Into<Arc<str>>,
        service: impl Into<Arc<str>>,
        clock: &Clock,
    ) -> ActiveSpan {
        let Some(inner) = &self.inner else {
            return ActiveSpan {
                rec: None,
                ctx: parent,
            };
        };
        if !parent.sampled || !parent.is_active() {
            return ActiveSpan {
                rec: None,
                ctx: parent,
            };
        }
        let span_id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        ActiveSpan {
            rec: Some(Recording {
                inner: inner.clone(),
                parent_id: parent.span_id,
                name: name.into(),
                service: service.into(),
                clock: clock.clone(),
                virt_start_ns: clock.now().as_nanos(),
                real_start: Instant::now(),
                annotations: Vec::new(),
            }),
            ctx: SpanContext {
                trace_id: parent.trace_id,
                span_id,
                sampled: true,
            },
        }
    }

    /// Record an instantaneous event span at virtual time `virt_ns`
    /// (the scheduler's Figure 3 step marks). Returns the span id, or
    /// `0` when not recorded.
    pub fn point(
        &self,
        parent: SpanContext,
        name: impl Into<Arc<str>>,
        service: impl Into<Arc<str>>,
        virt_ns: u64,
        annotations: &[(&'static str, &str)],
    ) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        if !parent.sampled || !parent.is_active() {
            return 0;
        }
        let span_id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        inner.push(FinishedSpan {
            trace_id: parent.trace_id,
            span_id,
            parent_id: parent.span_id,
            name: name.into(),
            service: service.into(),
            virt_start_ns: virt_ns,
            virt_end_ns: virt_ns,
            real_ns: 0,
            annotations: annotations
                .iter()
                .map(|&(k, v)| (k, v.to_string()))
                .collect(),
        });
        span_id
    }

    /// All retained finished spans, oldest first.
    pub fn snapshot(&self) -> TraceSnapshot {
        let spans = match &self.inner {
            Some(inner) => inner.ring.lock().iter().cloned().collect(),
            None => Vec::new(),
        };
        TraceSnapshot { spans }
    }

    /// The retained spans of one trace.
    pub fn trace(&self, trace_id: u64) -> TraceSnapshot {
        let spans = match &self.inner {
            Some(inner) => inner
                .ring
                .lock()
                .iter()
                .filter(|s| s.trace_id == trace_id)
                .cloned()
                .collect(),
            None => Vec::new(),
        };
        TraceSnapshot { spans }
    }
}

struct Recording {
    inner: Arc<TracerInner>,
    parent_id: u64,
    name: Arc<str>,
    service: Arc<str>,
    clock: Clock,
    virt_start_ns: u64,
    real_start: Instant,
    annotations: Vec<(&'static str, String)>,
}

/// Guard for an in-flight span; finishes (and records, if sampled) on
/// drop.
pub struct ActiveSpan {
    rec: Option<Recording>,
    ctx: SpanContext,
}

impl ActiveSpan {
    /// The context to stamp onto outgoing messages.
    pub fn context(&self) -> SpanContext {
        self.ctx
    }

    /// Whether this guard will record a span.
    pub fn is_recording(&self) -> bool {
        self.rec.is_some()
    }

    /// Attach a key=value annotation (no-op when unsampled).
    pub fn annotate(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(rec) = &mut self.rec {
            rec.annotations.push((key, value.into()));
        }
    }

    /// Explicit end (equivalent to dropping).
    pub fn finish(self) {}
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        if let Some(rec) = self.rec.take() {
            let virt_end_ns = rec.clock.now().as_nanos();
            let real_ns = rec.real_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            rec.inner.push(FinishedSpan {
                trace_id: self.ctx.trace_id,
                span_id: self.ctx.span_id,
                parent_id: rec.parent_id,
                name: rec.name,
                service: rec.service,
                virt_start_ns: rec.virt_start_ns,
                virt_end_ns,
                real_ns,
                annotations: rec.annotations,
            });
        }
    }
}

thread_local! {
    static SCOPED_PARENT: Cell<Option<SpanContext>> = const { Cell::new(None) };
}

/// Run `f` with `parent` offered as the parent of the first span
/// opened on this thread in the same trace (see [`scoped_parent`]).
/// A socket server uses this to slot its hop span between the caller's
/// header and the dispatch it runs, without re-stamping the request.
/// The offer is withdrawn when `f` returns, taken or not.
pub fn with_scoped_parent<R>(parent: SpanContext, f: impl FnOnce() -> R) -> R {
    SCOPED_PARENT.with(|c| c.set(Some(parent)));
    let out = f();
    SCOPED_PARENT.with(|c| c.set(None));
    out
}

/// The parent for a span whose incoming header says `header`: this
/// thread's offered parent if it belongs to the same trace, else the
/// header itself. Taking consumes the offer, so spans opened later in
/// the same request (a nested dispatch) parent under their own caller.
pub fn scoped_parent(header: SpanContext) -> SpanContext {
    SCOPED_PARENT.with(|c| match c.get() {
        Some(p) if p.trace_id == header.trace_id => {
            c.set(None);
            p
        }
        _ => header,
    })
}

/// A point-in-time copy of finished spans, renderable as a text tree
/// or JSON (mirrors [`crate::MetricsSnapshot`]).
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    pub spans: Vec<FinishedSpan>,
}

impl TraceSnapshot {
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans whose parent is absent from this snapshot (includes true
    /// roots with `parent_id == 0`).
    pub fn roots(&self) -> Vec<&FinishedSpan> {
        let ids: HashSet<u64> = self.spans.iter().map(|s| s.span_id).collect();
        let mut roots: Vec<&FinishedSpan> = self
            .spans
            .iter()
            .filter(|s| s.parent_id == 0 || !ids.contains(&s.parent_id))
            .collect();
        roots.sort_by_key(|s| (s.trace_id, s.virt_start_ns, s.span_id));
        roots
    }

    /// Direct children of `parent_id`, in virtual-time order.
    pub fn children(&self, parent_id: u64) -> Vec<&FinishedSpan> {
        let mut kids: Vec<&FinishedSpan> = self
            .spans
            .iter()
            .filter(|s| s.parent_id == parent_id && s.span_id != parent_id)
            .collect();
        kids.sort_by_key(|s| (s.virt_start_ns, s.span_id));
        kids
    }

    /// First span with the given name.
    pub fn find(&self, name: &str) -> Option<&FinishedSpan> {
        self.spans.iter().find(|s| &*s.name == name)
    }

    /// Indented text tree, one line per span, children under parents in
    /// virtual-time order. Times are relative to each root's start.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for root in self.roots() {
            let _ = writeln!(
                out,
                "trace {:016x} — {} ({} spans)",
                root.trace_id,
                root.name,
                self.spans
                    .iter()
                    .filter(|s| s.trace_id == root.trace_id)
                    .count()
            );
            let mut visited = HashSet::new();
            self.render_span(&mut out, root, root.virt_start_ns, 0, &mut visited);
        }
        out
    }

    fn render_span(
        &self,
        out: &mut String,
        span: &FinishedSpan,
        t0: u64,
        depth: usize,
        visited: &mut HashSet<u64>,
    ) {
        if !visited.insert(span.span_id) {
            return; // defensive: a cyclic parent link must not hang us
        }
        let rel_ms = span.virt_start_ns.saturating_sub(t0) as f64 / 1e6;
        let dur_ms = span.virt_end_ns.saturating_sub(span.virt_start_ns) as f64 / 1e6;
        let mut line = format!(
            "{:indent$}{} [{}] +{rel_ms:.3}ms dur={dur_ms:.3}ms",
            "",
            span.name,
            span.service,
            indent = 2 + depth * 2
        );
        for (k, v) in &span.annotations {
            let _ = write!(line, " {k}={v}");
        }
        let _ = writeln!(out, "{line}");
        for child in self.children(span.span_id) {
            if child.trace_id == span.trace_id {
                self.render_span(out, child, t0, depth + 1, visited);
            }
        }
    }

    /// Minimal JSON encoding (no external deps): an array of span
    /// objects, oldest first.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            let mut ann = String::new();
            for (j, (k, v)) in s.annotations.iter().enumerate() {
                let c = if j + 1 == s.annotations.len() {
                    ""
                } else {
                    ", "
                };
                let _ = write!(ann, "{k:?}: {v:?}{c}");
            }
            let _ = writeln!(
                out,
                "  {{\"trace_id\": \"{:016x}\", \"span_id\": {}, \"parent_id\": {}, \
                 \"name\": {:?}, \"service\": {:?}, \"virt_start_ns\": {}, \
                 \"virt_end_ns\": {}, \"real_ns\": {}, \"annotations\": {{{ann}}}}}{comma}",
                s.trace_id,
                s.span_id,
                s.parent_id,
                s.name,
                s.service,
                s.virt_start_ns,
                s.virt_end_ns,
                s.real_ns
            );
        }
        out.push(']');
        out
    }

    /// Chrome trace-event format (loadable in `chrome://tracing` or
    /// Perfetto): complete (`"ph": "X"`) events on the virtual
    /// timeline, one `tid` lane per service, with span ids and
    /// annotations under `args`. Timestamps are microseconds with
    /// nanosecond fraction.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::new();
        self.write_chrome_into(&mut out);
        out
    }

    /// Sink-generic form of [`TraceSnapshot::to_chrome_json`] — the
    /// exposition endpoint renders straight into its connection buffer.
    pub fn write_chrome_into<S: crate::MetricSink>(&self, sink: &mut S) {
        fn put_us<S: crate::MetricSink>(sink: &mut S, ns: u64) {
            sink.put_u64(ns / 1000);
            let frac = ns % 1000;
            sink.put(".");
            if frac < 100 {
                sink.put("0");
            }
            if frac < 10 {
                sink.put("0");
            }
            sink.put_u64(frac);
        }
        // One tid lane per service, in order of first appearance.
        let mut lanes: Vec<&Arc<str>> = Vec::new();
        for s in &self.spans {
            if !lanes
                .iter()
                .any(|l| Arc::ptr_eq(l, &s.service) || ***l == *s.service)
            {
                lanes.push(&s.service);
            }
        }
        sink.put("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (tid, service) in lanes.iter().enumerate() {
            sink.put("  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": ");
            sink.put_u64(tid as u64);
            sink.put(", \"args\": {\"name\": \"");
            crate::expose::put_json_escaped(sink, service);
            sink.put("\"}},\n");
        }
        for (i, s) in self.spans.iter().enumerate() {
            let tid = lanes.iter().position(|l| ***l == *s.service).unwrap_or(0);
            sink.put("  {\"ph\": \"X\", \"name\": \"");
            crate::expose::put_json_escaped(sink, &s.name);
            sink.put("\", \"cat\": \"");
            crate::expose::put_json_escaped(sink, &s.service);
            sink.put("\", \"pid\": 1, \"tid\": ");
            sink.put_u64(tid as u64);
            sink.put(", \"ts\": ");
            put_us(sink, s.virt_start_ns);
            sink.put(", \"dur\": ");
            put_us(sink, s.virt_end_ns.saturating_sub(s.virt_start_ns));
            sink.put(", \"args\": {\"span_id\": ");
            sink.put_u64(s.span_id);
            sink.put(", \"parent_id\": ");
            sink.put_u64(s.parent_id);
            sink.put(", \"real_ns\": ");
            sink.put_u64(s.real_ns);
            for (k, v) in &s.annotations {
                sink.put(", \"");
                crate::expose::put_json_escaped(sink, k);
                sink.put("\": \"");
                crate::expose::put_json_escaped(sink, v);
                sink.put("\"");
            }
            sink.put("}}");
            if i + 1 != self.spans.len() {
                sink.put(",");
            }
            sink.put("\n");
        }
        sink.put("]}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tracer(cfg: TraceConfig) -> (Tracer, Arc<MetricsRegistry>) {
        let reg = MetricsRegistry::enabled();
        (Tracer::new(cfg, &reg), reg)
    }

    #[test]
    fn disabled_tracer_costs_nothing_and_records_nothing() {
        let (t, reg) = tracer(TraceConfig::disabled());
        let clock = Clock::manual();
        let root = t.start_root("r", "svc", &clock);
        assert!(!root.is_recording());
        assert_eq!(root.context(), SpanContext::none());
        let child = t.start_child(root.context(), "c", "svc", &clock);
        assert!(!child.is_recording());
        drop(child);
        drop(root);
        assert!(t.snapshot().is_empty());
        assert_eq!(reg.snapshot().counter("trace.spans_finished"), None);
    }

    #[test]
    fn span_tree_links_and_time_bases() {
        let (t, reg) = tracer(TraceConfig::enabled());
        let clock = Clock::manual();
        clock.advance(Duration::from_secs(10));
        let mut root = t.start_root("submit", "Client", &clock);
        root.annotate("jobset", "demo");
        let rctx = root.context();
        assert!(rctx.sampled);
        {
            let child = t.start_child(rctx, "dispatch", "Scheduler", &clock);
            clock.advance(Duration::from_secs(2));
            let cctx = child.context();
            assert_eq!(cctx.trace_id, rctx.trace_id);
            assert_ne!(cctx.span_id, rctx.span_id);
            let grand = t.start_child(cctx, "stage", "FileSystem", &clock);
            drop(grand);
            drop(child);
        }
        root.finish();

        let snap = t.trace(rctx.trace_id);
        assert_eq!(snap.len(), 3);
        let roots = snap.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(&*roots[0].name, "submit");
        assert_eq!(roots[0].annotations, vec![("jobset", "demo".into())]);
        let dispatch = snap.find("dispatch").unwrap();
        assert_eq!(dispatch.parent_id, roots[0].span_id);
        assert_eq!(dispatch.virt_start_ns, 10_000_000_000);
        assert_eq!(dispatch.virt_end_ns, 12_000_000_000);
        let stage = snap.find("stage").unwrap();
        assert_eq!(stage.parent_id, dispatch.span_id);
        assert_eq!(
            reg.snapshot().counter("trace.spans_finished"),
            Some(3),
            "every sampled span lands"
        );
        let tree = snap.render_tree();
        assert!(tree.contains("submit [Client]"), "{tree}");
        assert!(tree.contains("    dispatch [Scheduler]"), "{tree}");
        assert!(tree.contains("      stage [FileSystem]"), "{tree}");
        let json = snap.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\": \"dispatch\""));
    }

    #[test]
    fn sampling_skips_whole_traces_but_keeps_ids() {
        let (t, _reg) = tracer(TraceConfig::enabled().with_sample_every(2));
        let clock = Clock::manual();
        let a = t.start_root("a", "s", &clock); // tick 0: sampled
        let b = t.start_root("b", "s", &clock); // tick 1: skipped
        assert!(a.is_recording());
        assert!(!b.is_recording());
        assert!(b.context().is_active(), "unsampled trace still has an id");
        let b_child = t.start_child(b.context(), "bc", "s", &clock);
        assert!(!b_child.is_recording(), "children inherit the decision");
        drop(b_child);
        drop(b);
        drop(a);
        let snap = t.snapshot();
        let names: Vec<&str> = snap.spans.iter().map(|s| &*s.name).collect();
        assert_eq!(names, ["a"]);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let (t, reg) = tracer(TraceConfig::enabled().with_capacity(4));
        let clock = Clock::manual();
        for i in 0..10 {
            let mut s = t.start_root(format!("s{i}"), "svc", &clock);
            s.annotate("i", i.to_string());
            drop(s);
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(&*snap.spans[0].name, "s6", "oldest evicted first");
        let m = reg.snapshot();
        assert_eq!(m.counter("trace.spans_finished"), Some(10));
        assert_eq!(m.counter("trace.spans_dropped"), Some(6));
        assert_eq!(m.counter("trace.traces_started"), Some(10));
    }

    #[test]
    fn point_spans_record_instants() {
        let (t, _reg) = tracer(TraceConfig::enabled());
        let clock = Clock::manual();
        let root = t.start_root("r", "svc", &clock);
        let id = t.point(
            root.context(),
            "step.01_submit",
            "Scheduler",
            42,
            &[("job", "*")],
        );
        assert_ne!(id, 0);
        drop(root);
        let snap = t.snapshot();
        let step = snap.find("step.01_submit").unwrap();
        assert_eq!(step.virt_start_ns, 42);
        assert_eq!(step.virt_end_ns, 42);
        assert_eq!(step.annotations, vec![("job", "*".into())]);
        // Unsampled parents record nothing.
        assert_eq!(t.point(SpanContext::none(), "x", "s", 0, &[]), 0);
    }

    #[test]
    fn chrome_export_shapes_and_lanes() {
        let (t, _reg) = tracer(TraceConfig::enabled());
        let clock = Clock::manual();
        let mut root = t.start_root("submit", "Client", &clock);
        root.annotate("jobset", "demo");
        {
            let child = t.start_child(root.context(), "dispatch", "Scheduler", &clock);
            clock.advance(Duration::from_micros(1500));
            drop(child);
        }
        root.finish();
        let json = t.snapshot().to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"traceEvents\""));
        // Two services → two thread_name metadata records, two lanes.
        assert!(json.contains("\"name\": \"Client\""));
        assert!(json.contains("\"name\": \"Scheduler\""));
        assert!(json.contains("\"ph\": \"X\", \"name\": \"dispatch\""));
        // 1500 µs virtual duration renders as microseconds.
        assert!(json.contains("\"dur\": 1500.000"), "{json}");
        assert!(json.contains("\"jobset\": \"demo\""));
        // Sink parity: LenSink sizes the render exactly.
        let mut len = crate::LenSink::default();
        t.snapshot().write_chrome_into(&mut len);
        assert_eq!(len.0, json.len());
    }

    #[test]
    fn scoped_parent_is_taken_once_and_only_by_its_trace() {
        let ctx = |trace_id, span_id| SpanContext {
            trace_id,
            span_id,
            sampled: true,
        };
        let hop = ctx(7, 70);
        let taken = with_scoped_parent(hop, || {
            assert_eq!(scoped_parent(ctx(8, 1)), ctx(8, 1), "other trace");
            (scoped_parent(ctx(7, 1)), scoped_parent(ctx(7, 2)))
        });
        assert_eq!(taken, (hop, ctx(7, 2)));
        // An untaken offer is withdrawn when the scope ends.
        with_scoped_parent(hop, || {});
        assert_eq!(scoped_parent(ctx(7, 1)), ctx(7, 1));
    }
}
