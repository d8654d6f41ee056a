//! Distributed tracing end to end: the Figure 3 walkthrough replayed
//! with tracing enabled must leave one connected span tree behind —
//! rooted at the client's submit, covering all ten numbered steps,
//! with spans from every service in the pipeline — queryable through
//! the job set's `{UVACG}Trace` resource property and propagating over
//! a real HTTP hop.

#![allow(clippy::result_large_err)]

use std::sync::Arc;
use std::time::Duration;

use wsrf_grid::prelude::*;
use wsrf_grid::soap::{ns, MessageInfo};
use wsrf_grid::transport::http::{http_call, HttpSoapServer};
use wsrf_grid::transport::server::ServerConfig;
use wsrf_grid::transport::tcpframe::{FramedClient, FramedServer};
use wsrf_grid::wsrf::container::ServiceBuilder;
use wsrf_grid::wsrf::porttypes::wsrp_action;
use wsrf_grid::wsrf::{MemoryStore, PropertyDoc};
use wsrf_grid::xml::{Element as El, QName};

const STEPS: [(u32, &str); 10] = [
    (1, "submit"),
    (2, "nis_poll"),
    (3, "es_run"),
    (4, "workdir"),
    (5, "client_stage"),
    (6, "grid_stage"),
    (7, "upload_complete"),
    (8, "spawn"),
    (9, "epr_broadcast"),
    (10, "exit_broadcast"),
];

fn traced_grid() -> CampusGrid {
    CampusGrid::build(
        GridConfig::with_machines(2).with_tracing(TraceConfig::enabled()),
        Clock::manual(),
    )
}

/// Submit the walkthrough job set and run it to completion.
fn run_walkthrough(grid: &CampusGrid) -> JobSetHandle {
    let client = grid.client("scientist");
    client.put_file(
        "C:\\proj\\stage1.exe",
        JobProgram::compute(2.0)
            .reading("in1")
            .writing("out", 64)
            .to_manifest(),
    );
    client.put_file("C:\\proj\\file1", vec![7u8; 128]);
    let spec = JobSetSpec::new("traced").job(
        JobSpec::new(
            "job1",
            FileRef::parse("local://C:\\proj\\stage1.exe").unwrap(),
        )
        .input(FileRef::parse("local://C:\\proj\\file1").unwrap(), "in1")
        .output("out"),
    );
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(5));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    handle
}

fn get_property(grid: &CampusGrid, epr: &EndpointReference, name: &str) -> El {
    let mut env = Envelope::new(El::new(ns::WSRP, "GetResourceProperty").text(name));
    MessageInfo::request(epr.clone(), wsrp_action("GetResourceProperty")).apply(&mut env);
    let resp = grid.net.call(&epr.address, env).expect("call");
    assert!(!resp.is_fault(), "{:?}", resp.fault());
    resp.body
}

fn trace_id_of(grid: &CampusGrid, handle: &JobSetHandle) -> u64 {
    let hex = get_property(grid, &handle.jobset, "TraceId").text_content();
    u64::from_str_radix(&hex, 16).expect("TraceId RP is hex")
}

#[test]
fn figure3_submission_yields_one_connected_ten_step_span_tree() {
    let grid = traced_grid();
    let handle = run_walkthrough(&grid);

    let id = trace_id_of(&grid, &handle);
    let snap = grid.metrics.tracer().trace(id);
    assert!(!snap.is_empty());

    // Exactly one root: the client-side submit span.
    let roots = snap.roots();
    assert_eq!(roots.len(), 1, "tree:\n{}", snap.render_tree());
    assert_eq!(&*roots[0].name, "client.submit");
    assert_eq!(&*roots[0].service, "Client");

    // Connected causality: every non-root span's parent is in the tree
    // and no child starts before its parent in virtual time.
    for s in &snap.spans {
        assert_eq!(s.trace_id, id);
        assert!(s.virt_start_ns <= s.virt_end_ns, "{} ends early", s.name);
        if s.parent_id != 0 {
            let parent = snap
                .spans
                .iter()
                .find(|p| p.span_id == s.parent_id)
                .unwrap_or_else(|| panic!("span {} has a dangling parent", s.name));
            assert!(
                s.virt_start_ns >= parent.virt_start_ns,
                "{} starts before its parent {}",
                s.name,
                parent.name
            );
        }
    }

    // All ten Figure 3 steps, monotone in virtual time, parented under
    // the Scheduler's SubmitJobSet dispatch span.
    let submit_dispatch = snap
        .find("dispatch.SubmitJobSet")
        .expect("scheduler dispatch span");
    let mut last = 0u64;
    for (step, name) in STEPS {
        let span = snap
            .find(&format!("step.{step:02}_{name}"))
            .unwrap_or_else(|| panic!("missing step {step} ({name}):\n{}", snap.render_tree()));
        assert_eq!(span.parent_id, submit_dispatch.span_id, "step {step}");
        assert_eq!(&*span.service, "Scheduler");
        assert!(span.virt_start_ns >= last, "step {step} goes backwards");
        last = span.virt_start_ns;
    }

    // Every service in the pipeline contributed spans, on both sides of
    // the transport hops.
    for service in [
        "Client",
        "Scheduler",
        "Execution",
        "FileSystem",
        "Broker",
        "inproc",
    ] {
        assert!(
            snap.spans.iter().any(|s| &*s.service == service),
            "no {service} span:\n{}",
            snap.render_tree()
        );
    }
}

#[test]
fn trace_rp_is_queryable_like_any_resource_property() {
    let grid = traced_grid();
    let handle = run_walkthrough(&grid);
    let id = trace_id_of(&grid, &handle);

    // GetResourceProperty("Trace") returns the whole rendered tree as
    // a {UVACG}Trace element with one Span child per finished span.
    let body = get_property(&grid, &handle.jobset, "Trace");
    let trace_el = body.elements().next().expect("Trace element");
    assert_eq!(trace_el.name.local, "Trace");
    let spans: Vec<&El> = trace_el.elements().collect();
    assert_eq!(spans.len(), grid.metrics.tracer().trace(id).len());
    let hex = format!("{id:016x}");
    for s in &spans {
        assert_eq!(s.name.local, "Span");
        assert_eq!(s.attr_value("traceId"), Some(hex.as_str()));
    }
    for (step, name) in STEPS {
        let tag = format!("step.{step:02}_{name}");
        assert!(
            spans
                .iter()
                .any(|s| s.attr_value("name") == Some(tag.as_str())),
            "step {step} missing from Trace RP"
        );
    }
}

#[test]
fn tracing_is_off_by_default_and_leaves_no_spans() {
    let grid = CampusGrid::build(GridConfig::with_machines(2), Clock::manual());
    let client = grid.client("scientist");
    client.put_file("C:\\p.exe", JobProgram::compute(1.0).to_manifest());
    let spec = JobSetSpec::new("untraced").job(JobSpec::new(
        "j",
        FileRef::parse("local://C:\\p.exe").unwrap(),
    ));
    let handle = client.submit(&spec, "griduser", "gridpass").unwrap();
    grid.clock.advance(Duration::from_secs(5));
    assert_eq!(handle.outcome(), Some(JobSetOutcome::Completed));
    assert!(!grid.metrics.tracer().is_enabled());
    assert!(grid.metrics.tracer().snapshot().is_empty());
}

#[test]
fn trace_propagates_over_real_http_transport() {
    // A traced service behind a real localhost HTTP socket: the hop
    // opens a transport.serve span as the child of the caller's header
    // and the container dispatch nests under the hop.
    let clock = Clock::manual();
    let registry = MetricsRegistry::with_tracing(ObsConfig::enabled(), TraceConfig::enabled());
    let net = wsrf_grid::transport::InProcNetwork::with_metrics(
        clock.clone(),
        NetConfig::default(),
        &registry,
    );
    let svc = ServiceBuilder::new(
        "Counter",
        "inproc://local/Counter",
        Arc::new(MemoryStore::new()),
    )
    .operation("Bump", |ctx| {
        let doc = ctx.resource_mut()?;
        let q = QName::new(wsrf_grid::testbed::UVACG, "Count");
        let n = doc.i64(&q).unwrap_or(0) + 1;
        doc.set_i64(q, n);
        Ok(El::new(wsrf_grid::testbed::UVACG, "BumpResponse").text(n.to_string()))
    })
    .build(clock.clone(), net);
    let mut doc = PropertyDoc::new();
    doc.set_i64(QName::new(wsrf_grid::testbed::UVACG, "Count"), 0);
    let epr = svc.core().create_resource_with_key("c1", doc).unwrap();
    let server = HttpSoapServer::start_with(
        svc.clone(),
        &ServerConfig {
            metrics: registry.clone(),
            clock: clock.clone(),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let tracer = registry.tracer().clone();
    let mut root = tracer.start_root("client.bump", "Client", &clock);
    let ctx = root.context();
    let mut env = Envelope::new(El::new(wsrf_grid::testbed::UVACG, "Bump"));
    MessageInfo::request(
        epr,
        wsrf_grid::wsrf::container::action_uri("Counter", "Bump"),
    )
    .apply(&mut env);
    TraceContext::new(ctx.trace_id, ctx.span_id, ctx.sampled).stamp(&mut env);
    let resp = http_call(&server.authority(), "Counter", &env).unwrap();
    assert!(!resp.is_fault(), "{:?}", resp.fault());
    root.annotate("transport", "http");
    root.finish();

    // The serve hop is recorded by the server thread after it writes
    // the response; give it a moment to land.
    let mut snap = tracer.trace(ctx.trace_id);
    for _ in 0..200 {
        if snap.find("transport.serve").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        snap = tracer.trace(ctx.trace_id);
    }
    let roots = snap.roots();
    assert_eq!(roots.len(), 1, "tree:\n{}", snap.render_tree());
    let serve = snap.find("transport.serve").expect("http hop span");
    assert_eq!(&*serve.service, "http");
    assert_eq!(serve.parent_id, roots[0].span_id, "hop under client root");
    let dispatch = snap.find("dispatch.Bump").expect("dispatch span");
    assert_eq!(dispatch.parent_id, serve.span_id, "dispatch under hop");
}

/// A traced `Counter` service (one `Bump` resource op, resource `c1`)
/// on an in-process network sharing `registry`'s tracer.
fn traced_counter(
    clock: &Clock,
    registry: &Arc<MetricsRegistry>,
) -> (Arc<wsrf_grid::wsrf::container::Service>, EndpointReference) {
    let net = wsrf_grid::transport::InProcNetwork::with_metrics(
        clock.clone(),
        NetConfig::default(),
        registry,
    );
    let svc = ServiceBuilder::new(
        "Counter",
        "inproc://local/Counter",
        Arc::new(MemoryStore::new()),
    )
    .operation("Bump", |ctx| {
        let doc = ctx.resource_mut()?;
        let q = QName::new(wsrf_grid::testbed::UVACG, "Count");
        let n = doc.i64(&q).unwrap_or(0) + 1;
        doc.set_i64(q, n);
        Ok(El::new(wsrf_grid::testbed::UVACG, "BumpResponse").text(n.to_string()))
    })
    .build(clock.clone(), net);
    svc.register(&svc.core().net);
    let mut doc = PropertyDoc::new();
    doc.set_i64(QName::new(wsrf_grid::testbed::UVACG, "Count"), 0);
    let epr = svc.core().create_resource_with_key("c1", doc).unwrap();
    (svc, epr)
}

/// A `Bump` request for `epr`, stamped with trace header `tc`.
fn traced_bump(epr: EndpointReference, tc: TraceContext) -> Envelope {
    let mut env = Envelope::new(El::new(wsrf_grid::testbed::UVACG, "Bump"));
    MessageInfo::request(
        epr,
        wsrf_grid::wsrf::container::action_uri("Counter", "Bump"),
    )
    .apply(&mut env);
    tc.stamp(&mut env);
    env
}

/// The finished spans of `trace_id`, once the server's hop span (which
/// closes after the response is written) has landed.
fn settled_trace(tracer: &Tracer, trace_id: u64) -> TraceSnapshot {
    let mut snap = tracer.trace(trace_id);
    for _ in 0..200 {
        if snap.find("transport.serve").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        snap = tracer.trace(trace_id);
    }
    snap
}

#[test]
fn trace_propagates_over_real_soap_tcp_transport() {
    // The soap.tcp twin of the HTTP test: the shared server loop opens
    // the same hop span for framed requests.
    let clock = Clock::manual();
    let registry = MetricsRegistry::with_tracing(ObsConfig::enabled(), TraceConfig::enabled());
    let (svc, epr) = traced_counter(&clock, &registry);
    let config = ServerConfig {
        metrics: registry.clone(),
        clock: clock.clone(),
        ..ServerConfig::default()
    };
    let server = FramedServer::start_with(svc, &config).unwrap();
    let client = FramedClient::connect(&server.authority()).unwrap();

    let tracer = registry.tracer().clone();
    let root = tracer.start_root("client.bump", "Client", &clock);
    let ctx = root.context();
    let tc = TraceContext::new(ctx.trace_id, ctx.span_id, ctx.sampled);
    let resp = client.call(&traced_bump(epr, tc)).unwrap();
    assert!(!resp.is_fault(), "{:?}", resp.fault());
    root.finish();

    let snap = settled_trace(&tracer, ctx.trace_id);
    let roots = snap.roots();
    assert_eq!(roots.len(), 1, "tree:\n{}", snap.render_tree());
    let serve = snap.find("transport.serve").expect("soap.tcp hop span");
    assert_eq!(&*serve.service, "tcpframe");
    assert_eq!(serve.parent_id, roots[0].span_id, "hop under client root");
    let dispatch = snap.find("dispatch.Bump").expect("dispatch span");
    assert_eq!(dispatch.parent_id, serve.span_id, "dispatch under hop");
}

#[test]
fn nested_inproc_dispatch_parents_under_its_caller_not_the_hop() {
    // A socket request whose handler calls another service in process:
    // the hop span is offered to the first dispatch only, so the
    // nested call nests under its caller's dispatch (via the inproc
    // hop), exactly as its header says.
    let clock = Clock::manual();
    let registry = MetricsRegistry::with_tracing(ObsConfig::enabled(), TraceConfig::enabled());
    let (counter, counter_epr) = traced_counter(&clock, &registry);
    let net = counter.core().net.clone();
    let front = ServiceBuilder::new(
        "Front",
        "inproc://local/Front",
        Arc::new(MemoryStore::new()),
    )
    .static_operation("Relay", move |ctx| {
        let tc = ctx.trace.expect("relay request is traced");
        let env = traced_bump(counter_epr.clone(), tc);
        let resp = ctx
            .core
            .net
            .call(&counter_epr.address, env)
            .map_err(|e| wsrf_grid::wsrf::faults::bad_request(&e.to_string()))?;
        Ok(El::new(wsrf_grid::testbed::UVACG, "RelayResponse").text(resp.body.text_content()))
    })
    .build(clock.clone(), net);
    let config = ServerConfig {
        metrics: registry.clone(),
        clock: clock.clone(),
        ..ServerConfig::default()
    };
    let server = HttpSoapServer::start_with(front.clone(), &config).unwrap();

    let tracer = registry.tracer().clone();
    let root = tracer.start_root("client.relay", "Client", &clock);
    let ctx = root.context();
    let mut env = Envelope::new(El::new(wsrf_grid::testbed::UVACG, "Relay"));
    MessageInfo::request(
        front.core().service_epr(),
        wsrf_grid::wsrf::container::action_uri("Front", "Relay"),
    )
    .apply(&mut env);
    TraceContext::new(ctx.trace_id, ctx.span_id, ctx.sampled).stamp(&mut env);
    let resp = http_call(&server.authority(), "Front", &env).unwrap();
    assert_eq!(resp.body.text_content(), "1", "{:?}", resp.fault());
    root.finish();

    let snap = settled_trace(&tracer, ctx.trace_id);
    let tree = snap.render_tree();
    let serve = snap.find("transport.serve").expect("http hop span");
    let relay = snap.find("dispatch.Relay").expect("outer dispatch");
    let call = snap.find("transport.call").expect("inproc hop");
    let bump = snap.find("dispatch.Bump").expect("nested dispatch");
    assert_eq!(
        relay.parent_id, serve.span_id,
        "outer dispatch took the hop\n{tree}"
    );
    assert_eq!(
        call.parent_id, relay.span_id,
        "inproc hop under its caller\n{tree}"
    );
    assert_eq!(
        bump.parent_id, call.span_id,
        "nested dispatch under its hop\n{tree}"
    );
}
