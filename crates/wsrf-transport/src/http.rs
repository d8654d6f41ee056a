//! A minimal real SOAP-over-HTTP transport (HTTP/1.1 POST, one request
//! per connection) — the analogue of the paper's IIS/ASP.NET front end,
//! used to exercise true wire encoding/decoding costs in experiment E5
//! and the cross-process tests.
//!
//! The accept loop, timeouts and hop spans live in [`crate::server`];
//! this module is the framing: parse one request, dispatch it, write
//! one response.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use wsrf_soap::{Envelope, SoapFault};

use crate::error::TransportError;
use crate::server::{is_timeout, read_body, Framing, Inbound, Limits, Server, Site};

/// Largest request or response body either HTTP peer accepts.
const MAX_BODY: usize = 64 << 20;

/// A listening HTTP SOAP endpoint.
pub type HttpSoapServer = Server<Http>;

/// The HTTP/1.1 framing: one request per connection (`Connection:
/// close`, matching 2004-era SOAP stacks). SOAP rides POST; when the
/// server's registry is enabled, GET serves the monitoring plane from
/// it:
///
/// * `/metrics` — Prometheus text exposition,
/// * `/metrics.json` — the flat JSON the bench gate parses,
/// * `/healthz` — SLO health summary (503 when any burn rate > 1),
/// * `/traces/<hex-id>.json` — one trace in Chrome trace format.
///
/// Without an enabled registry GETs answer 405 and the SOAP path pays
/// nothing for the feature.
pub struct Http;

impl Framing for Http {
    const KIND: &'static str = "http";
    const PERSISTENT: bool = false;

    fn serve(conn: Inbound, mut writer: TcpStream, site: &Site) -> io::Result<()> {
        let started = Instant::now();
        let mut reader = BufReader::new(conn);
        // Per-connection buffers: every response body (fault or not) is
        // rendered exactly once into `wire`, and the request body lands
        // in `body` — the endpoint only ever sees a borrowed slice of it,
        // never an owned copy.
        let mut wire: Vec<u8> = Vec::with_capacity(512);
        let mut body: Vec<u8> = Vec::new();
        let serve_gets = site.metrics.is_enabled();
        let refusal = match read_request(&mut reader, &site.limits, &mut body, serve_gets) {
            Ok(Request::Get(path)) => {
                return serve_exposition(&mut writer, &mut wire, site, &path);
            }
            Ok(Request::Post) => match std::str::from_utf8(&body) {
                Ok(text) => return respond(site, &mut writer, &mut wire, text, started),
                Err(_) => Refusal::reply(400, "Bad Request", "request body is not utf-8"),
            },
            Err(refusal) => refusal,
        };
        match refusal {
            Refusal::Io(e) => Err(e),
            Refusal::Reply(code, reason, detail) => {
                // A refusal's detail rides as a SOAP client fault, so a
                // SOAP caller gets a parseable envelope back.
                wire.clear();
                if let Some(detail) = detail {
                    SoapFault::client(detail)
                        .to_envelope()
                        .write_into(&mut wire);
                }
                write_response(&mut writer, code, reason, CT_XML, &wire)
            }
        }
    }
}

/// Dispatch one POSTed envelope and write the endpoint's answer.
fn respond(
    site: &Site,
    writer: &mut TcpStream,
    wire: &mut Vec<u8>,
    text: &str,
    started: Instant,
) -> io::Result<()> {
    // The hop guard (if traced) covers the dispatch and the write.
    let (resp, _hop) = site.dispatch(text);
    match resp {
        Some(resp) => {
            let t0 = Instant::now();
            wire.clear();
            resp.write_into(wire);
            site.obs.record_serialize(wire.len() as u64, t0);
            site.obs
                .record_call(text.len() as u64, wire.len() as u64, started);
            // SOAP 1.1 over HTTP: faults ride status 500.
            let (code, reason) = if resp.is_fault() {
                (500, "Internal Server Error")
            } else {
                (200, "OK")
            };
            write_response(writer, code, reason, CT_XML, wire)
        }
        None => {
            site.obs.record_oneway(text.len() as u64, started);
            write_response(writer, 202, "Accepted", CT_XML, b"")
        }
    }
}

/// A request read in full off the socket.
enum Request {
    /// An exposition GET of this path.
    Get(String),
    /// A SOAP POST; the body is in the caller's buffer.
    Post,
}

/// Why a request is answered before it reaches the endpoint.
enum Refusal {
    /// Answer with this status; with `Some` detail, the body is a SOAP
    /// client fault naming the problem.
    Reply(u16, &'static str, Option<String>),
    /// The connection failed; drop it.
    Io(io::Error),
}

impl Refusal {
    fn reply(code: u16, reason: &'static str, detail: impl Into<String>) -> Self {
        Refusal::Reply(code, reason, Some(detail.into()))
    }

    /// Map a read error at stage `what`: a timeout answers 408.
    fn timed(what: &'static str) -> impl FnOnce(io::Error) -> Refusal {
        move |e| {
            if is_timeout(&e) {
                Refusal::reply(408, "Request Timeout", format!("timed out reading {what}"))
            } else {
                Refusal::Io(e)
            }
        }
    }
}

const TOO_LARGE: &str = "Request Header Fields Too Large";

/// Read one request: request line, headers, and (for POST) the body
/// into `body`. The request line and header block are bounded by
/// `limits`; the body is bounded by [`MAX_BODY`] and grows only as its
/// bytes arrive.
fn read_request(
    reader: &mut impl BufRead,
    limits: &Limits,
    body: &mut Vec<u8>,
    serve_gets: bool,
) -> Result<Request, Refusal> {
    let mut line = String::new();
    if !read_line_capped(reader, limits.max_header_bytes, &mut line)
        .map_err(Refusal::timed("request line"))?
    {
        return Err(Refusal::reply(
            431,
            TOO_LARGE,
            "request line exceeds byte cap",
        ));
    }
    let get = serve_gets && line.starts_with("GET ");
    if !get && !line.starts_with("POST ") {
        return Err(Refusal::Reply(405, "Method Not Allowed", None));
    }
    // A request we cannot size is answered with a SOAP client fault
    // rather than a body-less status.
    let scanned = read_content_length(reader, limits).map_err(Refusal::timed("request headers"))?;
    if get {
        // Scrapers send no body; route on the path.
        let path = line.split_whitespace().nth(1).unwrap_or("/");
        return Ok(Request::Get(path.to_string()));
    }
    let len = match scanned {
        ContentLength::Len(n) => n,
        ContentLength::Missing => {
            return Err(Refusal::reply(
                411,
                "Length Required",
                "request has no Content-Length header",
            ));
        }
        ContentLength::Bad(code, reason, why) => return Err(Refusal::reply(code, reason, why)),
    };
    if len > MAX_BODY {
        return Err(Refusal::Reply(413, "Payload Too Large", None));
    }
    read_body(reader, body, len).map_err(Refusal::timed("request body"))?;
    Ok(Request::Post)
}

/// Read one line of at most `cap` bytes into `line`; `false` when the
/// cap cut it off before its newline.
fn read_line_capped(reader: &mut impl BufRead, cap: usize, line: &mut String) -> io::Result<bool> {
    let mut limited = reader.take(cap as u64);
    limited.read_line(line)?;
    Ok(line.ends_with('\n') || limited.limit() > 0)
}

/// Outcome of scanning an HTTP header block for `Content-Length`.
enum ContentLength {
    /// No Content-Length header present.
    Missing,
    /// A well-formed length.
    Len(usize),
    /// A length that is not a number, or a header block past
    /// [`Limits`]: the status a server answers with, and why.
    Bad(u16, &'static str, String),
}

/// Consume header lines up to the blank separator, extracting the
/// `Content-Length`. Server and client both parse through here, so the
/// two sides can never again drift on how a missing or garbage length
/// is treated (historically one side ignored it and the other silently
/// read a zero-byte body). The header block is bounded by `limits`: a
/// peer streaming endless (or endlessly long) header lines gets a 431
/// instead of an unbounded read loop.
fn read_content_length(reader: &mut impl BufRead, limits: &Limits) -> io::Result<ContentLength> {
    let mut limited = reader.take(limits.max_header_bytes as u64);
    let mut found = ContentLength::Missing;
    let mut lines = 0usize;
    loop {
        let mut h = String::new();
        let n = limited.read_line(&mut h)?;
        if n == 0 {
            if limited.limit() == 0 {
                return Ok(too_large("header block exceeds byte cap"));
            }
            // Genuine EOF before the blank separator: treat as end of
            // headers (legacy behaviour).
            break;
        }
        if !h.ends_with('\n') && limited.limit() == 0 {
            return Ok(too_large("header line exceeds byte cap"));
        }
        lines += 1;
        if lines > limits.max_header_lines {
            return Ok(too_large("too many header lines"));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let value = value.trim();
                found = match value.parse() {
                    Ok(n) => ContentLength::Len(n),
                    Err(_) => ContentLength::Bad(
                        400,
                        "Bad Request",
                        format!("unparseable Content-Length {value:?}"),
                    ),
                };
            }
        }
    }
    Ok(found)
}

fn too_large(why: &str) -> ContentLength {
    ContentLength::Bad(431, TOO_LARGE, why.into())
}

fn write_response(
    w: &mut TcpStream,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    w.write_all(body)?;
    w.flush()
}

const CT_XML: &str = "text/xml; charset=utf-8";
const CT_PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
const CT_JSON: &str = "application/json; charset=utf-8";

/// Serve one monitoring-plane GET. Bodies render sink-style into the
/// connection's reused `wire` buffer: the metric values stream through
/// stack formatters, so a scrape allocates no per-metric strings.
fn serve_exposition(
    writer: &mut TcpStream,
    wire: &mut Vec<u8>,
    site: &Site,
    path: &str,
) -> io::Result<()> {
    let registry = &site.metrics;
    registry.counter("expose.scrapes").inc();
    wire.clear();
    match path {
        "/metrics" => {
            registry.write_prometheus_into(wire);
            write_response(writer, 200, "OK", CT_PROM, wire)
        }
        "/metrics.json" => {
            registry.write_json_into(wire);
            write_response(writer, 200, "OK", CT_JSON, wire)
        }
        "/healthz" => {
            let now_ns = site.clock.now().as_nanos();
            let health = registry.slo().health_all(now_ns);
            let degraded = health.iter().any(|h| !h.is_healthy());
            use wsrf_obs::MetricSink;
            wire.put("{\"status\": \"");
            wire.put(if degraded { "degraded" } else { "ok" });
            wire.put("\", \"virt_ns\": ");
            wire.put_u64(now_ns);
            wire.put(", \"services\": [");
            for (i, h) in health.iter().enumerate() {
                if i > 0 {
                    wire.put(", ");
                }
                // Rates are the one place floats are unavoidable; the
                // health view is tiny and off the scrape hot path.
                wire.put(&format!(
                    "{{\"service\": \"{}\", \"total\": {}, \"success_rate\": {:.6}, \
                     \"p99_ns\": {}, \"burn_rate\": {:.3}, \"healthy\": {}}}",
                    h.service,
                    h.total,
                    h.success_rate,
                    h.p99_ns,
                    h.burn_rate,
                    h.is_healthy()
                ));
            }
            wire.put("]}");
            let (code, reason) = if degraded {
                (503, "Service Unavailable")
            } else {
                (200, "OK")
            };
            write_response(writer, code, reason, CT_JSON, wire)
        }
        _ => {
            if let Some(id) = path
                .strip_prefix("/traces/")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|id| u64::from_str_radix(id, 16).ok())
            {
                let trace = registry.tracer().trace(id);
                if trace.is_empty() {
                    return write_response(
                        writer,
                        404,
                        "Not Found",
                        CT_JSON,
                        b"{\"error\": \"no such trace\"}",
                    );
                }
                trace.write_chrome_into(wire);
                return write_response(writer, 200, "OK", CT_JSON, wire);
            }
            write_response(
                writer,
                404,
                "Not Found",
                CT_JSON,
                b"{\"error\": \"unknown path\"}",
            )
        }
    }
}

/// POST an envelope to `authority` (`host:port`) at `path`; returns the
/// response envelope (which may be a fault envelope), or `None` for a
/// 202 one-way acknowledgement.
pub fn http_post(
    authority: &str,
    path: &str,
    env: &Envelope,
) -> Result<Option<Envelope>, TransportError> {
    // One render per request, straight into the wire buffer.
    let mut body: Vec<u8> = Vec::with_capacity(512);
    env.write_into(&mut body);
    let head = format!(
        "POST /{} HTTP/1.1\r\nHost: {authority}\r\nContent-Type: text/xml; charset=utf-8\r\nSOAPAction: \"\"\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        path.trim_start_matches('/'),
        body.len()
    );
    let (code, body) = exchange(authority, &head, &body)?;
    match code {
        202 => Ok(None),
        200 | 500 => {
            let text = std::str::from_utf8(&body)
                .map_err(|_| TransportError::Protocol("response not utf-8".into()))?;
            Envelope::parse(text)
                .map(Some)
                .map_err(|e| TransportError::Protocol(format!("bad response envelope: {e}")))
        }
        _ => Err(TransportError::Protocol(format!("http status {code}"))),
    }
}

/// Request/response call over HTTP; `None` responses become errors.
pub fn http_call(authority: &str, path: &str, env: &Envelope) -> Result<Envelope, TransportError> {
    http_post(authority, path, env)?
        .ok_or_else(|| TransportError::NoResponse(format!("http://{authority}/{path}")))
}

/// Plain HTTP GET against `authority` (`host:port`): status code and
/// body. What a scraper (or the grid monitor pulling `/metrics.json`)
/// runs against a server whose registry is enabled.
pub fn http_get(authority: &str, path: &str) -> Result<(u16, String), TransportError> {
    let head = format!(
        "GET /{} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\r\n",
        path.trim_start_matches('/')
    );
    let (code, body) = exchange(authority, &head, b"")?;
    let body = String::from_utf8(body)
        .map_err(|_| TransportError::Protocol("GET response not utf-8".into()))?;
    Ok((code, body))
}

/// One client exchange: connect, send `head` and `body`, and read the
/// response's status code and body.
fn exchange(authority: &str, head: &str, body: &[u8]) -> Result<(u16, Vec<u8>), TransportError> {
    let mut stream = TcpStream::connect(authority)
        .map_err(|e| TransportError::Io(format!("connect {authority}: {e}")))?;
    stream.set_nodelay(true).ok();
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    read_response(stream)
}

/// Read one response: one status-line parse, the shared header scan,
/// and a body read capped at [`MAX_BODY`] that grows only as bytes
/// arrive — a peer announcing a huge length gets a protocol error, not
/// an allocation.
fn read_response(stream: TcpStream) -> Result<(u16, Vec<u8>), TransportError> {
    let limits = Limits::default();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    read_line_capped(&mut reader, limits.max_header_bytes, &mut status_line)?;
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| TransportError::Protocol(format!("bad status line {status_line:?}")))?;
    // A sized response is required (bar the body-less 202); treating a
    // missing or garbage length as zero would silently truncate it.
    let len = match read_content_length(&mut reader, &limits)? {
        ContentLength::Len(n) if n > MAX_BODY => {
            return Err(TransportError::Protocol(format!(
                "response Content-Length {n} exceeds the {MAX_BODY}-byte cap"
            )));
        }
        ContentLength::Len(n) => n,
        ContentLength::Missing if code == 202 => 0,
        ContentLength::Missing => {
            return Err(TransportError::Protocol(
                "response missing Content-Length".into(),
            ));
        }
        ContentLength::Bad(_, _, why) => {
            return Err(TransportError::Protocol(format!(
                "bad response headers: {why}"
            )));
        }
    };
    let mut body = Vec::new();
    read_body(&mut reader, &mut body, len)?;
    Ok((code, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::FnEndpoint;
    use crate::server::ServerConfig;
    use simclock::Clock;
    use std::net::TcpListener;
    use std::sync::Arc;
    use wsrf_obs::MetricsRegistry;
    use wsrf_xml::Element;

    #[test]
    fn end_to_end_call_over_real_sockets() {
        let server = HttpSoapServer::start(Arc::new(FnEndpoint::new("echo", |env| {
            let mut e = env;
            e.body = Element::local("Pong").child(e.body);
            Some(e)
        })))
        .unwrap();
        let req = Envelope::new(Element::local("Ping").text("payload"));
        let resp = http_call(&server.authority(), "svc", &req).unwrap();
        assert_eq!(resp.body.name.local, "Pong");
        assert_eq!(resp.body.text_content(), "payload");
    }

    #[test]
    fn fault_travels_as_http_500() {
        let server = HttpSoapServer::start(Arc::new(FnEndpoint::new("faulty", |_| {
            Some(wsrf_soap::SoapFault::server("boom").to_envelope())
        })))
        .unwrap();
        let resp = http_call(
            &server.authority(),
            "svc",
            &Envelope::new(Element::local("X")),
        )
        .unwrap();
        assert!(resp.is_fault());
        assert_eq!(resp.fault().unwrap().reason, "boom");
    }

    #[test]
    fn oneway_gets_202() {
        let server = HttpSoapServer::start(Arc::new(FnEndpoint::new("sink", |_| None))).unwrap();
        let out = http_post(
            &server.authority(),
            "svc",
            &Envelope::new(Element::local("X")),
        )
        .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn connect_to_dead_port_is_io_error() {
        // Bind-then-drop to find a (very likely) dead port.
        let dead = {
            let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = http_call(&dead, "svc", &Envelope::new(Element::local("X"))).unwrap_err();
        assert!(matches!(err, TransportError::Io(_)));
    }

    /// Read one raw HTTP response (status code + body) off a stream.
    fn raw_response(stream: TcpStream) -> (u16, String) {
        let (code, body) = read_response(stream).unwrap();
        (code, String::from_utf8(body).unwrap())
    }

    fn limited(limits: Limits) -> HttpSoapServer {
        let config = ServerConfig {
            limits,
            ..ServerConfig::default()
        };
        HttpSoapServer::start_with(Arc::new(FnEndpoint::new("echo", Some)), &config).unwrap()
    }

    #[test]
    fn idle_slowloris_client_gets_408_soap_fault() {
        let server = limited(Limits {
            read_timeout: std::time::Duration::from_millis(100),
            ..Limits::default()
        });
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Open the request but never finish the header block.
        stream
            .write_all(b"POST /svc HTTP/1.1\r\nHost: x\r\n")
            .unwrap();
        stream.flush().unwrap();
        let (code, body) = raw_response(stream);
        assert_eq!(code, 408);
        let env = Envelope::parse(&body).unwrap();
        assert!(env.is_fault(), "408 carries a SOAP fault body");
        assert!(env.fault().unwrap().reason.contains("timed out"));
    }

    #[test]
    fn header_flood_gets_431_soap_fault() {
        let server = limited(Limits {
            max_header_lines: 8,
            ..Limits::default()
        });
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"POST /svc HTTP/1.1\r\n").unwrap();
        for i in 0..50 {
            stream
                .write_all(format!("X-Flood-{i}: y\r\n").as_bytes())
                .unwrap();
        }
        stream.write_all(b"\r\n").unwrap();
        stream.flush().unwrap();
        let (code, body) = raw_response(stream);
        assert_eq!(code, 431);
        assert!(Envelope::parse(&body).unwrap().is_fault());
    }

    #[test]
    fn oversized_header_block_gets_431() {
        let server = limited(Limits {
            max_header_bytes: 256,
            ..Limits::default()
        });
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"POST /svc HTTP/1.1\r\n").unwrap();
        // One huge header line, no newline in sight.
        stream.write_all(&vec![b'a'; 4096]).unwrap();
        stream.flush().unwrap();
        let (code, body) = raw_response(stream);
        assert_eq!(code, 431);
        assert!(Envelope::parse(&body).unwrap().is_fault());
    }

    #[test]
    fn limits_leave_normal_calls_untouched() {
        let server = limited(Limits::default());
        let req = Envelope::new(Element::local("Ping").text("p"));
        let resp = http_call(&server.authority(), "svc", &req).unwrap();
        assert_eq!(resp, req);
    }

    fn monitored_server() -> (HttpSoapServer, Arc<MetricsRegistry>, Clock) {
        let reg = wsrf_obs::MetricsRegistry::with_tracing(
            wsrf_obs::ObsConfig::enabled(),
            wsrf_obs::TraceConfig::enabled(),
        );
        let clock = Clock::manual();
        let config = ServerConfig {
            metrics: reg.clone(),
            clock: clock.clone(),
            ..ServerConfig::default()
        };
        let server =
            HttpSoapServer::start_with(Arc::new(FnEndpoint::new("echo", Some)), &config).unwrap();
        (server, reg, clock)
    }

    #[test]
    fn exposition_endpoints_round_trip() {
        let (server, reg, clock) = monitored_server();
        reg.counter("jobs.completed").add(7);
        reg.histogram("op.lat_ns").record(500);
        reg.slo()
            .service("es")
            .record(true, 500, clock.now().as_nanos());

        let (code, text) = http_get(&server.authority(), "/metrics").unwrap();
        assert_eq!(code, 200);
        assert!(text.contains("jobs_completed 7"), "{text}");
        assert!(text.contains("op_lat_ns_count 1"));

        let (code, json) = http_get(&server.authority(), "/metrics.json").unwrap();
        assert_eq!(code, 200);
        assert!(json.contains("\"jobs.completed\": {\"type\": \"counter\", \"value\": 7}"));

        let (code, hz) = http_get(&server.authority(), "/healthz").unwrap();
        assert_eq!(code, 200);
        assert!(hz.contains("\"status\": \"ok\""), "{hz}");
        assert!(hz.contains("\"service\": \"es\""));

        let (code, _) = http_get(&server.authority(), "/nope").unwrap();
        assert_eq!(code, 404);
        // Scrapes were counted (4 GETs), and POST still works.
        assert!(reg.snapshot().counter("expose.scrapes") >= Some(4));
        let req = Envelope::new(Element::local("Ping").text("p"));
        let resp = http_call(&server.authority(), "svc", &req).unwrap();
        assert_eq!(resp.body.text_content(), "p");
    }

    #[test]
    fn healthz_degrades_on_slo_burn() {
        let (server, reg, clock) = monitored_server();
        let now = clock.now().as_nanos();
        let slo = reg.slo().service("es");
        for _ in 0..10 {
            slo.record(false, 1_000, now); // 100% errors → burn ≫ 1
        }
        let (code, hz) = http_get(&server.authority(), "/healthz").unwrap();
        assert_eq!(code, 503);
        assert!(hz.contains("\"status\": \"degraded\""), "{hz}");
        assert!(hz.contains("\"healthy\": false"));
    }

    #[test]
    fn trace_export_serves_chrome_format() {
        let (server, reg, clock) = monitored_server();
        let root = reg.tracer().start_root("submit", "Client", &clock);
        let trace_id = root.context().trace_id;
        drop(root);
        let (code, json) =
            http_get(&server.authority(), &format!("/traces/{trace_id:x}.json")).unwrap();
        assert_eq!(code, 200);
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"name\": \"submit\""));
        let (code, _) = http_get(&server.authority(), "/traces/deadbeef.json").unwrap();
        assert_eq!(code, 404, "unknown trace id");
    }

    #[test]
    fn unmonitored_server_still_rejects_gets() {
        let server = HttpSoapServer::start(Arc::new(FnEndpoint::new("echo", Some))).unwrap();
        let err = http_get(&server.authority(), "/metrics");
        // 405 responses carry no Content-Length body contract for GET
        // clients; reaching the endpoint at all is the regression.
        match err {
            Ok((code, _)) => assert_eq!(code, 405),
            Err(TransportError::Protocol(_)) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn concurrent_clients() {
        let server = HttpSoapServer::start(Arc::new(FnEndpoint::new("echo", Some))).unwrap();
        let auth = server.authority();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let auth = auth.clone();
                std::thread::spawn(move || {
                    let req = Envelope::new(Element::local("Ping").attr("i", i.to_string()));
                    let resp = http_call(&auth, "svc", &req).unwrap();
                    assert_eq!(resp, req);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}
