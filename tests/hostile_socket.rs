//! Hostile bytes against both socket servers (HTTP and `soap.tcp`)
//! and against the HTTP client.
//!
//! * A peer that drip-feeds a request or frame is cut off within the
//!   read timeout of its first byte, while other connections keep
//!   getting answers.
//! * A peer announcing a 200 MiB message and then going silent (or
//!   closing) makes the server allocate almost nothing: receive
//!   buffers grow only as bytes arrive. A counting global allocator in
//!   this binary measures that.
//! * A server answering with an absurd `Content-Length` gets a
//!   protocol error from the client, not a panic or an abort.
//!
//! Allocation is measured process-wide, so every test here serializes
//! on one mutex.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wsrf_grid::prelude::*;
use wsrf_grid::transport::http::{http_call, http_get, http_post, HttpSoapServer};
use wsrf_grid::transport::server::{Limits, ServerConfig};
use wsrf_grid::transport::tcpframe::{FramedClient, FramedServer};
use wsrf_grid::transport::{Endpoint, FnEndpoint, TransportError};

/// Tracks live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counters
// only observe sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract passes straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator (i.e. from `System`)
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, with the caller's `new_size` contract.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

const TIMEOUT: Duration = Duration::from_millis(400);
/// Scheduling slack allowed on top of the timeout before a cut-off
/// counts as late.
const SLACK: Duration = Duration::from_millis(300);
const MIB: usize = 1 << 20;

fn config() -> ServerConfig {
    ServerConfig {
        limits: Limits {
            read_timeout: TIMEOUT,
            ..Limits::default()
        },
        ..ServerConfig::default()
    }
}

fn echo() -> Arc<dyn Endpoint> {
    Arc::new(FnEndpoint::new("echo", Some))
}

fn ping(i: usize) -> Envelope {
    Envelope::new(Element::local("Ping").attr("i", i.to_string()))
}

/// Write `head`, then one byte of `drip` every 30 ms until `stop` is
/// set, the bytes run out, or the server closes the connection.
fn drip_feed(
    mut stream: TcpStream,
    head: Vec<u8>,
    drip: Vec<u8>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        if stream.write_all(&head).is_err() {
            return;
        }
        for b in drip {
            if stop.load(Ordering::Relaxed) || stream.write_all(&[b]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(30));
        }
    })
}

/// Block until the server ends `stream` (answer, EOF or reset); returns
/// what it sent.
fn until_closed(stream: &mut TcpStream) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return got,
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return got,
            Err(e) => panic!("server never closed the connection: {e}"),
        }
    }
}

#[test]
fn drip_fed_http_request_is_cut_off_while_others_are_answered() {
    let _g = lock();
    let server = HttpSoapServer::start_with(echo(), &config()).unwrap();
    let mut victim = TcpStream::connect(server.local_addr()).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    // Every byte arrives well inside the per-read timeout; only the
    // whole-request deadline can end this.
    let dripper = drip_feed(
        victim.try_clone().unwrap(),
        b"POST /svc HTTP/1.1\r\n".to_vec(),
        b"X-Slow: ".repeat(200),
        stop.clone(),
    );
    for i in 0..3 {
        let resp = http_call(&server.authority(), "svc", &ping(i)).unwrap();
        assert_eq!(resp, ping(i), "other connections keep getting answers");
    }
    let answer = until_closed(&mut victim);
    let took = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    dripper.join().unwrap();
    assert!(took < TIMEOUT + SLACK, "cut off after {took:?}");
    let answer = String::from_utf8_lossy(&answer);
    assert!(answer.starts_with("HTTP/1.1 408"), "{answer}");
}

#[test]
fn drip_fed_frame_is_cut_off_while_others_are_answered() {
    let _g = lock();
    let server = FramedServer::start_with(echo(), &config()).unwrap();
    let client = FramedClient::connect(&server.authority()).unwrap();
    assert_eq!(client.call(&ping(0)).unwrap(), ping(0));

    let mut victim = TcpStream::connect(server.local_addr()).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    // A call frame announcing 1000 payload bytes, delivered one by one.
    let mut head = b"WSE1\x00".to_vec();
    head.extend_from_slice(&1000u32.to_be_bytes());
    let dripper = drip_feed(
        victim.try_clone().unwrap(),
        head,
        vec![b'x'; 1000],
        stop.clone(),
    );
    for i in 1..4 {
        assert_eq!(client.call(&ping(i)).unwrap(), ping(i));
    }
    let answer = until_closed(&mut victim);
    let took = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    dripper.join().unwrap();
    assert!(answer.is_empty(), "a stalled frame gets no answer");
    assert!(took < TIMEOUT + SLACK, "cut off after {took:?}");

    // Idle *between* frames is not a stall: the pooled connection
    // outlives several timeouts and still answers.
    std::thread::sleep(TIMEOUT * 3);
    assert_eq!(client.call(&ping(9)).unwrap(), ping(9));
}

/// Peak heap growth while `scenario` runs.
fn peak_growth(scenario: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    scenario();
    PEAK.load(Ordering::Relaxed).saturating_sub(base)
}

/// Announce a 200 MiB message with `head`, then stay silent past the
/// point the server has read the announcement, then close.
fn announce_then_silence(addr: std::net::SocketAddr, head: &[u8]) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(head).unwrap();
    s.flush().unwrap();
    std::thread::sleep(Duration::from_millis(200));
}

/// Announce a 200 MiB message with `head` and close at once.
fn announce_then_close(addr: std::net::SocketAddr, head: &[u8]) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(head).unwrap();
    drop(s);
    std::thread::sleep(Duration::from_millis(100));
}

#[test]
fn announced_200_mib_frame_allocates_almost_nothing() {
    let _g = lock();
    let server = FramedServer::start_with(echo(), &config()).unwrap();
    let mut head = b"WSE1\x00".to_vec();
    head.extend_from_slice(&(200 * MIB as u32).to_be_bytes());
    head.extend_from_slice(b"<partial");
    let addr = server.local_addr();
    let silent = peak_growth(|| announce_then_silence(addr, &head));
    assert!(
        silent < MIB,
        "silence: server grew the heap by {silent} bytes"
    );
    let closed = peak_growth(|| announce_then_close(addr, &head));
    assert!(
        closed < MIB,
        "close: server grew the heap by {closed} bytes"
    );
    // The server is unharmed.
    let client = FramedClient::connect(&server.authority()).unwrap();
    assert_eq!(client.call(&ping(1)).unwrap(), ping(1));
}

#[test]
fn announced_200_mib_http_body_allocates_almost_nothing() {
    let _g = lock();
    let server = HttpSoapServer::start_with(echo(), &config()).unwrap();
    let head = format!(
        "POST /svc HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n<partial",
        200 * MIB
    );
    let addr = server.local_addr();
    let silent = peak_growth(|| announce_then_silence(addr, head.as_bytes()));
    assert!(
        silent < MIB,
        "silence: server grew the heap by {silent} bytes"
    );
    let closed = peak_growth(|| announce_then_close(addr, head.as_bytes()));
    assert!(
        closed < MIB,
        "close: server grew the heap by {closed} bytes"
    );
    let resp = http_call(&server.authority(), "svc", &ping(1)).unwrap();
    assert_eq!(resp, ping(1));
}

/// A one-shot raw HTTP server: read the request head (and its body,
/// when it declares one), answer with `response`, then wait for the
/// client to hang up. Returns its authority and its thread.
fn answer_once(response: &'static str) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut data = Vec::new();
        let mut buf = [0u8; 4096];
        while !request_complete(&data) {
            match s.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => data.extend_from_slice(&buf[..n]),
            }
        }
        let _ = s.write_all(response.as_bytes());
        let _ = s.read_to_end(&mut data);
    });
    (addr, server)
}

fn request_complete(data: &[u8]) -> bool {
    let Some(end) = data.windows(4).position(|w| w == b"\r\n\r\n") else {
        return false;
    };
    let head = String::from_utf8_lossy(&data[..end]);
    let body_len: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().unwrap())
        })
        .unwrap_or(0);
    data.len() >= end + 4 + body_len
}

#[test]
fn absurd_response_content_length_is_a_protocol_error() {
    let _g = lock();
    for response in [
        // usize::MAX: `vec![0u8; len]` would panic on capacity overflow.
        "HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n<x/>",
        // ~1 TB: an eager buffer would abort the process.
        "HTTP/1.1 200 OK\r\nContent-Length: 1000000000000\r\n\r\n<x/>",
    ] {
        let growth = peak_growth(|| {
            let (addr, server) = answer_once(response);
            let err = http_post(&addr, "svc", &ping(0)).unwrap_err();
            assert!(matches!(err, TransportError::Protocol(_)), "{err:?}");
            server.join().unwrap();
            let (addr, server) = answer_once(response);
            let err = http_get(&addr, "/metrics").unwrap_err();
            assert!(matches!(err, TransportError::Protocol(_)), "{err:?}");
            server.join().unwrap();
        });
        assert!(growth < MIB, "client grew the heap by {growth} bytes");
    }
}
