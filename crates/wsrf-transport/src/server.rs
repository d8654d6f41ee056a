//! The one socket server both SOAP framings run on: bind, accept,
//! per-connection setup, a thread per connection, observability and
//! shutdown on drop live here; a [`Framing`] (HTTP in [`crate::http`],
//! `soap.tcp` in [`crate::tcpframe`]) only serves one connection.
//! Every message either framing receives reaches the endpoint through
//! `Site::dispatch`, i.e. [`Endpoint::handle_wire`] on the borrowed
//! receive buffer.

use std::io::{self, Read};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use simclock::Clock;
use wsrf_obs::{with_scoped_parent, ActiveSpan, MetricsRegistry};
use wsrf_soap::Envelope;

use crate::endpoint::Endpoint;
use crate::obs::LinkObs;

/// Bounds on every accepted connection, so a peer that trickles,
/// stalls or floods costs one thread for at most `read_timeout`.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// How long a read waits for a message's first byte, and how long
    /// the rest of that message may take once it has begun. HTTP
    /// answers an expired wait with 408; `soap.tcp` keeps a connection
    /// idle *between* frames and closes one that stalls within one.
    pub read_timeout: Duration,
    /// Cap on an HTTP request line + header block, in bytes (431 beyond).
    pub max_header_bytes: usize,
    /// Cap on the number of HTTP header lines (431 beyond).
    pub max_header_lines: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            read_timeout: Duration::from_secs(10),
            max_header_bytes: 16 << 10,
            max_header_lines: 100,
        }
    }
}

/// How a [`Server`] runs; the default is what [`Server::start`] uses.
pub struct ServerConfig {
    pub limits: Limits,
    /// Where served traffic is counted (`transport.<kind>.*`). While it
    /// is enabled HTTP also serves the monitoring GETs from it; while
    /// its tracer is, each traced message gets a `transport.serve` hop.
    pub metrics: Arc<MetricsRegistry>,
    /// Virtual time for hop spans and health views.
    pub clock: Clock,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            limits: Limits::default(),
            metrics: MetricsRegistry::disabled(),
            clock: Clock::manual(),
        }
    }
}

/// A wire framing a [`Server`] can serve: [`crate::http::Http`] or
/// [`crate::tcpframe::SoapTcp`].
pub trait Framing: Send + Sync + 'static {
    /// Metric prefix (`transport.<KIND>.*`) and hop-span service name.
    const KIND: &'static str;
    /// Whether a connection may idle between messages.
    const PERSISTENT: bool;
    /// Serve one accepted connection until it closes.
    fn serve(conn: Inbound, writer: TcpStream, site: &Site) -> io::Result<()>;
}

/// What every connection of one server shares.
pub struct Site {
    endpoint: Arc<dyn Endpoint>,
    pub(crate) obs: LinkObs,
    pub(crate) metrics: Arc<MetricsRegistry>,
    pub(crate) clock: Clock,
    pub(crate) limits: Limits,
}

impl Site {
    /// Hand one received message to the endpoint. A traced message
    /// (tracer on, trace header present) gets a `transport.serve` hop
    /// span under its header, offered to the dispatch as its parent;
    /// the caller drops the returned guard once the response is out.
    pub(crate) fn dispatch(&self, wire: &str) -> (Option<Envelope>, Option<ActiveSpan>) {
        let hop = self
            .obs
            .tracer
            .is_enabled()
            .then(|| wsrf_soap::lazy::scan_trace(wire))
            .flatten()
            .map(|tc| self.obs.hop(tc, "transport.serve", &self.clock));
        let resp = match &hop {
            Some(h) => with_scoped_parent(h.context(), || self.endpoint.handle_wire(wire)),
            None => self.endpoint.handle_wire(wire),
        };
        (resp, hop)
    }
}

/// A listening localhost endpoint speaking framing `F`.
pub struct Server<F: Framing> {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    _framing: PhantomData<F>,
}

impl<F: Framing> Server<F> {
    /// Bind an ephemeral port and serve `endpoint` with the default
    /// [`ServerConfig`].
    pub fn start(endpoint: Arc<dyn Endpoint>) -> io::Result<Self> {
        Self::start_with(endpoint, &ServerConfig::default())
    }

    /// Bind an ephemeral port and serve `endpoint` as `config` says.
    pub fn start_with(endpoint: Arc<dyn Endpoint>, config: &ServerConfig) -> io::Result<Self> {
        let site = Arc::new(Site {
            endpoint,
            obs: LinkObs::new(&config.metrics, F::KIND),
            metrics: config.metrics.clone(),
            clock: config.clock.clone(),
            limits: config.limits,
        });
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let sd = shutdown.clone();
        let accept_thread = std::thread::Builder::new()
            .name(format!("{}-accept", F::KIND))
            .spawn(move || {
                for conn in listener.incoming() {
                    if sd.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    stream.set_nodelay(true).ok();
                    let timeout = site.limits.read_timeout;
                    stream.set_read_timeout(Some(timeout)).ok();
                    let Ok(read_half) = stream.try_clone() else {
                        continue;
                    };
                    let conn = Inbound {
                        stream: read_half,
                        timeout,
                        persistent: F::PERSISTENT,
                        deadline: None,
                        short: false,
                        narrowed: false,
                    };
                    let site = site.clone();
                    let _ = std::thread::Builder::new()
                        .name(format!("{}-conn", F::KIND))
                        .spawn(move || F::serve(conn, stream, &site));
                }
            })?;
        Ok(Server {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            _framing: PhantomData,
        })
    }

    /// The bound address, e.g. `127.0.0.1:49152`.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `host:port` authority string for building EPRs.
    pub fn authority(&self) -> String {
        self.addr.to_string()
    }
}

impl<F: Framing> Drop for Server<F> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr); // unblock the accept loop
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// True when an IO error is a read timeout firing.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The read half of an accepted connection whose socket read timeout
/// is `timeout`. A read waits that long for a message's first byte
/// (forever on a persistent connection: idling between messages is
/// fine); from that byte on, the whole message must arrive within
/// `timeout` or reads fail with `TimedOut`. Reads that fill their
/// buffer cost no extra system call: only after a short read (the peer
/// is trickling) is the socket timeout narrowed to the time left.
pub struct Inbound {
    stream: TcpStream,
    timeout: Duration,
    persistent: bool,
    deadline: Option<Instant>,
    /// The last read of this message returned less than asked.
    short: bool,
    /// The socket timeout is currently below `timeout`.
    narrowed: bool,
}

impl Inbound {
    /// The current message is complete; wait for the next one.
    pub(crate) fn message_done(&mut self) -> io::Result<()> {
        self.deadline = None;
        self.short = false;
        if std::mem::take(&mut self.narrowed) {
            self.stream.set_read_timeout(Some(self.timeout))?;
        }
        Ok(())
    }
}

impl Read for Inbound {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(deadline) = self.deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            if self.short {
                self.stream.set_read_timeout(Some(left))?;
                self.narrowed = true;
            }
        }
        loop {
            match self.stream.read(buf) {
                Ok(n) => {
                    if n > 0 && self.deadline.is_none() {
                        self.deadline = Some(Instant::now() + self.timeout);
                    }
                    self.short = n < buf.len();
                    return Ok(n);
                }
                Err(e) if is_timeout(&e) && self.persistent && self.deadline.is_none() => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Bytes a receive buffer grows by per read.
const GROW_STEP: usize = 64 << 10;

/// Read exactly `len` bytes into `buf`, growing it [`GROW_STEP`] at a
/// time as bytes arrive, so a length announcement alone never reserves
/// more than one step. Under one step this is a single `read_exact`.
pub(crate) fn read_body(r: &mut impl Read, buf: &mut Vec<u8>, len: usize) -> io::Result<()> {
    buf.resize(len.min(GROW_STEP), 0);
    r.read_exact(buf)?;
    while buf.len() < len {
        let at = buf.len();
        buf.resize(at + (len - at).min(GROW_STEP), 0);
        r.read_exact(&mut buf[at..])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_body_grows_in_steps_and_fills_exactly() {
        let data: Vec<u8> = (0..(3 * GROW_STEP + 17)).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        read_body(&mut &data[..], &mut buf, data.len()).unwrap();
        assert_eq!(buf, data);
        // A short source fails without reserving the announced length.
        let mut buf = Vec::new();
        let err = read_body(&mut &data[..10], &mut buf, 200 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(buf.capacity() <= 2 * GROW_STEP, "{}", buf.capacity());
    }
}
