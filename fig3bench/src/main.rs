//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path fig3bench/Cargo.toml -- \
//!     --workload fig3-sockets --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (see `README.md` next to this file) as closed
//! loops for about `--seconds`, checks every output, prints a report
//! and, as the last line, one JSON record. With `--trace 0` the record
//! holds the end-to-end metrics; with `--trace 1` it holds the
//! per-layer metrics of a traced run. Exits non-zero when a check
//! fails or the arguments are wrong.

mod affinity;
mod fig3;
mod grid;
mod ledger;
mod report;
mod rng;
mod rpmix;
mod stats;
mod store;
mod trace;
mod wire;

use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use fig3::Fig3;
use grid::GridSpec;
use rpmix::RpMix;

/// What one round measured. A round sets up from scratch, runs a fixed
/// amount of timed work and checks it. Each worker thread fills one
/// for its share; [`Round::merge`] folds them together.
#[derive(Default)]
pub struct Round {
    pub traced: bool,
    pub setup_s: f64,
    /// Wall time of the timed window.
    pub timed_s: f64,
    /// Latency of the unit operation (ms): a job set, or an RP read.
    pub unit_ms: Vec<f64>,
    /// RP write latency (ms).
    pub write_ms: Vec<f64>,
    /// Every exchange as seen by its caller (µs).
    pub exchanges: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub relay_errors: u64,
    pub problems: Vec<String>,
    /// Traffic in the timed window: request/response exchanges,
    /// one-ways and payload bytes.
    pub calls: u64,
    pub oneways: u64,
    pub bytes: u64,
    /// Parse events, DOM builds and renders in the timed window.
    pub xml: [u64; 3],
    /// Virtual makespan of each timed job set (s).
    pub makespan_s: Vec<f64>,
    /// Resources alive in the decorated stores after the round.
    pub resources_end: u64,
}

impl Round {
    /// Fold a worker's share into the round.
    pub fn merge(&mut self, w: Round) {
        self.unit_ms.extend(w.unit_ms);
        self.write_ms.extend(w.write_ms);
        self.makespan_s.extend(w.makespan_s);
        self.problems.extend(w.problems);
        self.attempted += w.attempted;
        self.failed += w.failed;
        self.calls += w.calls;
        self.oneways += w.oneways;
        self.bytes += w.bytes;
    }

    /// Note a failed check (the first few are kept for the report).
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 4 {
            self.problems.push(problem);
        }
    }
}

/// The process-wide XML/SOAP work counters.
fn xml_counts() -> [u64; 3] {
    [
        wsrf_xml::parse_event_count(),
        wsrf_xml::dom_build_count(),
        wsrf_soap::render_count(),
    ]
}

/// The barriers around a round's timed window, as its workers see them.
pub struct Gate {
    ready: Barrier,
    go: Barrier,
    done: Barrier,
    after: Barrier,
}

impl Gate {
    /// Set-up is finished; returns when the timed window opens.
    pub fn open(&self) {
        self.ready.wait();
        self.go.wait();
    }

    /// Timed work is finished; returns once the window has closed.
    pub fn close(&self) {
        self.done.wait();
        self.after.wait();
    }
}

/// Run `workers` threads through one round: each sets up, calls
/// [`Gate::open`], does its timed work, calls [`Gate::close`], checks
/// its results and returns its share. Meanwhile this thread times the
/// set-up and the window and switches tracing and exchange timing on
/// for the window only. Every worker must reach both gates.
pub fn run_round(round: &mut Round, workers: usize, work: impl Fn(usize, &Gate) -> Round + Sync) {
    let parties = workers + 1;
    let gate = Gate {
        ready: Barrier::new(parties),
        go: Barrier::new(parties),
        done: Barrier::new(parties),
        after: Barrier::new(parties),
    };
    let spawned = Instant::now();
    let shares: Vec<Round> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let (gate, work) = (&gate, &work);
                scope.spawn(move || work(i, gate))
            })
            .collect();
        gate.ready.wait();
        round.setup_s += spawned.elapsed().as_secs_f64();
        let errors = wire::COUNTERS.relay_errors.load(Ordering::Relaxed);
        trace::set_enabled(round.traced);
        wire::set_measuring(true);
        let xml = xml_counts();
        let started = Instant::now();
        gate.go.wait();
        gate.done.wait();
        round.timed_s = started.elapsed().as_secs_f64();
        let now = xml_counts();
        round.xml = [now[0] - xml[0], now[1] - xml[1], now[2] - xml[2]];
        wire::set_measuring(false);
        trace::set_enabled(false);
        gate.after.wait();
        let shares = handles
            .into_iter()
            .map(|h| h.join().expect("round worker panicked"))
            .collect();
        round.relay_errors = wire::COUNTERS.relay_errors.load(Ordering::Relaxed) - errors;
        shares
    });
    for share in shares {
        round.merge(share);
    }
    round.exchanges = wire::take_exchanges();
}

pub enum Workload {
    Fig3(Fig3),
    RpMix(RpMix),
}

/// Two closed-loop sessions everywhere: one per core of the reference
/// machine.
const SESSIONS: usize = 2;

impl Workload {
    pub fn named(name: &str, seed: u64) -> Option<Workload> {
        Some(match name {
            "fig3-sockets" => Workload::Fig3(Fig3 {
                shape: "diamond",
                jobs: 7,
                grid: GridSpec {
                    machines: 4,
                    secure: true,
                    sockets: true,
                    seed,
                },
                sessions: SESSIONS,
                sets_per_session: 30,
            }),
            "fig3-inproc-fanout" => Workload::Fig3(Fig3 {
                shape: "fanout",
                jobs: 16,
                grid: GridSpec {
                    machines: 4,
                    secure: false,
                    sockets: false,
                    seed,
                },
                sessions: SESSIONS,
                sets_per_session: 30,
            }),
            "rp-mix" => Workload::RpMix(RpMix {
                connections: SESSIONS,
                resources: 256,
                read_share: 0.9,
                warmup_ops: 500,
                ops_per_connection: 5000,
            }),
            _ => return None,
        })
    }

    /// The span that roots one unit of work.
    pub fn root_layer(&self) -> &'static str {
        match self {
            Workload::Fig3(_) => "jobset",
            Workload::RpMix(_) => "rp.op",
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Rounds every run makes at least: enough job sets for a p90, and in
/// a traced run one untraced round to compare against.
const MIN_ROUNDS: usize = 2;

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fig3bench: {e}");
            eprintln!("usage: fig3bench --workload <fig3-sockets|fig3-inproc-fanout|rp-mix> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(workload) = Workload::named(&args.workload, args.seed) else {
        eprintln!("fig3bench: unknown workload '{}'", args.workload);
        std::process::exit(2);
    };
    let lo0 = report::loopback_bytes();
    let reference = match &workload {
        Workload::Fig3(f) => Some(f.reference(args.seed)),
        Workload::RpMix(_) => None,
    };
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut rounds = Vec::new();
    let mut peak_rss_mb = 0.0;
    while rounds.len() < MIN_ROUNDS || started.elapsed() < budget {
        let index = rounds.len();
        // A traced run alternates untraced and traced rounds.
        let traced = args.trace && index % 2 == 1;
        let round = match &workload {
            Workload::Fig3(f) => {
                let reference = reference.expect("computed for fig3 workloads");
                f.round(args.seed, index, traced, reference)
            }
            Workload::RpMix(m) => m.round(args.seed, index, traced),
        };
        eprintln!(
            "round {index}{}: setup {:.3} s, timed {:.3} s, {} units, p50 {:.4} ms, hwm {:.1}",
            if traced { " (traced)" } else { "" },
            round.setup_s,
            round.timed_s,
            round.unit_ms.len(),
            stats::median(&round.unit_ms),
            report::peak_rss_mb()
        );
        rounds.push(round);
        if rounds.len() == 1 {
            peak_rss_mb = report::peak_rss_mb();
        }
    }
    let _ = std::fs::remove_dir(rpmix::SCRATCH_DIR);
    let spans = trace::take_spans();
    let run = report::Run {
        name: &args.workload,
        seed: args.seed,
        workload: &workload,
        rounds: &rounds,
        spans: &spans,
        loopback_bytes: report::loopback_bytes().saturating_sub(lo0),
        peak_rss_mb,
    };
    let code = run.print(args.trace);
    std::process::exit(code);
}
