//! Turning rounds into metrics: the printed report, the fingerprint and
//! the closing JSON record.

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::Instant;

use uvacg::security::GridSecurity;
use wsrf_security::wsse::UsernameToken;
use wsrf_soap::{Envelope, LazyEnvelope};

use crate::ledger::Ledger;
use crate::stats::{mean_of_rounds, median, percentile, sorted};
use crate::trace::SpanRec;
use crate::wire::{self, COUNTERS};
use crate::{Round, Workload};

/// Metrics in a `--trace 0` record (`end_to_end` in BENCHMARK.json).
const END_TO_END: usize = 7;

/// One metric as printed and recorded.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 for counts and ratios).
    pub samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

pub struct Run<'a> {
    pub name: &'a str,
    pub seed: u64,
    pub workload: &'a Workload,
    pub rounds: &'a [Round],
    pub spans: &'a [SpanRec],
    pub loopback_bytes: u64,
    /// Peak RSS after the first round: a fixed amount of work, so a
    /// faster program that fits more rounds into the run is not charged
    /// for the benchmark's growing sample log. (Later rounds also land
    /// on either of two allocator states, about 9 MiB apart.)
    pub peak_rss_mb: f64,
}

/// Peak resident set of this process so far (MiB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Bytes received on the loopback interface so far.
pub fn loopback_bytes() -> u64 {
    std::fs::read_to_string("/proc/net/dev")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.trim_start().starts_with("lo:"))
                .and_then(|l| l.split(':').nth(1)?.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Mean time (µs) of one call of `f` per item, over `reps` passes.
fn time_per_item<T>(items: &[T], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    for _ in 0..reps {
        for it in items {
            f(it);
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / (reps * items.len()) as f64
}

/// Replay the captured request wires through the inbound scan, the
/// full parser and the renderer: (scan, parse, render) µs per wire.
fn replay_wires(wires: &[String]) -> (f64, f64, f64) {
    const REPS: usize = 20;
    let scan = time_per_item(wires, REPS, |w| {
        let _ = black_box(LazyEnvelope::scan(black_box(w)));
    });
    let parse = time_per_item(wires, REPS, |w| {
        let _ = black_box(wsrf_xml::parse(black_box(w)));
    });
    let envs: Vec<Envelope> = wires
        .iter()
        .filter_map(|w| Envelope::parse(w).ok())
        .collect();
    let mut buf: Vec<u8> = Vec::new();
    let render = time_per_item(&envs, REPS, |e| {
        buf.clear();
        black_box(e).write_into(&mut buf);
        black_box(&buf);
    });
    (scan, parse, render)
}

/// Median time (µs) of one token encryption plus its decryption.
fn replay_tokens(seed: u64) -> f64 {
    let sec = GridSecurity::new(seed);
    sec.enroll("scheduler");
    let token = UsernameToken::new("griduser", "gridpass");
    let times: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            let header = sec
                .encrypt_token(&token, "scheduler")
                .expect("enrolled subject");
            let back = sec.decrypt_token(&header, "scheduler");
            black_box(back.is_ok());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

impl Run<'_> {
    fn is_fig3(&self) -> bool {
        matches!(self.workload, Workload::Fig3(_))
    }

    fn untraced(&self) -> impl Iterator<Item = &Round> {
        self.rounds.iter().filter(|r| !r.traced)
    }

    fn traced(&self) -> impl Iterator<Item = &Round> {
        self.rounds.iter().filter(|r| r.traced)
    }

    /// Operations attempted and failed (failed checks plus relay or
    /// transport errors), over every round.
    fn tally(&self) -> (u64, u64) {
        let attempted: u64 = self.rounds.iter().map(|r| r.attempted).sum();
        let failed: u64 = self.rounds.iter().map(|r| r.failed + r.relay_errors).sum();
        (attempted, failed.min(attempted))
    }

    /// End-to-end metrics over the untraced rounds, plus the
    /// workload-specific names they appear under in the report.
    fn end_to_end(&self) -> (Vec<Metric>, Vec<Metric>) {
        let collect = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
            sorted(self.untraced().flat_map(|r| f(r).iter().copied()).collect())
        };
        let unit = collect(|r| &r.unit_ms);
        let writes = collect(|r| &r.write_ms);
        let exch = collect(|r| &r.exchanges);
        let timed: f64 = self.untraced().map(|r| r.timed_s).sum();
        let done = (unit.len() + writes.len()) as f64;
        let setups: Vec<f64> = self.rounds.iter().map(|r| r.setup_s).collect();
        let (attempted, failed) = self.tally();

        // Medians are taken per round and averaged over the rounds
        // (see `mean_of_rounds`); a round holds too few samples beyond
        // a tail percentile, so tails are taken over the pooled samples.
        let p50 = |f: fn(&Round) -> &Vec<f64>| {
            mean_of_rounds(self.untraced().map(|r| f(r).as_slice()), 0.5)
        };
        let (unit_p50, write_p50, exch_p50) = (
            p50(|r| &r.unit_ms),
            p50(|r| &r.write_ms),
            p50(|r| &r.exchanges),
        );

        let mut generic = Vec::new();
        let mut named = Vec::new();
        let mut pct = |generic_name, named_name, v: &[f64], p: Option<f64>, scale, unit_name| {
            if let Some(p) = p {
                generic.push(metric(generic_name, p, "ms", v.len()));
                named.push(metric(named_name, p * scale, unit_name, v.len()));
            }
        };
        let (q50, q90) = (unit_p50, percentile(&unit, 0.9));
        if self.is_fig3() {
            pct("op_ms_p50", "jobset_ms_p50", &unit, q50, 1.0, "ms");
            pct("op_ms_p90", "jobset_ms_p90", &unit, q90, 1.0, "ms");
        } else {
            pct("op_ms_p50", "read_us_p50", &unit, q50, 1e3, "us");
            pct("op_ms_p90", "read_us_p90", &unit, q90, 1e3, "us");
            if let Some(p) = percentile(&unit, 0.99) {
                named.push(metric("read_us_p99", p * 1e3, "us", unit.len()));
            }
            for (name, p) in [
                ("write_us_p50", write_p50),
                ("write_us_p99", percentile(&writes, 0.99)),
            ] {
                if let Some(p) = p {
                    named.push(metric(name, p * 1e3, "us", writes.len()));
                }
            }
        }
        let rate = if timed > 0.0 { done / timed } else { 0.0 };
        generic.push(metric("ops_per_s", rate, "1/s", done as usize));
        named.push(metric(
            if self.is_fig3() {
                "jobsets_per_s"
            } else {
                "ops_per_s"
            },
            rate,
            "1/s",
            done as usize,
        ));
        for (name, p) in [
            ("exchange_us_p50", exch_p50),
            ("exchange_us_p99", percentile(&exch, 0.99)),
        ] {
            if let Some(p) = p {
                generic.push(metric(name, p, "us", exch.len()));
                named.push(metric(name, p, "us", exch.len()));
            }
        }
        let setup = median(&setups);
        generic.push(metric("setup_s", setup, "s", setups.len()));
        named.push(metric("setup_s", setup, "s", setups.len()));
        let rss = self.peak_rss_mb;
        generic.push(metric("peak_rss_mb", rss, "MiB", 1));
        named.push(metric("peak_rss_mb", rss, "MiB", 1));
        let frac = failed as f64 / attempted.max(1) as f64;
        named.push(metric("failed_frac", frac, "ratio", attempted as usize));
        if self.is_fig3() {
            let spans: Vec<f64> = self
                .rounds
                .iter()
                .flat_map(|r| r.makespan_s.iter().copied())
                .collect();
            named.push(metric(
                "virtual_makespan_s",
                median(&spans),
                "s",
                spans.len(),
            ));
        }
        (generic, named)
    }

    /// Per-layer metrics over the traced rounds.
    fn per_layer(&self) -> (Vec<Metric>, Ledger) {
        let l = Ledger::build(self.spans, self.workload.root_layer());
        let units = l.roots.max(1) as f64;
        let us = |ns: f64| ns / 1e3;
        let per_unit = |layer: &str| us(l.self_of(layer)) / units;
        let med = |layer: &str, v: &std::collections::BTreeMap<&'static str, Vec<f64>>| {
            v.get(layer).map_or(0.0, |d| us(median(d)))
        };
        let services = [
            "uvacg.scheduler",
            "uvacg.es",
            "uvacg.fss",
            "uvacg.nis",
            "ws-notification.broker",
        ];
        let dispatches: u64 = services.iter().map(|s| l.count_of(s)).sum();
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let sum = |f: fn(&Round) -> u64, traced: bool| -> u64 {
            self.rounds
                .iter()
                .filter(|r| r.traced == traced)
                .map(f)
                .sum()
        };
        let (calls, oneways, bytes) = (
            sum(|r| r.calls, true),
            sum(|r| r.oneways, true),
            sum(|r| r.bytes, true),
        );
        let traced_units: u64 = self
            .traced()
            .map(|r| r.unit_ms.len() + r.write_ms.len())
            .sum::<usize>() as u64;
        let untraced_msgs = sum(|r| r.calls + r.oneways, false) as f64;
        let xml = |i: usize| {
            let n: u64 = self.untraced().map(|r| r.xml[i]).sum();
            ratio(n as f64, untraced_msgs)
        };
        let wires = wire::take_wires();
        let (scan, parse, render) = replay_wires(&wires);
        let tokens = COUNTERS.tokens.load(Ordering::Relaxed) as f64;
        let token_us = if tokens > 0.0 {
            replay_tokens(self.seed)
        } else {
            0.0
        };
        let unit_p50 = |traced: bool| {
            median(
                &self
                    .rounds
                    .iter()
                    .filter(|r| r.traced == traced)
                    .flat_map(|r| r.unit_ms.iter().copied())
                    .collect::<Vec<_>>(),
            )
        };
        let overhead = ratio(unit_p50(true), unit_p50(false)) - 1.0;
        let resources_end = self.rounds.last().map_or(0, |r| r.resources_end) as f64;
        let m = vec![
            metric(
                "uvacg.client.submit_us",
                med("uvacg.client.submit", &l.durs),
                "us",
                0,
            ),
            metric(
                "uvacg.client.outcome_us",
                med("uvacg.client.outcome", &l.durs),
                "us",
                0,
            ),
            metric(
                "uvacg.client.polls_per_jobset",
                l.count_of("uvacg.client.outcome") as f64 / units,
                "count",
                0,
            ),
            metric(
                "uvacg.scheduler.self_us_per_jobset",
                per_unit("uvacg.scheduler") + per_unit("uvacg.scheduler.events"),
                "us",
                0,
            ),
            metric("uvacg.es.self_us_per_jobset", per_unit("uvacg.es"), "us", 0),
            metric(
                "uvacg.fss.self_us_per_jobset",
                per_unit("uvacg.fss"),
                "us",
                0,
            ),
            metric(
                "uvacg.nis.self_us_per_jobset",
                per_unit("uvacg.nis"),
                "us",
                0,
            ),
            metric(
                "wsrf-core.dispatches_per_jobset",
                dispatches as f64 / units,
                "count",
                0,
            ),
            metric(
                "wsrf-core.faults",
                COUNTERS.faults.load(Ordering::Relaxed) as f64,
                "count",
                0,
            ),
            metric(
                "wsrf-core.store.load_us",
                us(l.mean_dur("wsrf-core.store.load")),
                "us",
                0,
            ),
            metric(
                "wsrf-core.store.save_us",
                us(l.mean_dur("wsrf-core.store.save")),
                "us",
                0,
            ),
            metric(
                "wsrf-core.store.loads_per_op",
                ratio(l.count_of("wsrf-core.store.load") as f64, dispatches as f64),
                "count",
                0,
            ),
            metric(
                "wsrf-core.store.saves_per_op",
                ratio(l.count_of("wsrf-core.store.save") as f64, dispatches as f64),
                "count",
                0,
            ),
            metric("wsrf-core.store.resources_end", resources_end, "count", 0),
            metric(
                "wsrf-transport.wire_us",
                med("wsrf-transport.relay", &l.selfs),
                "us",
                0,
            ),
            metric(
                "wsrf-transport.bytes_per_exchange",
                ratio(bytes as f64, (calls + oneways) as f64),
                "B",
                0,
            ),
            metric(
                "wsrf-transport.exchanges_per_jobset",
                ratio(calls as f64, traced_units as f64),
                "count",
                0,
            ),
            metric(
                "wsrf-transport.oneways_per_jobset",
                ratio(oneways as f64, traced_units as f64),
                "count",
                0,
            ),
            metric("wsrf-xml.parse_events_per_exchange", xml(0), "count", 0),
            metric("wsrf-xml.dom_builds_per_exchange", xml(1), "count", 0),
            metric("wsrf-soap.renders_per_exchange", xml(2), "count", 0),
            metric("wsrf-soap.scan_us", scan, "us", wires.len()),
            metric("wsrf-xml.parse_us", parse, "us", wires.len()),
            metric("wsrf-soap.render_us", render, "us", wires.len()),
            metric(
                "ws-notification.broker.self_us_per_jobset",
                per_unit("ws-notification.broker"),
                "us",
                0,
            ),
            metric(
                "ws-notification.listener.self_us_per_jobset",
                per_unit("ws-notification.listener"),
                "us",
                0,
            ),
            metric(
                "ws-notification.deliveries_per_publish",
                ratio(
                    (l.count_of("ws-notification.listener") + l.count_of("uvacg.scheduler.events"))
                        as f64,
                    COUNTERS.publishes.load(Ordering::Relaxed) as f64,
                ),
                "count",
                0,
            ),
            metric(
                "wsrf-security.tokens_per_jobset",
                tokens / units,
                "count",
                0,
            ),
            metric("wsrf-security.token_us", token_us, "us", 0),
            metric(
                "grid-node.advance_self_us_per_jobset",
                per_unit("grid-node.advance"),
                "us",
                0,
            ),
            metric(
                "grid-node.advances_per_jobset",
                l.count_of("grid-node.advance") as f64 / units,
                "count",
                0,
            ),
            metric(
                "ledger.unattributed_frac",
                ratio(l.unattributed_ns, l.total_ns),
                "ratio",
                0,
            ),
            metric("wsrf-obs.trace_overhead_frac", overhead, "ratio", 0),
        ];
        (m, l)
    }

    fn print_ledger(&self, l: &Ledger) {
        let unit = if self.is_fig3() { "job set" } else { "RP op" };
        println!(
            "\nper-layer ledger: {} traced {unit}s, {:.1} ms summed wall time",
            l.roots,
            l.total_ns / 1e6
        );
        println!(
            "{:<34} {:>12} {:>8} {:>14} {:>9}",
            "layer (self time)", "total ms", "share", "µs per unit", "spans"
        );
        let row = |name: &str, ns: f64, spans: u64| {
            println!(
                "{name:<34} {:>12.3} {:>7.2}% {:>14.1} {spans:>9}",
                ns / 1e6,
                100.0 * ns / l.total_ns.max(1.0),
                ns / 1e3 / l.roots.max(1) as f64
            );
        };
        for (layer, ns) in &l.self_ns {
            row(layer, *ns, l.count_of(layer));
        }
        row("unattributed", l.unattributed_ns, l.roots);
        let attributed: f64 = l.self_ns.values().sum();
        println!(
            "sum of self times + unattributed = {:.3} ms (total {:.3} ms)",
            (attributed + l.unattributed_ns) / 1e6,
            l.total_ns / 1e6
        );
    }

    fn fingerprint(&self) -> String {
        format!(
            "{{\"fingerprint\": {{\"workload\": {}, \"seed\": {}, \"nproc\": {}, \"cpu\": {}, \"git_sha\": {}, \"rounds\": {}, \"loopback_bytes\": {}, \"crossed_loopback\": {}}}}}",
            json_str(self.name),
            self.seed,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            json_str(&cpu_model()),
            json_str(&git_sha()),
            self.rounds.len(),
            self.loopback_bytes,
            self.loopback_bytes > 0
        )
    }

    /// Print the report and the record; returns the exit code.
    pub fn print(&self, traced: bool) -> i32 {
        let (attempted, failed) = self.tally();
        let problems: Vec<&String> = self.rounds.iter().flat_map(|r| &r.problems).collect();
        let (generic, named) = self.end_to_end();
        println!(
            "fig3bench · {} · seed {} · {} rounds ({} traced)",
            self.name,
            self.seed,
            self.rounds.len(),
            self.traced().count()
        );
        println!(
            "\n{:<22} {:>14} {:>6} {:>9}",
            "end-to-end metric", "value", "unit", "samples"
        );
        for m in &named {
            println!(
                "{:<22} {:>14.4} {:>6} {:>9}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let record = if traced {
            let (layer, ledger) = self.per_layer();
            self.print_ledger(&ledger);
            println!("\n{:<44} {:>14} {:>6}", "per-layer metric", "value", "unit");
            for m in &layer {
                println!("{:<44} {:>14.4} {:>6}", m.name, m.value, m.unit);
            }
            layer
        } else {
            generic
        };
        let mut correct = failed == 0 && attempted > 0;
        if !traced && record.len() < END_TO_END {
            eprintln!("fig3bench: too few samples for a reported percentile");
            correct = false;
        }
        for p in &problems {
            eprintln!("fig3bench: check failed: {p}");
        }
        println!("{}", self.fingerprint());
        let mut metrics = String::new();
        for (i, m) in record.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                json_str(m.unit)
            );
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
        );
        if correct {
            0
        } else {
            1
        }
    }
}
