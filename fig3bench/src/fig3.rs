//! The Figure 3 workloads: closed-loop client sessions submitting job
//! sets and driving the manual clock until each completes.
//!
//! Every session owns a grid, because a manual clock must have exactly
//! one thread advancing it. A round builds the grids, runs one warm-up
//! set per session (the relay-transparency check), then a fixed number
//! of timed sets per session, then fetches and checks every output.
//! Per-set cost grows with the grid's history, so a round is a fixed
//! count of sets, never a fixed duration.

use std::sync::Arc;
use std::time::{Duration, Instant};

use simclock::Clock;
use uvacg::{CampusGrid, JobSetHandle, JobSetOutcome, JobSetSpec};

use crate::grid::{shaped_spec, Grid, GridSpec, OUTPUT_BYTES, SET_BUDGET};
use crate::store::StoreStats;
use crate::{run_round, trace, Gate, Round};

/// One Figure 3 workload.
pub struct Fig3 {
    pub shape: &'static str,
    pub jobs: usize,
    pub grid: GridSpec,
    pub sessions: usize,
    pub sets_per_session: usize,
}

/// What one job set did.
pub struct SetRun {
    pub handle: Option<JobSetHandle>,
    pub completed: bool,
    pub wall_ms: f64,
    pub makespan_s: f64,
    /// `NetMetrics` call and one-way deltas.
    pub calls: u64,
    pub oneways: u64,
}

/// Submit `spec` and drive the clock one virtual second at a time until
/// the client sees the outcome. `group` ties the set's spans together.
pub fn run_set(grid: &Grid, spec: &JobSetSpec, group: u64) -> SetRun {
    drive(&grid.net, &grid.clock, spec, group, |s| {
        grid.client.submit(s, "griduser", "gridpass").ok()
    })
}

fn drive(
    net: &wsrf_transport::InProcNetwork,
    clock: &Clock,
    spec: &JobSetSpec,
    group: u64,
    submit: impl FnOnce(&JobSetSpec) -> Option<JobSetHandle>,
) -> SetRun {
    let (c0, o0, _, _) = net.metrics.snapshot();
    let v0 = clock.now();
    let root = trace::root("jobset", group);
    let started = Instant::now();
    let handle = {
        let _s = trace::span("uvacg.client.submit");
        submit(spec)
    };
    let mut completed = false;
    if let Some(h) = &handle {
        loop {
            let outcome = {
                let _s = trace::span("uvacg.client.outcome");
                h.outcome()
            };
            match outcome {
                Some(JobSetOutcome::Completed) => {
                    completed = true;
                    break;
                }
                Some(JobSetOutcome::Failed(_)) => break,
                None if clock.now() - v0 >= SET_BUDGET => break,
                None => {}
            }
            let _s = trace::span("grid-node.advance");
            clock.advance(Duration::from_secs(1));
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    drop(root);
    let (c1, o1, _, _) = net.metrics.snapshot();
    SetRun {
        handle,
        completed,
        wall_ms,
        makespan_s: (clock.now() - v0).as_secs_f64(),
        calls: c1 - c0,
        oneways: o1 - o0,
    }
}

impl Fig3 {
    fn spec(&self, seed: u64, tag: &str) -> JobSetSpec {
        shaped_spec(
            self.shape,
            self.jobs,
            &format!("{}-{seed:x}-{tag}", self.shape),
        )
    }

    /// The program's own in-process grid (`CampusGrid::build`) running
    /// one set alone: (virtual makespan, calls, one-ways).
    pub fn reference(&self, seed: u64) -> (f64, u64, u64) {
        let grid = CampusGrid::build(self.grid.config(), Clock::manual());
        let client = grid.client("session0");
        client.put_file(
            "C:\\prog.exe",
            grid_node::JobProgram::compute(crate::grid::JOB_CPU_S)
                .writing("out.dat", OUTPUT_BYTES)
                .to_manifest(),
        );
        let run = drive(&grid.net, &grid.clock, &self.spec(seed, "ref"), 0, |s| {
            client.submit(s, "griduser", "gridpass").ok()
        });
        (run.makespan_s, run.calls, run.oneways)
    }

    /// One round: build, warm up and check, time, verify outputs.
    pub fn round(
        &self,
        seed: u64,
        index: usize,
        traced: bool,
        reference: (f64, u64, u64),
    ) -> Round {
        let stats = Arc::new(StoreStats::default());
        let mut round = Round {
            traced,
            ..Round::default()
        };
        run_round(&mut round, self.sessions, |s, gate| {
            self.session(seed, index, s, gate, &stats, reference)
        });
        round.resources_end = stats.resources();
        round
    }

    /// Session `s` of a round: its own grid, one warm-up set checked
    /// against the program's grid, the timed sets, then every output.
    fn session(
        &self,
        seed: u64,
        index: usize,
        s: usize,
        gate: &Gate,
        stats: &Arc<StoreStats>,
        reference: (f64, u64, u64),
    ) -> Round {
        let mut out = Round::default();
        let spec = GridSpec {
            seed: seed ^ s as u64,
            ..self.grid
        };
        let grid = match Grid::build(spec, &format!("session{s}"), stats) {
            Ok(g) => g,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("session {s}: grid build failed: {e}"));
                gate.open();
                gate.close();
                return out;
            }
        };
        let warm = run_set(&grid, &self.spec(seed, &format!("r{index}s{s}warm")), 0);
        let seen = (warm.makespan_s, warm.calls, warm.oneways);
        out.attempted += 1;
        if !warm.completed || seen != reference {
            out.fail(format!(
                "session {s}: warm-up set (completed {}, makespan/calls/one-ways {seen:?}) \
                 differs from the in-process grid {reference:?}",
                warm.completed
            ));
        }
        gate.open();
        let (_, _, b0, _) = grid.net.metrics.snapshot();
        let runs: Vec<(JobSetSpec, SetRun)> = (0..self.sets_per_session)
            .map(|i| {
                let group = ((index as u64 + 1) << 32) | ((s as u64) << 24) | (i as u64 + 1);
                let spec = self.spec(seed, &format!("r{index}s{s}n{i}"));
                let run = run_set(&grid, &spec, group);
                (spec, run)
            })
            .collect();
        let (_, _, b1, _) = grid.net.metrics.snapshot();
        gate.close();
        out.bytes = b1 - b0;
        // Outside the timed window: every output of every job.
        for (spec, run) in &runs {
            out.attempted += 1;
            out.calls += run.calls;
            out.oneways += run.oneways;
            out.makespan_s.push(run.makespan_s);
            let outputs_ok = run.handle.as_ref().is_some_and(|h| {
                (0..self.jobs).all(|j| {
                    h.fetch_output(&format!("j{j}"), "out.dat")
                        .is_ok_and(|b| b.len() as u64 == OUTPUT_BYTES)
                })
            });
            if run.completed && outputs_ok {
                out.unit_ms.push(run.wall_ms);
            } else {
                out.fail(format!(
                    "job set '{}': completed {}, outputs {}",
                    spec.name,
                    run.completed,
                    if outputs_ok { "ok" } else { "wrong" }
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond(sockets: bool) -> Fig3 {
        Fig3 {
            shape: "diamond",
            jobs: 7,
            grid: GridSpec {
                machines: 4,
                secure: false,
                sockets,
                seed: 3,
            },
            sessions: 1,
            sets_per_session: 1,
        }
    }

    /// Experiment E3's row for the insecure diamond × 7 set.
    const E3_DIAMOND: (f64, u64, u64) = (12.0, 37, 90);

    #[test]
    fn relayed_and_in_process_grids_match_the_program_grid() {
        let reference = diamond(false).reference(3);
        assert_eq!(reference, E3_DIAMOND);
        for sockets in [false, true] {
            let f = diamond(sockets);
            let stats = Arc::new(StoreStats::default());
            let grid = Grid::build(f.grid, "session0", &stats).expect("grid builds");
            let run = run_set(&grid, &f.spec(3, "t"), 1);
            assert!(run.completed, "sockets={sockets}");
            assert_eq!(
                (run.makespan_s, run.calls, run.oneways),
                reference,
                "sockets={sockets}"
            );
            let h = run.handle.expect("submitted");
            for j in 0..f.jobs {
                let out = h.fetch_output(&format!("j{j}"), "out.dat").expect("output");
                assert_eq!(out.len() as u64, OUTPUT_BYTES);
            }
            assert!(stats.loads.load(std::sync::atomic::Ordering::Relaxed) > 0);
        }
    }
}
