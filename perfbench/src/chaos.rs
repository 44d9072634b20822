//! `chaos_hunt`: a fixed-seed hunt over the hardware-fault corpus. Every
//! schedule runs with shadow checking and the invariant library after
//! every event, which is the only path through the chaos executor, the
//! alarm / fleet-health / rollup telemetry and the flight recorder.

use crate::metrics::{self, digest, Outcome, Pass as _};
use crate::spans::{self, Recorder};
use lightwave_core::chaos::{
    hunt, run_schedule, ChaosConfig, FaultSchedule, HuntConfig, HuntReport, ScheduleOutcome, World,
};
use lightwave_core::par::Pool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Schedules in the corpus (one pass).
pub const SCHEDULES: u64 = 500;
/// Set-ups timed per run, at least, and the least time they span (see
/// [`metrics::time_setup`]).
const SETUP_REPEATS: usize = 101;
const SETUP_SECONDS: f64 = 1.0;

/// The corpus, into `out`: schedule `i` is `FaultSchedule::generate(seed, i)`.
fn generate_into(seed: u64, n: u64, out: &mut Vec<FaultSchedule>) {
    out.clear();
    out.extend((0..n).map(|i| FaultSchedule::generate(seed, i)));
}

#[cfg(test)]
fn generate(seed: u64, n: u64) -> Vec<FaultSchedule> {
    let mut out = Vec::new();
    generate_into(seed, n, &mut out);
    out
}

/// Times generations of the corpus into one reused buffer (see
/// [`metrics::time_setup`]); returns the median and the corpus.
fn setup(seed: u64, n: u64) -> (f64, Vec<FaultSchedule>) {
    let mut corpus = Vec::with_capacity(n as usize);
    let median = metrics::time_setup(SETUP_REPEATS, SETUP_SECONDS, || {
        generate_into(seed, n, std::hint::black_box(&mut corpus))
    });
    (median, corpus)
}

/// One pass over the corpus.
struct Pass {
    seed: u64,
    outcomes: Vec<ScheduleOutcome>,
    /// Indices of schedules that panicked.
    panics: Vec<u64>,
    /// Host seconds of each schedule, in corpus order.
    times: Vec<f64>,
    wall: f64,
}

impl metrics::Pass for Pass {
    const NAMES: [&'static str; 3] = ["schedules_per_s", "schedule_p50_us", "schedule_p99_us"];

    fn wall(&self) -> f64 {
        self.wall
    }

    /// One segment per schedule.
    fn segments(&self) -> &[f64] {
        &self.times
    }

    /// Schedules run.
    fn attempted(&self) -> u64 {
        self.times.len() as u64
    }

    /// Schedules with an invariant violation or a panic.
    fn failed(&self) -> u64 {
        let violations = self
            .outcomes
            .iter()
            .filter(|o| o.violation.is_some())
            .count();
        (violations + self.panics.len()) as u64
    }

    /// The hunt table and the serialized report.
    fn digest(&self) -> String {
        report_digest(self.seed, self.outcomes.clone())
    }

    fn check(&self, out: &mut Outcome) {
        for o in self.outcomes.iter().filter(|o| o.violation.is_some()) {
            out.check(false, || {
                format!("schedule {} violated {:?}", o.index, o.violation)
            });
        }
        for i in &self.panics {
            out.check(false, || format!("schedule {i} panicked"));
        }
    }

    fn summary(&self) -> String {
        let report = HuntReport {
            seed: self.seed,
            outcomes: self.outcomes.clone(),
        };
        report.table().trim_end().to_string()
    }
}

fn report_digest(seed: u64, outcomes: Vec<ScheduleOutcome>) -> String {
    let report = HuntReport { seed, outcomes };
    let json = serde_json::to_string(&report).expect("hunt report serializes");
    digest(&[&report.table(), &json])
}

fn pass(
    seed: u64,
    corpus: &[FaultSchedule],
    lat: &mut Vec<u64>,
    mut rec: Option<&mut Recorder>,
) -> Pass {
    let cfg = ChaosConfig::default();
    let mut p = Pass {
        seed,
        outcomes: Vec::with_capacity(corpus.len()),
        panics: Vec::new(),
        times: Vec::with_capacity(corpus.len()),
        wall: 0.0,
    };
    let start = Instant::now();
    for s in corpus {
        let t0 = Instant::now();
        let got = catch_unwind(AssertUnwindSafe(|| run_schedule(s, &cfg)));
        let t1 = Instant::now();
        let dur = t1.duration_since(t0);
        lat.push(dur.as_nanos() as u64);
        p.times.push(dur.as_secs_f64());
        if let Some(r) = rec.as_deref_mut() {
            r.record("chaos.run_schedule", "pass", s.index, 1, t0, t1);
        }
        match got {
            Ok(o) => p.outcomes.push(o),
            Err(_) => p.panics.push(s.index),
        }
    }
    p.wall = start.elapsed().as_secs_f64();
    p
}

/// The end-to-end run over the corpus.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let (setup_s, corpus) = setup(seed, SCHEDULES);
    metrics::run_passes(setup_s, seconds, |lat| pass(seed, &corpus, lat, None))
}

/// The traced run: an untraced pass, a traced pass, then a `World::new`
/// probe per schedule to split construction from event application and
/// checking.
pub fn run_traced(seed: u64, workload: &str) -> Outcome {
    let (setup_s, corpus) = setup(seed, SCHEDULES);
    let baseline = pass(seed, &corpus, &mut Vec::new(), None);
    let mut rec = Recorder::new(2 * corpus.len());
    let traced = pass(seed, &corpus, &mut Vec::new(), Some(&mut rec));
    let mut world_new = 0.0;
    for s in &corpus {
        let t0 = Instant::now();
        drop(std::hint::black_box(World::new(s.seed, s.index)));
        let t1 = Instant::now();
        world_new += t1.duration_since(t0).as_secs_f64();
        rec.record("chaos.world_new", "chaos.run_schedule", s.index, 2, t0, t1);
    }
    let mut out = Outcome {
        attempted: corpus.len() as u64,
        failed: traced.failed(),
        ..Outcome::default()
    };
    baseline.check(&mut out);
    traced.check(&mut out);
    let d = traced.digest();
    let b = baseline.digest();
    out.check(b == d, || format!("traced digest {d} != untraced {b}"));
    println!("digest {d}");
    crate::check_digest_at_two_threads(&mut out, workload, seed, &d);
    match spans::export(
        workload,
        &rec.to_chrome_trace(workload, &["hunt", "world probe"]),
    ) {
        Ok(path) => println!("trace: {path}"),
        Err(e) => out.check(false, || format!("trace export: {e}")),
    }

    let o = &traced.outcomes;
    let run_total: f64 = traced.times.iter().sum();
    let rows = ledger(world_new, run_total, traced.wall);
    let v = &mut out.values;
    for &(name, s) in &rows {
        v.set(name, s);
    }
    v.set(
        "chaos.events",
        o.iter().map(|o| o.events_applied as f64).sum(),
    );
    v.set("chaos.composes", o.iter().map(|o| o.composes as f64).sum());
    v.set("telemetry.alarms", o.iter().map(|o| o.alarms as f64).sum());
    v.set(
        "trace.flight_dumps",
        o.iter().map(|o| o.critical_dumps as f64).sum(),
    );
    v.set("trace.overhead_ratio", traced.wall / baseline.wall);
    println!("set-up (corpus generation): {setup_s:.6} s");
    crate::print_ledger(&rows, traced.wall);
    out
}

/// Ledger rows: `run_schedule` splits into `World::new` and the event
/// application with invariant checks; the loop's own cost is unattributed.
fn ledger(world_new: f64, run_total: f64, wall: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("chaos.world_new_s", world_new),
        ("chaos.apply_check_s", run_total - world_new),
        ("unattributed_s", wall - run_total),
    ]
}

/// The library hunt's digest on the process's `LIGHTWAVE_THREADS` pool.
pub fn library_digest(seed: u64) -> String {
    let report = hunt(
        &Pool::from_env(),
        &HuntConfig {
            seed,
            schedules: SCHEDULES,
            chaos: ChaosConfig::default(),
        },
    );
    report_digest(seed, report.outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_pass_matches_the_library_hunt() {
        let corpus = generate(9, 6);
        let p = pass(9, &corpus, &mut Vec::new(), None);
        assert_eq!(p.failed(), 0);
        let lib = hunt(
            &Pool::new(2),
            &HuntConfig {
                seed: 9,
                schedules: 6,
                chaos: ChaosConfig::default(),
            },
        );
        assert_eq!(report_digest(9, p.outcomes), report_digest(9, lib.outcomes));
    }

    #[test]
    fn ledger_sums_to_wall() {
        let rows = ledger(0.25, 1.5, 1.75);
        let total: f64 = rows.iter().map(|(_, s)| s).sum();
        assert!((total - 1.75).abs() < 1e-12);
    }
}
