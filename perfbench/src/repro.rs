//! `repro`: every paper figure and table at full depth with its checks —
//! the researcher's end-to-end run. It never touches the service or the
//! superpod; its cost is the FEC inner-code Monte Carlo (fig12) and the
//! scheduler simulation (sched1).

use crate::metrics::{self, digest, find, Outcome, Pass as _};
use crate::spans::{self, Recorder};
use lightwave_bench::{run as run_experiment, ALL_EXPERIMENTS};
use lightwave_core::fec::ConcatenatedCode;
use lightwave_core::scheduler::sim::default_mix;
use lightwave_core::scheduler::{ClusterSim, Contiguous, Pooled};
use lightwave_core::units::Ber;
use std::time::Instant;

/// Warm-up passes timed per run (see [`metrics::time_setup`]).
const SETUP_REPEATS: usize = 3;

/// The set-up: every experiment at quick depth, so the timed pass sees a
/// warm process (allocator, caches) rather than first-touch costs. The
/// experiments carry their own fixed seeds, so `repro` has no seeded input.
fn setup() -> f64 {
    metrics::time_setup(SETUP_REPEATS, 0.0, || {
        for id in ALL_EXPERIMENTS {
            std::hint::black_box(run_experiment(id, true));
        }
    })
}

struct Pass {
    /// Rendered output per experiment, in `ALL_EXPERIMENTS` order.
    renders: Vec<String>,
    /// Host seconds per experiment, in `ALL_EXPERIMENTS` order.
    times: Vec<f64>,
    /// Experiments with a failing check.
    failing: Vec<&'static str>,
    wall: f64,
}

impl metrics::Pass for Pass {
    const NAMES: [&'static str; 3] = ["repros_per_s", "repro_p50_us", "repro_p99_us"];

    fn wall(&self) -> f64 {
        self.wall
    }

    /// One segment per experiment.
    fn segments(&self) -> &[f64] {
        &self.times
    }

    /// Experiments run.
    fn attempted(&self) -> u64 {
        self.times.len() as u64
    }

    /// Experiments with a failing check.
    fn failed(&self) -> u64 {
        self.failing.len() as u64
    }

    /// Every experiment's rendered output, in registry order.
    fn digest(&self) -> String {
        let parts: Vec<&str> = self.renders.iter().map(String::as_str).collect();
        digest(&parts)
    }

    fn check(&self, out: &mut Outcome) {
        for id in &self.failing {
            out.check(false, || format!("experiment {id} has a failing check"));
        }
    }

    fn summary(&self) -> String {
        format!(
            "repro_s {:.4} s for all {} experiments, {} failing",
            self.wall,
            self.renders.len(),
            self.failing.len()
        )
    }
}

/// One pass over every experiment, in registry order, at quick or full
/// depth. `repro` is a batch job: its op, the unit of `ops_per_s` and of
/// the latency percentiles, is the whole reproduction, so the pass times
/// no op of its own (see [`metrics::Fastest::finish`]).
fn pass(quick: bool, mut rec: Option<&mut Recorder>) -> Pass {
    let n = ALL_EXPERIMENTS.len();
    let mut p = Pass {
        renders: vec![String::new(); n],
        times: vec![0.0; n],
        failing: Vec::new(),
        wall: 0.0,
    };
    let start = Instant::now();
    for (i, &id) in ALL_EXPERIMENTS.iter().enumerate() {
        let t0 = Instant::now();
        let r = run_experiment(id, quick).expect("registry lists only known ids");
        let t1 = Instant::now();
        p.times[i] = t1.duration_since(t0).as_secs_f64();
        if let Some(rec) = rec.as_deref_mut() {
            rec.record(id, "pass", i as u64, 1, t0, t1);
        }
        if !r.passed() {
            p.failing.push(id);
        }
        p.renders[i] = r.render();
    }
    p.wall = start.elapsed().as_secs_f64();
    p
}

fn experiment_metric(id: &str) -> &'static str {
    find(&format!("repro.{id}_s"))
        .expect("every experiment has a per-layer metric")
        .name
}

/// The end-to-end run: quick-depth passes. A full-depth pass (about 20 s
/// on one core) is a single sample of two long kernels, which a burst of
/// load on the shared machine moves by a fifth; quick passes repeat every
/// experiment often enough for each one's fastest time to be steady. The
/// traced run measures full depth.
pub fn run(seconds: f64) -> Outcome {
    let setup_s = setup();
    metrics::run_passes(setup_s, seconds, |_| pass(true, None))
}

/// Times the two kernels that dominate `repro`, called the way fig12 and
/// sched1 call them.
fn kernel_probes(out: &mut Outcome, rec: &mut Recorder) {
    const BLOCKS: u64 = 12_000; // fig12 at full depth
    const PROBES: u64 = 12; // bisection rounds of `inner_threshold`
    let code = ConcatenatedCode::default();
    let t0 = Instant::now();
    let thr = std::hint::black_box(code.inner_threshold(Ber::KP4_THRESHOLD, BLOCKS, 5));
    let t1 = Instant::now();
    rec.record("fec.inner_threshold", "fig12", 0, 2, t0, t1);
    out.check(thr.prob() > Ber::KP4_THRESHOLD.prob(), || {
        format!("inner threshold {} is not above KP4", thr.prob())
    });

    let sim = ClusterSim::new(default_mix(), 0.25);
    let t2 = Instant::now();
    let pooled = sim.run(&Pooled, 4_000.0, 42);
    let t3 = Instant::now();
    let contiguous = sim.run(&Contiguous, 4_000.0, 42);
    let t4 = Instant::now();
    let defrag = sim.run_contiguous_with_defrag(600.0, 0.05, 42);
    let t5 = Instant::now();
    for (name, a, b) in [
        ("scheduler.pooled", t2, t3),
        ("scheduler.contiguous", t3, t4),
        ("scheduler.defrag", t4, t5),
    ] {
        rec.record(name, "sched1", 0, 2, a, b);
    }
    out.check(pooled.utilization > contiguous.utilization, || {
        "pooled scheduling no longer beats contiguous".into()
    });
    std::hint::black_box(defrag);

    let v = &mut out.values;
    v.set("fec.inner_threshold_s", (t1 - t0).as_secs_f64());
    v.set("fec.inner_blocks", (BLOCKS * PROBES) as f64);
    v.set("scheduler.pooled_s", (t3 - t2).as_secs_f64());
    v.set("scheduler.contiguous_s", (t4 - t3).as_secs_f64());
    v.set("scheduler.defrag_s", (t5 - t4).as_secs_f64());
}

/// The traced run: an untraced pass, a traced pass (one span per
/// experiment), then the kernel probes.
pub fn run_traced(seed: u64, workload: &str) -> Outcome {
    setup();
    let baseline = pass(false, None);
    let mut rec = Recorder::new(1_000);
    let traced = pass(false, Some(&mut rec));
    let mut out = Outcome {
        attempted: ALL_EXPERIMENTS.len() as u64,
        failed: traced.failing.len() as u64,
        ..Outcome::default()
    };
    baseline.check(&mut out);
    traced.check(&mut out);
    let d = traced.digest();
    out.check(baseline.digest() == d, || {
        format!("traced digest {d} != untraced {}", baseline.digest())
    });
    println!("digest {d}");
    crate::check_digest_at_two_threads(&mut out, workload, seed, &d);
    kernel_probes(&mut out, &mut rec);
    match spans::export(
        workload,
        &rec.to_chrome_trace(workload, &["experiments", "kernel probes"]),
    ) {
        Ok(path) => println!("trace: {path}"),
        Err(e) => out.check(false, || format!("trace export: {e}")),
    }
    let rows = ledger(&traced.times, traced.wall);
    for &(name, s) in &rows {
        out.values.set(name, s);
    }
    out.values
        .set("trace.overhead_ratio", traced.wall / baseline.wall);
    crate::print_ledger(&rows, traced.wall);
    out
}

/// One row per experiment plus the unattributed remainder.
fn ledger(times: &[f64], wall: f64) -> Vec<(&'static str, f64)> {
    let mut rows: Vec<(&'static str, f64)> = ALL_EXPERIMENTS
        .iter()
        .zip(times)
        .map(|(id, &s)| (experiment_metric(id), s))
        .collect();
    rows.push(("unattributed_s", wall - times.iter().sum::<f64>()));
    rows
}

/// Digest of every experiment's rendered output on the process's
/// `LIGHTWAVE_THREADS` pool, in registry order.
pub fn library_digest() -> String {
    let renders: Vec<String> = ALL_EXPERIMENTS
        .iter()
        .map(|id| run_experiment(id, false).expect("known id").render())
        .collect();
    let parts: Vec<&str> = renders.iter().map(String::as_str).collect();
    digest(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_sums_to_wall() {
        let times = vec![0.5; ALL_EXPERIMENTS.len()];
        let wall = 0.5 * times.len() as f64 + 0.125;
        let rows = ledger(&times, wall);
        let total: f64 = rows.iter().map(|(_, s)| s).sum();
        assert!((total - wall).abs() < 1e-9);
        assert_eq!(rows.len(), ALL_EXPERIMENTS.len() + 1);
    }
}
