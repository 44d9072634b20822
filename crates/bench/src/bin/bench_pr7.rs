//! Incremental-commit throughput benchmark → `BENCH_PR7.json`.
//!
//! Measures the service hot paths from `bench_pr6` — pure arrival
//! generation, the loss-mode policy core, and the full sharded open-loop
//! run — now driven by the delta-based (O(slice)) fabric commit path,
//! and re-times the two pod-backed workloads with the shadow cross-check
//! enabled. Shadow mode re-pays the pre-incremental O(pod) full-rebuild
//! cost on every transaction, so the shadow-on runs are an *in-run*
//! baseline: the speedup ratios compare two modes inside one process on
//! one machine, never wall-clock numbers across runs.
//!
//! The perf gate asserts the incremental path beats the in-run
//! full-rebuild baseline by ≥5x on both pod-backed workloads:
//! `open_loop`'s production-mix slices pin real circuits (the full
//! rebuild re-pays the old per-transaction cost across all 48 switches),
//! and `loss_core`'s all-electrical single-cube slices make the
//! incremental path a zero-switch no-op while the full rebuild still
//! walks the whole fleet.
//!
//! ```text
//! cargo run -p lightwave-bench --release --bin bench_pr7              # 1M arrivals
//! cargo run -p lightwave-bench --release --bin bench_pr7 -- --smoke  # CI-sized
//! cargo run -p lightwave-bench --release --bin bench_pr7 -- --out p  # custom path
//! ```

use lightwave_core::par::Pool;
use lightwave_core::service::{arrival, run_sharded, Mix, PolicyConfig, ServiceConfig};
use lightwave_units::Nanos;
use serde::Serialize;
use std::time::Instant;

/// One hot path's measurement.
#[derive(Debug, Serialize)]
struct Workload {
    /// Workload id (`*_shadow` = full-rebuild cross-check enabled).
    id: String,
    /// The unit `per_sec` counts.
    unit: String,
    /// Work units per timed run.
    n: u64,
    /// Units per second (wall time).
    per_sec: f64,
}

/// In-run incremental-vs-full-rebuild ratios (same process, same
/// machine, same arrivals — robust to host speed, unlike cross-run
/// wall-clock comparisons).
#[derive(Debug, Serialize)]
struct Speedups {
    /// `loss_core` / `loss_core_shadow`.
    loss_core: f64,
    /// `open_loop` / `open_loop_shadow`.
    open_loop: f64,
    /// The gate threshold (both ratios must clear it).
    gate: f64,
}

/// Queueing outcomes of the big open-loop run (sim time, not wall time).
#[derive(Debug, Serialize)]
struct ServiceStats {
    /// Arrivals submitted.
    requests: u64,
    /// Admissions (including re-admissions after preemption).
    admitted: u64,
    /// Arrivals turned away at the queue bound.
    blocked: u64,
    /// Evictions by higher-priority admissions.
    preempted: u64,
    /// Requests that served their full hold.
    completed: u64,
    /// blocked / offered.
    blocking_probability: f64,
    /// busy cube-time / pod cube-time.
    utilization: f64,
    /// Median sim-time admission wait, microseconds.
    p50_wait_micros: f64,
    /// p99 sim-time admission wait, microseconds.
    p99_wait_micros: f64,
}

/// The whole report.
#[derive(Debug, Serialize)]
struct Report {
    /// Schema tag for downstream tooling.
    schema: String,
    /// `full` or `smoke`.
    mode: String,
    /// Worker threads the open-loop run used.
    threads: usize,
    /// One record per hot path (incremental first, then shadow).
    workloads: Vec<Workload>,
    /// In-run incremental-vs-full-rebuild ratios.
    speedups: Speedups,
    /// Queueing outcomes of the `open_loop` workload.
    service: ServiceStats,
}

fn timed(id: &str, unit: &str, n: u64, f: impl FnOnce()) -> Workload {
    let t0 = Instant::now();
    f();
    Workload {
        id: id.to_string(),
        unit: unit.to_string(),
        n,
        per_sec: n as f64 / t0.elapsed().as_secs_f64().max(1e-9),
    }
}

/// Pure `(seed, index) -> Arrival` generation, the split-anywhere path.
fn arrival_gen_workload(n: u64) -> Workload {
    timed("arrival_gen", "arrivals_per_sec", n, || {
        let mut holds = 0u64;
        for i in 0..n {
            holds += arrival(42, i, Mix::Production).intent.hold.0;
        }
        assert!(holds > 0);
    })
}

/// The single-cube loss configuration: smallest slices, highest
/// request rate per pod-second — the policy core's worst case.
fn loss_core_workload(pool: &Pool, n: u64, shadow: bool) -> Workload {
    let cfg = ServiceConfig {
        requests: n,
        mean_gap: Nanos::from_millis(2),
        mix: Mix::SingleCube,
        policy: PolicyConfig {
            queue_limit: 0,
            preemption: false,
        },
        shadow,
        ..ServiceConfig::default()
    };
    let id = if shadow {
        "loss_core_shadow"
    } else {
        "loss_core"
    };
    timed(id, "requests_per_sec", n, || {
        let (report, (), _) = run_sharded(pool, &cfg, &());
        assert_eq!(report.submitted, n);
    })
}

/// The headline number: sustained requests/sec of the full production
/// open-loop run (validation, WFQ admission, preemption, real pod
/// composes/releases per cell), plus its queueing stats.
fn open_loop_workload(pool: &Pool, n: u64, shadow: bool) -> (Workload, ServiceStats) {
    let cfg = ServiceConfig {
        requests: n,
        shadow,
        ..ServiceConfig::default()
    };
    let id = if shadow {
        "open_loop_shadow"
    } else {
        "open_loop"
    };
    let mut out = None;
    let w = timed(id, "requests_per_sec", n, || {
        let (report, (), _) = run_sharded(pool, &cfg, &());
        assert_eq!(report.submitted, n);
        out = Some(report);
    });
    let report = out.expect("timed closure ran");
    let stats = ServiceStats {
        requests: report.submitted,
        admitted: report.classes.iter().map(|c| c.admitted).sum(),
        blocked: report.blocked(),
        preempted: report.preempted(),
        completed: report.completed(),
        blocking_probability: report.blocking_probability(),
        utilization: report.utilization(),
        p50_wait_micros: report.wait_quantile_micros(0.50).unwrap_or(0.0),
        p99_wait_micros: report.wait_quantile_micros(0.99).unwrap_or(0.0),
    };
    (w, stats)
}

/// The perf gate: incremental must beat the in-run full-rebuild
/// baseline by this factor on both pod-backed workloads.
const GATE: f64 = 5.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR7.json".to_string());

    let (gen_n, loss_n, open_n) = if smoke {
        (200_000u64, 8_000u64, 15_000u64)
    } else {
        (2_000_000, 200_000, 1_000_000)
    };
    let pool = Pool::from_env();

    let (open, service) = open_loop_workload(&pool, open_n, false);
    // The shadow baselines replay the *same* arrivals with the
    // full-rebuild cross-check on. Shadow-sized down in full mode: the
    // shadow report is not compared (different n), only its rate.
    let shadow_open_n = if smoke { open_n } else { open_n / 10 };
    let shadow_loss_n = if smoke { loss_n } else { loss_n / 10 };
    let (open_shadow, _) = open_loop_workload(&pool, shadow_open_n, true);
    let loss = loss_core_workload(&pool, loss_n, false);
    let loss_shadow = loss_core_workload(&pool, shadow_loss_n, true);

    let speedups = Speedups {
        loss_core: loss.per_sec / loss_shadow.per_sec.max(1e-9),
        open_loop: open.per_sec / open_shadow.per_sec.max(1e-9),
        gate: GATE,
    };

    let report = Report {
        schema: "lightwave/bench-pr7/v1".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        threads: pool.threads(),
        workloads: vec![
            arrival_gen_workload(gen_n),
            loss,
            loss_shadow,
            open,
            open_shadow,
        ],
        speedups,
        service,
    };

    for w in &report.workloads {
        println!("{:<18} n={:<9} {:>14.0} {}", w.id, w.n, w.per_sec, w.unit);
    }
    println!(
        "speedup vs in-run full rebuild: open_loop {:.1}x (gate ≥{:.0}x), loss_core {:.1}x",
        report.speedups.open_loop, GATE, report.speedups.loss_core
    );
    println!(
        "open-loop: {:.2}% blocked, {:.1}% utilization, p99 admit wait {:.0} us",
        report.service.blocking_probability * 100.0,
        report.service.utilization * 100.0,
        report.service.p99_wait_micros
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write BENCH_PR7.json");
    println!("wrote {out}");

    assert!(
        report.speedups.open_loop >= GATE,
        "perf gate: incremental open_loop ({:.0}/s) must beat the in-run \
         full-rebuild baseline ({:.0}/s) by >= {GATE}x, got {:.1}x",
        report.workloads[3].per_sec,
        report.workloads[4].per_sec,
        report.speedups.open_loop
    );
    assert!(
        report.speedups.loss_core >= GATE,
        "perf gate: incremental loss_core ({:.0}/s) must beat the in-run \
         full-rebuild baseline ({:.0}/s) by >= {GATE}x, got {:.1}x",
        report.workloads[1].per_sec,
        report.workloads[2].per_sec,
        report.speedups.loss_core
    );
}
