//! Fabric-as-a-service throughput benchmark → `BENCH_PR6.json`.
//!
//! Measures the service layer's hot paths — pure arrival generation,
//! the policy core with no pod behind it (loss-mode single-cube), and
//! the full sharded open-loop run (real superpods, production mix) —
//! and reports the sustained request rate plus the p50/p99 sim-time
//! admission waits of the big run (schema documented in EXPERIMENTS.md).
//!
//! ```text
//! cargo run -p lightwave-bench --release --bin bench_pr6              # 1M arrivals
//! cargo run -p lightwave-bench --release --bin bench_pr6 -- --smoke  # CI-sized
//! cargo run -p lightwave-bench --release --bin bench_pr6 -- --out p  # custom path
//! ```

use lightwave_core::par::Pool;
use lightwave_core::service::{arrival, run_sharded, Mix, PolicyConfig, ServiceConfig};
use lightwave_units::Nanos;
use serde::Serialize;
use std::time::Instant;

/// One hot path's measurement.
#[derive(Debug, Serialize)]
struct Workload {
    /// Workload id: `arrival_gen`, `loss_core`, or `open_loop`.
    id: String,
    /// The unit `per_sec` counts.
    unit: String,
    /// Work units per timed run.
    n: u64,
    /// Units per second (wall time).
    per_sec: f64,
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
    /// One record per hot path.
    workloads: Vec<Workload>,
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
fn loss_core_workload(pool: &Pool, n: u64) -> Workload {
    let cfg = ServiceConfig {
        requests: n,
        mean_gap: Nanos::from_millis(2),
        mix: Mix::SingleCube,
        policy: PolicyConfig {
            queue_limit: 0,
            preemption: false,
        },
        ..ServiceConfig::default()
    };
    timed("loss_core", "requests_per_sec", n, || {
        let (report, (), _) = run_sharded(pool, &cfg, &());
        assert_eq!(report.submitted, n);
    })
}

/// The headline number: sustained requests/sec of the full production
/// open-loop run (validation, WFQ admission, preemption, real pod
/// composes/releases per cell), plus its queueing stats.
fn open_loop_workload(pool: &Pool, n: u64) -> (Workload, ServiceStats) {
    let cfg = ServiceConfig {
        requests: n,
        ..ServiceConfig::default()
    };
    let mut out = None;
    let w = timed("open_loop", "requests_per_sec", n, || {
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR6.json".to_string());

    let (gen_n, loss_n, open_n) = if smoke {
        (200_000u64, 8_000u64, 15_000u64)
    } else {
        (2_000_000, 200_000, 1_000_000)
    };
    let pool = Pool::from_env();

    let (open, service) = open_loop_workload(&pool, open_n);
    let report = Report {
        schema: "lightwave/bench-pr6/v1".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        threads: pool.threads(),
        workloads: vec![
            arrival_gen_workload(gen_n),
            loss_core_workload(&pool, loss_n),
            open,
        ],
        service,
    };

    for w in &report.workloads {
        println!("{:<16} n={:<9} {:>14.0} {}", w.id, w.n, w.per_sec, w.unit);
    }
    println!(
        "open-loop: {:.2}% blocked, {:.1}% utilization, p99 admit wait {:.0} us",
        report.service.blocking_probability * 100.0,
        report.service.utilization * 100.0,
        report.service.p99_wait_micros
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write BENCH_PR6.json");
    println!("wrote {out}");
}
