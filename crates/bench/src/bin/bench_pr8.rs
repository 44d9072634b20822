//! Scope-attribution overhead benchmark → `BENCH_PR8.json`.
//!
//! PR 8 adds `lightwave-scope`, the always-on request-attribution layer
//! (per-request phase timelines folded into exemplar histograms, DESIGN
//! §6.7). Its promise is *low overhead*: the open-loop service hot path
//! must run within 5% of its scope-off throughput even at full (1-in-1)
//! sampling, and indistinguishably at the production 1-in-1024 rate.
//!
//! Like `bench_pr7`'s shadow gate, the baseline is **in-run**: the
//! scope-off and scope-on runs replay the same arrivals in the same
//! process on the same machine, interleaved over three rounds (best of
//! three per mode), so the ratio is robust to host speed and never
//! compares wall-clock numbers across runs.
//!
//! The report also pins a deterministic `scope` section — sampled
//! counts and the per-class critical-path dominants of the full-sampling
//! run — which CI compares byte-for-byte across `LIGHTWAVE_THREADS`.
//!
//! ```text
//! cargo run -p lightwave-bench --release --bin bench_pr8              # full size
//! cargo run -p lightwave-bench --release --bin bench_pr8 -- --smoke  # CI-sized
//! cargo run -p lightwave-bench --release --bin bench_pr8 -- --out p  # custom path
//! ```

use lightwave_core::par::Pool;
use lightwave_core::service::{
    run_sharded, run_sharded_scoped, Mix, PolicyConfig, ScopeProfiler, ScopeReport, ServiceConfig,
};
use lightwave_units::Nanos;
use serde::Serialize;
use std::time::Instant;

/// One hot path's measurement (best wall time of the interleaved rounds).
#[derive(Debug, Serialize)]
struct Workload {
    /// Workload id (`*_scope_*` = attribution enabled at that rate).
    id: String,
    /// The unit `per_sec` counts.
    unit: String,
    /// Work units per timed run.
    n: u64,
    /// Units per second (best of rounds).
    per_sec: f64,
}

/// In-run scope-on vs scope-off throughput ratios (same process, same
/// arrivals; >= `gate` passes). Each ratio is the best *within-round*
/// pairing — the off and on timings of one round run back-to-back, so
/// the ratio cancels slow host drift that a ratio of global bests would
/// not.
#[derive(Debug, Serialize)]
struct Overhead {
    /// `open_loop_scope_full` / `open_loop` (1-in-1 sampling).
    full_vs_off: f64,
    /// `open_loop_scope_1k` / `open_loop` (1-in-1024 sampling).
    sampled_vs_off: f64,
    /// The gate: both ratios must stay at or above this (0.95 = at most
    /// 5% throughput overhead; smoke runs gate looser — sub-second
    /// rounds on shared runners carry more than 5% of timing noise).
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

/// One critical-path row of the full-sampling scope report.
#[derive(Debug, Serialize)]
struct CriticalRow {
    /// Priority class name.
    class: String,
    /// Quantile in per-mille (500 / 990 / 999).
    quantile_permille: u32,
    /// The exemplar request's end-to-end sim nanoseconds.
    total_nanos: u64,
    /// The dominant phase's name.
    dominant: String,
    /// The dominant phase's share of the total, in per-mille.
    dominant_permille: u64,
}

/// Deterministic summary of the full-sampling scoped run. Every field
/// is sim-time-exact: CI asserts this section is identical at
/// `LIGHTWAVE_THREADS=1` and `4`.
#[derive(Debug, Serialize)]
struct ScopeStats {
    /// Requests the sampler selected.
    sampled: u64,
    /// Sampled requests that were rejected.
    rejected: u64,
    /// Fabric commits observed (delta-commit touched-switch dist count).
    commits: u64,
    /// Mean switches touched per observed commit.
    mean_touched_switches: f64,
    /// Critical-path attribution per class and tail quantile.
    critical_paths: Vec<CriticalRow>,
}

/// The whole report.
#[derive(Debug, Serialize)]
struct Report {
    /// Schema tag for downstream tooling.
    schema: String,
    /// `full` or `smoke`.
    mode: String,
    /// Worker threads the runs used.
    threads: usize,
    /// One record per hot path.
    workloads: Vec<Workload>,
    /// In-run scope-on vs scope-off ratios.
    overhead: Overhead,
    /// Queueing outcomes of the `open_loop` workload.
    service: ServiceStats,
    /// Deterministic attribution summary (thread-count invariant).
    scope: ScopeStats,
}

/// The overhead gate: scope-on throughput must stay within 5% of the
/// in-run scope-off baseline, even at full sampling.
const GATE: f64 = 0.95;
/// The smoke-mode gate. CI smoke rounds are sub-second on shared
/// runners, where wall-clock noise alone exceeds 5%; the smoke gate
/// still catches gross regressions while the full run holds the 5%
/// line.
const SMOKE_GATE: f64 = 0.80;
/// Interleaved rounds per mode; the best round counts. Five rounds keep
/// the in-run ratio below host noise (single rounds on a shared runner
/// swing by more than the gate margin).
const ROUNDS: usize = 5;

fn open_cfg(n: u64, scope_every: u64) -> ServiceConfig {
    ServiceConfig {
        requests: n,
        scope_every,
        ..ServiceConfig::default()
    }
}

fn loss_cfg(n: u64, scope_every: u64) -> ServiceConfig {
    ServiceConfig {
        requests: n,
        mean_gap: Nanos::from_millis(2),
        mix: Mix::SingleCube,
        policy: PolicyConfig {
            queue_limit: 0,
            preemption: false,
        },
        scope_every,
        ..ServiceConfig::default()
    }
}

/// Times one run of `cfg`, returning `(wall seconds, scope report)`.
fn run_once(
    prof: &mut ScopeProfiler,
    section: &'static str,
    pool: &Pool,
    cfg: &ServiceConfig,
) -> (f64, Option<ScopeReport>) {
    prof.time(section, || {
        let t0 = Instant::now();
        let scope = if cfg.scope_every == 0 {
            let (report, (), _) = run_sharded(pool, cfg, &());
            assert_eq!(report.submitted, cfg.requests);
            None
        } else {
            let (report, scope, _) = run_sharded_scoped(pool, cfg);
            assert_eq!(report.submitted, cfg.requests);
            Some(scope)
        };
        (t0.elapsed().as_secs_f64().max(1e-9), scope)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR8.json".to_string());

    let (open_n, loss_n) = if smoke {
        (10_000u64, 8_000u64)
    } else {
        (100_000, 200_000)
    };
    let pool = Pool::from_env();
    let mut prof = ScopeProfiler::new();

    // Interleave the modes each round so drift (thermal, cache, other
    // tenants) hits every mode equally; keep each mode's best round for
    // the reported rates, and the best *within-round* off/on time ratio
    // for the gate — the two timings of one round run back-to-back, so
    // their ratio is far more drift-robust than a ratio of global bests.
    let mut open_best = [f64::MAX; 3]; // off, full, 1-in-1024
    let mut loss_best = [f64::MAX; 2]; // off, 1-in-1024
    let mut full_ratio = f64::MIN;
    let mut sampled_ratio = f64::MIN;
    let mut full_scope = None;
    for _ in 0..ROUNDS {
        let (t_off, _) = run_once(&mut prof, "open_loop_off", &pool, &open_cfg(open_n, 0));
        open_best[0] = open_best[0].min(t_off);
        let (t_full, s) = run_once(&mut prof, "open_loop_full", &pool, &open_cfg(open_n, 1));
        open_best[1] = open_best[1].min(t_full);
        full_scope = s;
        full_ratio = full_ratio.max(t_off / t_full);
        let (t_1k, _) = run_once(&mut prof, "open_loop_1k", &pool, &open_cfg(open_n, 1024));
        open_best[2] = open_best[2].min(t_1k);
        sampled_ratio = sampled_ratio.max(t_off / t_1k);
        let (t, _) = run_once(&mut prof, "loss_core_off", &pool, &loss_cfg(loss_n, 0));
        loss_best[0] = loss_best[0].min(t);
        let (t, _) = run_once(&mut prof, "loss_core_1k", &pool, &loss_cfg(loss_n, 1024));
        loss_best[1] = loss_best[1].min(t);
    }
    let scope_report = full_scope.expect("full-sampling round ran");

    // Un-timed replay of the off run for its queueing stats (the timed
    // closures drop their reports to keep the hot loop lean).
    let (service_report, (), _) = run_sharded(&pool, &open_cfg(open_n, 0), &());
    let service = ServiceStats {
        requests: service_report.submitted,
        admitted: service_report.classes.iter().map(|c| c.admitted).sum(),
        blocked: service_report.blocked(),
        preempted: service_report.preempted(),
        completed: service_report.completed(),
        blocking_probability: service_report.blocking_probability(),
        utilization: service_report.utilization(),
        p50_wait_micros: service_report.wait_quantile_micros(0.50).unwrap_or(0.0),
        p99_wait_micros: service_report.wait_quantile_micros(0.99).unwrap_or(0.0),
    };

    let critical_paths = scope_report
        .critical_paths()
        .iter()
        .map(|p| CriticalRow {
            class: p.class.name().to_string(),
            quantile_permille: p.quantile_permille,
            total_nanos: p.total_nanos,
            dominant: p.dominant.name().to_string(),
            dominant_permille: p.shares_permille[p.dominant.index()],
        })
        .collect();
    let scope = ScopeStats {
        sampled: scope_report.sampled,
        rejected: scope_report.rejected,
        commits: scope_report.touched_switches.count(),
        mean_touched_switches: scope_report.touched_switches.mean(),
        critical_paths,
    };

    let ids: [(&str, u64, f64); 5] = [
        ("open_loop", open_n, open_best[0]),
        ("open_loop_scope_full", open_n, open_best[1]),
        ("open_loop_scope_1k", open_n, open_best[2]),
        ("loss_core", loss_n, loss_best[0]),
        ("loss_core_scope_1k", loss_n, loss_best[1]),
    ];
    let workloads: Vec<Workload> = ids
        .iter()
        .map(|&(id, n, secs)| Workload {
            id: id.to_string(),
            unit: "requests_per_sec".to_string(),
            n,
            per_sec: n as f64 / secs,
        })
        .collect();

    let gate = if smoke { SMOKE_GATE } else { GATE };
    let overhead = Overhead {
        full_vs_off: full_ratio,
        sampled_vs_off: sampled_ratio,
        gate,
    };

    let report = Report {
        schema: "lightwave/bench-pr8/v1".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        threads: pool.threads(),
        workloads,
        overhead,
        service,
        scope,
    };

    for w in &report.workloads {
        println!("{:<22} n={:<9} {:>14.0} {}", w.id, w.n, w.per_sec, w.unit);
    }
    println!(
        "scope overhead (open_loop, best of {ROUNDS} paired rounds): full \
         sampling {:.1}%, 1-in-1024 {:.1}% (gate <= {:.0}%)",
        (1.0 - report.overhead.full_vs_off) * 100.0,
        (1.0 - report.overhead.sampled_vs_off) * 100.0,
        (1.0 - gate) * 100.0,
    );
    println!(
        "scope: {} sampled, {} rejected, {} commits, {:.2} switches/commit",
        report.scope.sampled,
        report.scope.rejected,
        report.scope.commits,
        report.scope.mean_touched_switches
    );
    for p in &report.scope.critical_paths {
        let q = if p.quantile_permille % 10 == 0 {
            format!("p{}", p.quantile_permille / 10)
        } else {
            format!("p{:.1}", p.quantile_permille as f64 / 10.0)
        };
        println!(
            "  {:<12} {:<5} {:>12} ns  {:>4.1}% {}",
            p.class,
            q,
            p.total_nanos,
            p.dominant_permille as f64 / 10.0,
            p.dominant
        );
    }
    print!("{}", prof.render());

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write BENCH_PR8.json");
    println!("wrote {out}");

    assert!(
        report.overhead.full_vs_off >= gate,
        "overhead gate: full-sampling open_loop must stay within {:.0}% of \
         the in-run scope-off baseline, got {:.1}% (best paired round)",
        (1.0 - gate) * 100.0,
        (1.0 - report.overhead.full_vs_off) * 100.0
    );
    assert!(
        report.overhead.sampled_vs_off >= gate,
        "overhead gate: 1-in-1024 open_loop must stay within {:.0}% of the \
         in-run scope-off baseline, got {:.1}% (best paired round)",
        (1.0 - gate) * 100.0,
        (1.0 - report.overhead.sampled_vs_off) * 100.0
    );
}
