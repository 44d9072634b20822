//! The standing throughput and gate benchmark → one `lightwave/bench/v1`
//! report.
//!
//! Six groups, one module each, run the hot paths that guard the paper's
//! fabric and kernel claims:
//!
//! - `par`: the Monte-Carlo BER, pool-availability and fleet-census
//!   kernels, serially and on the `lightwave-par` engine at 1/2/4 workers;
//! - `health`: time-series push, detector ingest, report rendering and
//!   chaos schedules with the health layer wired in;
//! - `service`: arrival generation and the pod-backed service runs, each
//!   against the full-rebuild shadow baseline (DESIGN §6.6);
//! - `scope`: request attribution at full and 1-in-1024 sampling against
//!   the scope-off run (§6.7);
//! - `fec`: the fast RS(544,514) and PAM4 Monte-Carlo kernels against the
//!   frozen references (§6.8);
//! - `campus`: the dirty-set rollup scrape against a flat re-aggregation,
//!   and the campus-observed service run against the plain one (§6.9).
//!
//! Every gate is an in-run ratio of two modes timed in one process on one
//! machine, so it is robust to host speed; [`GATES`] holds every
//! threshold. The `identity` block is computed from fixed-size runs on a
//! 1-worker and a 4-worker pool and must match byte for byte. A failing
//! gate or an identity mismatch still writes the report, then exits 1.
//!
//! ```text
//! cargo run -p lightwave-bench --release --bin bench              # full size
//! cargo run -p lightwave-bench --release --bin bench -- --smoke  # CI-sized
//! cargo run -p lightwave-bench --release --bin bench -- --out p  # custom path
//! ```

mod campus;
mod fec;
mod health;
mod par;
mod scope;
mod service;

use lightwave_core::par::Pool;
use lightwave_core::service::{run_sharded_scoped, ServiceConfig, ServiceSnapshot};
use serde::Serialize;
use std::time::Instant;

/// Every in-run gate: `(id, full-mode minimum, smoke-mode minimum)`.
///
/// Smoke rounds are sub-second on shared runners, where timing noise
/// alone exceeds the 5% overhead margin, and the smoke campus is ~8k
/// leaves instead of ~100k; the smoke minimums still catch gross
/// regressions (an O(ports) scrape fails by an order of magnitude).
const GATES: [(&str, f64, f64); 8] = [
    ("open_loop_vs_shadow", 5.0, 5.0),
    ("loss_core_vs_shadow", 5.0, 5.0),
    ("scope_full_vs_off", 0.95, 0.80),
    ("scope_1k_vs_off", 0.95, 0.80),
    ("campus_vs_off", 0.95, 0.80),
    ("scrape_vs_flat", 10.0, 3.0),
    ("rs_decode_t15_vs_reference", 5.0, 5.0),
    ("mc_symbol_loop_vs_reference", 5.0, 5.0),
];

/// Every workload the report carries, with the unit its rate counts.
/// Ids are unique across groups: two groups that time the same
/// configuration under different estimators keep separate rows.
const WORKLOADS: [(&str, &str); 40] = [
    ("mc_ber", "symbols_per_sec"),
    ("mc_ber_t1", "symbols_per_sec"),
    ("mc_ber_t2", "symbols_per_sec"),
    ("mc_ber_t4", "symbols_per_sec"),
    ("pool_availability", "trials_per_sec"),
    ("pool_availability_t1", "trials_per_sec"),
    ("pool_availability_t2", "trials_per_sec"),
    ("pool_availability_t4", "trials_per_sec"),
    ("fleet_census", "ports_per_sec"),
    ("fleet_census_t1", "ports_per_sec"),
    ("fleet_census_t2", "ports_per_sec"),
    ("fleet_census_t4", "ports_per_sec"),
    ("series_push", "samples_per_sec"),
    ("detector_ingest", "samples_per_sec"),
    ("report_render", "renders_per_sec"),
    ("chaos_overhead", "schedules_per_sec"),
    ("arrival_gen", "arrivals_per_sec"),
    ("open_loop", "requests_per_sec"),
    ("open_loop_shadow", "requests_per_sec"),
    ("loss_core", "requests_per_sec"),
    ("loss_core_shadow", "requests_per_sec"),
    ("open_loop_scope_off", "requests_per_sec"),
    ("open_loop_scope_full", "requests_per_sec"),
    ("open_loop_scope_1k", "requests_per_sec"),
    ("loss_core_scope_off", "requests_per_sec"),
    ("loss_core_scope_1k", "requests_per_sec"),
    ("rs_encode", "codewords_per_sec"),
    ("rs_encode_reference", "codewords_per_sec"),
    ("rs_decode_t15", "codewords_per_sec"),
    ("rs_decode_t15_reference", "codewords_per_sec"),
    ("rs_decode_clean", "codewords_per_sec"),
    ("rs_decode_clean_reference", "codewords_per_sec"),
    ("mc_symbol_loop", "symbols_per_sec"),
    ("mc_symbol_loop_reference", "symbols_per_sec"),
    ("mc_mpi_loop", "symbols_per_sec"),
    ("mc_mpi_loop_reference", "symbols_per_sec"),
    ("rollup_scrape_incremental", "scrapes_per_sec"),
    ("rollup_flat_reaggregate", "scans_per_sec"),
    ("open_loop_campus_off", "requests_per_sec"),
    ("open_loop_campus", "requests_per_sec"),
];

/// Requests in the fixed-size scoped service run behind the `service`
/// and `scope` identity entries.
const IDENTITY_REQUESTS: u64 = 10_000;

/// One workload's measured rate.
#[derive(Debug, Serialize)]
struct Workload {
    /// Workload id, one of [`WORKLOADS`].
    id: &'static str,
    /// The unit `per_sec` counts.
    unit: &'static str,
    /// Work units per timed run.
    n: u64,
    /// Units per second of the best timed run.
    per_sec: f64,
}

/// One gate's measured ratio and the minimum it must reach.
#[derive(Debug, Serialize)]
struct Gate {
    /// Gate id, one of [`GATES`].
    id: &'static str,
    /// The measured in-run ratio.
    value: f64,
    /// The threshold for this run's mode.
    min: f64,
}

/// The whole report.
#[derive(Debug, Serialize)]
struct Report {
    /// Schema tag: `lightwave/bench/v1`.
    schema: &'static str,
    /// `full` or `smoke`.
    mode: &'static str,
    /// Workers of the ambient pool (`LIGHTWAVE_THREADS`) the pooled
    /// workloads use.
    threads: usize,
    /// Hardware context: parallel speedups are bounded by cores.
    available_parallelism: usize,
    /// One row per workload, in run order.
    workloads: Vec<Workload>,
    /// One row per gate, in run order.
    gates: Vec<Gate>,
    /// Thread-count-invariant outcomes, keyed by group.
    identity: Identity,
}

/// Outcomes of fixed-size runs that must not depend on the worker count
/// or the mode.
#[derive(Debug, Serialize)]
struct Identity {
    /// The scoped service run's queueing report.
    service: ServiceSnapshot,
    /// The same run's attribution facts (full sampling).
    scope: scope::Identity,
    /// Kernel outcomes.
    fec: fec::Identity,
    /// Campus snapshot facts.
    campus: campus::Identity,
}

/// What the groups measured so far.
struct Run {
    smoke: bool,
    workloads: Vec<Workload>,
    gates: Vec<Gate>,
}

impl Run {
    fn new(smoke: bool) -> Run {
        Run {
            smoke,
            workloads: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Records `n` units of workload `id` done in `secs` wall seconds and
    /// returns the rate. Panics on an id missing from [`WORKLOADS`] or
    /// recorded twice.
    fn record(&mut self, id: &str, n: u64, secs: f64) -> f64 {
        let &(id, unit) = WORKLOADS
            .iter()
            .find(|w| w.0 == id)
            .unwrap_or_else(|| panic!("workload {id} is not in WORKLOADS"));
        assert!(
            self.workloads.iter().all(|w| w.id != id),
            "workload {id} recorded twice"
        );
        let per_sec = n as f64 / secs;
        println!("{id:<28} n={n:<9} {per_sec:>14.0} {unit}");
        self.workloads.push(Workload {
            id,
            unit,
            n,
            per_sec,
        });
        per_sec
    }

    /// Records gate `id`'s measured ratio against this mode's minimum.
    fn gate(&mut self, id: &str, value: f64) {
        let &(id, full, smoke) = GATES
            .iter()
            .find(|g| g.0 == id)
            .unwrap_or_else(|| panic!("gate {id} is not in GATES"));
        let min = if self.smoke { smoke } else { full };
        let verdict = if value >= min { "pass" } else { "FAIL" };
        println!("gate {id:<32} {value:>8.3} (min {min}) {verdict}");
        self.gates.push(Gate { id, value, min });
    }
}

/// Wall seconds of `N` sides, one row per round.
struct Rounds<const N: usize>(Vec<[f64; N]>);

impl<const N: usize> Rounds<N> {
    /// Each side's best (shortest) time.
    fn best(&self) -> [f64; N] {
        std::array::from_fn(|i| self.0.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
    }

    /// The best within-round ratio `t[base] / t[side]`: how fast `side`
    /// ran against `base`. The two timings of one round run back to back,
    /// so their ratio cancels slow host drift that a ratio of global
    /// bests would not.
    fn ratio(&self, base: usize, side: usize) -> f64 {
        self.0
            .iter()
            .map(|r| r[base] / r[side])
            .fold(f64::MIN, f64::max)
    }
}

/// The one timer: each round runs `setup(round)` untimed, then every side
/// once, back to back and in order, so all sides sample the same noise
/// window.
fn rounds<const N: usize>(
    rounds: u64,
    mut setup: impl FnMut(u64),
    mut sides: [&mut dyn FnMut(); N],
) -> Rounds<N> {
    Rounds(
        (0..rounds)
            .map(|round| {
                setup(round);
                let mut secs = [0.0; N];
                for (side, t) in sides.iter_mut().zip(&mut secs) {
                    let t0 = Instant::now();
                    side();
                    *t = t0.elapsed().as_secs_f64().max(1e-9);
                }
                secs
            })
            .collect(),
    )
}

/// A single-shot timing of one side.
fn once(side: &mut dyn FnMut()) -> f64 {
    rounds(1, |_| {}, [side]).best()[0]
}

/// The gates below their minimum.
fn failing(gates: &[Gate]) -> Vec<&Gate> {
    gates
        .iter()
        .filter(|g| g.value.is_nan() || g.value < g.min)
        .collect()
}

/// The thread-count-invariant outcomes of fixed-size runs on `pool`.
fn identity(pool: &Pool) -> Identity {
    let cfg = ServiceConfig {
        requests: IDENTITY_REQUESTS,
        scope_every: 1,
        ..ServiceConfig::default()
    };
    let (report, scope, _) = run_sharded_scoped(pool, &cfg);
    Identity {
        service: report.snapshot(),
        scope: scope::identity(&scope),
        fec: fec::identity(pool),
        campus: campus::identity(pool),
    }
}

/// `(smoke, out path)` from the command line.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(bool, String), String> {
    let (mut smoke, mut out) = (false, "bench.json".to_string());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().ok_or("--out needs a path")?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((smoke, out))
}

fn main() {
    let (smoke, out) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("bench: {e}\nusage: bench [--smoke] [--out PATH]");
        std::process::exit(2);
    });
    let pool = Pool::from_env();
    let mut run = Run::new(smoke);
    par::run(&mut run);
    health::run(&mut run);
    service::run(&mut run, &pool);
    scope::run(&mut run, &pool);
    fec::run(&mut run);
    campus::run(&mut run, &pool);

    let identity = identity(&Pool::new(1));
    let bytes = |id: &Identity| serde_json::to_string(id).expect("identity serializes");
    let identity_matches = bytes(&identity) == bytes(&self::identity(&Pool::new(4)));
    let report = Report {
        schema: "lightwave/bench/v1",
        mode: if smoke { "smoke" } else { "full" },
        threads: pool.threads(),
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        workloads: run.workloads,
        gates: run.gates,
        identity,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");

    let failing = failing(&report.gates);
    for g in &failing {
        eprintln!("gate {} failed: {:.3} < {}", g.id, g.value, g.min);
    }
    if identity_matches {
        println!("identity: byte-identical on 1 and 4 workers");
    } else {
        eprintln!("identity: the 1-worker and 4-worker runs differ");
    }
    if !failing.is_empty() || !identity_matches {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn gate_thresholds_are_pinned() {
        assert_eq!(
            GATES,
            [
                ("open_loop_vs_shadow", 5.0, 5.0),
                ("loss_core_vs_shadow", 5.0, 5.0),
                ("scope_full_vs_off", 0.95, 0.80),
                ("scope_1k_vs_off", 0.95, 0.80),
                ("campus_vs_off", 0.95, 0.80),
                ("scrape_vs_flat", 10.0, 3.0),
                ("rs_decode_t15_vs_reference", 5.0, 5.0),
                ("mc_symbol_loop_vs_reference", 5.0, 5.0),
            ]
        );
    }

    #[test]
    fn every_failing_gate_is_reported() {
        let mut run = Run::new(true);
        run.gate("open_loop_vs_shadow", 4.9);
        run.gate("scope_full_vs_off", 0.85);
        run.gate("scrape_vs_flat", 2.0);
        run.gate("mc_symbol_loop_vs_reference", f64::NAN);
        let ids: Vec<&str> = failing(&run.gates).iter().map(|g| g.id).collect();
        assert_eq!(
            ids,
            [
                "open_loop_vs_shadow",
                "scrape_vs_flat",
                "mc_symbol_loop_vs_reference"
            ]
        );
        run.smoke = false;
        run.gate("campus_vs_off", 0.85);
        assert_eq!(failing(&run.gates).len(), 4, "full mode holds 0.95");
    }

    #[test]
    fn workload_and_gate_ids_are_unique() {
        let ids: BTreeSet<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(ids.len(), WORKLOADS.len());
        let ids: BTreeSet<&str> = GATES.iter().map(|g| g.0).collect();
        assert_eq!(ids.len(), GATES.len());
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn a_report_rejects_a_repeated_workload() {
        let mut run = Run::new(true);
        run.record("open_loop", 1, 1.0);
        run.record("open_loop", 1, 1.0);
    }

    #[test]
    fn rounds_keep_best_times_and_the_best_paired_ratio() {
        let r = Rounds(vec![[2.0, 4.0], [1.0, 1.5], [3.0, 3.0]]);
        assert_eq!(r.best(), [1.0, 1.5]);
        assert_eq!(r.ratio(1, 0), 2.0);
        assert_eq!(r.ratio(0, 1), 1.0);
    }

    #[test]
    fn args_take_smoke_and_out_only() {
        let parse = |a: &[&str]| parse_args(a.iter().map(|s| s.to_string()));
        assert_eq!(parse(&[]), Ok((false, "bench.json".to_string())));
        assert_eq!(
            parse(&["--out", "x.json", "--smoke"]),
            Ok((true, "x.json".to_string()))
        );
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--only", "fec"]).is_err());
    }
}
