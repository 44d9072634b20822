//! Campus observability-plane benchmark → `BENCH_PR10.json`.
//!
//! PR 10 adds the hierarchical rollup tree (port → switch → pod →
//! campus, DESIGN §6.9). Two promises are gated **in-run**:
//!
//! 1. **Incremental scrape** — after a burst touching a few hundred
//!    leaves of a ~100k-leaf campus, folding the dirty set up the tree
//!    must beat re-aggregating the whole campus flat by >= 10x
//!    (`scrape_speedup` gate; the smoke tree is smaller, so its gate is
//!    looser but still catches an accidental O(ports) scrape).
//! 2. **Observation overhead** — the fully instrumented service run
//!    ([`run_sharded_campus`]: rollup + burn ledger fed on every event)
//!    must stay within 5% of the observability-off throughput, measured
//!    as the best *within-round* pairing like `bench_pr7`/`bench_pr8`.
//!
//! The report also pins a deterministic `identity` section — the
//! campus snapshot's pod/port counts, ingest tally, and the byte length
//! of `campus_health.json` — which CI compares across
//! `LIGHTWAVE_THREADS=1` and `4`.
//!
//! ```text
//! cargo run -p lightwave-bench --release --bin bench_pr10              # full size
//! cargo run -p lightwave-bench --release --bin bench_pr10 -- --smoke  # CI-sized
//! ```

use lightwave_core::par::{splitmix, Pool};
use lightwave_core::service::{run_sharded, run_sharded_campus, ServiceConfig};
use lightwave_core::telemetry::rollup::{PortPath, RollupTree};
use lightwave_units::Nanos;
use serde::Serialize;
use std::time::Instant;

/// One hot path's measurement (best wall time of the interleaved rounds).
#[derive(Debug, Serialize)]
struct Workload {
    /// Workload id.
    id: String,
    /// The unit `per_sec` counts.
    unit: String,
    /// Work units per timed run.
    n: u64,
    /// Units per second (best of rounds).
    per_sec: f64,
}

/// The two in-run gates.
#[derive(Debug, Serialize)]
struct Gates {
    /// Flat re-aggregation time / incremental scrape time (>= gate).
    scrape_speedup: f64,
    /// Minimum accepted speedup.
    scrape_gate: f64,
    /// Campus-observed / plain service throughput (>= gate).
    observed_vs_off: f64,
    /// Minimum accepted throughput ratio.
    overhead_gate: f64,
}

/// Thread-count-invariant snapshot facts; CI compares this section
/// byte-for-byte at `LIGHTWAVE_THREADS=1` and `4`.
#[derive(Debug, Serialize)]
struct Identity {
    /// Pods in the campus snapshot.
    pods: usize,
    /// Leaf ports in the rollup tree.
    ports: u64,
    /// Samples folded into the tree.
    ingested: u64,
    /// Campus-level compose-moves aggregate: (count, sum_micros).
    compose_count: u64,
    /// Sum of the compose-moves aggregate in micro-units.
    compose_sum_micros: i64,
    /// Byte length of the serialized `campus_health.json`.
    json_bytes: usize,
}

/// The whole report.
#[derive(Debug, Serialize)]
struct Report {
    /// Schema tag for downstream tooling.
    schema: String,
    /// `full` or `smoke`.
    mode: String,
    /// Worker threads the service runs used.
    threads: usize,
    /// One record per hot path.
    workloads: Vec<Workload>,
    /// In-run gate measurements.
    gates: Gates,
    /// Deterministic snapshot facts (thread-count invariant).
    identity: Identity,
}

/// Full-size incremental-scrape speedup gate: the paper-scale campus
/// (~100k leaves) must scrape a small dirty set >= 10x faster than a
/// flat re-aggregation.
const SCRAPE_GATE: f64 = 10.0;
/// Smoke-mode scrape gate (an ~8k-leaf tree leaves less headroom, but
/// an O(ports) scrape would still fail by an order of magnitude).
const SMOKE_SCRAPE_GATE: f64 = 3.0;
/// Observation-overhead gate: full instrumentation within 5%.
const OVERHEAD_GATE: f64 = 0.95;
/// Smoke-mode overhead gate (sub-second rounds on shared runners).
const SMOKE_OVERHEAD_GATE: f64 = 0.80;
/// Interleaved rounds per mode; the best round counts.
const ROUNDS: usize = 5;

/// Builds the synthetic campus: `pods x switches x ports` leaves, one
/// warm sample each, fully scraped (steady state).
fn build_campus(pods: u32, switches: u32, ports: u32) -> RollupTree {
    let mut tree = RollupTree::new();
    let m = tree.metric("port_util");
    for pod in 0..pods {
        for sw in 0..switches {
            for port in 0..ports {
                let v = (pod + sw + port) as f64;
                tree.ingest(m, PortPath::new(pod, sw, port), Nanos(1), v);
            }
        }
    }
    tree.scrape();
    tree
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR10.json".to_string());

    let ((pods, switches, ports), touch, requests) = if smoke {
        ((8u32, 32u32, 32u32), 256u64, 10_000u64)
    } else {
        ((24, 64, 64), 512, 100_000)
    };
    let leaves = (pods * switches * ports) as u64;
    let pool = Pool::from_env();

    // ── Gate 1: incremental scrape vs flat re-aggregation ────────────
    let mut tree = build_campus(pods, switches, ports);
    let m = tree.metric("port_util");
    let mut t_scrape = f64::MAX;
    let mut t_flat = f64::MAX;
    let mut speedup = f64::MIN;
    for round in 0..ROUNDS as u64 {
        // A deterministic burst touching `touch` scattered leaves.
        for i in 0..touch {
            let r = splitmix(0xCA_30_05, round * touch + i);
            let path = PortPath::new(
                (r as u32) % pods,
                ((r >> 16) as u32) % switches,
                ((r >> 32) as u32) % ports,
            );
            tree.ingest(m, path, Nanos(2 + round), 1.0);
        }
        let t0 = Instant::now();
        let scraped = tree.scrape();
        let s = t0.elapsed().as_secs_f64().max(1e-9);
        assert!(scraped as u64 <= touch, "scrape visits only touched leaves");
        let t0 = Instant::now();
        let flat = tree.flat_campus();
        let f = t0.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(flat[m.index()], tree.campus_agg(m), "flat sum agrees");
        t_scrape = t_scrape.min(s);
        t_flat = t_flat.min(f);
        // Pair within the round (same cache state), like the service
        // overhead ratio below.
        speedup = speedup.max(f / s);
    }
    tree.check_consistency()
        .expect("rollup consistent after bursts");

    // ── Gate 2: observed vs plain service throughput ─────────────────
    let cfg = ServiceConfig {
        requests,
        shard_size: 2_048,
        ..ServiceConfig::default()
    };
    let mut t_plain = f64::MAX;
    let mut t_campus = f64::MAX;
    let mut ratio = f64::MIN;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let (r, (), _) = run_sharded(&pool, &cfg, &());
        let tp = t0.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(r.submitted, requests);
        let t0 = Instant::now();
        let (r, _, _) = run_sharded_campus(&pool, &cfg);
        let tc = t0.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(r.submitted, requests);
        t_plain = t_plain.min(tp);
        t_campus = t_campus.min(tc);
        ratio = ratio.max(tp / tc);
    }

    // ── Identity: the deterministic snapshot facts ───────────────────
    let id_cfg = ServiceConfig {
        requests: 6_000,
        shard_size: 1_024,
        ..ServiceConfig::default()
    };
    let (_, mut obs, _) = run_sharded_campus(&pool, &id_cfg);
    let doc = obs.health_doc();
    let agg = obs.compose_agg();
    let identity = Identity {
        pods: doc.pods.len(),
        ports: doc.ports,
        ingested: obs.rollup.ingested(),
        compose_count: agg.count,
        compose_sum_micros: agg.sum_micros,
        json_bytes: doc.to_json().len(),
    };

    let scrape_gate = if smoke {
        SMOKE_SCRAPE_GATE
    } else {
        SCRAPE_GATE
    };
    let overhead_gate = if smoke {
        SMOKE_OVERHEAD_GATE
    } else {
        OVERHEAD_GATE
    };
    let ids: [(&str, &str, u64, f64); 4] = [
        ("rollup_scrape_incremental", "scrapes_per_sec", 1, t_scrape),
        ("rollup_flat_reaggregate", "scans_per_sec", 1, t_flat),
        ("open_loop", "requests_per_sec", requests, t_plain),
        ("open_loop_campus", "requests_per_sec", requests, t_campus),
    ];
    let workloads: Vec<Workload> = ids
        .iter()
        .map(|&(id, unit, n, secs)| Workload {
            id: id.to_string(),
            unit: unit.to_string(),
            n,
            per_sec: n as f64 / secs,
        })
        .collect();
    let report = Report {
        schema: "lightwave/bench-pr10/v1".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        threads: pool.threads(),
        workloads,
        gates: Gates {
            scrape_speedup: speedup,
            scrape_gate,
            observed_vs_off: ratio,
            overhead_gate,
        },
        identity,
    };

    for w in &report.workloads {
        println!("{:<26} n={:<9} {:>14.0} {}", w.id, w.n, w.per_sec, w.unit);
    }
    println!(
        "scrape: {leaves}-leaf campus, {touch}-leaf burst folds {:.0}x faster \
         than flat re-aggregation (gate >= {:.0}x)",
        report.gates.scrape_speedup, scrape_gate
    );
    println!(
        "observation overhead (best of {ROUNDS} paired rounds): {:.1}% \
         (gate <= {:.0}%)",
        (1.0 - report.gates.observed_vs_off) * 100.0,
        (1.0 - overhead_gate) * 100.0
    );
    println!(
        "identity: {} pods / {} ports / {} ingested / {} json bytes",
        report.identity.pods,
        report.identity.ports,
        report.identity.ingested,
        report.identity.json_bytes
    );

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write BENCH_PR10.json");
    println!("wrote {out}");

    assert!(
        report.gates.scrape_speedup >= scrape_gate,
        "scrape gate: incremental dirty-set scrape must beat flat \
         re-aggregation by >= {scrape_gate}x, got {:.1}x",
        report.gates.scrape_speedup
    );
    assert!(
        report.gates.observed_vs_off >= overhead_gate,
        "overhead gate: campus-observed run must stay within {:.0}% of the \
         plain run, got {:.1}% (best paired round)",
        (1.0 - overhead_gate) * 100.0,
        (1.0 - report.gates.observed_vs_off) * 100.0
    );
}
