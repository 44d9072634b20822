//! `campus`: the hierarchical rollup tree (port → switch → pod → campus,
//! DESIGN §6.9). Two promises, both timed over five paired rounds:
//!
//! 1. after a burst touching a few hundred leaves of a ~100k-leaf campus,
//!    folding the dirty set up the tree beats re-aggregating the whole
//!    campus flat by ≥10x;
//! 2. the fully instrumented service run (rollup + burn ledger fed on
//!    every event) stays within 5% of the observability-off throughput.

use crate::service::serve;
use crate::{rounds, Run};
use lightwave_core::par::{splitmix, Pool};
use lightwave_core::service::{run_sharded_campus, ServiceConfig};
use lightwave_core::telemetry::rollup::{PortPath, RollupTree};
use lightwave_units::Nanos;
use serde::Serialize;
use std::cell::RefCell;

/// Campus snapshot facts of a fixed-size instrumented run.
#[derive(Debug, Serialize)]
pub struct Identity {
    /// Pods in the campus snapshot.
    pods: usize,
    /// Leaf ports in the rollup tree.
    ports: u64,
    /// Samples folded into the tree.
    ingested: u64,
    /// Count of the campus-level compose-moves aggregate.
    compose_count: u64,
    /// Sum of the compose-moves aggregate in micro-units.
    compose_sum_micros: i64,
    /// Byte length of the serialized `campus_health.json`.
    json_bytes: usize,
}

/// The synthetic campus: `pods x switches x ports` leaves, one warm
/// sample each, fully scraped (steady state).
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

pub fn run(run: &mut Run, pool: &Pool) {
    let ((pods, switches, ports), touch, requests) = if run.smoke {
        ((8u32, 32u32, 32u32), 256u64, 10_000u64)
    } else {
        ((24, 64, 64), 512, 100_000)
    };

    let tree = RefCell::new(build_campus(pods, switches, ports));
    let m = tree.borrow_mut().metric("port_util");
    let timed = rounds(
        5,
        |round| {
            // A deterministic burst touching `touch` scattered leaves.
            let mut tree = tree.borrow_mut();
            for i in 0..touch {
                let r = splitmix(0xCA_30_05, round * touch + i);
                let path = PortPath::new(
                    (r as u32) % pods,
                    ((r >> 16) as u32) % switches,
                    ((r >> 32) as u32) % ports,
                );
                tree.ingest(m, path, Nanos(2 + round), 1.0);
            }
        },
        [
            &mut || {
                let scraped = tree.borrow_mut().scrape();
                assert!(scraped as u64 <= touch, "scrape visits only touched leaves");
            },
            &mut || {
                let tree = tree.borrow();
                assert_eq!(tree.flat_campus()[m.index()], tree.campus_agg(m));
            },
        ],
    );
    let [scrape, flat] = timed.best();
    run.record("rollup_scrape_incremental", 1, scrape);
    run.record("rollup_flat_reaggregate", 1, flat);
    run.gate("scrape_vs_flat", timed.ratio(1, 0));
    tree.borrow()
        .check_consistency()
        .expect("rollup consistent after bursts");

    let cfg = ServiceConfig {
        requests,
        shard_size: 2_048,
        ..ServiceConfig::default()
    };
    let timed = rounds(
        5,
        |_| {},
        [&mut serve(pool, &cfg), &mut || {
            let (report, _, _) = run_sharded_campus(pool, &cfg);
            assert_eq!(report.submitted, requests);
        }],
    );
    let [plain, observed] = timed.best();
    run.record("open_loop_campus_off", requests, plain);
    run.record("open_loop_campus", requests, observed);
    run.gate("campus_vs_off", timed.ratio(0, 1));
}

/// Campus snapshot facts of a fixed 6,000-request instrumented run.
pub fn identity(pool: &Pool) -> Identity {
    let cfg = ServiceConfig {
        requests: 6_000,
        shard_size: 1_024,
        ..ServiceConfig::default()
    };
    let (_, mut obs, _) = run_sharded_campus(pool, &cfg);
    let doc = obs.health_doc();
    let agg = obs.compose_agg();
    Identity {
        pods: doc.pods.len(),
        ports: doc.ports,
        ingested: obs.rollup.ingested(),
        compose_count: agg.count,
        compose_sum_micros: agg.sum_micros,
        json_bytes: doc.to_json().len(),
    }
}
