//! `scope`: what always-on request attribution (DESIGN §6.7) costs the
//! open-loop hot path. The scope-off and scope-on runs replay the same
//! arrivals, interleaved over five rounds so drift (thermal, cache, other
//! tenants) hits every mode equally; five rounds keep the in-run ratio
//! below host noise. The gates ask full (1-in-1) and production
//! (1-in-1024) sampling to stay within 5% of scope-off.

use crate::service::{loss_cfg, serve};
use crate::{rounds, Run};
use lightwave_core::par::Pool;
use lightwave_core::service::scope::CriticalPathSnapshot;
use lightwave_core::service::{run_sharded_scoped, ScopeReport, ServiceConfig};
use serde::Serialize;

/// Attribution facts of a full-sampling run; every field is sim-time
/// exact.
#[derive(Debug, Serialize)]
pub struct Identity {
    /// Requests the sampler selected.
    sampled: u64,
    /// Sampled requests that were rejected.
    rejected: u64,
    /// Fabric commits observed.
    commits: u64,
    /// Mean switches touched per observed commit.
    mean_touched_switches: f64,
    /// Critical-path attribution per class and tail quantile.
    critical_paths: Vec<CriticalPathSnapshot>,
}

/// A timed side: one sharded run of `cfg` with attribution on.
fn serve_scoped<'a>(pool: &'a Pool, cfg: &'a ServiceConfig) -> impl FnMut() + 'a {
    move || {
        let (report, _, _) = run_sharded_scoped(pool, cfg);
        assert_eq!(report.submitted, cfg.requests);
    }
}

pub fn run(run: &mut Run, pool: &Pool) {
    let (open_n, loss_n) = if run.smoke {
        (10_000u64, 8_000u64)
    } else {
        (100_000, 200_000)
    };
    let open = |scope_every| ServiceConfig {
        requests: open_n,
        scope_every,
        ..ServiceConfig::default()
    };
    let loss = |scope_every| ServiceConfig {
        scope_every,
        ..loss_cfg(loss_n)
    };
    let cfgs = [open(0), open(1), open(1024), loss(0), loss(1024)];
    let timed = rounds(
        5,
        |_| {},
        [
            &mut serve(pool, &cfgs[0]),
            &mut serve_scoped(pool, &cfgs[1]),
            &mut serve_scoped(pool, &cfgs[2]),
            &mut serve(pool, &cfgs[3]),
            &mut serve_scoped(pool, &cfgs[4]),
        ],
    );
    let ids = [
        "open_loop_scope_off",
        "open_loop_scope_full",
        "open_loop_scope_1k",
        "loss_core_scope_off",
        "loss_core_scope_1k",
    ];
    for ((id, cfg), secs) in ids.iter().zip(&cfgs).zip(timed.best()) {
        run.record(id, cfg.requests, secs);
    }
    run.gate("scope_full_vs_off", timed.ratio(0, 1));
    run.gate("scope_1k_vs_off", timed.ratio(0, 2));
}

/// The attribution facts of `scope`.
pub fn identity(scope: &ScopeReport) -> Identity {
    Identity {
        sampled: scope.sampled,
        rejected: scope.rejected,
        commits: scope.touched_switches.count(),
        mean_touched_switches: scope.touched_switches.mean(),
        critical_paths: scope.snapshot().critical_paths,
    }
}
