//! `service`: pure arrival generation, then the two pod-backed service
//! runs on the delta-based (O(slice)) commit path, each re-timed with the
//! full-rebuild shadow cross-check on (DESIGN §6.6). Shadow mode re-pays
//! the pre-incremental O(pod) rebuild on every transaction, so the shadow
//! runs are an in-run baseline. The gates ask ≥5x on both:
//! `open_loop`'s production-mix slices pin real circuits, and
//! `loss_core`'s all-electrical single-cube slices make the incremental
//! path a zero-switch no-op while the full rebuild still walks the fleet.

use crate::{once, rounds, Run};
use lightwave_core::par::Pool;
use lightwave_core::service::{arrival, run_sharded, Mix, PolicyConfig, ServiceConfig};
use lightwave_units::Nanos;

/// The single-cube loss configuration: smallest slices, highest request
/// rate per pod-second — the policy core's worst case.
pub fn loss_cfg(requests: u64) -> ServiceConfig {
    ServiceConfig {
        requests,
        mean_gap: Nanos::from_millis(2),
        mix: Mix::SingleCube,
        policy: PolicyConfig {
            queue_limit: 0,
            preemption: false,
        },
        ..ServiceConfig::default()
    }
}

/// A timed side: one plain sharded run of `cfg`.
pub fn serve<'a>(pool: &'a Pool, cfg: &'a ServiceConfig) -> impl FnMut() + 'a {
    move || {
        let (report, (), _) = run_sharded(pool, cfg, &());
        assert_eq!(report.submitted, cfg.requests);
    }
}

pub fn run(run: &mut Run, pool: &Pool) {
    let (gen_n, loss_n, open_n) = if run.smoke {
        (200_000u64, 8_000u64, 15_000u64)
    } else {
        (2_000_000, 200_000, 1_000_000)
    };
    // The shadow baselines replay the same arrivals, sized down in full
    // mode: only their rate is compared.
    let shadow = |n: u64| if run.smoke { n } else { n / 10 };
    let open = ServiceConfig {
        requests: open_n,
        ..ServiceConfig::default()
    };
    let open_shadow = ServiceConfig {
        requests: shadow(open_n),
        shadow: true,
        ..ServiceConfig::default()
    };
    let loss = loss_cfg(loss_n);
    let loss_shadow = ServiceConfig {
        shadow: true,
        ..loss_cfg(shadow(loss_n))
    };
    let cfgs = [&open, &open_shadow, &loss, &loss_shadow];
    let secs = rounds(
        1,
        |_| {},
        [
            &mut serve(pool, cfgs[0]),
            &mut serve(pool, cfgs[1]),
            &mut serve(pool, cfgs[2]),
            &mut serve(pool, cfgs[3]),
        ],
    )
    .best();
    let ids = [
        "open_loop",
        "open_loop_shadow",
        "loss_core",
        "loss_core_shadow",
    ];
    let rate: Vec<f64> = ids
        .iter()
        .zip(cfgs)
        .zip(secs)
        .map(|((id, cfg), secs)| run.record(id, cfg.requests, secs))
        .collect();
    run.gate("open_loop_vs_shadow", rate[0] / rate[1]);
    run.gate("loss_core_vs_shadow", rate[2] / rate[3]);

    // Pure `(seed, index) -> Arrival` generation, the split-anywhere path.
    let secs = once(&mut || {
        let holds: u64 = (0..gen_n)
            .map(|i| arrival(42, i, Mix::Production).intent.hold.0)
            .sum();
        assert!(holds > 0);
    });
    run.record("arrival_gen", gen_n, secs);
}
