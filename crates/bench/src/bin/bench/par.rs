//! `par`: the evaluation-scale hot paths — symbol-level Monte-Carlo BER
//! (Fig. 11a), pool-availability Monte Carlo (Fig. 15) and the fleet
//! transceiver census (Fig. 13) — serially and on the engine at 1/2/4
//! workers. Ungated: speedups are bounded by the host's cores.

use crate::{rounds, Run};
use lightwave_core::availability::{
    cube_availability, monte_carlo_pool_availability_with_pool, POOL_SHARD_TRIALS,
};
use lightwave_core::optics::ber::{mpi_db, Pam4Receiver};
use lightwave_core::optics::montecarlo::{simulate_ber_seeded, simulate_ber_with_pool};
use lightwave_core::par::Pool;
use lightwave_core::superpod::POD_CUBES;
use lightwave_core::transceiver::fleet::{fleet_census_with_pool, POD_RX_PORTS};
use lightwave_core::transceiver::ModuleFamily;
use lightwave_core::units::{Availability, Dbm};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Times `serial` (the pre-engine single stream), then `pooled` on 1, 2
/// and 4 workers, recording `id` and `id_t1`/`_t2`/`_t4`.
fn sweep(run: &mut Run, id: &str, n: u64, serial: &mut dyn FnMut(), pooled: &dyn Fn(&Pool)) {
    let [p1, p2, p4] = [1, 2, 4].map(Pool::new);
    let secs = rounds(
        1,
        |_| {},
        [
            serial,
            &mut || pooled(&p1),
            &mut || pooled(&p2),
            &mut || pooled(&p4),
        ],
    )
    .best();
    for (suffix, s) in ["", "_t1", "_t2", "_t4"].iter().zip(secs) {
        run.record(&format!("{id}{suffix}"), n, s);
    }
}

pub fn run(run: &mut Run) {
    let (symbols, trials, ports) = if run.smoke {
        (200_000, POOL_SHARD_TRIALS * 4 + 123, 128)
    } else {
        (10_000_000, 1_000_000, POD_RX_PORTS as u64)
    };

    let rx = Pam4Receiver::cwdm4_50g();
    let (p, mpi) = (Dbm(-12.5), mpi_db(-32.0));
    // Warm the caches and branch predictors off the clock.
    let _ = simulate_ber_seeded(&rx, p, mpi, None, (symbols / 20).max(1), 7);
    sweep(
        run,
        "mc_ber",
        symbols,
        &mut || {
            assert_eq!(
                simulate_ber_seeded(&rx, p, mpi, None, symbols, 42).bits,
                symbols * 2
            )
        },
        &|pool| {
            let (r, _) = simulate_ber_with_pool(pool, &rx, p, mpi, None, symbols, 42);
            assert_eq!(r.bits, symbols * 2);
        },
    );

    let ca = cube_availability(Availability::new(0.999));
    let need = 48;
    sweep(
        run,
        "pool_availability",
        trials,
        &mut || {
            let mut rng = StdRng::seed_from_u64(11);
            let mut ok = 0u64;
            for _ in 0..trials {
                let working = (0..POD_CUBES)
                    .filter(|_| rng.random_bool(ca.prob()))
                    .count();
                ok += u64::from(working >= need);
            }
            assert!(ok <= trials);
        },
        &|pool| {
            let est = monte_carlo_pool_availability_with_pool(pool, ca, need, trials, 11);
            assert!((0.0..=1.0).contains(&est));
        },
    );

    let census = |pool: &Pool| {
        let c = fleet_census_with_pool(pool, ports as usize, ModuleFamily::Cwdm4Bidi, 42);
        assert!(!c.samples.is_empty());
    };
    sweep(
        run,
        "fleet_census",
        ports,
        &mut || census(&Pool::new(1)),
        &census,
    );
}
