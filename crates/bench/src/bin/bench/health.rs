//! `health`: the fleet-health layer's per-sample hot paths — time-series
//! push (raw ring + downsample tiers), streaming detector ingest (CUSUM +
//! EWMA per drift sample), report rendering — and whole chaos schedules
//! with the health layer wired in. Ungated.

use crate::{once, Run};
use lightwave_core::chaos::{run_schedule, ChaosConfig, FaultSchedule};
use lightwave_core::telemetry::{FleetHealth, FleetTelemetry, SeriesConfig, SeriesStore};
use lightwave_units::Nanos;

pub fn run(run: &mut Run) {
    let (samples, renders, schedules) = if run.smoke {
        (200_000u64, 200u64, 8u64)
    } else {
        (5_000_000, 2_000, 64)
    };

    // Raw-ring + tier maintenance per sample, across 64 series.
    let mut store = SeriesStore::new(SeriesConfig::default());
    let ids: Vec<_> = (0..64u32)
        .map(|p| store.series("bench_drift_db", &[("port", &p.to_string())]))
        .collect();
    let secs = once(&mut || {
        for i in 0..samples {
            let id = ids[(i % 64) as usize];
            store.push(id, Nanos::from_micros(i * 50), (i % 977) as f64 * 1e-3);
        }
        assert!(store.len() >= 64);
    });
    run.record("series_push", samples, secs);

    // CUSUM + EWMA ingest per drift sample, alarms wired. A near-flat
    // dither well under the EWMA threshold and CUSUM slack measures the
    // steady-state path, not trip handling.
    let mut sink = FleetTelemetry::new();
    let mut health = FleetHealth::default();
    let secs = once(&mut || {
        for i in 0..samples {
            health.ingest_drift(
                &mut sink,
                Nanos::from_micros(i * 50),
                (i % 48) as u32,
                i % 2 == 0,
                (i % 64) as u16,
                (i % 7) as f64 * 1e-4,
            );
        }
        assert!(health.trips().is_empty(), "flat ingest must not trip");
    });
    run.record("detector_ingest", samples, secs);

    // Scoring + dashboard + JSONL rendering over a populated fleet.
    let mut sink = FleetTelemetry::new();
    let mut health = FleetHealth::default();
    for i in 0..10_000u64 {
        health.ingest_drift(
            &mut sink,
            Nanos::from_micros(i * 50),
            (i % 48) as u32,
            true,
            (i % 64) as u16,
            (i % 5) as f64 * 1e-4,
        );
    }
    let now = Nanos::from_millis(500);
    let secs = once(&mut || {
        let mut bytes = 0usize;
        for _ in 0..renders {
            bytes += health.dashboard(now).len() + health.to_jsonl(now).len();
        }
        assert!(bytes > 0);
    });
    run.record("report_render", renders, secs);

    // Whole schedules: the executor's observe loop scrapes, forwards
    // drift, and polls the recorder with counter embedding every event.
    let cfg = ChaosConfig::default();
    let secs = once(&mut || {
        let mut trips = 0u32;
        for i in 0..schedules {
            trips += run_schedule(&FaultSchedule::generate_degradation(2024, i), &cfg).trend_trips;
        }
        assert!(trips >= schedules as u32, "every degradation trips");
    });
    run.record("chaos_overhead", schedules, secs);
}
