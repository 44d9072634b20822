//! The two service workloads: the benchmark drives the open-loop service
//! loop itself (`arrival → advance_to → submit → observers → drain`), one
//! independent cell per 2,048 arrivals, exactly as the library's
//! `run_sharded_campus` shards it.
//!
//! The traced run logs every `Admitted` / `Completed` / `Preempted` event
//! (its time, slice and `CommitReport`) and every pod clock advance the
//! core made, then replays that log one layer down on fresh state built
//! from the same cell seed: `Superpod`, then `FabricController` with
//! deltas rebuilt from each report, then each `PalomarOcs`. Every
//! replayed report must equal the logged one. A layer's self time is its
//! replayed time minus the replayed time of the layer below it.

use crate::metrics::{self, digest, quantile, Cuts, Outcome, Pass as _, Values};
use crate::spans::{self, Recorder};
use lightwave_core::fabric::{CommitReport, FabricController, FabricDelta, OcsFleet};
use lightwave_core::par::{splitmix, Pool};
use lightwave_core::service::{
    arrival, erlang_b, run_sharded_campus, run_sharded_scoped, Arrival, CampusObserver, Mix,
    PolicyConfig, ScopeCollector, ScopeReport, ServiceConfig, ServiceCore, ServiceEvent,
    ServiceReport, CELL_STREAM,
};
use lightwave_core::superpod::wiring::SUPERPOD_OCS_COUNT;
use lightwave_core::superpod::{Slice, SliceHandle, Superpod};
use lightwave_core::units::Nanos;
use std::time::Instant;

/// Arrivals per independent cell (one fresh pod each).
pub const CELL_SIZE: u64 = 2_048;
/// Scope collector sampling period (1-in-64 requests).
pub const SCOPE_EVERY: u64 = 64;
/// Set-ups timed per run, at least, and the least time they span (see
/// [`metrics::time_setup`]).
const SETUP_REPEATS: usize = 101;
const SETUP_SECONDS: f64 = 1.0;
/// Span budget of the exported trace (the first cell fits).
const SPAN_BUDGET: usize = 60_000;

/// One service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Arrival mix.
    pub mix: Mix,
    /// Mean inter-arrival gap in sim time (the offered-load knob).
    pub mean_gap: Nanos,
    /// Admission policy.
    pub policy: PolicyConfig,
    /// Cells per pass.
    pub cells: u64,
}

impl Spec {
    /// `svc_production`: production mix, default policy (queue 256,
    /// preemption on), 30 ms mean gap.
    pub fn production() -> Spec {
        Spec {
            mix: Mix::Production,
            mean_gap: Nanos::from_millis(30),
            policy: PolicyConfig::default(),
            cells: 16,
        }
    }

    /// `svc_single_cube`: single-cube mix in loss mode (queue 0, no
    /// preemption), 2 ms mean gap: 100 ms mean hold / 2 ms = 50 Erlangs on
    /// 64 cubes.
    pub fn single_cube() -> Spec {
        Spec {
            mix: Mix::SingleCube,
            mean_gap: Nanos::from_millis(2),
            policy: PolicyConfig {
                queue_limit: 0,
                preemption: false,
            },
            cells: 48,
        }
    }

    /// The library configuration this workload corresponds to.
    pub fn config(&self, seed: u64) -> ServiceConfig {
        ServiceConfig {
            seed,
            requests: self.cells * CELL_SIZE,
            mean_gap: self.mean_gap,
            mix: self.mix,
            policy: self.policy,
            shard_size: CELL_SIZE,
            scope_every: SCOPE_EVERY,
            ..ServiceConfig::default()
        }
    }
}

/// Offered load in Erlangs of a single-cube run (mean hold 100 ms).
fn erlangs(cfg: &ServiceConfig) -> f64 {
    100.0 / (cfg.mean_gap.0 as f64 / 1e6)
}

/// Pre-generates the arrival stream (the benchmark's set-up) into `out`.
fn generate_into(cfg: &ServiceConfig, out: &mut Vec<Arrival>) {
    out.clear();
    out.extend((0..cfg.requests).map(|i| arrival(cfg.seed, i, cfg.mix)));
}

#[cfg(test)]
fn generate(cfg: &ServiceConfig) -> Vec<Arrival> {
    let mut out = Vec::new();
    generate_into(cfg, &mut out);
    out
}

/// What the core asked of the pod, in call order.
#[derive(Debug, Clone)]
enum Step {
    /// Advance the pod clock to the logged time.
    Advance,
    Compose {
        slice: Slice,
        handle: SliceHandle,
        report: CommitReport,
    },
    Release {
        handle: SliceHandle,
        report: CommitReport,
    },
}

#[derive(Debug, Clone)]
struct Logged {
    /// Global index of the arrival whose loop iteration made the call.
    id: u64,
    /// The live span that made it.
    caller: &'static str,
    /// Sim time of the call.
    at: Nanos,
    step: Step,
}

/// Moves one event batch into the log. Outside `drain`, the core advances
/// the pod before every completion; `drain` also ends each group of
/// same-time completions with one zero-length advance.
fn log_batch(
    log: &mut Vec<Logged>,
    events: &mut Vec<ServiceEvent>,
    id: u64,
    caller: &'static str,
    drain: bool,
) {
    let mut group: Option<Nanos> = None;
    let push = |log: &mut Vec<Logged>, at, step| {
        log.push(Logged {
            id,
            caller,
            at,
            step,
        })
    };
    for ev in events.drain(..) {
        match ev {
            ServiceEvent::Completed {
                at, handle, report, ..
            } => {
                if drain {
                    if let Some(t) = group.filter(|&t| t != at) {
                        push(log, t, Step::Advance);
                    }
                    group = Some(at);
                }
                push(log, at, Step::Advance);
                push(log, at, Step::Release { handle, report });
            }
            ServiceEvent::Preempted {
                at, handle, report, ..
            } => push(log, at, Step::Release { handle, report }),
            ServiceEvent::Admitted {
                at,
                slice,
                handle,
                report,
                ..
            } => push(
                log,
                at,
                Step::Compose {
                    slice,
                    handle,
                    report,
                },
            ),
            ServiceEvent::Enqueued { .. } | ServiceEvent::Rejected { .. } => {}
        }
    }
    if let Some(t) = group {
        push(log, t, Step::Advance);
    }
}

/// Host seconds of the live loop, per call site.
#[derive(Debug, Default, Clone)]
pub struct Live {
    pub pod_new: f64,
    pub advance_to: f64,
    pub submit: f64,
    pub drain: f64,
    pub scope: f64,
    pub campus: f64,
    pub scrape: f64,
    pub events: u64,
}

/// Host seconds and counts of the replays.
#[derive(Debug, Default, Clone)]
pub struct Replayed {
    pub sp_compose: f64,
    pub sp_release: f64,
    pub sp_advance: f64,
    pub fab_commit: f64,
    pub fab_advance: f64,
    pub ocs_apply: f64,
    pub ocs_advance: f64,
    pub composes: u64,
    pub releases: u64,
    pub switches: u64,
    pub added: u64,
    pub removed: u64,
    pub alignments: u64,
    /// Ops replayed on each layer whose report matched the log.
    pub matched: u64,
    /// Ops replayed in total (three layers).
    pub replayed: u64,
}

/// Tracing state threaded through a traced pass.
struct Tracing<'a> {
    live: Live,
    replayed: Replayed,
    mismatches: Vec<String>,
    recorder: &'a mut Recorder,
}

/// One pass over every cell.
pub struct Pass {
    pub cfg: ServiceConfig,
    pub report: ServiceReport,
    pub scope: ScopeReport,
    pub health_json: String,
    pub conservation: Vec<String>,
    /// Host seconds of the live loop (replays excluded).
    pub wall: f64,
    /// The live loop's host time in segments (replays included).
    pub segments: Vec<f64>,
}

impl metrics::Pass for Pass {
    const NAMES: [&'static str; 3] = ["requests_per_s", "request_p50_us", "request_p99_us"];

    fn wall(&self) -> f64 {
        self.wall
    }

    /// One segment per arrival's loop iteration, one per cell's drain and
    /// hand-over to the next cell, and the final scrape.
    fn segments(&self) -> &[f64] {
        &self.segments
    }

    /// Arrivals submitted.
    fn attempted(&self) -> u64 {
        self.report.submitted
    }

    /// Fabric-refused composes and releases, plus cells whose request
    /// conservation broke.
    fn failed(&self) -> u64 {
        self.report.compose_failed + self.report.release_failed + self.conservation.len() as u64
    }

    /// The merged `ServiceReport` and scope snapshots and
    /// `campus_health.json`.
    fn digest(&self) -> String {
        outputs_digest(&self.report, &self.scope, &self.health_json)
    }

    /// Request conservation in every cell and, in loss mode, blocking
    /// near Erlang B at the offered load.
    fn check(&self, out: &mut Outcome) {
        for e in &self.conservation {
            out.check(false, || format!("conservation broke in {e}"));
        }
        if self.cfg.mix == Mix::SingleCube {
            let measured = self.report.blocking_probability();
            let predicted = erlang_b(erlangs(&self.cfg), 64);
            out.check(
                (measured - predicted).abs() <= 0.005 + 0.2 * predicted,
                || format!("blocking {measured:.5} is not near Erlang B {predicted:.5}"),
            );
        }
    }

    /// Sim-time figures: they repeat exactly for a seed, and only a model
    /// or policy change may move them.
    fn summary(&self) -> String {
        let r = &self.report;
        let wait = r.wait_quantile_micros(0.99).unwrap_or(0.0) / 1e3;
        let mut s = format!(
            "sim: admit_wait_p99_ms {wait:.3} ms | goodput_ratio {:.6} | blocking_ratio {:.6}",
            r.goodput_fraction(),
            r.blocking_probability()
        );
        if self.cfg.mix == Mix::SingleCube {
            let e = erlangs(&self.cfg);
            s.push_str(&format!(" | erlang_b({e:.0} E, 64) {:.6}", erlang_b(e, 64)));
        }
        s
    }
}

fn outputs_digest(report: &ServiceReport, scope: &ScopeReport, health_json: &str) -> String {
    let report = serde_json::to_string(&report.snapshot()).expect("service snapshot serializes");
    let scope = serde_json::to_string(&scope.snapshot()).expect("scope snapshot serializes");
    digest(&[&report, &scope, health_json])
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// Runs every cell once. `lat` receives each arrival's control-plane
/// latency (`advance_to` + `submit`) in nanoseconds.
fn pass(
    cfg: &ServiceConfig,
    arrivals: &[Arrival],
    lat: &mut Vec<u64>,
    mut tracing: Option<&mut Tracing>,
) -> Pass {
    let start = Instant::now();
    let mut cuts = Cuts::new(start);
    let mut replay_secs = 0.0;
    let mut merged: Option<(ServiceReport, ScopeReport, CampusObserver)> = None;
    let mut conservation = Vec::new();
    let mut log = Vec::new();
    let mut events = Vec::new();
    for (cell, cell_arrivals) in arrivals.chunks(CELL_SIZE as usize).enumerate() {
        let cell = cell as u64;
        let pod_seed = splitmix(cfg.seed ^ CELL_STREAM, cell);
        let base = cell * CELL_SIZE;
        let t = Instant::now();
        let mut pod = Superpod::new(pod_seed);
        if let Some(tr) = tracing.as_deref_mut() {
            tr.live.pod_new += t.elapsed().as_secs_f64();
        }
        let mut core = ServiceCore::new(cfg.policy);
        let mut scope = ScopeCollector::new(cfg.seed, cfg.scope_every);
        let mut obs = CampusObserver::new();
        let mut now = Nanos(0);
        for (i, a) in cell_arrivals.iter().enumerate() {
            let id = base + i as u64;
            now += cfg.scaled_gap(a.gap_unit_micros);
            let t0 = Instant::now();
            cuts.cut(t0);
            core.advance_to(&mut pod, now, &mut events);
            let Some(tr) = tracing.as_deref_mut() else {
                core.submit(&mut pod, &a.intent, &mut events);
                lat.push(t0.elapsed().as_nanos() as u64);
                scope.observe(&events);
                obs.observe(cell as u32, &events);
                events.clear();
                continue;
            };
            let t1 = Instant::now();
            let advanced = events.len();
            core.submit(&mut pod, &a.intent, &mut events);
            let t2 = Instant::now();
            lat.push(t2.duration_since(t0).as_nanos() as u64);
            scope.observe(&events);
            let t3 = Instant::now();
            obs.observe(cell as u32, &events);
            let t4 = Instant::now();
            tr.live.advance_to += secs(t0, t1);
            tr.live.submit += secs(t1, t2);
            tr.live.scope += secs(t2, t3);
            tr.live.campus += secs(t3, t4);
            tr.live.events += events.len() as u64;
            if cell == 0 {
                let r = &mut *tr.recorder;
                r.record("arrival", "cell", id, 1, t0, t4);
                r.record("service.advance_to", "arrival", id, 1, t0, t1);
                r.record("service.submit", "arrival", id, 1, t1, t2);
                r.record("telemetry.scope_observe", "arrival", id, 1, t2, t3);
                r.record("telemetry.campus_observe", "arrival", id, 1, t3, t4);
            }
            let mut submitted = events.split_off(advanced);
            log_batch(&mut log, &mut events, id, "service.advance_to", false);
            log.push(Logged {
                id,
                caller: "service.advance_to",
                at: now,
                step: Step::Advance,
            });
            log_batch(&mut log, &mut submitted, id, "service.submit", false);
        }
        let t0 = Instant::now();
        cuts.cut(t0);
        core.drain(&mut pod, &mut events);
        let t1 = Instant::now();
        scope.observe(&events);
        let t2 = Instant::now();
        obs.observe(cell as u32, &events);
        let t3 = Instant::now();
        if let Err(e) = core.conservation() {
            conservation.push(format!("cell {cell}: {e}"));
        }
        match tracing.as_deref_mut() {
            None => events.clear(),
            Some(tr) => {
                tr.live.drain += secs(t0, t1);
                tr.live.scope += secs(t1, t2);
                tr.live.campus += secs(t2, t3);
                tr.live.events += events.len() as u64;
                let last = base + cell_arrivals.len() as u64 - 1;
                if cell == 0 {
                    tr.recorder.record("service.drain", "cell", last, 1, t0, t1);
                }
                log_batch(&mut log, &mut events, last, "service.drain", true);
                let r0 = Instant::now();
                let rec = if cell == 0 {
                    Some(&mut *tr.recorder)
                } else {
                    None
                };
                if let Err(e) = replay(pod_seed, &log, &mut tr.replayed, rec) {
                    tr.mismatches.push(format!("cell {cell}: {e}"));
                }
                log.clear();
                replay_secs += r0.elapsed().as_secs_f64();
            }
        }
        let cell_out = (core.report().clone(), scope.finish(), obs);
        merged = Some(match merged {
            None => cell_out,
            Some((mut r, mut s, mut o)) => {
                r.merge(&cell_out.0);
                s.merge(&cell_out.1);
                o.merge(cell_out.2);
                (r, s, o)
            }
        });
    }
    let (report, scope, mut campus) = merged.expect("at least one cell");
    let t0 = Instant::now();
    let health_json = campus.health_doc().to_json();
    let end = Instant::now();
    cuts.cut(end);
    if let Some(tr) = tracing {
        tr.live.scrape += end.duration_since(t0).as_secs_f64();
    }
    Pass {
        cfg: *cfg,
        report,
        scope,
        health_json,
        conservation,
        wall: end.duration_since(start).as_secs_f64() - replay_secs,
        segments: cuts.secs,
    }
}

/// Rebuilds the fabric transaction a report describes.
fn delta_of(report: &CommitReport) -> FabricDelta {
    let mut delta = FabricDelta::new();
    for (&ocs, r) in &report.per_switch {
        let d = delta.entry(ocs);
        d.add = r.added.clone();
        d.remove = r.removed.clone();
    }
    delta
}

/// Replays one cell's log on each layer in turn; the first mismatch ends
/// it.
fn replay(
    seed: u64,
    log: &[Logged],
    acc: &mut Replayed,
    mut rec: Option<&mut Recorder>,
) -> Result<(), String> {
    // Superpod.
    let mut pod = Superpod::new(seed);
    let mut now = Nanos(0);
    for l in log {
        acc.replayed += 1;
        let (name, ok, t0, t1) = match &l.step {
            Step::Advance => {
                let dt = l.at.saturating_sub(now);
                now = l.at;
                let t0 = Instant::now();
                pod.advance(dt);
                let t1 = Instant::now();
                acc.sp_advance += secs(t0, t1);
                ("superpod.advance", true, t0, t1)
            }
            Step::Compose {
                slice,
                handle,
                report,
            } => {
                let slice = slice.clone();
                let t0 = Instant::now();
                let got = pod.compose(slice);
                let t1 = Instant::now();
                acc.sp_compose += secs(t0, t1);
                acc.composes += 1;
                let ok = matches!(&got, Ok((h, r)) if h == handle && r == report);
                ("superpod.compose", ok, t0, t1)
            }
            Step::Release { handle, report } => {
                let t0 = Instant::now();
                let got = pod.release(*handle);
                let t1 = Instant::now();
                acc.sp_release += secs(t0, t1);
                acc.releases += 1;
                ("superpod.release", got.as_ref() == Ok(report), t0, t1)
            }
        };
        if !ok {
            return Err(format!("{name} for arrival {} diverged from the log", l.id));
        }
        acc.matched += 1;
        if let Some(r) = rec.as_deref_mut() {
            r.record(name, l.caller, l.id, 2, t0, t1);
        }
    }

    // Fabric, with each delta rebuilt from the logged report.
    let mut fabric = FabricController::new(OcsFleet::build(SUPERPOD_OCS_COUNT, seed));
    let mut now = Nanos(0);
    for l in log {
        acc.replayed += 1;
        let (name, parent, ok, t0, t1) = match &l.step {
            Step::Advance => {
                let dt = l.at.saturating_sub(now);
                now = l.at;
                let t0 = Instant::now();
                fabric.advance(dt);
                let t1 = Instant::now();
                acc.fab_advance += secs(t0, t1);
                ("fabric.advance", "superpod.advance", true, t0, t1)
            }
            Step::Compose { report, .. } | Step::Release { report, .. } => {
                let delta = delta_of(report);
                let t0 = Instant::now();
                let got = fabric.commit_delta(&delta);
                let t1 = Instant::now();
                acc.fab_commit += secs(t0, t1);
                acc.switches += report.per_switch.len() as u64;
                acc.added += report.added as u64;
                acc.removed += report.removed as u64;
                let parent = if matches!(l.step, Step::Compose { .. }) {
                    "superpod.compose"
                } else {
                    "superpod.release"
                };
                let ok = got.as_ref() == Ok(report);
                ("fabric.commit_delta", parent, ok, t0, t1)
            }
        };
        if !ok {
            return Err(format!("{name} for arrival {} diverged from the log", l.id));
        }
        acc.matched += 1;
        if let Some(r) = rec.as_deref_mut() {
            r.record(name, parent, l.id, 3, t0, t1);
        }
    }

    // OCS, switch by switch.
    let mut fleet = OcsFleet::build(SUPERPOD_OCS_COUNT, seed);
    let mut now = Nanos(0);
    for l in log {
        acc.replayed += 1;
        let (name, parent, ok, t0, t1) = match &l.step {
            Step::Advance => {
                let dt = l.at.saturating_sub(now);
                now = l.at;
                let t0 = Instant::now();
                fleet.advance(dt);
                let t1 = Instant::now();
                acc.ocs_advance += secs(t0, t1);
                ("ocs.advance", "fabric.advance", true, t0, t1)
            }
            Step::Compose { report, .. } | Step::Release { report, .. } => {
                let first = Instant::now();
                let mut last = first;
                let mut ok = true;
                for (&id, want) in &report.per_switch {
                    let Some(sw) = fleet.get_mut(id) else {
                        return Err(format!("switch {id} missing from the replay fleet"));
                    };
                    let t0 = Instant::now();
                    let got = sw.apply_delta(&want.added, &want.removed);
                    last = Instant::now();
                    acc.ocs_apply += secs(t0, last);
                    acc.alignments += want.added.len() as u64;
                    ok &= got.as_ref() == Ok(want);
                }
                ("ocs.apply_delta", "fabric.commit_delta", ok, first, last)
            }
        };
        if !ok {
            return Err(format!("{name} for arrival {} diverged from the log", l.id));
        }
        acc.matched += 1;
        if let Some(r) = rec.as_deref_mut() {
            r.record(name, parent, l.id, 4, t0, t1);
        }
    }
    Ok(())
}

/// The per-layer ledger of a traced pass: each layer's self time, with
/// the unattributed remainder, summing to the live loop's wall time.
pub fn ledger(live: &Live, rp: &Replayed, wall: f64) -> Vec<(&'static str, f64)> {
    let superpod = rp.sp_compose + rp.sp_release + rp.sp_advance;
    let fabric = rp.fab_commit + rp.fab_advance;
    let ocs = rp.ocs_apply + rp.ocs_advance;
    let mut rows = vec![
        (
            "service.self_s",
            live.advance_to + live.submit + live.drain - superpod,
        ),
        ("superpod.new_s", live.pod_new),
        ("superpod.self_s", superpod - fabric),
        ("fabric.self_s", fabric - ocs),
        ("ocs.apply_delta_s", rp.ocs_apply),
        ("ocs.advance_s", rp.ocs_advance),
        ("telemetry.scope_observe_s", live.scope),
        ("telemetry.campus_observe_s", live.campus),
        ("telemetry.scrape_s", live.scrape),
    ];
    let attributed: f64 = rows.iter().map(|(_, s)| s).sum();
    rows.push(("unattributed_s", wall - attributed));
    rows
}

fn sim_values(v: &mut Values, p: &Pass) {
    let r = &p.report;
    let admitted: u64 = r.classes.iter().map(|c| c.admitted).sum();
    v.set("service.admitted", admitted as f64);
    v.set("service.preempted", r.preempted() as f64);
    v.set("service.completed", r.completed() as f64);
    v.set(
        "service.rejected",
        (r.invalid + r.blocked() + r.compose_failed) as f64,
    );
    v.set(
        "service.admits_per_completion",
        admitted as f64 / r.completed().max(1) as f64,
    );
    v.set(
        "service.admit_wait_p99_ms",
        r.wait_quantile_micros(0.99).unwrap_or(0.0) / 1e3,
    );
    v.set("service.goodput_ratio", r.goodput_fraction());
    v.set("service.blocking_ratio", r.blocking_probability());
}

/// Times generations of the arrival stream (see [`metrics::time_setup`]);
/// returns the median and the stream. Every generation refills one
/// buffer, so the time is the generator's and not the kernel's zeroing of
/// fresh pages.
fn setup(cfg: &ServiceConfig) -> (f64, Vec<Arrival>) {
    let mut arrivals = Vec::with_capacity(cfg.requests as usize);
    let median = metrics::time_setup(SETUP_REPEATS, SETUP_SECONDS, || {
        generate_into(cfg, std::hint::black_box(&mut arrivals))
    });
    (median, arrivals)
}

/// The end-to-end run over the pre-generated stream.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let cfg = spec.config(seed);
    let (setup_s, arrivals) = setup(&cfg);
    metrics::run_passes(setup_s, seconds, |lat| pass(&cfg, &arrivals, lat, None))
}

/// Everything a traced run measured, before it becomes metric values.
pub struct Traced {
    pub baseline: Pass,
    pub traced: Pass,
    pub live: Live,
    pub replayed: Replayed,
    pub mismatches: Vec<String>,
    pub recorder: Recorder,
    pub setup_s: f64,
    pub samples: Vec<u64>,
}

/// Untraced passes (the overhead baseline and latency tail), then one
/// traced pass with its replays.
pub fn measure_traced(spec: &Spec, seed: u64) -> Traced {
    let cfg = spec.config(seed);
    let (setup_s, arrivals) = setup(&cfg);
    // Untraced passes until `request_p999_us` has ten samples beyond it.
    let mut samples = Vec::new();
    let mut baseline = pass(&cfg, &arrivals, &mut samples, None);
    while samples.len() < 10_000 {
        baseline = pass(&cfg, &arrivals, &mut samples, None);
    }
    let mut recorder = Recorder::new(SPAN_BUDGET);
    let mut tracing = Tracing {
        live: Live::default(),
        replayed: Replayed::default(),
        mismatches: Vec::new(),
        recorder: &mut recorder,
    };
    let traced = pass(&cfg, &arrivals, &mut Vec::new(), Some(&mut tracing));
    let Tracing {
        live,
        replayed,
        mismatches,
        ..
    } = tracing;
    samples.sort_unstable();
    Traced {
        baseline,
        traced,
        live,
        replayed,
        mismatches,
        recorder,
        setup_s,
        samples,
    }
}

/// The traced run: per-layer values, replay and digest checks, and the
/// exported trace.
pub fn run_traced(spec: &Spec, seed: u64, workload: &str) -> Outcome {
    let t = measure_traced(spec, seed);
    let mut out = Outcome {
        attempted: t.traced.report.submitted,
        failed: t.traced.failed(),
        ..Outcome::default()
    };
    t.baseline.check(&mut out);
    t.traced.check(&mut out);
    for m in &t.mismatches {
        out.check(false, || format!("replay: {m}"));
    }
    let rp = &t.replayed;
    out.check(rp.replayed > 0 && rp.matched == rp.replayed, || {
        format!("replay matched {}/{} ops", rp.matched, rp.replayed)
    });
    println!(
        "replay: {}/{} logged ops reproduced exactly on superpod, fabric and ocs",
        rp.matched, rp.replayed
    );
    let d = t.traced.digest();
    out.check(t.baseline.digest() == d, || {
        format!("traced digest {d} != untraced {}", t.baseline.digest())
    });
    println!("{}", t.traced.summary());
    println!("digest {d}");
    crate::check_digest_at_two_threads(&mut out, workload, seed, &d);
    let doc = t.recorder.to_chrome_trace(
        workload,
        &[
            "live loop",
            "superpod replay",
            "fabric replay",
            "ocs replay",
        ],
    );
    match spans::export(workload, &doc) {
        Ok(path) => println!("trace: {path}"),
        Err(e) => out.check(false, || format!("trace export: {e}")),
    }

    let v = &mut out.values;
    let live = &t.live;
    v.set("service.arrival_gen_s", t.setup_s);
    v.set("service.advance_to_s", live.advance_to);
    v.set("service.submit_s", live.submit);
    v.set("service.drain_s", live.drain);
    v.set("superpod.compose_s", rp.sp_compose);
    v.set("superpod.release_s", rp.sp_release);
    v.set("superpod.advance_s", rp.sp_advance);
    v.set("superpod.composes", rp.composes as f64);
    v.set("superpod.releases", rp.releases as f64);
    v.set("fabric.commit_delta_s", rp.fab_commit);
    v.set("fabric.advance_s", rp.fab_advance);
    v.set("fabric.switches_touched", rp.switches as f64);
    v.set("fabric.circuits_added", rp.added as f64);
    v.set("fabric.circuits_removed", rp.removed as f64);
    v.set("ocs.alignments", rp.alignments as f64);
    v.set("telemetry.events_folded", live.events as f64);
    for (name, s) in ledger(live, rp, t.traced.wall) {
        v.set(name, s);
    }
    sim_values(v, &t.traced);
    v.set("request_p999_us", quantile(&t.samples, 0.999) as f64 / 1e3);
    v.set("request_samples", t.samples.len() as f64);
    v.set("trace.overhead_ratio", t.traced.wall / t.baseline.wall);
    crate::print_ledger(&ledger(live, rp, t.traced.wall), t.traced.wall);
    out
}

/// The simulated-output digest of the library's own sharded driver on the
/// process's `LIGHTWAVE_THREADS` pool: it must equal the benchmark loop's.
pub fn library_digest(spec: &Spec, seed: u64) -> String {
    let pool = Pool::from_env();
    let cfg = spec.config(seed);
    let (report, mut campus, _) = run_sharded_campus(&pool, &cfg);
    let (_, scope, _) = run_sharded_scoped(&pool, &cfg);
    outputs_digest(&report, &scope, &campus.health_doc().to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mut spec: Spec) -> Spec {
        spec.cells = 2;
        spec
    }

    #[test]
    fn replay_reproduces_every_logged_report() {
        for spec in [small(Spec::production()), small(Spec::single_cube())] {
            let t = measure_traced(&spec, 11);
            assert!(t.mismatches.is_empty(), "{:?}", t.mismatches);
            let rp = &t.replayed;
            assert!(rp.replayed > 0);
            assert_eq!(rp.matched, rp.replayed);
            assert!(rp.composes > 0 && rp.releases > 0);
            assert_eq!(t.traced.digest(), t.baseline.digest());
            assert!(t.traced.conservation.is_empty());
            if spec.mix == Mix::SingleCube {
                assert_eq!(rp.switches, 0, "single-cube slices touch no switch");
            } else {
                assert!(rp.switches > 0 && rp.added > 0);
            }
        }
    }

    #[test]
    fn ledger_sums_to_the_traced_wall_time() {
        let t = measure_traced(&small(Spec::production()), 5);
        let rows = ledger(&t.live, &t.replayed, t.traced.wall);
        let total: f64 = rows.iter().map(|(_, s)| s).sum();
        assert!((total - t.traced.wall).abs() < 1e-9 * t.traced.wall.max(1.0));
        assert_eq!(rows.last().map(|r| r.0), Some("unattributed_s"));
        assert!(t.replayed.sp_compose > 0.0 && t.replayed.ocs_apply > 0.0);
    }

    #[test]
    fn benchmark_loop_matches_the_library_driver() {
        let spec = small(Spec::production());
        let cfg = spec.config(3);
        let p = pass(&cfg, &generate(&cfg), &mut Vec::new(), None);
        assert_eq!(p.digest(), library_digest(&spec, 3));
    }
}
