//! The open-loop workload engine: millions of arrivals over real pods.
//!
//! One driver loop serves every mode: [`run_cell`] walks a cell's
//! arrivals through `advance_to` → `submit`, then `drain`s, and hands
//! each event batch to an [`Observe`] value.
//!
//! - [`run_sharded`] — the at-scale mode. The arrival index space is
//!   split by [`plan_shards`](lightwave_par::plan_shards) into
//!   independent *cells*: each shard runs its own fresh
//!   [`Superpod`] + [`ServiceCore`] over its index range, and the
//!   per-cell [`ServiceReport`]s and observers merge in shard order.
//!   Arrivals are pure per index and a cell touches nothing outside
//!   itself, so the merged outputs are **byte-identical at any
//!   `LIGHTWAVE_THREADS`** — a year of arrivals shards the same way a
//!   Monte-Carlo run does. [`run_sharded_scoped`] and
//!   [`run_sharded_campus`](crate::run_sharded_campus) are this run with
//!   a [`ScopeCollector`] or a [`CampusObserver`](crate::CampusObserver).
//! - [`ServiceEngine`] — the observed mode. One cell whose observer is
//!   full telemetry: per-class counters and [`RateWindow`] rates, wait
//!   histograms, queue depth as a Perfetto counter track, SLO hooks, and
//!   request-lifecycle spans (`Enqueue → Admit → Compose → Run →
//!   Release`, with `Reject`/`Preempt` off the happy path) chained by
//!   follows-links.

use crate::arrivals::{arrival, Mix};
use crate::intent::Priority;
use crate::metrics::ServiceReport;
use crate::observe::{Batch, Observe};
use crate::queue::{PolicyConfig, RejectReason, ServiceCore, ServiceEvent};
use crate::scope::{scope_span_id, ScopeCollector, ScopeReport};
use lightwave_par::{splitmix, Pool, RunStats, Shard};
use lightwave_superpod::instrument::{trace_compose, trace_release};
use lightwave_superpod::Superpod;
use lightwave_telemetry::{
    CounterId, FleetTelemetry, HistogramId, RateWindow, SeriesId, SeriesStore,
};
use lightwave_trace::{Lane, RequestStage, SpanId, SpanKind, Tracer};
use lightwave_units::Nanos;
use std::collections::BTreeMap;

/// Stream offset deriving each cell's pod seed from the run seed.
pub const CELL_STREAM: u64 = 0xCE11_0D5E_ED00_0001;

/// SLO object name for admission availability.
pub const ADMISSION_SLO_OBJECT: &str = "svc-admission";

/// One open-loop run's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Arrival-stream seed.
    pub seed: u64,
    /// Total arrivals.
    pub requests: u64,
    /// Mean inter-arrival gap (scales the unit-mean Exp(1) gaps; the
    /// offered-load knob).
    pub mean_gap: Nanos,
    /// Workload mix.
    pub mix: Mix,
    /// Admission policy.
    pub policy: PolicyConfig,
    /// Arrivals per cell in [`run_sharded`] and its scoped and campus
    /// wrappers. [`ServiceEngine`] always runs one cell.
    pub shard_size: u64,
    /// Requests (by index) given lifecycle spans in [`ServiceEngine`].
    pub trace_requests: u64,
    /// Cross-check every incremental commit against a full rebuild of
    /// the desired state (see `Superpod::set_shadow_check`). Off by
    /// default: it re-pays the old O(pod) cost per transaction and
    /// exists for equivalence proofs and in-run perf baselines.
    pub shadow: bool,
    /// Scope-sampling period of the [`ScopeCollector`] that
    /// [`run_sharded_scoped`] and [`ServiceEngine`] build: 0 disables, 1
    /// samples every request, `n` samples ~1-in-`n` (pure in `(seed,
    /// request)` — see [`crate::scope::scope_sampled`]).
    pub scope_every: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            seed: 0x5EED,
            requests: 10_000,
            mean_gap: Nanos::from_millis(30),
            mix: Mix::Production,
            policy: PolicyConfig::default(),
            shard_size: 4_096,
            trace_requests: 0,
            shadow: false,
            scope_every: 0,
        }
    }
}

impl ServiceConfig {
    /// The gap before arrival `a` in sim time: the unit-mean draw scaled
    /// by `mean_gap` in integer arithmetic (deterministic at any thread
    /// count).
    pub fn scaled_gap(&self, gap_unit_micros: u64) -> Nanos {
        Nanos(gap_unit_micros.saturating_mul(self.mean_gap.0) / 1_000_000)
    }
}

/// Runs one independent service cell over `shard`'s index range,
/// handing every event batch to `obs`, and returns the cell's report.
/// Pure: same `(cfg, shard)` → same report and same batches, whatever
/// the observer (observation never perturbs policy).
pub fn run_cell<O: Observe>(cfg: &ServiceConfig, shard: Shard, obs: &mut O) -> ServiceReport {
    let mut pod = Superpod::new(splitmix(cfg.seed ^ CELL_STREAM, shard.index));
    pod.set_shadow_check(cfg.shadow);
    let mut core = ServiceCore::new(cfg.policy);
    let mut events = Vec::new();
    let mut now = Nanos(0);
    for i in shard.start..shard.start + shard.len {
        let a = arrival(cfg.seed, i, cfg.mix);
        now += cfg.scaled_gap(a.gap_unit_micros);
        core.advance_to(&mut pod, now, &mut events);
        core.submit(&mut pod, &a.intent, &mut events);
        obs.fold(Batch {
            cell: shard.index,
            at: now,
            queue_depth: core.queue_depth(),
            events: &events,
        });
        events.clear();
    }
    let end = core.drain(&mut pod, &mut events);
    obs.fold(Batch {
        cell: shard.index,
        at: end,
        queue_depth: core.queue_depth(),
        events: &events,
    });
    core.report().clone()
}

/// Shards `cfg.requests` arrivals across `pool` as independent cells,
/// each observed by a clone of `fresh`, and merges the reports and the
/// observers in shard order. Both (not the [`RunStats`]) are
/// byte-identical at any thread count. Pass `&()` for a plain run.
pub fn run_sharded<O>(pool: &Pool, cfg: &ServiceConfig, fresh: &O) -> (ServiceReport, O, RunStats)
where
    O: Observe + Clone + Send + Sync,
{
    let ((report, obs), stats) = pool.run_shards(
        cfg.seed,
        cfg.requests,
        cfg.shard_size,
        |_rng, shard| {
            let mut obs = fresh.clone();
            (run_cell(cfg, shard, &mut obs), obs)
        },
        |(mut a, mut oa), (b, ob)| {
            a.merge(&b);
            oa.merge(ob);
            (a, oa)
        },
    );
    (report, obs, stats)
}

/// [`run_sharded`] with scope attribution (see [`ScopeCollector`]).
/// With `cfg.scope_every == 0` the scope report is empty.
pub fn run_sharded_scoped(
    pool: &Pool,
    cfg: &ServiceConfig,
) -> (ServiceReport, ScopeReport, RunStats) {
    let (report, scope, stats) =
        run_sharded(pool, cfg, &ScopeCollector::new(cfg.seed, cfg.scope_every));
    (report, scope.finish(), stats)
}

struct ClassInstruments {
    offered: CounterId,
    admitted: CounterId,
    rejected: CounterId,
    preempted: CounterId,
    completed: CounterId,
    wait: HistogramId,
    admit_rate: RateWindow,
    reject_rate: RateWindow,
    preempt_rate: RateWindow,
}

/// One fully observed service cell (see module docs). All stores are
/// public: scrape `telemetry`, export `tracer` + `series` with
/// [`to_chrome_trace_with_counters`](lightwave_trace::to_chrome_trace_with_counters).
pub struct ServiceEngine {
    /// Engine configuration.
    pub cfg: ServiceConfig,
    /// Metrics + events + alarms + SLO.
    pub telemetry: FleetTelemetry,
    /// Request-lifecycle spans.
    pub tracer: Tracer,
    /// Queue-depth time series (a Perfetto counter track).
    pub series: SeriesStore,
    instruments: Vec<ClassInstruments>,
    depth: SeriesId,
    now: Nanos,
    /// Last lifecycle span of each traced request still in flight.
    open: BTreeMap<u64, SpanId>,
    /// Scope attribution (active when `cfg.scope_every > 0`).
    scope: ScopeCollector,
    /// Open root lifecycle span of each scope-sampled request, with id
    /// pre-derived by [`scope_span_id`] so sharded reports resolve into
    /// this engine's trace.
    scope_roots: BTreeMap<u64, SpanId>,
}

impl ServiceEngine {
    /// A fresh observed cell (cell index 0 of `cfg.seed`).
    pub fn new(cfg: ServiceConfig) -> ServiceEngine {
        let mut telemetry = FleetTelemetry::new();
        let mut series = SeriesStore::default();
        let window = Nanos::from_secs_f64(1.0);
        let instruments = Priority::ALL
            .iter()
            .map(|&p| {
                let labels: &[(&str, &str)] = &[("class", p.name())];
                let m = &mut telemetry.metrics;
                let admitted = m.counter("svc_admitted_total", labels);
                let rejected = m.counter("svc_rejected_total", labels);
                let preempted = m.counter("svc_preempted_total", labels);
                ClassInstruments {
                    offered: m.counter("svc_offered_total", labels),
                    admitted,
                    rejected,
                    preempted,
                    completed: m.counter("svc_completed_total", labels),
                    wait: m.histogram("svc_wait_micros", labels),
                    admit_rate: m.rate_window(admitted, "svc_admit_rate_per_sec", labels, window),
                    reject_rate: m.rate_window(rejected, "svc_reject_rate_per_sec", labels, window),
                    preempt_rate: m.rate_window(
                        preempted,
                        "svc_preempt_rate_per_sec",
                        labels,
                        window,
                    ),
                }
            })
            .collect();
        let depth = series.series("svc_queue_depth", &[]);
        ServiceEngine {
            telemetry,
            tracer: Tracer::new(cfg.seed),
            series,
            instruments,
            depth,
            now: Nanos(0),
            open: BTreeMap::new(),
            scope: ScopeCollector::new(cfg.seed, cfg.scope_every),
            scope_roots: BTreeMap::new(),
            cfg,
        }
    }

    /// Runs the configured arrival stream to completion (including the
    /// final drain) through [`run_cell`], observing every batch, and
    /// returns the report.
    pub fn run(&mut self) -> ServiceReport {
        let cfg = self.cfg;
        let cell = Shard {
            index: 0,
            start: 0,
            len: cfg.requests,
        };
        let report = run_cell(&cfg, cell, self);
        // Close any root lifecycle span whose request never terminated
        // (possible only under injected faults): open spans would
        // otherwise be dropped from the export.
        for (_, span) in std::mem::take(&mut self.scope_roots) {
            self.tracer.end(span, self.now);
        }
        report
    }

    /// The scope attribution so far (see
    /// [`ScopeCollector::report_now`]).
    pub fn scope_report(&self) -> ScopeReport {
        self.scope.report_now()
    }

    fn traced(&self, request: u64) -> bool {
        request < self.cfg.trace_requests
    }

    /// A zero-width lifecycle stage span chained after `prev`, parented
    /// under the request's root scope span when one is open.
    fn stage_mark(
        &mut self,
        request: u64,
        stage: RequestStage,
        at: Nanos,
        prev: Option<SpanId>,
    ) -> SpanId {
        let parent = self.scope_roots.get(&request).copied();
        let span = self.tracer.span(
            Lane::Scheduler,
            parent,
            at,
            at,
            SpanKind::ServiceRequest { request, stage },
        );
        if let Some(prev) = prev {
            self.tracer.link_follows(span, prev);
        }
        span
    }
}

/// The engine's telemetry, spans and queue-depth track, stamped with
/// each batch's sim time.
impl Observe for ServiceEngine {
    fn fold(&mut self, batch: Batch<'_>) {
        self.now = batch.at;
        self.scope.observe(batch.events);
        for ev in batch.events {
            match ev {
                ServiceEvent::Enqueued { request, class, at } => {
                    let inst = &self.instruments[class.rank()];
                    self.telemetry.metrics.inc(inst.offered, self.now, 1);
                    if self.scope.sampled(*request) && !self.scope_roots.contains_key(request) {
                        let id = scope_span_id(self.cfg.seed, *request);
                        self.tracer.begin_with_id(
                            id,
                            Lane::Scheduler,
                            None,
                            *at,
                            SpanKind::ServiceRequest {
                                request: *request,
                                stage: RequestStage::Lifecycle,
                            },
                        );
                        self.scope_roots.insert(*request, id);
                    }
                    if self.traced(*request) {
                        let prev = self.open.remove(request);
                        let parent = self.scope_roots.get(request).copied();
                        let span = self.tracer.begin(
                            Lane::Scheduler,
                            parent,
                            self.now,
                            SpanKind::ServiceRequest {
                                request: *request,
                                stage: RequestStage::Enqueue,
                            },
                        );
                        if let Some(prev) = prev {
                            self.tracer.link_follows(span, prev);
                        }
                        self.open.insert(*request, span);
                    }
                }
                ServiceEvent::Rejected {
                    request,
                    class,
                    why,
                    at,
                } => {
                    let inst = &mut self.instruments[class.rank()];
                    self.telemetry.metrics.inc(inst.rejected, self.now, 1);
                    inst.reject_rate
                        .observe(&mut self.telemetry.metrics, self.now);
                    if *why == RejectReason::QueueFull {
                        self.telemetry
                            .slo
                            .observe(self.now, ADMISSION_SLO_OBJECT, false);
                    }
                    if self.traced(*request) {
                        let prev = self.open.remove(request);
                        if let Some(span) = prev {
                            self.tracer.end(span, self.now);
                        }
                        self.stage_mark(*request, RequestStage::Reject, self.now, prev);
                    }
                    if let Some(root) = self.scope_roots.remove(request) {
                        self.tracer.end(root, *at);
                    }
                }
                ServiceEvent::Admitted {
                    request,
                    class,
                    at,
                    cubes,
                    waited,
                    report,
                    ..
                } => {
                    let at = *at;
                    let inst = &mut self.instruments[class.rank()];
                    self.telemetry.metrics.inc(inst.admitted, at, 1);
                    // Zero waits can't land in a log histogram; the
                    // admitted counter still counts them, so the
                    // histogram is the positive-wait tail only.
                    if waited.0 > 0 {
                        self.telemetry
                            .metrics
                            .observe(inst.wait, at, waited.0 as f64 / 1_000.0);
                    }
                    inst.admit_rate.observe(&mut self.telemetry.metrics, at);
                    self.telemetry.slo.observe(at, ADMISSION_SLO_OBJECT, true);
                    if self.traced(*request) {
                        let enqueue = self.open.remove(request);
                        if let Some(span) = enqueue {
                            self.tracer.end(span, at);
                        }
                        let admit = self.stage_mark(*request, RequestStage::Admit, at, enqueue);
                        let ready = report.traffic_ready_at.max(at);
                        let parent = self.scope_roots.get(request).copied();
                        let compose = self.tracer.span(
                            Lane::Scheduler,
                            parent,
                            at,
                            ready,
                            SpanKind::ServiceRequest {
                                request: *request,
                                stage: RequestStage::Compose,
                            },
                        );
                        self.tracer.link_follows(compose, admit);
                        trace_compose(&mut self.tracer, Some(compose), 0, at, *cubes, report);
                        let run = self.tracer.begin(
                            Lane::Scheduler,
                            parent,
                            ready,
                            SpanKind::ServiceRequest {
                                request: *request,
                                stage: RequestStage::Run,
                            },
                        );
                        self.tracer.link_follows(run, compose);
                        self.open.insert(*request, run);
                    }
                }
                ServiceEvent::Preempted {
                    request,
                    class,
                    at,
                    report,
                    ..
                } => {
                    let at = *at;
                    let inst = &mut self.instruments[class.rank()];
                    self.telemetry.metrics.inc(inst.preempted, at, 1);
                    inst.preempt_rate.observe(&mut self.telemetry.metrics, at);
                    if self.traced(*request) {
                        let run = self.open.remove(request);
                        if let Some(span) = run {
                            self.tracer.end(span, at);
                        }
                        let preempt = self.stage_mark(*request, RequestStage::Preempt, at, run);
                        trace_release(&mut self.tracer, Some(preempt), 0, at, 0, report);
                        // The request re-queued: a fresh enqueue span
                        // chains after the eviction.
                        let parent = self.scope_roots.get(request).copied();
                        let enqueue = self.tracer.begin(
                            Lane::Scheduler,
                            parent,
                            at,
                            SpanKind::ServiceRequest {
                                request: *request,
                                stage: RequestStage::Enqueue,
                            },
                        );
                        self.tracer.link_follows(enqueue, preempt);
                        self.open.insert(*request, enqueue);
                    }
                }
                ServiceEvent::Completed {
                    request,
                    class,
                    at,
                    cubes,
                    report,
                    ..
                } => {
                    let at = *at;
                    let inst = &self.instruments[class.rank()];
                    self.telemetry.metrics.inc(inst.completed, at, 1);
                    if self.traced(*request) {
                        let run = self.open.remove(request);
                        if let Some(span) = run {
                            self.tracer.end(span, at);
                        }
                        let release = self.stage_mark(*request, RequestStage::Release, at, run);
                        trace_release(&mut self.tracer, Some(release), 0, at, *cubes, report);
                    }
                    if let Some(root) = self.scope_roots.remove(request) {
                        // The lifecycle ends when the release settles.
                        self.tracer.end(root, report.traffic_ready_at.max(at));
                    }
                }
            }
        }
        self.series
            .push(self.depth, self.now, batch.queue_depth as f64);
    }

    /// # Panics
    ///
    /// Always: an engine observes one cell, and its spans and series
    /// have no shard-order merge. Shard with mergeable observers instead.
    fn merge(&mut self, _: ServiceEngine) {
        panic!("a ServiceEngine observes exactly one cell and cannot merge");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            requests: 600,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn sharded_report_is_thread_count_invariant() {
        let cfg = small_cfg();
        let (serial, (), _) = run_sharded(&Pool::new(1), &cfg, &());
        let (quad, (), _) = run_sharded(&Pool::new(4), &cfg, &());
        assert_eq!(serial, quad);
        assert_eq!(serial.submitted, 600);
        assert!(serial.completed() > 0);
        serial.render(); // must not panic
    }

    #[test]
    fn cells_are_independent_of_partitioning() {
        // One 600-request cell vs two 300-request cells: different cell
        // boundaries change per-cell state (fresh pods), but every index
        // is served exactly once and conservation holds in both.
        let cfg = small_cfg();
        let one = run_cell(
            &cfg,
            Shard {
                index: 0,
                start: 0,
                len: 600,
            },
            &mut (),
        );
        assert_eq!(one.submitted, 600);
        let shards = lightwave_par::plan_shards(600, 300);
        let mut merged = ServiceReport::default();
        for s in shards {
            merged.merge(&run_cell(&cfg, s, &mut ()));
        }
        assert_eq!(merged.submitted, 600);
        assert_eq!(one.invalid, merged.invalid, "validation is per index");
    }

    #[test]
    fn engine_observes_the_lifecycle() {
        let mut engine = ServiceEngine::new(ServiceConfig {
            requests: 300,
            trace_requests: 40,
            ..ServiceConfig::default()
        });
        let report = engine.run();
        assert_eq!(report.submitted, 300);
        assert_eq!(
            report.submitted,
            report.invalid + report.compose_failed + report.blocked() + report.completed(),
            "a drained cell conserves requests"
        );
        let m = &engine.telemetry.metrics;
        let admitted: u64 = Priority::ALL
            .iter()
            .map(|p| {
                m.find("svc_admitted_total", &[("class", p.name())])
                    .map(|v| match v {
                        lightwave_telemetry::metrics::MetricValue::Counter(c) => *c,
                        _ => 0,
                    })
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(
            admitted,
            report.classes.iter().map(|c| c.admitted).sum::<u64>(),
            "counters mirror the report"
        );
        // The queue-depth counter track and the spans export together.
        let json =
            lightwave_trace::to_chrome_trace_with_counters(&engine.tracer, &engine.series.tracks());
        let stats = lightwave_trace::validate::validate_chrome_trace(&json).expect("valid trace");
        assert!(stats.complete > 0, "lifecycle spans present");
        assert!(stats.counters > 0, "queue depth present");
    }

    #[test]
    fn scoped_run_attributes_the_lifecycle_and_stays_invariant() {
        let cfg = ServiceConfig {
            requests: 800,
            shard_size: 128,
            scope_every: 4,
            ..ServiceConfig::default()
        };
        let (report, scope, _) = run_sharded_scoped(&Pool::new(1), &cfg);
        let (report4, scope4, _) = run_sharded_scoped(&Pool::new(4), &cfg);
        assert_eq!(report, report4, "service report thread-invariant");
        let json = serde_json::to_string(&scope.snapshot()).expect("serializes");
        let json4 = serde_json::to_string(&scope4.snapshot()).expect("serializes");
        assert_eq!(json, json4, "scope snapshot byte-identical");
        // Scoping never perturbs the policy.
        assert_eq!(report, run_sharded(&Pool::new(2), &cfg, &()).0);
        assert!(scope.sampled > 0, "1-in-4 over 800 requests samples some");
        assert_eq!(scope.inflight, 0, "drained run leaves nothing in flight");
        let completed: u64 = scope.classes.iter().map(|c| c.sampled_completed).sum();
        assert_eq!(completed + scope.rejected, scope.sampled);
        assert!(!scope.critical_paths().is_empty());
        assert!(
            scope.touched_switches.count() > 0,
            "compose commits observed"
        );
        // Scope off: empty report, same service outcome.
        let off = ServiceConfig {
            scope_every: 0,
            ..cfg
        };
        let (off_report, off_scope, _) = run_sharded_scoped(&Pool::new(2), &off);
        assert_eq!(off_report, report);
        assert_eq!(off_scope.sampled, 0);
    }

    #[test]
    fn engine_scope_matches_sharded_single_cell_and_annotates_roots() {
        let cfg = ServiceConfig {
            requests: 400,
            shard_size: 400,
            trace_requests: 25,
            scope_every: 2,
            ..ServiceConfig::default()
        };
        let mut engine = ServiceEngine::new(cfg);
        let report = engine.run();
        let mut cell_scope = ScopeCollector::new(cfg.seed, cfg.scope_every);
        let cell_report = run_cell(
            &cfg,
            Shard {
                index: 0,
                start: 0,
                len: 400,
            },
            &mut cell_scope,
        );
        let cell_scope = cell_scope.finish();
        assert_eq!(report, cell_report, "observation does not perturb policy");
        let engine_scope = engine.scope_report();
        assert_eq!(
            serde_json::to_string(&engine_scope.snapshot()).expect("json"),
            serde_json::to_string(&cell_scope.snapshot()).expect("json"),
            "engine and sharded cell agree on attribution"
        );
        // Every exemplar span id resolves to a root lifecycle span in
        // the engine's trace.
        let spans = engine_scope.exemplar_spans();
        assert!(!spans.is_empty());
        let root_ids: std::collections::BTreeSet<u64> = engine
            .tracer
            .spans()
            .iter()
            .filter(|s| {
                matches!(
                    s.kind,
                    SpanKind::ServiceRequest {
                        stage: RequestStage::Lifecycle,
                        ..
                    }
                )
            })
            .map(|s| s.id.0)
            .collect();
        for span in &spans {
            assert!(root_ids.contains(span), "exemplar span {span:x} resolves");
        }
        // The annotated export flags exactly those spans.
        let json = lightwave_trace::to_chrome_trace_annotated(&engine.tracer, &[], &spans);
        assert!(json.contains("\"exemplar\":true"));
        lightwave_trace::validate::validate_chrome_trace(&json).expect("valid trace");
    }

    #[test]
    fn engine_report_matches_unobserved_cell() {
        // Observation must not perturb the policy: the engine's report
        // equals the bare cell's for the same cfg.
        let cfg = ServiceConfig {
            requests: 400,
            trace_requests: 25,
            ..ServiceConfig::default()
        };
        let bare = run_cell(
            &cfg,
            Shard {
                index: 0,
                start: 0,
                len: 400,
            },
            &mut (),
        );
        let mut engine = ServiceEngine::new(cfg);
        assert_eq!(engine.run(), bare);
    }
}
