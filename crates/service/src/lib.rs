//! # lightwave-service
//!
//! Fabric-as-a-service: a deterministic open-loop workload engine that
//! serves millions of slice requests over the real scheduler → superpod
//! → fabric stack, with admission control, priority classes, preemption,
//! weighted fairness, and mergeable queueing metrics.
//!
//! The paper's fabrics exist to serve *fleets* of jobs (§4.2.4:
//! dynamically scheduled slices that never interfere with running
//! models). This crate is the layer that exercises the stack as a
//! service rather than a scenario script:
//!
//! - [`arrival`] — slice-request arrivals (inference fleets, training
//!   jobs, maintenance windows) as a **pure function of `(seed,
//!   index)`** on the splitmix stream discipline: split-anywhere
//!   deterministic.
//! - [`SliceIntent`] — the northbound API; every request walks
//!   `validate → admit → compose → run → release` (or `reject` /
//!   `preempt`).
//! - [`ServiceCore`] — admission control with a bounded queue, weighted
//!   fair queueing across [`Priority`] classes, and preemption of lower
//!   priorities (the DESIGN §6.5 determinism contract).
//! - [`ServiceReport`] — blocking probability, per-class wait-time
//!   histograms (mergeable log2 buckets), utilization and goodput;
//!   integer-exact merges so sharded runs are byte-identical at any
//!   `LIGHTWAVE_THREADS`.
//! - [`run_cell`] / [`run_sharded`] — the one driver loop (arrival →
//!   `advance_to` → `submit` → observe, then `drain`) and its at-scale
//!   mode: a year of arrivals across the pool as independent cells.
//!   Every event batch goes to an [`Observe`] value: `()` for a plain
//!   run, [`ScopeCollector`] for critical-path attribution,
//!   [`CampusObserver`] for campus health, a pair for both at once, or
//!   a [`ServiceEngine`] — the observed mode (counters,
//!   [`RateWindow`](lightwave_telemetry::RateWindow) rates, queue-depth
//!   counter track, SLO hooks, lifecycle spans).
//!
//! ```
//! use lightwave_par::Pool;
//! use lightwave_service::{run_sharded, ServiceConfig};
//!
//! let cfg = ServiceConfig { requests: 2_000, ..ServiceConfig::default() };
//! let (report, (), _stats) = run_sharded(&Pool::new(2), &cfg, &());
//! assert_eq!(report.submitted, 2_000);
//! assert!(report.utilization() > 0.0);
//! // Same report, bit for bit, at any thread count:
//! assert_eq!(report, run_sharded(&Pool::new(1), &cfg, &()).0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod campus;
pub mod engine;
pub mod intent;
pub mod metrics;
pub mod observe;
pub mod queue;
pub mod scope;

pub use arrivals::{arrival, chips_for_cubes, Arrival, Mix, SERVICE_STREAM};
pub use campus::{run_sharded_campus, CampusObserver, POD_SCOPE_SWITCH};
pub use engine::{
    run_cell, run_sharded, run_sharded_scoped, ServiceConfig, ServiceEngine, ADMISSION_SLO_OBJECT,
    CELL_STREAM,
};
pub use intent::{IntentError, Priority, SliceIntent};
pub use metrics::{erlang_b, ClassSnapshot, ClassStats, ServiceReport, ServiceSnapshot};
pub use observe::{Batch, Observe};
pub use queue::{PolicyConfig, RejectReason, ServiceCore, ServiceEvent};
pub use scope::{
    scope_sampled, scope_span_id, ClassScope, CriticalPath, ScopeCollector, ScopeDist, ScopePhase,
    ScopeProfiler, ScopeReport, ScopeSnapshot, ScopeTimeline, SCOPE_STREAM,
};
