//! The observer interface of the service drivers.
//!
//! [`run_cell`](crate::run_cell) hands every event batch the core emits
//! to one [`Observe`] value, and [`run_sharded`](crate::run_sharded)
//! merges the cells' observers in shard order. `()` observes nothing,
//! and a pair observes with both halves, so attribution, campus health
//! and the engine's telemetry all ride the same loop.
//!
//! ```
//! use lightwave_par::Pool;
//! use lightwave_service::{run_sharded, CampusObserver, ScopeCollector, ServiceConfig};
//!
//! let cfg = ServiceConfig { requests: 600, shard_size: 200, scope_every: 4, ..ServiceConfig::default() };
//! let fresh = (ScopeCollector::new(cfg.seed, cfg.scope_every), CampusObserver::new());
//! let (_report, (scope, mut campus), _) = run_sharded(&Pool::new(2), &cfg, &fresh);
//! assert!(scope.finish().sampled > 0);
//! assert_eq!(campus.health_doc().pods.len(), 3, "one pod per cell");
//! ```

use crate::queue::ServiceEvent;
use lightwave_units::Nanos;

/// One event batch as a driver hands it to an observer: what one
/// arrival's `advance_to` + `submit` emitted, or the cell's final drain.
#[derive(Debug, Clone, Copy)]
pub struct Batch<'a> {
    /// The cell (shard index) that emitted the batch.
    pub cell: u64,
    /// The batch's sim time: the arrival time, or the end of the final
    /// drain.
    pub at: Nanos,
    /// Queue depth after the batch.
    pub queue_depth: usize,
    /// The events, in emission order.
    pub events: &'a [ServiceEvent],
}

/// Folds a cell's event batches and merges with the next cell's
/// observer. Everything an observer derives must come from the batches
/// (never from wall clock or thread identity), so shard-order merges
/// stay byte-identical at any thread count.
pub trait Observe: Sized {
    /// Folds one batch in, before the driver clears it.
    fn fold(&mut self, batch: Batch<'_>);

    /// Merges `next`, the observer of the following shard, into `self`.
    fn merge(&mut self, next: Self);
}

/// Observes nothing: the plain, observability-off run.
impl Observe for () {
    fn fold(&mut self, _: Batch<'_>) {}

    fn merge(&mut self, _: ()) {}
}

/// Both observers see every batch, and each half merges with its twin.
impl<A: Observe, B: Observe> Observe for (A, B) {
    fn fold(&mut self, batch: Batch<'_>) {
        self.0.fold(batch);
        self.1.fold(batch);
    }

    fn merge(&mut self, next: (A, B)) {
        self.0.merge(next.0);
        self.1.merge(next.1);
    }
}
