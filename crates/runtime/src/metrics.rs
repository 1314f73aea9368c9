//! Lightweight scheduler counters.
//!
//! The counters are advisory (relaxed atomics) and exist so that benchmarks and tests can
//! observe that parallel execution actually happened (e.g. that steals occurred), playing
//! the role that Cilkview's burdened-dag statistics play in the paper's Figure 9 setup.
//!
//! Every counter is one entry of the table at the bottom of this file: its [`Counter`]
//! variant, its [`MetricsSnapshot`] field, and whether it sums or keeps a maximum.
//! Adding a counter is adding an entry there and a `count(Counter::…, n)` call
//! ([`Parallelism::count`](crate::Parallelism::count)) where the event happens.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters accumulated over the lifetime of a worker registry (one per
/// [`Runtime`](crate::Runtime)).
#[derive(Debug)]
pub struct Metrics {
    counters: [AtomicU64; Counter::COUNT],
    /// Jobs executed per worker (the pool's work distribution); empty when the
    /// metrics were built without a worker count.
    per_worker_executed: Box<[AtomicU64]>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::with_workers(0)
    }
}

impl Metrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates zeroed counters with a per-worker executed slot for each of
    /// `workers` pool threads (the pool's work-distribution histogram).
    pub fn with_workers(workers: usize) -> Self {
        Metrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            per_worker_executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Adds `n` to `counter`; a high-water mark keeps the larger of its value and `n`.
    /// Zero changes neither, so it skips the write to the shared line.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if n == 0 {
            return;
        }
        let slot = &self.counters[counter as usize];
        if counter.is_high_water_mark() {
            slot.fetch_max(n, Ordering::Relaxed);
        } else {
            slot.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records a job executed by worker `index` (and in the aggregate counter).
    #[inline]
    pub(crate) fn executed_on(&self, index: usize) {
        self.add(Counter::Executed, 1);
        if let Some(slot) = self.per_worker_executed.get(index) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Jobs executed per worker since the registry started — the pool's work
    /// distribution.  Empty when the metrics were built without a worker count.
    pub fn worker_executed(&self) -> Vec<u64> {
        self.per_worker_executed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    fn load(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }
}

/// Expands the counter table into [`Counter`], [`MetricsSnapshot`],
/// [`Metrics::snapshot`] and [`MetricsSnapshot::delta`].
macro_rules! counters {
    ($($(#[$doc:meta])+ $variant:ident => $field:ident: $kind:ident,)+) => {
        /// One counter of a [`Metrics`]; each variant reads back as the
        /// [`MetricsSnapshot`] field of the same name.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[$doc])+ $variant,)+
        }

        impl Counter {
            /// Every counter, in table (and storage) order.
            const ALL: &'static [Counter] = &[$(Counter::$variant),+];
            const COUNT: usize = Self::ALL.len();

            /// Whether [`Metrics::add`] keeps the maximum instead of the sum, and
            /// [`MetricsSnapshot::delta`] carries the later value.
            #[inline]
            fn is_high_water_mark(self) -> bool {
                match self {
                    $(Counter::$variant => counters!(@is_max $kind),)+
                }
            }
        }

        /// A point-in-time copy of the scheduler counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct MetricsSnapshot {
            $($(#[$doc])+ pub $field: u64,)+
        }

        impl Metrics {
            /// Takes a snapshot of the current counter values.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($field: self.load(Counter::$variant),)+
                }
            }
        }

        impl MetricsSnapshot {
            /// Counter deltas between two snapshots (`later - self`); a high-water
            /// mark carries the later snapshot's value.
            pub fn delta(&self, later: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($field: if counters!(@is_max $kind) {
                        later.$field
                    } else {
                        later.$field.saturating_sub(self.$field)
                    },)+
                }
            }

            #[cfg(test)]
            fn get(&self, counter: Counter) -> u64 {
                match counter {
                    $(Counter::$variant => self.$field,)+
                }
            }
        }
    };
    (@is_max sum) => { false };
    (@is_max max) => { true };
}

counters! {
    /// Jobs pushed onto any deque or the injector.
    Spawned => spawned: sum,
    /// Jobs obtained by stealing (from a peer deque or the injector).
    Stolen => stolen: sum,
    /// Jobs executed to completion.
    Executed => executed: sum,
    /// Per-window work items executed by pipelined serving drains.
    ServingWindows => serving_windows: sum,
    /// Submissions whose final window was dispatched after its logical deadline.
    ServingDeadlineMisses => serving_deadline_misses: sum,
    /// High-water mark of the serving ready queue (a gauge, not a counter:
    /// [`MetricsSnapshot::delta`] reports the later snapshot's value).
    ServingQueueDepthPeak => serving_queue_depth_peak: max,
    /// Requests rejected by serving admission control — at submit time (quota or
    /// watermark exceeded) or at dispatch time (logical deadline already unmeetable).
    ServingShed => serving_shed: sum,
    /// Session-compilation retry attempts performed by the serving layer's bounded
    /// retry-with-backoff policy after a `CompileFailed` lookup.
    ServingRetries => serving_retries: sum,
    /// Session keys quarantined in the serving registry after a tenant panic
    /// (evicted, or additionally banned for a number of lookups).
    ServingQuarantined => serving_quarantined: sum,
    /// Poisoned shared-state locks (registry, session pin sets, schedule cache)
    /// recovered instead of propagating the poison panic.
    RegistryPoisonRecoveries => registry_poison_recoveries: sum,
    /// Window runs whose geometry failed `should_compile` and were demoted off the
    /// compiled-arena path (onto sharded tiles or the recursive reference walker).
    ScheduleCompileRejections => schedule_compile_rejections: sum,
    /// Tile executions launched by sharded giant-grid runs (one count per tile per
    /// window phase).
    ShardTiles => shard_tiles: sum,
    /// Grid cells copied by shard halo-exchange syncs between tile neighbours
    /// (seam strips only; the one-time scatter/gather is not counted).
    ShardHaloCells => shard_halo_cells: sum,
    /// TCP connections accepted by a network stencil service in this process.
    NetConnections => net_connections: sum,
    /// Protocol frames decoded off client connections.
    NetFramesIn => net_frames_in: sum,
    /// Protocol frames written back to clients.
    NetFramesOut => net_frames_out: sum,
    /// Wire bytes read off client connections (length prefixes included).
    NetBytesIn => net_bytes_in: sum,
    /// Wire bytes written back to clients (length prefixes included).
    NetBytesOut => net_bytes_out: sum,
    /// Frames rejected as malformed (truncated, oversized, unknown opcode,
    /// version mismatch, or a server-to-client opcode sent by a client).
    NetProtocolErrors => net_protocol_errors: sum,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walks the table: every counter lands in its own snapshot field and nowhere
    /// else, sums add (the high-water mark keeps the maximum), and `delta`
    /// subtracts sums but carries the later high-water mark.
    #[test]
    fn every_counter_reads_back_through_its_own_field() {
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        for (slot, &counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(counter as usize, slot, "{counter:?} is stored out of order");
            let m = Metrics::new();
            m.add(counter, 5);
            let first = m.snapshot();
            m.add(counter, 3);
            let second = m.snapshot();
            let delta = first.delta(&second);
            let (total, moved) = if counter.is_high_water_mark() {
                (5, 5)
            } else {
                (8, 3)
            };
            assert_eq!(first.get(counter), 5, "{counter:?} after one add");
            assert_eq!(second.get(counter), total, "{counter:?} after two adds");
            assert_eq!(delta.get(counter), moved, "{counter:?} delta");
            for &other in Counter::ALL.iter().filter(|&&c| c != counter) {
                assert_eq!(second.get(other), 0, "{counter:?} moved {other:?}");
                assert_eq!(delta.get(other), 0, "{counter:?} delta moved {other:?}");
            }
        }
        assert!(Counter::ServingQueueDepthPeak.is_high_water_mark());
        assert_eq!(
            Counter::ALL
                .iter()
                .filter(|c| c.is_high_water_mark())
                .count(),
            1
        );
    }

    #[test]
    fn per_worker_distribution() {
        let m = Metrics::with_workers(3);
        m.executed_on(0);
        m.executed_on(2);
        m.executed_on(2);
        m.executed_on(99); // out-of-range index only hits the aggregate
        assert_eq!(m.worker_executed(), vec![1, 0, 2]);
        assert_eq!(m.snapshot().executed, 4);
    }
}
