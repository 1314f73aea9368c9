//! The [`Parallelism`] abstraction: code that wants to "spawn subzoids in parallel" is
//! written once against this trait and can then run on the work-stealing [`Runtime`]
//! (parallel), or on [`Serial`] (deterministic single-threaded execution, used by the
//! cache simulator, the Phase-1 interpreter and many tests).
//!
//! The trait offers fork-join only, no way to wait for other work: every closure
//! handed to it must end on its own.  A worker blocked in a `join` runs whatever
//! job it can steal, so a job that waited on a condition only another queued job
//! can establish could end up stacked above the very frame it waits for.

use crate::metrics::{Counter, Metrics};
use crate::pool::Runtime;

/// A provider of fork-join parallelism.
pub trait Parallelism: Sync {
    /// Runs the two closures, possibly in parallel, and returns both results.
    fn join<A, B, RA, RB>(&self, oper_a: A, oper_b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send;

    /// Applies `body` to every index in `0..len`, possibly in parallel, one task per
    /// index.
    fn parallel_for<F>(&self, len: usize, body: F)
    where
        F: Fn(usize) + Sync;

    /// Applies `body` to every element of `items`, possibly in parallel.
    fn for_each<T, F>(&self, items: &[T], body: F)
    where
        T: Sync,
        F: Fn(&T) + Sync,
    {
        self.parallel_for(items.len(), |i| body(&items[i]));
    }

    /// The counters this provider reports into, if it keeps any.  The default is
    /// `None` ([`Serial`] keeps no counters).
    fn counters(&self) -> Option<&Metrics> {
        None
    }

    /// Adds `n` to `counter` ([`Metrics::add`]) if this provider keeps counters;
    /// otherwise a no-op.  This is how the engine layers report schedule-cache,
    /// registry, serving, shard and network events next to the steal counters.
    #[inline]
    fn count(&self, counter: Counter, n: u64) {
        if let Some(metrics) = self.counters() {
            metrics.add(counter, n);
        }
    }

    /// Number of hardware workers available to this provider.
    fn num_workers(&self) -> usize;

    /// Whether the provider may actually run closures concurrently.
    fn is_parallel(&self) -> bool {
        self.num_workers() > 1
    }
}

/// Deterministic single-threaded execution of the same fork-join structure.
#[derive(Debug, Default, Clone, Copy)]
pub struct Serial;

impl Parallelism for Serial {
    fn join<A, B, RA, RB>(&self, oper_a: A, oper_b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        (oper_a(), oper_b())
    }

    fn parallel_for<F>(&self, len: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        for i in 0..len {
            body(i);
        }
    }

    fn num_workers(&self) -> usize {
        1
    }
}

impl Parallelism for Runtime {
    fn join<A, B, RA, RB>(&self, oper_a: A, oper_b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        Runtime::join(self, oper_a, oper_b)
    }

    fn parallel_for<F>(&self, len: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        Runtime::parallel_for(self, len, body)
    }

    fn counters(&self) -> Option<&Metrics> {
        Some(self.registry.metrics())
    }

    fn num_workers(&self) -> usize {
        self.num_threads()
    }
}

impl<P: Parallelism> Parallelism for &P {
    fn join<A, B, RA, RB>(&self, oper_a: A, oper_b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        (**self).join(oper_a, oper_b)
    }

    fn parallel_for<F>(&self, len: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        (**self).parallel_for(len, body)
    }

    fn counters(&self) -> Option<&Metrics> {
        (**self).counters()
    }

    fn num_workers(&self) -> usize {
        (**self).num_workers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sum_with<P: Parallelism>(p: &P, n: usize) -> usize {
        let total = AtomicUsize::new(0);
        p.parallel_for(n, |i| {
            total.fetch_add(i, Ordering::Relaxed);
        });
        total.load(Ordering::Relaxed)
    }

    #[test]
    fn serial_and_runtime_agree() {
        let rt = Runtime::new(2);
        assert_eq!(sum_with(&Serial, 500), sum_with(&rt, 500));
    }

    #[test]
    fn serial_join_runs_in_order() {
        let order = std::sync::Mutex::new(Vec::new());
        let (_, _) = Serial.join(
            || order.lock().unwrap().push('a'),
            || order.lock().unwrap().push('b'),
        );
        assert_eq!(*order.lock().unwrap(), vec!['a', 'b']);
    }

    #[test]
    fn serial_reports_single_worker() {
        assert_eq!(Serial.num_workers(), 1);
        assert!(!Serial.is_parallel());
    }

    #[test]
    fn serial_keeps_no_counters() {
        assert!(Serial.counters().is_none());
        Serial.count(Counter::ShardTiles, 3); // a no-op, not a panic
    }

    #[test]
    fn runtime_and_its_reference_count_into_the_same_metrics() {
        fn report<P: Parallelism>(par: &P) {
            par.count(Counter::ShardTiles, 2);
        }
        let rt = Runtime::new(1);
        report(&rt); // P = Runtime
        report(&&rt); // P = &Runtime
        assert_eq!(rt.metrics().shard_tiles, 4);
        assert!(std::ptr::eq(
            rt.counters().unwrap(),
            Parallelism::counters(&&rt).unwrap()
        ));
    }

    #[test]
    fn reference_impl_delegates() {
        let rt = Runtime::new(2);
        let r = &rt;
        assert_eq!(r.num_workers(), 2);
        let (a, b) = Parallelism::join(&r, || 1, || 2);
        assert_eq!(a + b, 3);
    }
}
