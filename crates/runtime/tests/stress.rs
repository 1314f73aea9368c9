//! Integration and stress tests for the work-stealing runtime.

use pochoir_runtime::{Parallelism, Runtime, Serial};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn deep_nested_joins_do_not_deadlock() {
    fn tree_sum(rt: &Runtime, depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let (a, b) = rt.join(|| tree_sum(rt, depth - 1), || tree_sum(rt, depth - 1));
        a + b + 1
    }
    let rt = Runtime::new(4);
    // A complete binary tree of depth 12: 2^13 - 1 nodes.
    assert_eq!(tree_sum(&rt, 12), (1 << 13) - 1);
}

#[test]
fn parallel_for_with_uneven_work() {
    let rt = Runtime::new(4);
    let n = 500usize;
    let total = AtomicU64::new(0);
    rt.parallel_for(n, |i| {
        // Simulate uneven work per iteration.
        let mut acc = 0u64;
        for k in 0..(i % 37) {
            acc = acc.wrapping_add((k as u64).wrapping_mul(2654435761));
        }
        total.fetch_add(acc ^ (i as u64), Ordering::Relaxed);
    });
    // Compare against serial recomputation.
    let mut expected = 0u64;
    for i in 0..n {
        let mut acc = 0u64;
        for k in 0..(i % 37) {
            acc = acc.wrapping_add((k as u64).wrapping_mul(2654435761));
        }
        expected = expected.wrapping_add(acc ^ (i as u64));
    }
    assert_eq!(total.load(Ordering::Relaxed), expected);
}

#[test]
fn many_small_parallel_fors() {
    let rt = Runtime::new(2);
    for round in 0..200 {
        let count = AtomicUsize::new(0);
        rt.parallel_for(round % 17, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), round % 17);
    }
}

#[test]
fn concurrent_external_installs() {
    let rt = Arc::new(Runtime::new(3));
    let mut handles = Vec::new();
    for t in 0..4 {
        let rt = Arc::clone(&rt);
        handles.push(std::thread::spawn(move || {
            let sum = AtomicU64::new(0);
            rt.parallel_for(256, |i| {
                sum.fetch_add((i + t) as u64, Ordering::Relaxed);
            });
            sum.load(Ordering::Relaxed)
        }));
    }
    for (t, h) in handles.into_iter().enumerate() {
        let got = h.join().unwrap();
        let expected: u64 = (0..256u64).map(|i| i + t as u64).sum();
        assert_eq!(got, expected);
    }
}

#[test]
fn serial_matches_parallel_reduction() {
    fn reduce<P: Parallelism>(p: &P, data: &[u64]) -> u64 {
        let acc = AtomicU64::new(0);
        p.parallel_for(data.len(), |i| {
            acc.fetch_add(data[i], Ordering::Relaxed);
        });
        acc.load(Ordering::Relaxed)
    }
    let data: Vec<u64> = (0..10_000).map(|i| (i * 7919) % 1000).collect();
    let rt = Runtime::new(4);
    assert_eq!(reduce(&Serial, &data), reduce(&rt, &data));
}

#[test]
fn panic_in_parallel_for_body_propagates() {
    let rt = Runtime::new(2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.parallel_for(64, |i| {
            if i == 33 {
                panic!("iteration 33 exploded");
            }
        });
    }));
    assert!(result.is_err());
    // Pool must still be usable afterwards.
    let c = AtomicUsize::new(0);
    rt.parallel_for(10, |_| {
        c.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(c.load(Ordering::Relaxed), 10);
}

#[test]
fn join_results_preserve_order_of_branches() {
    let rt = Runtime::new(4);
    for _ in 0..100 {
        let (a, b) = rt.join(|| "left", || "right");
        assert_eq!(a, "left");
        assert_eq!(b, "right");
    }
}

#[test]
fn steals_happen_under_contention() {
    // With >= 2 workers and plenty of fine-grained work, at least one steal should occur.
    let rt = Runtime::new(2);
    if rt.num_threads() < 2 {
        return;
    }
    let before = rt.metrics();
    let spin = AtomicU64::new(0);
    rt.parallel_for(4096, |_| {
        // a little work so thieves have time to engage
        spin.fetch_add(1, Ordering::Relaxed);
    });
    let after = rt.metrics();
    assert!(after.spawned > before.spawned);
    // We cannot strictly guarantee a steal on a single-core machine, so only assert that
    // the executed-counter advanced consistently.
    assert!(after.executed >= before.executed);
}
