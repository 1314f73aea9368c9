//! Serving-layer properties: registry keying and deduplication (one compiled session
//! per geometry, process-wide), exactly-once compilation under concurrency, LRU
//! eviction under a tiny capacity, metrics surfacing, and the batch executor's
//! contract — a batch of N same-geometry arrays is bitwise identical to N sequential
//! session runs, with the session counters proving one compile served all N.

use pochoir_core::engine::serving::{
    shared_program, BatchRun, RegistryStats, SessionRegistry, StencilServer,
};
use pochoir_core::engine::CompiledStencil;
use pochoir_core::prelude::*;
use pochoir_runtime::{Runtime, Serial};
use std::sync::Arc;

/// 2D heat kernel.
struct Heat2D {
    cx: f64,
    cy: f64,
}

impl StencilKernel<f64, 2> for Heat2D {
    fn update<A: GridAccess<f64, 2>>(&self, g: &A, t: i64, x: [i64; 2]) {
        let c = g.get(t, x);
        let v = c
            + self.cx * (g.get(t, [x[0] - 1, x[1]]) + g.get(t, [x[0] + 1, x[1]]) - 2.0 * c)
            + self.cy * (g.get(t, [x[0], x[1] - 1]) + g.get(t, [x[0], x[1] + 1]) - 2.0 * c);
        g.set(t + 1, x, v);
    }
}

fn heat() -> Heat2D {
    Heat2D { cx: 0.11, cy: 0.07 }
}

fn make_array(n: usize, seed: i64) -> PochoirArray<f64, 2> {
    let mut a: PochoirArray<f64, 2> = PochoirArray::new([n, n]);
    a.register_boundary(Boundary::Periodic);
    a.fill_time_slice(0, |x| {
        ((x[0] * 37 + x[1] * 11 + seed * 5) % 29) as f64 / 3.0
    });
    a
}

fn plan() -> ExecutionPlan<2> {
    ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [6, 6]))
}

/// Identical geometry resolves to one shared program — `Arc` identity for the program
/// *and* for its pinned compiled schedule.
#[test]
fn identical_geometry_shares_one_program_and_schedule() {
    // A geometry unique to this test (the registry is process-global).
    let spec = StencilSpec::new(star_shape::<2>(1));
    let (a, la) = shared_program(&spec, &plan(), [41, 41], 5);
    let (b, lb) = shared_program(&spec, &plan(), [41, 41], 5);
    assert!(Arc::ptr_eq(&a, &b), "one program per geometry");
    assert!(lb.hit, "the second lookup must be served, not compiled");
    assert!(!la.hit || lb.hit); // the first may race another test only on its own key
    let (sa, sb) = (a.schedule().unwrap(), b.schedule().unwrap());
    assert!(
        Arc::ptr_eq(&sa, &sb),
        "shared program ⇒ shared Arc<Schedule>"
    );
}

/// Differing plans and differing windows are different keys: no collisions.
#[test]
fn differing_plans_and_windows_do_not_collide() {
    let spec = StencilSpec::new(star_shape::<2>(1));
    let sizes = [43i64, 43];
    let (base, _) = shared_program(&spec, &plan(), sizes, 5);
    // Different window.
    let (other_window, _) = shared_program(&spec, &plan(), sizes, 6);
    assert!(!Arc::ptr_eq(&base, &other_window));
    // Different coarsening.
    let coarser = ExecutionPlan::trap().with_coarsening(Coarsening::new(3, [7, 7]));
    let (other_plan, _) = shared_program(&spec, &coarser, sizes, 5);
    assert!(!Arc::ptr_eq(&base, &other_plan));
    // Different engine.
    let strap = ExecutionPlan::strap().with_coarsening(Coarsening::new(2, [6, 6]));
    let (other_engine, _) = shared_program(&spec, &strap, sizes, 5);
    assert!(!Arc::ptr_eq(&base, &other_engine));
    // Different spec (wider star): same sizes/plan/window, different fingerprint.
    let wide = StencilSpec::new(star_shape::<2>(2));
    let (other_spec, _) = shared_program(&wide, &plan(), sizes, 5);
    assert!(!Arc::ptr_eq(&base, &other_spec));
    // And the original key still resolves to the original program.
    let (again, lookup) = shared_program(&spec, &plan(), sizes, 5);
    assert!(Arc::ptr_eq(&base, &again));
    assert!(lookup.hit);
}

/// A capacity-1 private registry evicts LRU entries; evicted programs held by callers
/// stay alive, and re-fetching an evicted key compiles again.
#[test]
fn tiny_capacity_evicts_least_recently_used() {
    let registry = SessionRegistry::with_capacity(1);
    let spec = StencilSpec::new(star_shape::<2>(1));
    let (first, l1) = registry.get_or_compile(&spec, &plan(), [15, 15], 3);
    assert!(!l1.hit);
    assert_eq!(l1.evicted, 0);
    let (_, l2) = registry.get_or_compile(&spec, &plan(), [17, 17], 3);
    assert!(!l2.hit);
    assert_eq!(l2.evicted, 1, "capacity 1: inserting evicts the LRU entry");
    assert_eq!(registry.len(), 1);
    // The evicted program is still usable by its holder.
    let mut a = make_array(15, 0);
    first.run(&mut a, &heat(), 0, 3, &Serial);
    assert_eq!(first.stats().runs, 1);
    // Re-fetching the evicted key compiles a fresh program.
    let (refetched, l3) = registry.get_or_compile(&spec, &plan(), [15, 15], 3);
    assert!(!l3.hit, "evicted keys must recompile");
    assert!(!Arc::ptr_eq(&first, &refetched));
    assert_eq!(
        registry.stats(),
        RegistryStats {
            hits: 0,
            misses: 3,
            evictions: 2,
            quarantined: 0,
        }
    );
}

/// Concurrent `get_or_compile` of one cold key compiles exactly once: every thread
/// receives the same `Arc`, and the registry counts one miss and N−1 hits.
#[test]
fn concurrent_get_or_compile_compiles_exactly_once() {
    let registry = SessionRegistry::with_capacity(8);
    let spec = StencilSpec::new(star_shape::<2>(1));
    let threads = 8;
    let programs: Vec<Arc<CompiledProgram<2>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let (program, _) = registry.get_or_compile(&spec, &plan(), [45, 45], 4);
                    program
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for p in &programs[1..] {
        assert!(
            Arc::ptr_eq(&programs[0], p),
            "every thread must receive the same session"
        );
    }
    let stats = registry.stats();
    assert_eq!(stats.misses, 1, "exactly one thread compiles");
    assert_eq!(stats.hits, threads - 1);
}

/// The acceptance check of the serving layer: a batch of N ≥ 8 same-geometry arrays
/// through a [`StencilServer`] is bitwise identical to N sequential
/// [`CompiledStencil::run`] calls, with `SessionStats` proving one compile for N runs.
#[test]
fn batch_of_eight_matches_sequential_sessions_bitwise() {
    let n = 29usize;
    let window = 5i64;
    let tenants = 8usize;
    // A geometry and coarsening unique to this test so the counters are deterministic.
    let batch_plan = ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [5, 5]));
    let spec = StencilSpec::new(star_shape::<2>(1));

    let mut server = StencilServer::new(spec.clone(), heat(), batch_plan, [n, n], window);
    let before = server.stats();
    for seed in 0..tenants {
        server.submit(make_array(n, seed as i64), 0, window);
    }
    let batched = server.drain();
    let stats = server.stats();
    assert_eq!(stats.runs - before.runs, tenants as u64);
    assert_eq!(
        stats.schedule_reuses - before.schedule_reuses,
        tenants as u64,
        "every array replays the pinned schedule"
    );
    assert_eq!(
        stats.schedule_fetches, 1,
        "one eager fetch at construction serves all {tenants} arrays"
    );
    assert!(
        stats.schedule_compiles <= 1,
        "at most the construction compile"
    );

    // N sequential runs through an independent CompiledStencil session.
    let session = CompiledStencil::new(spec, heat(), batch_plan, [n, n], window);
    for (seed, array) in batched.iter().enumerate() {
        let mut expected = make_array(n, seed as i64);
        session.run(&mut expected, 0, window);
        assert_eq!(
            array.snapshot(window),
            expected.snapshot(window),
            "tenant {seed}: batched result must equal the sequential session run bitwise"
        );
    }
}

/// `CompiledStencil::run_batch` (borrowed arrays, no queue) agrees with per-array
/// `run_with` calls bitwise — driven by the session's pinned parallel runtime, with a
/// batch grain above one.
#[test]
fn run_batch_on_borrowed_arrays_matches_sequential() {
    let n = 31usize;
    let window = 4i64;
    let tenants = 9usize;
    let spec = StencilSpec::new(star_shape::<2>(1));
    let batch_plan = ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [6, 6]));
    let session = CompiledStencil::new(spec, heat(), batch_plan, [n, n], window)
        .with_runtime(Arc::new(Runtime::new(3)));

    let mut parallel: Vec<PochoirArray<f64, 2>> =
        (0..tenants).map(|s| make_array(n, s as i64)).collect();
    {
        let mut jobs: Vec<BatchRun<'_, f64, 2>> = parallel
            .iter_mut()
            .map(|array| BatchRun {
                array,
                t0: 0,
                t1: window,
            })
            .collect();
        session.run_batch(&mut jobs, 2);
    }
    for (seed, array) in parallel.iter().enumerate() {
        let mut expected = make_array(n, seed as i64);
        session.run_with(&mut expected, 0, window, &Serial);
        assert_eq!(
            array.snapshot(window),
            expected.snapshot(window),
            "tenant {seed}: parallel batch must equal serial runs bitwise"
        );
    }
}
