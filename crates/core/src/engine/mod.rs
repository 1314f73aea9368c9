//! The stencil execution engines: TRAP (hyperspace cuts), STRAP (single space cuts), and
//! the loop baselines, plus the traced execution mode used by the cache experiments.
//!
//! All entry points here are thin wrappers over the [`executor`] session layer: they
//! build a transient [`executor::CompiledProgram`] per call and execute through it, so
//! callers that run a geometry once pay one schedule-cache lookup — while callers that
//! run many windows should hold a [`CompiledStencil`] and pay none.

pub mod base;
pub mod executor;
pub mod faults;
pub mod loops;
mod lru;
pub mod plan;
pub mod schedule;
pub mod serving;
pub mod shard;
pub mod walker;

pub use executor::{CompiledProgram, CompiledStencil, GeometryError, SessionStats};
pub use faults::{inject_compile_failures, poison_recoveries, FaultPlan};
pub use plan::{
    BaseCase, CloneMode, Coarsening, EngineKind, ExecutionPlan, IndexMode, ScheduleMode, Sharding,
};
pub use schedule::{Schedule, ScheduledLeaf};
pub use serving::{
    run_batch, shared_program, try_shared_program, AdmissionPolicy, BatchRun, DrainReport,
    RegistryStats, RetryPolicy, ServeError, SessionRegistry, ShedReason, StencilServer,
    SubmitOptions, TicketOutcome,
};
pub use shard::{ShardError, ShardPlan, ShardReport, Tile};
pub use walker::CutStrategy;

use crate::grid::PochoirArray;
use crate::kernel::{StencilKernel, StencilSpec};
use crate::view::AccessTracer;
use pochoir_runtime::Parallelism;

/// Builds the transient one-call session behind [`run`] / [`run_traced`].
fn transient_program<T, const D: usize>(
    array: &PochoirArray<T, D>,
    spec: &StencilSpec<D>,
    plan: &ExecutionPlan<D>,
    height: i64,
) -> CompiledProgram<D>
where
    T: Copy,
{
    CompiledProgram::new(spec.clone(), *plan, array.sizes_i64(), height)
}

/// Runs the stencil described by `spec`/`kernel` over kernel-invocation times `[t0, t1)`
/// on `array`, using the engine selected by `plan` and the parallelism provider `par`.
///
/// This is the operation behind the paper's `name.Run(T, kern)`.  Each call builds a
/// transient executor session; to amortize validation and schedule resolution across
/// many runs, hold a [`CompiledStencil`] instead.
pub fn run<T, K, P, const D: usize>(
    array: &mut PochoirArray<T, D>,
    spec: &StencilSpec<D>,
    kernel: &K,
    t0: i64,
    t1: i64,
    plan: &ExecutionPlan<D>,
    par: &P,
) where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
    P: Parallelism,
{
    transient_program(array, spec, plan, t1 - t0).run(array, kernel, t0, t1, par);
}

/// Convenience wrapper over [`run`] using the process-global work-stealing runtime.
pub fn run_with_global_runtime<T, K, const D: usize>(
    array: &mut PochoirArray<T, D>,
    spec: &StencilSpec<D>,
    kernel: &K,
    t0: i64,
    t1: i64,
    plan: &ExecutionPlan<D>,
) where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    run(
        array,
        spec,
        kernel,
        t0,
        t1,
        plan,
        pochoir_runtime::Runtime::global(),
    );
}

/// Runs the stencil single-threaded while reporting every grid access to `tracer`.
///
/// This mode reproduces the instrumentation behind Figure 10: the same decomposition the
/// selected engine would perform — honouring the plan's [`ScheduleMode`], so compiled
/// plans trace the arena sweep and recursive plans trace the recursion — with every read
/// and write forwarded to a cache simulator (or any other [`AccessTracer`]).
pub fn run_traced<T, K, C, const D: usize>(
    array: &mut PochoirArray<T, D>,
    spec: &StencilSpec<D>,
    kernel: &K,
    t0: i64,
    t1: i64,
    plan: &ExecutionPlan<D>,
    tracer: &C,
) where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
    C: AccessTracer,
{
    transient_program(array, spec, plan, t1 - t0).run_traced(array, kernel, t0, t1, tracer);
}

/// Runs every engine on identical copies of the initial state and asserts they produce
/// identical results; returns the reference result.  Exposed for integration tests and
/// examples that want to demonstrate the Pochoir Guarantee at the engine level.
///
/// Each plan executes through its own [`CompiledStencil`] session, so this doubles as
/// an integration check of the executor layer.
pub fn assert_engines_agree<T, K, const D: usize>(
    make_array: impl Fn() -> PochoirArray<T, D>,
    spec: &StencilSpec<D>,
    kernel: &K,
    t0: i64,
    t1: i64,
    plans: &[ExecutionPlan<D>],
) -> Vec<T>
where
    T: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static,
    K: StencilKernel<T, D>,
{
    assert!(!plans.is_empty());
    let rt = pochoir_runtime::Runtime::global();
    let mut reference: Option<Vec<T>> = None;
    for plan in plans {
        let mut array = make_array();
        let session = CompiledStencil::new(spec.clone(), kernel, *plan, array.sizes(), t1 - t0);
        session.run_with(&mut array, t0, t1, rt);
        let snap = array.snapshot(t1 - 1 + spec.shape().home_dt() as i64);
        match &reference {
            None => reference = Some(snap),
            Some(r) => assert_eq!(
                r, &snap,
                "engine {:?} disagrees with reference",
                plan.engine
            ),
        }
    }
    reference.unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::Boundary;
    use crate::shape::star_shape;
    use crate::view::GridAccess;
    use pochoir_runtime::Serial;

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

    fn make_heat_array(n: usize, boundary: Boundary<f64, 2>) -> PochoirArray<f64, 2> {
        let mut a = PochoirArray::new([n, n]);
        a.register_boundary(boundary);
        a.fill_time_slice(0, |x| ((x[0] * 37 + x[1] * 11) % 29) as f64);
        a
    }

    fn reference_heat(n: usize, steps: i64, periodic: bool) -> Vec<f64> {
        let k = Heat2D { cx: 0.1, cy: 0.1 };
        let mut a = make_heat_array(
            n,
            if periodic {
                Boundary::Periodic
            } else {
                Boundary::Constant(0.0)
            },
        );
        let spec = StencilSpec::new(star_shape::<2>(1));
        run(
            &mut a,
            &spec,
            &k,
            0,
            steps,
            &ExecutionPlan::loops_serial(),
            &Serial,
        );
        a.snapshot(steps)
    }

    #[test]
    fn trap_matches_loops_nonperiodic() {
        let n = 40;
        let steps = 12;
        let reference = reference_heat(n, steps, false);
        let k = Heat2D { cx: 0.1, cy: 0.1 };
        let spec = StencilSpec::new(star_shape::<2>(1));
        let mut a = make_heat_array(n, Boundary::Constant(0.0));
        let plan = ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [8, 8]));
        run(&mut a, &spec, &k, 0, steps, &plan, &Serial);
        assert_eq!(a.snapshot(steps), reference);
    }

    #[test]
    fn trap_matches_loops_periodic() {
        let n = 32;
        let steps = 10;
        let reference = reference_heat(n, steps, true);
        let k = Heat2D { cx: 0.1, cy: 0.1 };
        let spec = StencilSpec::new(star_shape::<2>(1));
        let mut a = make_heat_array(n, Boundary::Periodic);
        let plan = ExecutionPlan::trap().with_coarsening(Coarsening::new(3, [6, 6]));
        run(&mut a, &spec, &k, 0, steps, &plan, &Serial);
        assert_eq!(a.snapshot(steps), reference);
    }

    #[test]
    fn strap_matches_loops() {
        let n = 32;
        let steps = 9;
        let reference = reference_heat(n, steps, false);
        let k = Heat2D { cx: 0.1, cy: 0.1 };
        let spec = StencilSpec::new(star_shape::<2>(1));
        let mut a = make_heat_array(n, Boundary::Constant(0.0));
        let plan = ExecutionPlan::strap().with_coarsening(Coarsening::new(2, [5, 5]));
        run(&mut a, &spec, &k, 0, steps, &plan, &Serial);
        assert_eq!(a.snapshot(steps), reference);
    }

    #[test]
    fn trap_parallel_matches_serial() {
        let n = 48;
        let steps = 16;
        let k = Heat2D { cx: 0.12, cy: 0.08 };
        let spec = StencilSpec::new(star_shape::<2>(1));

        let mut serial = make_heat_array(n, Boundary::Periodic);
        let plan = ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [8, 8]));
        run(&mut serial, &spec, &k, 0, steps, &plan, &Serial);

        let rt = pochoir_runtime::Runtime::new(3);
        let mut parallel = make_heat_array(n, Boundary::Periodic);
        run(&mut parallel, &spec, &k, 0, steps, &plan, &rt);

        assert_eq!(serial.snapshot(steps), parallel.snapshot(steps));
    }

    #[test]
    fn uncoarsened_trap_is_still_correct() {
        let n = 20;
        let steps = 6;
        let reference = reference_heat(n, steps, false);
        let k = Heat2D { cx: 0.1, cy: 0.1 };
        let spec = StencilSpec::new(star_shape::<2>(1));
        let mut a = make_heat_array(n, Boundary::Constant(0.0));
        let plan = ExecutionPlan::trap().with_coarsening(Coarsening::none());
        run(&mut a, &spec, &k, 0, steps, &plan, &Serial);
        assert_eq!(a.snapshot(steps), reference);
    }

    #[test]
    fn always_boundary_clone_matches_cloned_execution() {
        let n = 28;
        let steps = 8;
        let k = Heat2D { cx: 0.1, cy: 0.1 };
        let spec = StencilSpec::new(star_shape::<2>(1));

        let mut cloned = make_heat_array(n, Boundary::Periodic);
        let plan = ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [6, 6]));
        run(&mut cloned, &spec, &k, 0, steps, &plan, &Serial);

        let mut modular = make_heat_array(n, Boundary::Periodic);
        let plan_b = plan.with_clone_mode(CloneMode::AlwaysBoundary);
        run(&mut modular, &spec, &k, 0, steps, &plan_b, &Serial);

        assert_eq!(cloned.snapshot(steps), modular.snapshot(steps));
    }

    #[test]
    fn assert_engines_agree_runs_all_plans() {
        let spec = StencilSpec::new(star_shape::<2>(1));
        let k = Heat2D { cx: 0.1, cy: 0.1 };
        let plans = [
            ExecutionPlan::loops_serial(),
            ExecutionPlan::loops_parallel(),
            ExecutionPlan::loops_blocked([8, 8]),
            ExecutionPlan::trap().with_coarsening(Coarsening::new(2, [8, 8])),
            ExecutionPlan::strap().with_coarsening(Coarsening::new(2, [8, 8])),
        ];
        let result = assert_engines_agree(
            || make_heat_array(24, Boundary::Clamp),
            &spec,
            &k,
            0,
            6,
            &plans,
        );
        assert_eq!(result.len(), 24 * 24);
    }

    #[test]
    fn traced_run_counts_every_access() {
        use std::sync::atomic::{AtomicU64, Ordering};
        #[derive(Default)]
        struct Counter {
            reads: AtomicU64,
            writes: AtomicU64,
        }
        impl AccessTracer for Counter {
            fn on_read(&self, _addr: usize, _bytes: usize) {
                self.reads.fetch_add(1, Ordering::Relaxed);
            }
            fn on_write(&self, _addr: usize, _bytes: usize) {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        let n = 16usize;
        let steps = 4i64;
        let k = Heat2D { cx: 0.1, cy: 0.1 };
        let spec = StencilSpec::new(star_shape::<2>(1));
        for engine in [EngineKind::Trap, EngineKind::Strap, EngineKind::LoopsSerial] {
            let mut a = make_heat_array(n, Boundary::Periodic);
            let counter = Counter::default();
            let plan = ExecutionPlan::new(engine).with_coarsening(Coarsening::new(2, [4, 4]));
            run_traced(&mut a, &spec, &k, 0, steps, &plan, &counter);
            let points = (n * n) as u64 * steps as u64;
            assert_eq!(counter.writes.load(Ordering::Relaxed), points);
            // The heat kernel reads 5 points per update.
            assert_eq!(counter.reads.load(Ordering::Relaxed), 5 * points);
        }
    }

    #[test]
    fn empty_time_range_is_a_no_op() {
        let spec = StencilSpec::new(star_shape::<2>(1));
        let k = Heat2D { cx: 0.1, cy: 0.1 };
        let mut a = make_heat_array(8, Boundary::Periodic);
        let before = a.snapshot(0);
        run(&mut a, &spec, &k, 5, 5, &ExecutionPlan::trap(), &Serial);
        assert_eq!(a.snapshot(0), before);
    }

    #[test]
    #[should_panic(expected = "time slices")]
    fn depth_mismatch_is_rejected() {
        // A depth-2 shape needs 3 slices; this array only has 2.
        let shape = crate::shape::Shape::must(vec![
            crate::shape::ShapeCell::new(1, [0, 0]),
            crate::shape::ShapeCell::new(0, [0, 0]),
            crate::shape::ShapeCell::new(-1, [0, 0]),
        ]);
        let spec = StencilSpec::new(shape);
        let k = Heat2D { cx: 0.1, cy: 0.1 };
        let mut a = make_heat_array(8, Boundary::Periodic);
        run(&mut a, &spec, &k, 1, 3, &ExecutionPlan::trap(), &Serial);
    }
}
