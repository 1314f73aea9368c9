//! The `Pochoir` object: the embedded-language entry point mirroring the paper's
//! Section 2 API (`Pochoir_2D heat(shape)`, `Register_Array`, `Register_Boundary`,
//! `Run(T, kernel)`), including the *two-phase* execution strategy and the *Pochoir
//! Guarantee*.

use crate::speccheck::{run_checked, SpecViolation};
use pochoir_core::boundary::Boundary;
use pochoir_core::engine::serving::try_shared_program;
use pochoir_core::engine::{CompiledProgram, ExecutionPlan, SessionStats};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::{StencilKernel, StencilSpec};
use pochoir_core::shape::Shape;
use pochoir_runtime::{Parallelism, Runtime, Serial};
use std::fmt;
use std::sync::Arc;

/// Errors reported by the `Pochoir` object.
#[derive(Debug)]
pub enum PochoirError {
    /// No array has been registered yet (`Register_Array` was never called).
    NoArrayRegistered,
    /// The registered array does not hold enough time slices for the stencil depth.
    DepthMismatch {
        /// Slices the array holds.
        have: usize,
        /// Slices the shape requires.
        need: usize,
    },
    /// Phase 1 found the specification non-compliant.
    SpecViolations(Vec<SpecViolation>),
}

impl fmt::Display for PochoirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PochoirError::NoArrayRegistered => {
                write!(f, "no Pochoir array registered; call register_array first")
            }
            PochoirError::DepthMismatch { have, need } => write!(
                f,
                "registered array holds {have} time slices but the stencil shape needs {need}"
            ),
            PochoirError::SpecViolations(v) => {
                writeln!(f, "the stencil specification violates its declared shape:")?;
                for violation in v {
                    writeln!(f, "  - {violation}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PochoirError {}

/// A stencil computation object (the paper's `Pochoir_dimD`).
///
/// Holds the static information of the computation — the shape, the registered array and
/// its boundary function, the execution plan — and drives both execution phases:
///
/// * [`Pochoir::run_phase1`] executes the specification under the checking interpreter
///   (the paper's "Pochoir template library"), reporting any shape violations;
/// * [`Pochoir::run`] executes the optimized TRAP algorithm (the paper's Phase 2);
/// * [`Pochoir::run_guaranteed`] chains the two, which is the operational statement of
///   the **Pochoir Guarantee**: a specification accepted by Phase 1 runs without error
///   under Phase 2 and produces the same results.
///
/// Phase 2 executes through a held executor session
/// ([`CompiledProgram`]): the first `run` validates the geometry, resolves the
/// engine strategy and compiles (or fetches) the schedule for that run's step count;
/// every further `Run(T, kern)` of the same `T` on the same object replays the pinned
/// schedule with zero validation and zero cache traffic, and a run of another `T`
/// fetches its schedule from the process-global cache, which compiles it once.  The
/// session is invalidated when the plan or the registered array changes.
///
/// The session is fetched from the process-global
/// [`SessionRegistry`](pochoir_core::engine::serving::SessionRegistry), so two
/// `Pochoir` objects over identical geometry (same shape, plan, extents and window)
/// share one compiled program — and hence one schedule — rather than compiling twice.
///
/// ```
/// use pochoir_core::boundary::Boundary;
/// use pochoir_core::kernel::StencilKernel;
/// use pochoir_core::shape::star_shape;
/// use pochoir_core::view::GridAccess;
/// use pochoir_dsl::Pochoir;
///
/// struct Heat1D; // u(t+1,x) = ¼u(t,x−1) + ½u(t,x) + ¼u(t,x+1)
/// impl StencilKernel<f64, 1> for Heat1D {
///     fn update<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x: [i64; 1]) {
///         let v = 0.25 * g.get(t, [x[0] - 1]) + 0.5 * g.get(t, [x[0]])
///             + 0.25 * g.get(t, [x[0] + 1]);
///         g.set(t + 1, x, v);
///     }
/// }
///
/// let mut heat = Pochoir::<f64, 1>::with_array(star_shape::<1>(1), [32]);
/// heat.register_boundary(Boundary::Periodic)?;
/// heat.array_mut()?.fill_time_slice(0, |x| x[0] as f64);
/// // The Pochoir Guarantee: Phase 1 checks the kernel, then Phase 2 runs optimized.
/// heat.run_guaranteed(10, &Heat1D)?;
/// assert_eq!(heat.result_time(), 10);
/// # Ok::<(), pochoir_dsl::PochoirError>(())
/// ```
pub struct Pochoir<T, const D: usize> {
    spec: StencilSpec<D>,
    array: Option<PochoirArray<T, D>>,
    plan: ExecutionPlan<D>,
    runtime: Option<Arc<Runtime>>,
    steps_run: i64,
    /// The executor session behind Phase 2 (kernels arrive by reference per `run`, so
    /// the object holds the kernel-independent program half), shared through the
    /// session registry with every other caller of the same geometry.  Re-fetched
    /// lazily after `set_plan`/`register_array`.
    session: Option<Arc<CompiledProgram<D>>>,
}

impl<T, const D: usize> Pochoir<T, D>
where
    T: Copy + Send + Sync + 'static,
{
    /// Creates a Pochoir object with the given stencil shape
    /// (`Pochoir_2D heat(2D_five_pt)` in Figure 6).
    pub fn new(shape: Shape<D>) -> Self {
        Pochoir {
            spec: StencilSpec::new(shape),
            array: None,
            plan: ExecutionPlan::trap(),
            runtime: None,
            steps_run: 0,
            session: None,
        }
    }

    /// The stencil specification (shape, slopes, depth).
    pub fn spec(&self) -> &StencilSpec<D> {
        &self.spec
    }

    /// Overrides the execution plan (engine, coarsening, indexing mode).  Invalidates
    /// the held executor session; the next run rebuilds it.
    pub fn set_plan(&mut self, plan: ExecutionPlan<D>) {
        self.plan = plan;
        self.session = None;
    }

    /// Builder-style plan override.
    pub fn with_plan(mut self, plan: ExecutionPlan<D>) -> Self {
        self.set_plan(plan);
        self
    }

    /// Uses a dedicated work-stealing runtime instead of the process-global one.
    pub fn set_runtime(&mut self, runtime: Arc<Runtime>) {
        self.runtime = Some(runtime);
    }

    /// Registers the spatial array participating in the computation
    /// (`heat.Register_Array(u)` in Figure 6).  The array's boundary function should
    /// already have been registered on the array itself.
    pub fn register_array(&mut self, array: PochoirArray<T, D>) -> Result<(), PochoirError> {
        let need = self.spec.shape().time_slices();
        if array.time_slices() < need {
            return Err(PochoirError::DepthMismatch {
                have: array.time_slices(),
                need,
            });
        }
        self.array = Some(array);
        self.steps_run = 0;
        self.session = None;
        Ok(())
    }

    /// Registers (or replaces) the boundary function of the registered array
    /// (`u.Register_Boundary(heat_bv)` in Figure 6).
    pub fn register_boundary(&mut self, boundary: Boundary<T, D>) -> Result<(), PochoirError> {
        match &mut self.array {
            Some(a) => {
                a.register_boundary(boundary);
                Ok(())
            }
            None => Err(PochoirError::NoArrayRegistered),
        }
    }

    /// Shared access to the registered array.
    pub fn array(&self) -> Result<&PochoirArray<T, D>, PochoirError> {
        self.array.as_ref().ok_or(PochoirError::NoArrayRegistered)
    }

    /// Mutable access to the registered array (e.g. for initializing time slices
    /// `0 .. depth`).
    pub fn array_mut(&mut self) -> Result<&mut PochoirArray<T, D>, PochoirError> {
        self.array.as_mut().ok_or(PochoirError::NoArrayRegistered)
    }

    /// Removes and returns the registered array.  Invalidates the executor session.
    pub fn take_array(&mut self) -> Result<PochoirArray<T, D>, PochoirError> {
        self.session = None;
        self.array.take().ok_or(PochoirError::NoArrayRegistered)
    }

    /// The time index at which the results of the computation live after the steps run so
    /// far: `T + k − 1` for `T` executed steps of a depth-`k` stencil (paper, Section 2).
    pub fn result_time(&self) -> i64 {
        self.steps_run + self.spec.depth() as i64 - 1
    }

    /// Total kernel steps executed so far (across resumed runs).
    pub fn steps_run(&self) -> i64 {
        self.steps_run
    }

    fn invocation_range(&self, steps: i64) -> (i64, i64) {
        let t0 = self.spec.shape().first_step() + self.steps_run;
        (t0, t0 + steps)
    }

    /// Ensures the held executor session exists — fetching the shared program for this
    /// geometry from the process-global session registry, which compiles it (for
    /// windows of height `window`) only if no caller has seen the geometry before —
    /// and returns it alongside the registered array.
    fn session_and_array(
        &mut self,
        window: i64,
    ) -> Result<(Arc<CompiledProgram<D>>, &mut PochoirArray<T, D>), PochoirError> {
        let array = self.array.as_mut().ok_or(PochoirError::NoArrayRegistered)?;
        if self.session.is_none() {
            let (program, _) =
                try_shared_program(&self.spec, &self.plan, array.sizes_i64(), window)
                    .expect("the registered array's geometry compiles");
            self.session = Some(program);
        }
        Ok((
            Arc::clone(self.session.as_ref().expect("just built")),
            array,
        ))
    }

    /// Executor-session counters of the held Phase-2 session: runs, pinned-schedule
    /// reuses, cache fetches and fresh compilations.  `None` before the first run (or
    /// after a plan/array change invalidated the session).
    ///
    /// A steady-state object running one step count reports `schedule_compiles` and
    /// `schedule_fetches` constant while `runs`/`schedule_reuses` grow — the
    /// observable form of the "compile once, run many times" contract; each run of
    /// another step count adds a fetch.  The session is *shared* through the
    /// process-global registry, so the counters aggregate over every `Pochoir` object
    /// (and [`StencilServer`](pochoir_core::engine::serving::StencilServer)) of the
    /// same geometry — a second object over an already-served geometry contributes
    /// runs without ever fetching or compiling.
    pub fn session_stats(&self) -> Option<SessionStats> {
        self.session.as_ref().map(|s| s.stats())
    }

    /// **Phase 2**: runs the optimized engine (TRAP by default) for `steps` further time
    /// steps with the given kernel (`heat.Run(T, heat_fn)` in Figure 6).  Runs may be
    /// resumed: a second call continues from where the first one stopped; repeated runs
    /// of the same step count replay the session's pinned compiled schedule.
    pub fn run<K>(&mut self, steps: i64, kernel: &K) -> Result<(), PochoirError>
    where
        K: StencilKernel<T, D>,
    {
        let (t0, t1) = self.invocation_range(steps);
        let runtime = self.runtime.clone();
        let (session, array) = self.session_and_array(t1 - t0)?;
        match runtime {
            Some(rt) => session.run(array, kernel, t0, t1, rt.as_ref()),
            None => session.run(array, kernel, t0, t1, Runtime::global()),
        }
        self.steps_run += steps;
        Ok(())
    }

    /// Phase 2 with an explicit parallelism provider (useful for deterministic serial
    /// runs in tests).
    pub fn run_with<K, P>(&mut self, steps: i64, kernel: &K, par: &P) -> Result<(), PochoirError>
    where
        K: StencilKernel<T, D>,
        P: Parallelism,
    {
        let (t0, t1) = self.invocation_range(steps);
        let (session, array) = self.session_and_array(t1 - t0)?;
        session.run(array, kernel, t0, t1, par);
        self.steps_run += steps;
        Ok(())
    }

    /// **Phase 1**: runs `steps` time steps under the checking interpreter (the paper's
    /// template-library execution).  On success the array contains the same results the
    /// optimized engine would produce; on failure the violations are reported.
    pub fn run_phase1<K>(&mut self, steps: i64, kernel: &K) -> Result<(), PochoirError>
    where
        K: StencilKernel<T, D>,
    {
        let (t0, t1) = self.invocation_range(steps);
        let spec = self.spec.clone();
        let array = self.array.as_mut().ok_or(PochoirError::NoArrayRegistered)?;
        let violations = run_checked(array, &spec, kernel, t0, t1);
        if violations.is_empty() {
            self.steps_run += steps;
            Ok(())
        } else {
            Err(PochoirError::SpecViolations(violations))
        }
    }

    /// Checks compliance of the kernel on a **copy** of the current state without
    /// advancing the computation: the cheap way to exercise Phase 1 before a long
    /// optimized run.
    pub fn check<K>(&self, steps: i64, kernel: &K) -> Result<(), PochoirError>
    where
        K: StencilKernel<T, D>,
    {
        let array = self.array.as_ref().ok_or(PochoirError::NoArrayRegistered)?;
        let mut copy = array.clone();
        let (t0, t1) = self.invocation_range(steps);
        let violations = run_checked(&mut copy, &self.spec, kernel, t0, t1);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(PochoirError::SpecViolations(violations))
        }
    }

    /// The **Pochoir Guarantee** in executable form: Phase 1 validates the specification
    /// on a copy of the state (a few `check_steps` suffice to exercise every clone), and
    /// only then does Phase 2 run the optimized engine for the requested `steps`.
    pub fn run_guaranteed<K>(&mut self, steps: i64, kernel: &K) -> Result<(), PochoirError>
    where
        K: StencilKernel<T, D>,
    {
        let check_steps = steps.min(2 + self.spec.depth() as i64);
        self.check(check_steps, kernel)?;
        self.run(steps, kernel)
    }
}

impl<T: Copy + Send + Sync + Default + 'static, const D: usize> Pochoir<T, D> {
    /// Convenience constructor: creates the Pochoir object *and* a registered array of
    /// the given spatial extents with the shape-implied number of time slices.
    pub fn with_array(shape: Shape<D>, sizes: [usize; D]) -> Self {
        let depth = shape.depth() as usize;
        let mut p = Self::new(shape);
        let array = PochoirArray::with_depth(sizes, depth);
        p.register_array(array)
            .expect("depth is consistent by construction");
        p
    }
}

/// Deterministic serial executor re-exported for tests and examples.
pub fn serial() -> Serial {
    Serial
}

#[cfg(test)]
mod tests {
    use super::*;
    use pochoir_core::boundary::Boundary;
    use pochoir_core::shape::star_shape;
    use pochoir_core::view::GridAccess;

    struct Heat1D;
    impl StencilKernel<f64, 1> for Heat1D {
        fn update<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x: [i64; 1]) {
            let v =
                0.25 * g.get(t, [x[0] - 1]) + 0.5 * g.get(t, [x[0]]) + 0.25 * g.get(t, [x[0] + 1]);
            g.set(t + 1, x, v);
        }
    }

    struct BadKernel;
    impl StencilKernel<f64, 1> for BadKernel {
        fn update<A: GridAccess<f64, 1>>(&self, g: &A, t: i64, x: [i64; 1]) {
            g.set(t + 1, x, g.get(t, [x[0] - 3]));
        }
    }

    fn heat_object(n: usize) -> Pochoir<f64, 1> {
        let mut p = Pochoir::with_array(star_shape::<1>(1), [n]);
        p.register_boundary(Boundary::Periodic).unwrap();
        p.array_mut()
            .unwrap()
            .fill_time_slice(0, |x| ((x[0] * 13) % 7) as f64);
        p
    }

    #[test]
    fn run_advances_result_time_per_paper() {
        let mut p = heat_object(32);
        assert_eq!(p.result_time(), 0); // nothing run yet: the initialized slice(s)
        p.run(10, &Heat1D).unwrap();
        // Depth 1: results at time T + k - 1 = 10.
        assert_eq!(p.result_time(), 10);
        p.run(5, &Heat1D).unwrap();
        assert_eq!(p.result_time(), 15);
        assert_eq!(p.steps_run(), 15);
    }

    #[test]
    fn phase1_and_phase2_agree() {
        let kernel = Heat1D;
        let mut a = heat_object(40);
        let mut b = heat_object(40);
        a.run_phase1(12, &kernel).unwrap();
        b.run_with(12, &kernel, &Serial).unwrap();
        assert_eq!(
            a.array().unwrap().snapshot(a.result_time()),
            b.array().unwrap().snapshot(b.result_time())
        );
    }

    #[test]
    fn repeated_runs_reuse_the_compiled_session() {
        // A geometry no other test uses: the session is shared through the global
        // registry, so stats deltas are only deterministic on a private geometry.
        let mut p = heat_object(34);
        assert!(
            p.session_stats().is_none(),
            "no session before the first run"
        );
        p.run(10, &Heat1D).unwrap();
        let first = p.session_stats().unwrap();
        p.run(10, &Heat1D).unwrap();
        let second = p.session_stats().unwrap();
        assert_eq!(
            second.schedule_compiles, first.schedule_compiles,
            "a second run on the same object must compile nothing"
        );
        assert_eq!(
            second.schedule_fetches, first.schedule_fetches,
            "a second run must not even touch the schedule cache"
        );
        assert_eq!(second.schedule_reuses, first.schedule_reuses + 1);
        assert_eq!(second.runs, first.runs + 1);
    }

    #[test]
    fn identical_geometry_objects_share_one_program() {
        // Two independent Pochoir objects over the same (shape, plan, sizes, window)
        // must share one registry program: the second object's first run performs no
        // schedule fetch and no compilation — the observable form of "one session,
        // many callers".  The geometry is unique to this test.
        let mut a = heat_object(46);
        let mut b = heat_object(46);
        a.run_with(9, &Heat1D, &Serial).unwrap();
        let after_a = a.session_stats().unwrap();
        b.run_with(9, &Heat1D, &Serial).unwrap();
        let after_b = b.session_stats().unwrap();
        assert_eq!(
            after_b.schedule_fetches, after_a.schedule_fetches,
            "the second object must reuse the first object's program"
        );
        assert_eq!(after_b.schedule_compiles, after_a.schedule_compiles);
        assert_eq!(after_b.runs, after_a.runs + 1, "shared counters aggregate");
        // And the results agree, of course.
        assert_eq!(
            a.array().unwrap().snapshot(a.result_time()),
            b.array().unwrap().snapshot(b.result_time())
        );
    }

    #[test]
    fn plan_change_invalidates_the_session() {
        let mut p = heat_object(24);
        p.run(6, &Heat1D).unwrap();
        assert!(p.session_stats().is_some());
        p.set_plan(ExecutionPlan::strap());
        assert!(
            p.session_stats().is_none(),
            "set_plan must drop the stale session"
        );
        p.run(6, &Heat1D).unwrap();
        assert_eq!(p.steps_run(), 12);
    }

    #[test]
    fn guarantee_rejects_noncompliant_kernels() {
        let mut p = heat_object(32);
        let err = p.run_guaranteed(10, &BadKernel).unwrap_err();
        match err {
            PochoirError::SpecViolations(v) => assert!(!v.is_empty()),
            other => panic!("expected SpecViolations, got {other}"),
        }
        // The optimized phase never ran.
        assert_eq!(p.steps_run(), 0);
    }

    #[test]
    fn guarantee_accepts_compliant_kernels() {
        let mut p = heat_object(32);
        p.run_guaranteed(10, &Heat1D).unwrap();
        assert_eq!(p.steps_run(), 10);
    }

    #[test]
    fn errors_when_no_array_registered() {
        let mut p: Pochoir<f64, 1> = Pochoir::new(star_shape::<1>(1));
        assert!(matches!(
            p.run(1, &Heat1D),
            Err(PochoirError::NoArrayRegistered)
        ));
        assert!(matches!(p.array(), Err(PochoirError::NoArrayRegistered)));
    }

    #[test]
    fn depth_mismatch_is_reported() {
        let shape = pochoir_core::shape::Shape::must(vec![
            pochoir_core::shape::ShapeCell::new(1, [0]),
            pochoir_core::shape::ShapeCell::new(0, [0]),
            pochoir_core::shape::ShapeCell::new(-1, [0]),
        ]);
        let mut p: Pochoir<f64, 1> = Pochoir::new(shape);
        let err = p
            .register_array(PochoirArray::with_depth([8], 1))
            .unwrap_err();
        assert!(matches!(
            err,
            PochoirError::DepthMismatch { have: 2, need: 3 }
        ));
    }

    #[test]
    fn take_array_returns_results() {
        let mut p = heat_object(16);
        p.run(3, &Heat1D).unwrap();
        let t = p.result_time();
        let arr = p.take_array().unwrap();
        assert_eq!(arr.snapshot(t).len(), 16);
        assert!(matches!(p.array(), Err(PochoirError::NoArrayRegistered)));
    }

    #[test]
    fn error_display_is_informative() {
        let e = PochoirError::DepthMismatch { have: 2, need: 3 };
        assert!(e.to_string().contains("time slices"));
        let e2 = PochoirError::NoArrayRegistered;
        assert!(e2.to_string().contains("register_array"));
    }
}
