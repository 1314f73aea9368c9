//! Seeded inputs and their reference results.
//!
//! Everything a workload feeds the program is a pure function of `--seed`: the
//! grids (the stencil apps' deterministic initial conditions plus seeded
//! perturbations) and the tenant request list (`pochoir_trace::gen` arrival shapes).
//! Reference results come from `ExecutionPlan::loops_serial()` on a serial provider
//! — the Figure-1 loop nest, which shares no decomposition, schedule, executor,
//! serving or wire code with the paths under test.

use pochoir_core::engine::{run, ExecutionPlan};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::{StencilKernel, StencilSpec};
use pochoir_runtime::Serial;
use pochoir_stencils::heat::HeatKernel;
use pochoir_stencils::life::LifeKernel;
use pochoir_stencils::traffic::{self, digest_grid, DigestBits};
use pochoir_stencils::{heat, life, wave};
use pochoir_trace::gen::{self, WorkShape};
use pochoir_trace::{Rng, TraceApp};

/// The frozen problem sizes (see `benchmark/README.md` for why each was chosen).
pub mod sizes {
    /// `solve-heat2d`: 2 slices × 2048² × 8 B = 64 MiB live, 32 × a 2 MiB L2.
    pub const HEAT: [usize; 2] = [2048, 2048];
    /// Steps per `solve-heat2d` op.
    pub const HEAT_WINDOW: i64 = 16;
    /// `solve-life-wave3d`: 2 × 512² × 1 B = 512 KiB, L2-resident.
    pub const LIFE: [usize; 2] = [512, 512];
    /// Steps per life op.
    pub const LIFE_WINDOW: i64 = 8;
    /// `solve-life-wave3d`: 3 × 64³ × 8 B = 6 MiB.
    pub const WAVE: [usize; 3] = [64, 64, 64];
    /// Steps per wave op.
    pub const WAVE_WINDOW: i64 = 4;
    /// `serve-tenants` / `wire-tenants`: every tenant grid is 16².
    pub const TENANT: [usize; 2] = [16, 16];
    /// Steps a heat tenant asks for (4 drain windows).
    pub const TENANT_HEAT_STEPS: i64 = 8;
    /// Steps a life tenant asks for (3 drain windows).
    pub const TENANT_LIFE_STEPS: i64 = 6;
    /// The servers' drain window.
    pub const TENANT_CHUNK: i64 = 2;
    /// Distinct tenants per app.
    pub const TENANTS: u32 = 16;
    /// Requests per app in the request list.
    pub const ARRIVALS: usize = 200;
    /// `shard-giant`: 1-D extent; `GIANT × GIANT_STEPS` is 2.3 × the compile gate.
    pub const GIANT: usize = 200_000;
    /// Steps per `shard-giant` op (two exchange windows under `Sharding::Auto`).
    pub const GIANT_STEPS: i64 = 24;
    /// `wire-bulk`: 1024² × 8 B = 8 MiB per time slice, two slices each way.
    pub const BULK: [usize; 2] = [1024, 1024];
    /// Steps per `wire-bulk` request.
    pub const BULK_STEPS: i64 = 4;
    /// Distinct grids `wire-bulk` cycles through.
    pub const BULK_TENANTS: u32 = 4;
}

/// Grid element types the harness can serialize and digest.
pub trait Cell: DigestBits + Copy + PartialEq + Send + Sync + 'static {
    /// Appends the little-endian bytes of the value.
    fn put(self, out: &mut Vec<u8>);
    /// Bytes per value.
    const SIZE: usize;
}

impl Cell for f64 {
    fn put(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    const SIZE: usize = 8;
}

impl Cell for u8 {
    fn put(self, out: &mut Vec<u8>) {
        out.push(self);
    }
    const SIZE: usize = 1;
}

/// The final state of a grid run to `t1`: time slices `t1 - 1` then `t1`, dense
/// row-major, little-endian — byte-for-byte what a `Result` frame carries and what
/// `traffic::digest_grid` folds.
pub fn final_bytes<T: Cell, const D: usize>(grid: &PochoirArray<T, D>, t1: i64) -> Vec<u8> {
    let cells: usize = grid.sizes().iter().product();
    let mut out = Vec::with_capacity(2 * cells * T::SIZE);
    for t in [(t1 - 1).max(0), t1] {
        for v in grid.snapshot(t) {
            v.put(&mut out);
        }
    }
    out
}

/// An independent stream per `(seed, purpose)`.
fn stream(seed: u64, purpose: u64) -> Rng {
    Rng::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(purpose),
    )
}

fn random_point<const D: usize>(rng: &mut Rng, sizes: [usize; D]) -> [i64; D] {
    let mut x = [0i64; D];
    for d in 0..D {
        x[d] = rng.below(sizes[d] as u64) as i64;
    }
    x
}

/// The heat app's initial condition plus the tenant's hot spot plus eight seeded ones.
pub fn heat_grid<const D: usize>(
    seed: u64,
    sizes: [usize; D],
    tenant: u32,
) -> PochoirArray<f64, D> {
    let mut grid = traffic::heat_grid(sizes, tenant);
    let mut rng = stream(seed, 0x4845_4154 + u64::from(tenant));
    for _ in 0..8 {
        let x = random_point(&mut rng, sizes);
        grid.set(0, x, 50.0 + rng.below(4096) as f64 / 64.0);
    }
    grid
}

/// A life soup whose density and eight flipped cells depend on the seed and tenant.
pub fn life_grid(seed: u64, sizes: [usize; 2], tenant: u32) -> PochoirArray<u8, 2> {
    let mut rng = stream(seed, 0x4C49_4645 + u64::from(tenant));
    let mut grid = life::build(sizes, 250 + rng.below(200));
    for _ in 0..8 {
        let x = random_point(&mut rng, sizes);
        let flipped = 1 - grid.get(0, x);
        grid.set(0, x, flipped);
    }
    grid
}

/// The wave app's pulse at rest plus eight seeded bumps on both initial slices.
pub fn wave_grid(seed: u64, sizes: [usize; 3]) -> PochoirArray<f64, 3> {
    let mut grid = wave::build(sizes);
    let mut rng = stream(seed, 0x5741_5645);
    for _ in 0..8 {
        let x = random_point(&mut rng, sizes);
        let bump = 0.5 + rng.below(1024) as f64 / 1024.0;
        grid.set(0, x, bump);
        grid.set(1, x, bump);
    }
    grid
}

/// The two tenant apps of the serve and wire workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TenantApp {
    /// 2-D heat, `f64` cells.
    Heat,
    /// Game of life, `u8` cells.
    Life,
}

impl TenantApp {
    /// The wire protocol's name for the app.
    pub fn trace_app(self) -> TraceApp {
        match self {
            TenantApp::Heat => TraceApp::Heat2d,
            TenantApp::Life => TraceApp::Life,
        }
    }
}

/// One tenant request: run `steps` steps on the tenant's grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Which server it goes to.
    pub app: TenantApp,
    /// Whose grid it carries (`0..sizes::TENANTS`).
    pub tenant: u32,
    /// Steps to run.
    pub steps: i64,
    /// Share of dispatch slots.
    pub weight: u32,
    /// Logical deadline in drain ticks.
    pub deadline: Option<u64>,
    /// Arrival epoch: requests of one epoch are submitted together, then drained.
    pub epoch: u64,
    /// Point-updates the request computes (cells × steps).
    pub updates: u64,
}

/// The seeded request list shared by `serve-tenants` and `wire-tenants`: memoryless
/// heat arrivals merged with heavy-tailed life arrivals, in arrival order.
pub fn requests(seed: u64) -> Vec<Request> {
    let n = sizes::TENANT[0] as u64;
    let heat = gen::poisson(
        seed,
        &WorkShape::heat2d(n, sizes::TENANT_HEAT_STEPS),
        sizes::TENANTS,
        sizes::ARRIVALS,
        3,
        sizes::TENANT_CHUNK,
    );
    let life = gen::heavy_tail(
        seed ^ 0x4C49_4645,
        &WorkShape::life(n, sizes::TENANT_LIFE_STEPS),
        sizes::TENANTS,
        sizes::ARRIVALS,
        sizes::TENANT_CHUNK,
    );
    let epoch = heat.epoch;
    let cells = n * n;
    let mut merged: Vec<(u64, Request)> = Vec::new();
    for (app, trace) in [(TenantApp::Heat, heat), (TenantApp::Life, life)] {
        for r in trace.records {
            merged.push((
                r.arrival_tick,
                Request {
                    app,
                    tenant: r.tenant,
                    steps: r.window,
                    weight: r.weight,
                    deadline: r.deadline,
                    epoch: r.arrival_tick / epoch,
                    updates: cells * r.window as u64,
                },
            ));
        }
    }
    // Stable: equal ticks keep heat before life, so the order is a function of the seed.
    merged.sort_by_key(|(tick, _)| *tick);
    merged.into_iter().map(|(_, r)| r).collect()
}

/// What a correct run must produce: the final two time slices and their digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reference {
    /// `traffic::digest_grid` of the reference grid.
    pub digest: u64,
    /// [`final_bytes`] of the reference grid.
    pub bytes: Vec<u8>,
}

/// Runs `[t0, t1)` on `grid` with the Figure-1 serial loop nest.
pub fn run_loops<T: Cell, K: StencilKernel<T, D>, const D: usize>(
    grid: &mut PochoirArray<T, D>,
    spec: &StencilSpec<D>,
    kernel: &K,
    t0: i64,
    t1: i64,
) {
    run(
        grid,
        spec,
        kernel,
        t0,
        t1,
        &ExecutionPlan::loops_serial(),
        &Serial,
    );
}

/// The reference result of running `[t0, t1)` on a copy of `grid`.
pub fn reference<T: Cell, K: StencilKernel<T, D>, const D: usize>(
    grid: &PochoirArray<T, D>,
    spec: &StencilSpec<D>,
    kernel: &K,
    t0: i64,
    t1: i64,
) -> Reference {
    let mut copy = grid.clone();
    run_loops(&mut copy, spec, kernel, t0, t1);
    Reference {
        digest: digest_grid(&copy, t1),
        bytes: final_bytes(&copy, t1),
    }
}

/// The spec of the 2-D heat app.
pub fn heat_spec<const D: usize>() -> StencilSpec<D> {
    StencilSpec::new(heat::shape::<D>())
}

/// The grids a serve or wire workload submits, indexed by tenant id.
pub struct Grids {
    /// Heat grids.
    pub heat: Vec<PochoirArray<f64, 2>>,
    /// Life grids (none for `wire-bulk`).
    pub life: Vec<PochoirArray<u8, 2>>,
}

impl Grids {
    /// The 16 + 16 small tenant grids of `serve-tenants` and `wire-tenants`.
    pub fn tenants(seed: u64) -> Grids {
        let ids = 0..sizes::TENANTS;
        Grids {
            heat: ids
                .clone()
                .map(|t| heat_grid(seed, sizes::TENANT, t))
                .collect(),
            life: ids.map(|t| life_grid(seed, sizes::TENANT, t)).collect(),
        }
    }

    /// The four large heat grids of `wire-bulk`.
    pub fn bulk(seed: u64) -> Grids {
        Grids {
            heat: (0..sizes::BULK_TENANTS)
                .map(|t| heat_grid(seed, sizes::BULK, t))
                .collect(),
            life: Vec::new(),
        }
    }

    /// Where `request`'s reference sits in [`Grids::references`].
    pub fn reference_index(&self, request: &Request) -> usize {
        match request.app {
            TenantApp::Heat => request.tenant as usize,
            TenantApp::Life => self.heat.len() + request.tenant as usize,
        }
    }

    /// Reference results of every grid (heat first, then life) after the given
    /// step counts.
    pub fn references(&self, heat_steps: i64, life_steps: i64) -> Vec<Reference> {
        let heat = self
            .heat
            .iter()
            .map(|g| reference(g, &heat_spec(), &HeatKernel::<2>::default(), 0, heat_steps));
        let life_spec = StencilSpec::new(life::shape());
        let life = self
            .life
            .iter()
            .map(|g| reference(g, &life_spec, &LifeKernel, 0, life_steps));
        heat.chain(life).collect()
    }
}

/// The `wire-bulk` request list: one request per bulk grid.
pub fn bulk_requests() -> Vec<Request> {
    let cells: usize = sizes::BULK.iter().product();
    (0..sizes::BULK_TENANTS)
        .map(|tenant| Request {
            app: TenantApp::Heat,
            tenant,
            steps: sizes::BULK_STEPS,
            weight: 1,
            deadline: None,
            epoch: u64::from(tenant),
            updates: cells as u64 * sizes::BULK_STEPS as u64,
        })
        .collect()
}
