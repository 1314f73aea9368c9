//! Seeded synthetic traffic generators for adversarial serving shapes.
//!
//! Every generator is a pure function of its knobs: the only randomness source is a
//! splitmix64 stream seeded by the caller, and all arithmetic is integer-only (no
//! floating point, no transcendental functions), so the same seed produces the same
//! trace byte-for-byte on every host — the property the committed corpus and the CI
//! determinism tests pin.
//!
//! The shapes target specific scheduler claims:
//!
//! * [`poisson`] — memoryless arrivals (geometric inter-arrival gaps, the discrete
//!   Poisson-process analogue) across a uniform tenant population: the baseline
//!   steady-traffic scenario for EDF/stride dispatch.
//! * [`heavy_tail`] — a Zipf-ish tenant popularity skew with weights tied to tenant
//!   class: a handful of whales dominating the queue while many mice hold deadlines,
//!   the stride-fairness and starvation stressor.
//! * [`diurnal`] — a triangle-wave arrival rate (peak/trough "day cycle") producing
//!   bursts that pile submissions into a few epochs: the queue-depth and
//!   deadline-miss stressor.
//! * [`geometry_churn`] — every arrival draws from a pool of distinct geometries so
//!   almost no submission reuses a warm session: the `SessionRegistry`
//!   compile/evict stressor.
//! * [`giant_grid`] — background 2D traffic plus periodic giant 1D grids: giant
//!   windows interleaving with small ones.

use crate::format::{Trace, TraceApp, TraceRecord};

/// Deterministic splitmix64 stream (the same generator the vendored proptest uses).
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }

    /// Geometric inter-arrival gap with mean `mean` ticks (≥ 1): the number of
    /// Bernoulli(1/mean) tick trials up to and including the first success.  This is
    /// the discrete memoryless distribution — the integer-only stand-in for the
    /// exponential gaps of a Poisson process.
    pub fn geometric_gap(&mut self, mean: u64) -> u64 {
        let mean = mean.max(1);
        let mut gap = 1;
        while self.below(mean) != 0 {
            gap += 1;
        }
        gap
    }
}

/// The workload shape shared by a generator's ordinary records: which preset, at
/// what geometry, stepped how far per submission.
#[derive(Clone, Debug)]
pub struct WorkShape {
    /// Target preset.
    pub app: TraceApp,
    /// Spatial extents (length must equal `app.dims()`).
    pub geometry: Vec<u64>,
    /// Steps per submission.
    pub window: i64,
}

impl WorkShape {
    /// A small 2D heat shape (the default background workload).
    pub fn heat2d(n: u64, window: i64) -> Self {
        WorkShape {
            app: TraceApp::Heat2d,
            geometry: vec![n, n],
            window,
        }
    }

    /// A small game-of-life shape.
    pub fn life(n: u64, window: i64) -> Self {
        WorkShape {
            app: TraceApp::Life,
            geometry: vec![n, n],
            window,
        }
    }

    /// A small 3D wave shape.
    pub fn wave3d(n: u64, window: i64) -> Self {
        WorkShape {
            app: TraceApp::Wave3d,
            geometry: vec![n, n, n],
            window,
        }
    }
}

/// Memoryless arrivals: `arrivals` records with geometric inter-arrival gaps of mean
/// `gap_mean` ticks, tenants drawn uniformly from `0..tenants`, weight 1, and a
/// generous deadline on every fourth record (windows × 4 drain ticks of slack).
pub fn poisson(
    seed: u64,
    shape: &WorkShape,
    tenants: u32,
    arrivals: usize,
    gap_mean: u64,
    chunk: i64,
) -> Trace {
    let mut rng = Rng::new(seed);
    let mut tick = 0u64;
    let mut records = Vec::with_capacity(arrivals);
    for i in 0..arrivals {
        tick += rng.geometric_gap(gap_mean);
        let windows = windows_of(shape.window, chunk);
        let deadline = (i % 4 == 0).then_some(windows * 4);
        records.push(TraceRecord {
            tenant: rng.below(tenants.max(1) as u64) as u32,
            app: shape.app,
            geometry: shape.geometry.clone(),
            window: shape.window,
            weight: 1,
            deadline,
            arrival_tick: tick,
        });
    }
    Trace {
        name: "poisson".into(),
        seed,
        chunk,
        epoch: gap_mean.max(1) * 8,
        records,
    }
}

/// Heavy-tail tenant skew: tenant `t` is drawn with weight `⌈tenants/(t+1)⌉`
/// (harmonic, Zipf-ish), whales (the top quarter of the popularity mass) submit at
/// weight 8, and the long tail holds tight deadlines at weight 1 — the scheduler
/// must keep serving mice on time while whales saturate the queue.
pub fn heavy_tail(
    seed: u64,
    shape: &WorkShape,
    tenants: u32,
    arrivals: usize,
    chunk: i64,
) -> Trace {
    let tenants = tenants.max(1);
    let mut rng = Rng::new(seed);
    // Harmonic popularity table: cumulative[t] = Σ_{i<=t} ceil(tenants / (i+1)).
    let mut cumulative = Vec::with_capacity(tenants as usize);
    let mut total = 0u64;
    for t in 0..tenants as u64 {
        total += (tenants as u64).div_ceil(t + 1);
        cumulative.push(total);
    }
    let mut tick = 0u64;
    let mut records = Vec::with_capacity(arrivals);
    for _ in 0..arrivals {
        tick += rng.geometric_gap(3);
        let draw = rng.below(total);
        let tenant = cumulative.partition_point(|&c| c <= draw) as u32;
        let whale = tenant < tenants.div_ceil(4);
        let windows = windows_of(shape.window, chunk);
        records.push(TraceRecord {
            tenant,
            app: shape.app,
            geometry: shape.geometry.clone(),
            window: shape.window,
            weight: if whale { 8 } else { 1 },
            // Mice hold tight (but meetable in isolation) deadlines; whales are
            // throughput tenants without any.
            deadline: (!whale).then_some(windows * 2),
            arrival_tick: tick,
        });
    }
    Trace {
        name: "skew".into(),
        seed,
        chunk,
        epoch: 24,
        records,
    }
}

/// The day-cycle knobs of [`diurnal`].
#[derive(Clone, Copy, Debug)]
pub struct DayCycle {
    /// Ticks per full peak→trough→peak period.
    pub day_ticks: u64,
    /// Mean inter-arrival gap at the busiest phase.
    pub peak_gap: u64,
    /// Mean inter-arrival gap at the quietest phase.
    pub trough_gap: u64,
}

/// Diurnal bursts: the mean inter-arrival gap follows a triangle wave between
/// `cycle.peak_gap` (busy) and `cycle.trough_gap` (quiet) with period
/// `cycle.day_ticks`, so submissions bunch into bursts that pile up inside single
/// drain epochs.
pub fn diurnal(
    seed: u64,
    shape: &WorkShape,
    tenants: u32,
    arrivals: usize,
    cycle: DayCycle,
    chunk: i64,
) -> Trace {
    let DayCycle {
        day_ticks,
        peak_gap,
        trough_gap,
    } = cycle;
    let mut rng = Rng::new(seed);
    let day_ticks = day_ticks.max(2);
    let mut tick = 0u64;
    let mut records = Vec::with_capacity(arrivals);
    for i in 0..arrivals {
        // Triangle interpolation of the current mean gap from the phase of day.
        let phase = tick % day_ticks;
        let half = day_ticks / 2;
        let from_peak = if phase < half {
            phase
        } else {
            day_ticks - phase
        };
        let span = trough_gap.saturating_sub(peak_gap);
        let mean = peak_gap + span * from_peak / half.max(1);
        tick += rng.geometric_gap(mean.max(1));
        let windows = windows_of(shape.window, chunk);
        records.push(TraceRecord {
            tenant: rng.below(tenants.max(1) as u64) as u32,
            app: shape.app,
            geometry: shape.geometry.clone(),
            window: shape.window,
            weight: 1 + (i % 3 == 0) as u32 * 3,
            deadline: (i % 2 == 0).then_some(windows * 3),
            arrival_tick: tick,
        });
    }
    Trace {
        name: "diurnal".into(),
        seed,
        chunk,
        epoch: day_ticks / 2,
        records,
    }
}

/// Geometry churn: every arrival draws one of `pool` distinct geometries (sized
/// `base + 4·k` per side) and alternates between the 2D apps, so almost no
/// submission finds a warm session — with the registry capacity below `2 × pool`
/// this thrashes compiles and evictions.
pub fn geometry_churn(
    seed: u64,
    tenants: u32,
    arrivals: usize,
    pool: u64,
    base: u64,
    window: i64,
    chunk: i64,
) -> Trace {
    let mut rng = Rng::new(seed);
    let pool = pool.max(1);
    let mut tick = 0u64;
    let mut records = Vec::with_capacity(arrivals);
    for _ in 0..arrivals {
        tick += rng.geometric_gap(2);
        let k = rng.below(pool);
        let n = base + 4 * k;
        let app = if rng.below(2) == 0 {
            TraceApp::Heat2d
        } else {
            TraceApp::Life
        };
        records.push(TraceRecord {
            tenant: rng.below(tenants.max(1) as u64) as u32,
            app,
            geometry: vec![n, n],
            window,
            weight: 1,
            deadline: None,
            arrival_tick: tick,
        });
    }
    Trace {
        name: "churn".into(),
        seed,
        chunk,
        epoch: 16,
        records,
    }
}

/// The giant-grid knobs of [`giant_grid`].
#[derive(Clone, Copy, Debug)]
pub struct GiantCell {
    /// Every `every`-th arrival is a giant (0 disables giants).
    pub every: usize,
    /// Cells of the giant 1D grid.
    pub cells: u64,
    /// Steps per giant submission.
    pub window: i64,
}

/// Giants amid background traffic: every `giant.every`-th arrival is a giant 1D
/// heat grid of `giant.cells` cells (its windows interleave with the background 2D
/// tenants' windows).
pub fn giant_grid(
    seed: u64,
    background: &WorkShape,
    tenants: u32,
    arrivals: usize,
    giant: GiantCell,
    chunk: i64,
) -> Trace {
    let GiantCell {
        every: giant_every,
        cells: giant_cells,
        window: giant_window,
    } = giant;
    let mut rng = Rng::new(seed);
    let mut tick = 0u64;
    let mut records = Vec::with_capacity(arrivals);
    for i in 0..arrivals {
        tick += rng.geometric_gap(4);
        let record = if giant_every > 0 && i % giant_every == giant_every - 1 {
            TraceRecord {
                tenant: rng.below(tenants.max(1) as u64) as u32,
                app: TraceApp::HeatGiant1d,
                geometry: vec![giant_cells],
                window: giant_window,
                weight: 2,
                deadline: None,
                arrival_tick: tick,
            }
        } else {
            TraceRecord {
                tenant: rng.below(tenants.max(1) as u64) as u32,
                app: background.app,
                geometry: background.geometry.clone(),
                window: background.window,
                weight: 1,
                deadline: None,
                arrival_tick: tick,
            }
        };
        records.push(record);
    }
    Trace {
        name: "giant".into(),
        seed,
        chunk,
        epoch: 32,
        records,
    }
}

/// Drain windows a `window`-step submission spans at chunk height `chunk` — the
/// unit logical deadlines are quoted in.
fn windows_of(window: i64, chunk: i64) -> u64 {
    (window.max(0) as u64).div_ceil(chunk.max(1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace() {
        let shape = WorkShape::heat2d(48, 8);
        let a = poisson(42, &shape, 8, 50, 3, 4);
        let b = poisson(42, &shape, 8, 50, 3, 4);
        assert_eq!(a, b);
        let c = poisson(43, &shape, 8, 50, 3, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_monotone() {
        let shape = WorkShape::life(32, 4);
        for trace in [
            poisson(1, &shape, 4, 40, 2, 4),
            heavy_tail(2, &shape, 16, 40, 4),
            diurnal(
                3,
                &shape,
                4,
                40,
                DayCycle {
                    day_ticks: 64,
                    peak_gap: 1,
                    trough_gap: 8,
                },
                4,
            ),
            geometry_churn(4, 4, 40, 10, 24, 4, 4),
            giant_grid(
                5,
                &shape,
                4,
                40,
                GiantCell {
                    every: 7,
                    cells: 4096,
                    window: 8,
                },
                4,
            ),
        ] {
            let ticks: Vec<u64> = trace.records.iter().map(|r| r.arrival_tick).collect();
            assert!(ticks.windows(2).all(|w| w[0] <= w[1]), "{}", trace.name);
            assert_eq!(trace.records.len(), 40);
        }
    }

    #[test]
    fn heavy_tail_is_skewed_with_whale_weights() {
        let shape = WorkShape::heat2d(48, 8);
        let t = heavy_tail(7, &shape, 16, 400, 4);
        let whale_cut = 16u32.div_ceil(4);
        let whale_records = t.records.iter().filter(|r| r.tenant < whale_cut).count();
        // Harmonic mass of the top quarter is well above a uniform quarter.
        assert!(
            whale_records > t.records.len() / 3,
            "whales got {whale_records}/400"
        );
        for r in &t.records {
            if r.tenant < whale_cut {
                assert_eq!((r.weight, r.deadline), (8, None));
            } else {
                assert_eq!(r.weight, 1);
                assert!(r.deadline.is_some());
            }
        }
    }

    #[test]
    fn churn_draws_many_distinct_geometries() {
        let t = geometry_churn(11, 4, 200, 12, 24, 4, 4);
        assert!(t.distinct_servers() > 12, "{}", t.distinct_servers());
    }

    #[test]
    fn giant_grid_mixes_giant_records() {
        let shape = WorkShape::heat2d(48, 8);
        let t = giant_grid(
            9,
            &shape,
            4,
            40,
            GiantCell {
                every: 8,
                cells: 4096,
                window: 8,
            },
            4,
        );
        let giants = t
            .records
            .iter()
            .filter(|r| r.app == TraceApp::HeatGiant1d)
            .count();
        assert_eq!(giants, 5);
    }

    #[test]
    fn generated_traces_round_trip() {
        let shape = WorkShape::wave3d(12, 4);
        let t = diurnal(
            21,
            &shape,
            6,
            30,
            DayCycle {
                day_ticks: 48,
                peak_gap: 1,
                trough_gap: 6,
            },
            2,
        );
        assert_eq!(Trace::parse(&t.emit()).unwrap(), t);
    }
}
