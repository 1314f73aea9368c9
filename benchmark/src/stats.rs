//! The arithmetic every reported number goes through: medians, percentiles with the
//! "ten samples beyond it" rule, quartile spread, and the segment throughput of a
//! timed region.  Pure functions, unit-tested in `tests/stats.rs`.

/// One completed operation of a timed region.  Times are seconds since the region
/// started; an op that began before the deadline may end after it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op {
    /// When the caller issued the op.
    pub start: f64,
    /// When the (verified) result was in hand.
    pub end: f64,
    /// Point-updates the op computed (cells × steps).
    pub updates: u64,
    /// False if the op failed, was shed, timed out or produced wrong bits.
    pub ok: bool,
}

impl Op {
    /// Submit-to-result time in seconds.
    pub fn latency(&self) -> f64 {
        self.end - self.start
    }
}

/// Median of `values` (mean of the two middle values for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples a percentile needs before it is reported: ten beyond it, so p90 needs
/// 100 and p99 needs 1000.
pub fn samples_needed(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

/// The `q`-quantile (0 < q < 1) by nearest rank, or `None` when fewer than
/// [`samples_needed`] values back it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.len() < samples_needed(q) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// First and third quartile exactly as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the spread the accepting driver computes.
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, linearly interpolated and clamped.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median; 0 when undefined.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Latencies an [`OpLog`] keeps: all of them up to this many, a uniform sample beyond.
pub const LATENCY_SAMPLE: usize = 1 << 16;

/// The ops of a timed region, folded as they complete into fixed-size state — so the
/// benchmark's own memory does not grow with the program's speed, which would show
/// up in `peak_rss_mib` as a regression of the program.
#[derive(Clone, Debug)]
pub struct OpLog {
    region: f64,
    /// Updates credited to each equal slice of `[0, region)`.
    segment_updates: Vec<f64>,
    /// Ops logged.
    pub count: usize,
    /// Of those, how many were not ok.
    pub failed: usize,
    /// Latencies in seconds: every op's until [`LATENCY_SAMPLE`], then a uniform
    /// reservoir sample (seeded, so the same ops give the same sample).
    pub latencies: Vec<f64>,
    reservoir: pochoir_trace::Rng,
}

impl OpLog {
    /// A log for a pass of a fixed number of ops, which has no timed region: counts
    /// and latencies only.
    pub fn counting() -> OpLog {
        OpLog::new(f64::MAX, 1)
    }

    /// A log for a region of `region` seconds cut into `segments` slices.
    pub fn new(region: f64, segments: usize) -> OpLog {
        OpLog {
            region,
            segment_updates: vec![0.0; segments],
            count: 0,
            failed: 0,
            latencies: Vec::new(),
            reservoir: pochoir_trace::Rng::new(0x0B5E_55ED),
        }
    }

    /// Folds one completed op in.  An op contributes to a slice in proportion to
    /// the part of its own duration that falls inside it, so an op longer than a
    /// slice is spread over the slices it spans rather than credited to wherever
    /// it happened to end.  A failed op did no useful work and contributes nothing.
    pub fn push(&mut self, op: Op) {
        self.count += 1;
        if self.latencies.len() < LATENCY_SAMPLE {
            self.latencies.push(op.latency());
        } else {
            let slot = self.reservoir.below(self.count as u64) as usize;
            if slot < LATENCY_SAMPLE {
                self.latencies[slot] = op.latency();
            }
        }
        if !op.ok {
            self.failed += 1;
            return;
        }
        let len = self.region / self.segment_updates.len() as f64;
        for (k, credited) in self.segment_updates.iter_mut().enumerate() {
            let (lo, hi) = (k as f64 * len, (k + 1) as f64 * len);
            let overlap = (op.end.min(hi) - op.start.max(lo)).max(0.0);
            let span = op.latency();
            if span > 0.0 {
                *credited += op.updates as f64 * overlap / span;
            } else if (lo..hi).contains(&op.end) {
                *credited += op.updates as f64;
            }
        }
    }

    /// Updates per second in each slice of the region.
    pub fn segment_rates(&self) -> Vec<f64> {
        let len = self.region / self.segment_updates.len() as f64;
        self.segment_updates.iter().map(|u| u / len).collect()
    }
}
