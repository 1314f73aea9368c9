//! The committed trace corpus: five pinned-seed scenarios, one per adversarial
//! shape, sized so a full three-discipline replay stays CI-smoke cheap.
//!
//! The corpus is *defined here* and *materialized under `traces/`* by the
//! `trace_corpus` bin; `crates/bench/tests/corpus.rs` pins the committed files
//! byte-identical to this definition, so a generator change that would silently
//! invalidate the committed baselines fails the suite instead.

use crate::format::Trace;
use crate::gen::{self, DayCycle, GiantCell, WorkShape};

/// Giant-grid cells used by the `giant` scenario: large enough that
/// `should_compile` rejects the uncoarsened grid at the serving chunk height (so the
/// engine compiles it at its own base case), small enough to replay in CI.
pub const GIANT_CELLS: u64 = 600_000;

/// The standard corpus, in replay order.  File stems under `traces/` equal the
/// trace names.
pub fn standard() -> Vec<Trace> {
    let heat = WorkShape::heat2d(48, 8);
    let life = WorkShape::life(48, 6);
    let wave = WorkShape::wave3d(16, 4);
    let mut corpus = vec![
        // Baseline memoryless traffic over one warm session.
        gen::poisson(0x5EED_0001, &heat, 8, 40, 3, 4),
        // Whales vs. deadline-holding mice on one geometry.
        gen::heavy_tail(0x5EED_0002, &heat, 16, 48, 4),
        // Bursty arrivals piling into few epochs.
        gen::diurnal(
            0x5EED_0003,
            &life,
            8,
            48,
            DayCycle {
                day_ticks: 96,
                peak_gap: 1,
                trough_gap: 8,
            },
            3,
        ),
        // Registry thrash: ~24 distinct geometries across two apps.
        gen::geometry_churn(0x5EED_0004, 8, 48, 24, 24, 4, 4),
        // Giants interleaved with background 2D tenants.
        gen::giant_grid(
            0x5EED_0005,
            &heat,
            6,
            18,
            GiantCell {
                every: 6,
                cells: GIANT_CELLS,
                window: 8,
            },
            4,
        ),
    ];
    // A 3D scenario so the corpus exercises every served dimensionality; the
    // arrival law is the memoryless baseline, renamed to its own file stem.
    let mut waves = gen::poisson(0x5EED_0006, &wave, 6, 24, 4, 4);
    waves.name = "waves".into();
    corpus.push(waves);
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceApp;

    #[test]
    fn corpus_is_deterministic_and_distinctly_named() {
        let a = standard();
        let b = standard();
        assert_eq!(a, b);
        let mut names: Vec<&str> = a.iter().map(|t| t.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), a.len());
    }

    #[test]
    fn corpus_covers_every_app() {
        let corpus = standard();
        for app in crate::format::TRACE_APPS {
            assert!(
                corpus
                    .iter()
                    .any(|t| t.records.iter().any(|r| r.app == app)),
                "corpus never submits {app}"
            );
        }
    }

    #[test]
    fn giants_fail_compile_heuristics_by_construction() {
        // should_compile's leaf estimate for an uncoarsened 1D grid at chunk height
        // c is c × n; the giant must exceed the ~2M-leaf bound so the giant
        // route (not a literal compile) is what the trace exercises.
        let corpus = standard();
        let giant = corpus.iter().find(|t| t.name == "giant").unwrap();
        for r in giant
            .records
            .iter()
            .filter(|r| r.app == TraceApp::HeatGiant1d)
        {
            assert!(r.geometry[0] * giant.chunk as u64 > 1 << 21);
        }
    }
}
