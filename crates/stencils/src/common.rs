//! Shared helper: problem-size scaling between the paper's machine-scale experiments
//! and laptop/CI-scale reproductions.

/// How large a benchmark instance to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProblemScale {
    /// Seconds-scale instances used by unit/integration tests.
    Tiny,
    /// Default benchmark-harness scale: large enough to exceed typical L2 caches, small
    /// enough to finish a full Figure-3 style table in minutes on one core.
    Small,
    /// Closer to the paper's sizes; minutes per benchmark.
    Medium,
    /// The paper's actual Figure 3 sizes (hours of compute; provided for completeness).
    Paper,
}

impl ProblemScale {
    /// Parses the common command-line spellings.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Self::Tiny),
            "small" => Some(Self::Small),
            "medium" => Some(Self::Medium),
            "paper" | "full" => Some(Self::Paper),
            _ => None,
        }
    }

    /// Linear scale factor applied to each spatial extent relative to the paper size.
    pub fn space_factor(self) -> f64 {
        match self {
            ProblemScale::Tiny => 1.0 / 200.0,
            ProblemScale::Small => 1.0 / 40.0,
            ProblemScale::Medium => 1.0 / 10.0,
            ProblemScale::Paper => 1.0,
        }
    }

    /// Scale factor applied to the number of time steps relative to the paper size.
    pub fn time_factor(self) -> f64 {
        match self {
            ProblemScale::Tiny => 1.0 / 50.0,
            ProblemScale::Small => 1.0 / 10.0,
            ProblemScale::Medium => 1.0 / 4.0,
            ProblemScale::Paper => 1.0,
        }
    }

    /// Scales a spatial extent, clamping to a sensible minimum.
    pub fn scale_extent(self, paper: usize) -> usize {
        ((paper as f64 * self.space_factor()).round() as usize).max(8)
    }

    /// Scales a step count, clamping to a sensible minimum.
    pub fn scale_steps(self, paper: i64) -> i64 {
        ((paper as f64 * self.time_factor()).round() as i64).max(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing() {
        assert_eq!(ProblemScale::parse("small"), Some(ProblemScale::Small));
        assert_eq!(ProblemScale::parse("PAPER"), Some(ProblemScale::Paper));
        assert_eq!(ProblemScale::parse("bogus"), None);
    }

    #[test]
    fn paper_scale_is_identity() {
        assert_eq!(ProblemScale::Paper.scale_extent(16_000), 16_000);
        assert_eq!(ProblemScale::Paper.scale_steps(500), 500);
    }

    #[test]
    fn scaling_is_monotone() {
        let paper = 16_000;
        let tiny = ProblemScale::Tiny.scale_extent(paper);
        let small = ProblemScale::Small.scale_extent(paper);
        let medium = ProblemScale::Medium.scale_extent(paper);
        assert!(tiny < small && small < medium && medium < paper);
    }

    #[test]
    fn minimums_are_enforced() {
        assert!(ProblemScale::Tiny.scale_extent(100) >= 8);
        assert!(ProblemScale::Tiny.scale_steps(20) >= 4);
    }
}
