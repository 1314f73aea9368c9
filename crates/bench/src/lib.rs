//! # pochoir-bench
//!
//! Benchmark harnesses that regenerate every table and figure of the evaluation in
//! *"The Pochoir Stencil Compiler"* (SPAA 2011).
//!
//! Each `src/bin/*` executable reproduces one artifact:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `intro_loops_vs_trap` | the Section-1 LOOPS (248 s) vs. Pochoir (24 s) comparison |
//! | `fig3_table` | Figure 3: the ten-benchmark table (Pochoir 1 core / P cores, serial loops, parallel loops) |
//! | `fig5_berkeley` | Figure 5: 7-point / 27-point GStencil/s and GFLOP/s vs. an autotuned blocked-loop baseline |
//! | `fig9_parallelism` | Figure 9: Cilkview-style parallelism of hyperspace cuts (TRAP) vs. space cuts (STRAP) |
//! | `fig10_cachemiss` | Figure 10: cache-miss ratios of TRAP / STRAP / loops under the cache simulator |
//! | `fig13_indexing` | Figure 13: `--split-pointer` vs. `--split-macro-shadow` interior indexing |
//! | `ablation_modindex` | Section 4: code cloning vs. modulo-on-every-access (≈2.3× claim) |
//! | `ablation_coarsening` | Section 4: base-case coarsening (≈36× claim) + ISAT-style tuning |
//!
//! All binaries accept `--scale tiny|small|medium|paper` (default `small`) and print the
//! paper-shaped rows to stdout.  They are paper artefacts, not a regression gate: the
//! repo's performance numbers come from the one benchmark under `benchmark/`
//! (`bash benchmark/run.sh`, see `benchmark/README.md`).
//!
//! Two more binaries are tools rather than figures: `pochoir-autotune` reports how far
//! each app's committed coarsening preset is from a local search's best point on this
//! machine, and `trace_corpus` regenerates (or, with `--check`, byte-pins) the
//! committed `traces/` corpus that [`replay`] drives through the serving layer; the
//! corpus' deterministic counters are asserted by `tests/corpus_counters.rs`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apps;
pub mod replay;

pub use apps::{Fig3Config, Fig3Row, FIG3_ROWS};
pub use pochoir_stencils::ProblemScale;

/// A single timed run.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Spatial grid points.
    pub points: u128,
    /// Time steps executed.
    pub steps: i64,
}

impl RunStats {
    /// Millions of point-updates per second.
    pub fn mpoints_per_second(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.points as f64 * self.steps as f64 / self.seconds / 1e6
    }

    /// Stencil updates per second in GStencil/s (Figure 5's unit).
    pub fn gstencils_per_second(&self) -> f64 {
        self.mpoints_per_second() / 1e3
    }
}

/// Parses `--scale` (and `--help`) from the command line; defaults to
/// [`ProblemScale::Small`].
pub fn scale_from_args(usage: &str) -> ProblemScale {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = ProblemScale::Small;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" if i + 1 < args.len() => {
                match ProblemScale::parse(&args[i + 1]) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!(
                            "unknown scale '{}'; expected tiny|small|medium|paper",
                            args[i + 1]
                        );
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--help" | "-h" => {
                println!("{usage}");
                println!(
                    "\nOptions:\n  --scale tiny|small|medium|paper   problem size (default: small)"
                );
                std::process::exit(0);
            }
            _ => i += 1,
        }
    }
    scale
}

/// A fixed-width text table printer for the harness outputs.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Formats seconds compactly (ms below one second).
pub fn fmt_seconds(s: f64) -> String {
    if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Formats a ratio with two decimals, or a dash when undefined.
pub fn fmt_ratio(numerator: f64, denominator: f64) -> String {
    if denominator <= 0.0 {
        "-".to_string()
    } else {
        format!("{:.2}", numerator / denominator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["short", "1"]);
        t.row(["a-much-longer-name", "12345"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.contains("a-much-longer-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn run_stats_throughput() {
        let s = RunStats {
            seconds: 2.0,
            points: 1_000_000,
            steps: 10,
        };
        assert!((s.mpoints_per_second() - 5.0).abs() < 1e-12);
        assert!((s.gstencils_per_second() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_seconds(0.0123), "12.3ms");
        assert_eq!(fmt_seconds(3.2), "3.20s");
        assert_eq!(fmt_ratio(10.0, 4.0), "2.50");
        assert_eq!(fmt_ratio(1.0, 0.0), "-");
    }
}
