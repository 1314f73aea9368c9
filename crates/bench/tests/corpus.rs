//! Pins the committed trace corpus (`traces/*.json`) to the built-in definition
//! in [`pochoir_trace::corpus`] — the same check CI runs via `trace_corpus
//! --check`. If a generator changes, the committed files (and therefore the
//! literal table in `corpus_counters.rs`) must be regenerated in the same change,
//! or replays silently diverge from the corpus that table describes.

use pochoir_trace::{corpus, Trace};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

#[test]
fn committed_traces_match_builtin_corpus() {
    let dir = repo_root().join("traces");
    assert!(
        dir.is_dir(),
        "traces/ directory missing; regenerate with `cargo run -p pochoir-bench --bin trace_corpus`"
    );
    for trace in corpus::standard() {
        let path = dir.join(format!("{}.json", trace.name));
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            committed,
            trace.emit(),
            "{} drifted from the built-in corpus definition; regenerate with trace_corpus",
            path.display()
        );
    }
}

#[test]
fn committed_traces_parse_and_validate() {
    let dir = repo_root().join("traces");
    for trace in corpus::standard() {
        let path = dir.join(format!("{}.json", trace.name));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let parsed = Trace::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(parsed, trace);
        assert!(
            !parsed.records.is_empty(),
            "{}: empty trace",
            path.display()
        );
    }
}

#[test]
fn corpus_is_deterministic() {
    let a = corpus::standard();
    let b = corpus::standard();
    assert_eq!(a, b);
    // Names are unique — they double as file names under traces/.
    let mut names: Vec<&str> = a.iter().map(|t| t.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), a.len(), "duplicate trace names in the corpus");
}
