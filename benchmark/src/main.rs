//! Command line of the benchmark.
//!
//! ```text
//! pochoir-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! pochoir-benchmark all   [--seed N] [--seconds S]     every workload, end to end
//! pochoir-benchmark trace [--seed N]                   every workload, traced
//! pochoir-benchmark aa    [--seed N] [--seconds S]     two sets of suite runs, compared
//! ```
//!
//! The first form runs one workload in this process and ends its standard output
//! with one JSON line; the others run each workload in its own child process (the
//! session registry, the schedule cache and `VmHWM` are process-wide).

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use pochoir_benchmark::report::{self, Metric, END_TO_END, PER_LAYER};
use pochoir_benchmark::stats::median;
use pochoir_benchmark::workloads::WORKLOADS;
use pochoir_benchmark::{runner, spans};
use pochoir_trace::Json;

/// The default seed of the suite modes.
const DEFAULT_SEED: u64 = 20110604;
/// Seconds one run measures unless told otherwise; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pochoir-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      pochoir-benchmark all|trace|aa [--seed N] [--seconds S]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

struct Args {
    mode: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        mode: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "all" | "trace" | "aa" => args.mode = Some(arg),
            "--aa" => args.mode = Some("aa".to_string()),
            "--workload" => args.workload = Some(argv.next()?),
            "--seed" => args.seed = argv.next()?.parse().ok()?,
            "--seconds" => args.seconds = argv.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => args.trace = argv.next()?.parse::<u8>().ok()? != 0,
            _ => return None,
        }
    }
    Some(args)
}

fn main() -> ExitCode {
    // What is measured is the committed presets on the default runtime: no SIMD or
    // thread-count override, and no stray tune profile.  Nothing has read the
    // environment yet and no other thread exists.
    std::env::remove_var("POCHOIR_SIMD");
    std::env::remove_var("POCHOIR_NUM_THREADS");
    std::env::set_var(
        "POCHOIR_TUNE_PROFILE",
        out_dir().join("no-such-tune-profile.json"),
    );
    let Some(args) = parse_args() else {
        return usage();
    };
    match (args.mode.as_deref(), &args.workload) {
        (None, Some(workload)) if WORKLOADS.contains(&workload.as_str()) => {
            run_one(workload, &args)
        }
        (Some(mode @ ("all" | "trace")), None) => match suite(&args, mode == "trace") {
            Some(_) => ExitCode::SUCCESS,
            None => ExitCode::FAILURE,
        },
        (Some("aa"), None) => aa(&args),
        _ => usage(),
    }
}

/// One workload in this process: prints every metric by name with its unit, writes
/// the detail file (and the spans of a traced run), ends with the result line.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let (outcome, declared, kind): (_, &[Metric], _) = if args.trace {
        let (outcome, recorded) = runner::traced(workload, args.seed);
        let [setup, pass] = recorded.map(|spans| spans::to_json(&spans));
        write_out(
            &format!("trace-{workload}.json"),
            &format!("{{\"setup\": {setup}, \"pass\": {pass}}}\n"),
        );
        (outcome, &PER_LAYER, "trace")
    } else {
        let outcome = runner::end_to_end(workload, args.seed, args.seconds);
        (outcome, &END_TO_END, "e2e")
    };
    for metric in declared {
        println!(
            "{workload} {} = {} {}",
            metric.name,
            report::number(outcome.values[metric.name]),
            metric.unit
        );
    }
    let metrics = report::metrics_json(declared, &outcome.values);
    let line = report::result_line(outcome.correct, outcome.attempted, outcome.failed, &metrics);
    write_out(
        &format!("{workload}.{kind}.json"),
        &format!(
            "{{\"workload\": \"{workload}\", {}, {}, \"result\": {line}}}\n",
            report::provenance_json(args.seed, args.seconds),
            outcome.detail
        ),
    );
    println!("{line}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{workload}: {} of {} checks failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

fn write_out(name: &str, content: &str) {
    let dir = out_dir();
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(dir.join(name), content))
    {
        eprintln!("cannot write {}: {e}", dir.join(name).display());
    }
}

/// Runs every workload in its own child process and writes `out/results.json`
/// (`out/results-trace.json` for traced runs).  Returns each workload's metric
/// values, or `None` if any child failed.
fn suite(args: &Args, trace: bool) -> Option<Vec<(String, Json)>> {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let kind = if trace { "trace" } else { "e2e" };
    let mut all_ok = true;
    let mut details = Vec::new();
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .expect("cannot start a child run");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        match Json::parse(last) {
            Ok(result) if output.status.success() => results.push((workload.to_string(), result)),
            _ => {
                eprintln!("{workload}: the run failed ({})", output.status);
                all_ok = false;
            }
        }
        if let Ok(detail) =
            std::fs::read_to_string(out_dir().join(format!("{workload}.{kind}.json")))
        {
            details.push(format!("  \"{workload}\": {}", detail.trim_end()));
        }
    }
    let name = if trace {
        "results-trace.json"
    } else {
        "results.json"
    };
    write_out(name, &format!("{{\n{}\n}}\n", details.join(",\n")));
    println!("wrote {}", out_dir().join(name).display());
    all_ok.then_some(results)
}

/// The bound `BENCHMARK.json` fixes for each end-to-end metric.
fn bounds() -> Vec<(String, f64)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let json = Json::parse(&text).expect("BENCHMARK.json is valid JSON");
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists end_to_end metrics")
        .iter()
        .filter_map(|metric| {
            Some((
                metric.get("name")?.as_str()?.to_string(),
                metric.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Suite runs per side of an A/A comparison.  One run per side would compare two
/// samples of a box whose speed drifts by more than a tenth from minute to minute.
const AA_RUNS: usize = 3;

/// A/A: two sets of suite runs on the same build, interleaved (A B A B A B); the
/// medians of every workload × end-to-end metric must agree within its bound.
fn aa(args: &Args) -> ExitCode {
    let mut sides: [Vec<Vec<(String, Json)>>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..AA_RUNS {
        for side in &mut sides {
            match suite(args, false) {
                Some(results) => side.push(results),
                None => return ExitCode::FAILURE,
            }
        }
    }
    let side_median = |side: &[Vec<(String, Json)>], workload: usize, metric: &str| {
        let values: Vec<f64> = side
            .iter()
            .filter_map(|results| {
                results[workload]
                    .1
                    .get("metrics")?
                    .get(metric)?
                    .get("value")?
                    .as_f64()
            })
            .collect();
        median(&values)
    };
    let mut within = true;
    println!(
        "A/A: seed {}, {} s per run, medians of {AA_RUNS} interleaved suite runs per side",
        args.seed, args.seconds
    );
    println!("| workload | metric | median A | median B | difference | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (metric, bound) in bounds() {
            let (a, b) = (
                side_median(&sides[0], w, &metric),
                side_median(&sides[1], w, &metric),
            );
            let difference = (b - a).abs() / a.abs();
            // A missing value is NaN, which must fail; `<=` is false for NaN.
            let ok = difference <= bound;
            within &= ok;
            println!(
                "| {workload} | {metric} | {a:.4} | {b:.4} | {:.1} % | {:.0} % | {} |",
                difference * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    if within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
