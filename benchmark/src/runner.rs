//! One run of one workload: the untraced end-to-end run, or the traced run that
//! yields the per-layer numbers.

use std::sync::Arc;
use std::time::Instant;

use pochoir_core::engine::schedule;
use pochoir_core::engine::serving::{clear_registry, registry_stats};
use pochoir_runtime::Runtime;

use crate::inputs::Reference;
use crate::ledger;
use crate::report::{number, peak_rss_mib, Values};
use crate::spans::{self, Layer, Span};
use crate::stats::{iqr_share, median, percentile, OpLog};
use crate::workloads::{self, Clock, Running, Stop};

/// Equal slices of the timed region; the reported throughput is the median slice.
pub const SEGMENTS: usize = 5;

/// What a run found, ready to print.
pub struct Outcome {
    /// Every op produced the reference bits.
    pub correct: bool,
    /// Ops (and warm-up checks) attempted.
    pub attempted: usize,
    /// Of those, how many failed, were shed, timed out or mismatched.
    pub failed: usize,
    /// The metrics the run's mode reports.
    pub values: Values,
    /// Everything else worth keeping, as the body of a JSON object.
    pub detail: String,
}

/// Set-ups timed by an end-to-end run.  One set-up of a small workload is too short
/// to time, and one of a wire workload is a handful of timer-paced round trips whose
/// count varies, so the median of several is reported.
const SETUP_REPS: usize = 5;

/// Sets the workload up with cold caches; returns it and the seconds that took.
fn timed_setup(workload: &str, seed: u64, refs: &Arc<Vec<Reference>>) -> (Box<dyn Running>, f64) {
    schedule::clear_cache();
    clear_registry();
    let started = Instant::now();
    let running = workloads::setup(workload, seed, refs);
    (running, started.elapsed().as_secs_f64())
}

/// Attempted and failed checks: every logged op plus the warm-up pass.
fn tally(warm_ok: bool, log: &OpLog) -> (usize, usize) {
    (log.count + 1, log.failed + usize::from(!warm_ok))
}

/// The end-to-end run: set-up, then `seconds` of closed-loop ops, untraced.
pub fn end_to_end(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let refs = workloads::references(workload, seed);
    let (mut running, first_setup) = timed_setup(workload, seed, &refs);
    let warm_ok = running.warmup_ok();
    let clock = Clock::start();
    let mut log = OpLog::new(seconds, SEGMENTS);
    running.drive(&clock, Stop::Deadline(seconds), &mut log);
    running.final_check(&clock, &mut log);
    drop(running);
    // The remaining set-ups are timed after the peak is read, so `VmHWM` is that of
    // one set-up and one region however the allocator fares on the repetitions.
    let peak_rss = peak_rss_mib();
    let mut setups = vec![first_setup];
    while setups.len() < SETUP_REPS {
        setups.push(timed_setup(workload, seed, &refs).1);
    }

    let rates: Vec<f64> = log.segment_rates().iter().map(|r| r / 1e6).collect();
    let latencies_ms: Vec<f64> = log.latencies.iter().map(|s| s * 1e3).collect();
    let (attempted, failed) = tally(warm_ok, &log);

    let mut values = Values::new();
    values.insert("setup_s", median(&setups));
    values.insert("throughput_mpts_s", median(&rates));
    values.insert("op_latency_p50_ms", median(&latencies_ms));
    values.insert("peak_rss_mib", peak_rss);

    let list = |v: &[f64]| v.iter().map(|x| number(*x)).collect::<Vec<_>>().join(", ");
    let detail = format!(
        "\"ops\": {}, \"failed_share\": {}, \"op_latency_p90_ms\": {}, \
         \"segment_mpts_s\": [{}], \"segment_iqr_share\": {}, \"op_latency_iqr_share\": {}, \
         \"setup_reps_s\": [{}]",
        log.count,
        number(failed as f64 / attempted as f64),
        percentile(&latencies_ms, 0.90).map_or("null".to_string(), number),
        list(&rates),
        number(iqr_share(&rates)),
        number(iqr_share(&latencies_ms)),
        list(&setups),
    );
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
        detail,
    }
}

/// The traced run: one set-up and one fixed pass of the workload's ops under spans
/// (plus the same pass untraced, for the tracing overhead), then the layer ledger.
/// Also returns the spans of the set-up and of the pass, for the trace file.
pub fn traced(workload: &str, seed: u64) -> (Outcome, [Vec<Span>; 2]) {
    let ops = workloads::pass_ops(workload);
    spans::set_enabled(true);
    let refs = workloads::references(workload, seed);
    let (mut running, _) = timed_setup(workload, seed, &refs);
    let warm_ok = running.warmup_ok();
    let setup_spans = spans::take();

    spans::set_enabled(false);
    let clock = Clock::start();
    let mut log = OpLog::counting();
    running.drive(&clock, Stop::Ops(ops), &mut log);
    let untraced_wall = clock.now();

    spans::set_enabled(true);
    let before = Runtime::global().metrics();
    let clock = Clock::start();
    let pass_start = log.count;
    running.drive(&clock, Stop::Ops(ops), &mut log);
    let traced_wall = clock.now();
    let pass_len = log.count - pass_start;
    let during = before.delta(&Runtime::global().metrics());
    let pass_spans = spans::take();
    spans::set_enabled(false);
    running.final_check(&clock, &mut log);

    let mut values = Values::new();
    values.insert("pass.ops", pass_len as f64);
    values.insert("pass.wall_ms", traced_wall * 1e3);
    let own = spans::layer_self_seconds(&pass_spans);
    let total: f64 = own.iter().sum();
    for layer in Layer::ALL {
        let name = match layer {
            Layer::Harness => "pass.share.harness",
            Layer::Solve => "pass.share.solve",
            Layer::Shard => "pass.share.shard",
            Layer::Serving => "pass.share.serving",
            Layer::Wire => "pass.share.wire",
        };
        values.insert(name, own[layer as usize] / total);
    }
    values.insert(
        "trace.overhead_share",
        (traced_wall - untraced_wall) / traced_wall,
    );

    let cache = schedule::cache_stats();
    values.insert("schedule.cache_compiles", cache.compiles as f64);
    values.insert("schedule.cache_hits", cache.hits as f64);
    values.insert("schedule.cache_evictions", cache.evictions as f64);
    let registry = registry_stats();
    values.insert("registry.hits", registry.hits as f64);
    values.insert("registry.misses", registry.misses as f64);
    values.insert("registry.evictions", registry.evictions as f64);
    values.insert("serving.windows", during.serving_windows as f64);
    values.insert(
        "serving.deadline_misses",
        during.serving_deadline_misses as f64,
    );
    values.insert("serving.shed", during.serving_shed as f64);
    values.insert(
        "serving.peak_ready",
        Runtime::global().metrics().serving_queue_depth_peak as f64,
    );
    let frames = during.net_frames_in + during.net_frames_out;
    let bytes = during.net_bytes_in + during.net_bytes_out;
    values.insert("wire.frames_per_request", frames as f64 / ops as f64);
    values.insert("wire.bytes_per_request", bytes as f64 / ops as f64);
    values.insert("runtime.workers", Runtime::global().num_threads() as f64);

    let counts = running.counts();
    let ticks: Vec<f64> = counts.completion_ticks.iter().map(|&t| t as f64).collect();
    values.insert("serving.completion_tick_p50", median(&ticks));
    values.insert("shard.tiles", counts.shard.tiles as f64);
    values.insert("shard.windows", counts.shard.windows as f64);
    values.insert("shard.window", counts.shard.window as f64);
    values.insert("shard.halo", counts.shard.halo as f64);
    values.insert("shard.halo_cells", counts.shard.halo_cells as f64);
    values.insert("shard.registry_misses", counts.shard_registry_misses as f64);
    // Last: for the wire workloads reading these costs one registry hit per app.
    let session = running.session_stats();
    values.insert("executor.runs", session.runs as f64);
    values.insert("executor.schedule_fetches", session.schedule_fetches as f64);
    values.insert(
        "executor.schedule_compiles",
        session.schedule_compiles as f64,
    );
    values.insert("executor.schedule_reuses", session.schedule_reuses as f64);
    drop(running);

    let ledger_failed = ledger::measure(seed, &mut values);
    let (attempted, failed) = tally(warm_ok, &log);
    let failed = failed + ledger_failed;
    let detail = format!(
        "\"ops\": {}, \"untraced_pass_ms\": {}, \"traced_pass_ms\": {}",
        log.count,
        number(untraced_wall * 1e3),
        number(traced_wall * 1e3)
    );
    (
        Outcome {
            correct: failed == 0,
            attempted: attempted + ledger_failed,
            failed,
            values,
            detail,
        },
        [setup_spans, pass_spans],
    )
}
