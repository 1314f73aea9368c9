//! Metric names, the machine's provenance, and the JSON the benchmark prints.

use std::collections::BTreeMap;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// The name a later issue cites.
    pub name: &'static str,
    /// The unit printed beside every value.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [Metric; 4] = [
    m("setup_s", "s"),
    m("throughput_mpts_s", "Mpts/s"),
    m("op_latency_p50_ms", "ms"),
    m("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run.  The first block
/// describes the workload's own traced pass (counts repeat exactly; a layer the
/// workload bypasses reads 0); the second is the layer ledger, measured by the
/// same fixed probes whatever the workload.
pub const PER_LAYER: [Metric; 77] = [
    // --- this workload's traced pass ---
    m("pass.ops", "count"),
    m("pass.wall_ms", "ms"),
    m("pass.share.harness", "share"),
    m("pass.share.solve", "share"),
    m("pass.share.shard", "share"),
    m("pass.share.serving", "share"),
    m("pass.share.wire", "share"),
    m("trace.overhead_share", "share"),
    m("schedule.cache_compiles", "count"),
    m("schedule.cache_hits", "count"),
    m("schedule.cache_evictions", "count"),
    m("executor.runs", "count"),
    m("executor.schedule_fetches", "count"),
    m("executor.schedule_compiles", "count"),
    m("executor.schedule_reuses", "count"),
    m("serving.windows", "count"),
    m("serving.peak_ready", "count"),
    m("serving.deadline_misses", "count"),
    m("serving.shed", "count"),
    m("serving.completion_tick_p50", "ticks"),
    m("registry.hits", "count"),
    m("registry.misses", "count"),
    m("registry.evictions", "count"),
    m("shard.tiles", "count"),
    m("shard.windows", "count"),
    m("shard.window", "steps"),
    m("shard.halo", "cells"),
    m("shard.halo_cells", "count"),
    m("shard.registry_misses", "count"),
    m("wire.frames_per_request", "count"),
    m("wire.bytes_per_request", "bytes"),
    m("runtime.workers", "count"),
    // --- the layer ledger ---
    m("loops.heat2d.mpts_s", "Mpts/s"),
    m("kernel.heat2d.mpts_s", "Mpts/s"),
    m("kernel.life.mpts_s", "Mpts/s"),
    m("kernel.wave3d.mpts_s", "Mpts/s"),
    m("kernel.heat2d.simd_over_scalar", "ratio"),
    m("kernel.life.simd_over_scalar", "ratio"),
    m("kernel.wave3d.simd_over_scalar", "ratio"),
    m("schedule.compile_ms", "ms"),
    m("schedule.compile_us_per_leaf", "us"),
    m("schedule.leaves", "count"),
    m("schedule.raw_leaves", "count"),
    m("schedule.phases", "count"),
    m("schedule.compiled_over_recursive", "ratio"),
    m("executor.session_build_ms", "ms"),
    m("executor.run_floor_us", "us"),
    m("serving.submit_us", "us"),
    m("serving.drain_ms", "ms"),
    m("serving.drain_us_per_window", "us"),
    m("serving.self_share", "share"),
    m("registry.cold_get_ms", "ms"),
    m("registry.warm_get_us", "us"),
    m("shard.plan_ms", "ms"),
    m("shard.run_ms", "ms"),
    m("shard.halo_share_computed", "share"),
    m("shard.serve_group_ms", "ms"),
    m("protocol.encode_bulk_mb_s", "MB/s"),
    m("protocol.decode_bulk_mb_s", "MB/s"),
    m("protocol.encode_small_us", "us"),
    m("protocol.decode_small_us", "us"),
    m("wire.connect_ms", "ms"),
    m("wire.negotiate_cold_ms", "ms"),
    m("wire.negotiate_warm_ms", "ms"),
    m("wire.poll_rtt_us", "us"),
    m("wire.submit_ms", "ms"),
    m("wire.wait_ms", "ms"),
    m("wire.fetch_ms", "ms"),
    m("wire.payload_mb_s", "MB/s"),
    m("wire.added_share", "share"),
    m("runtime.scaling_eff", "ratio"),
    m("trace.gen_ms", "ms"),
    m("ledger.trap_over_loops", "ratio"),
    m("ledger.serve_over_solve", "ratio"),
    m("ledger.wire_over_serve", "ratio"),
    m("ledger.shard_over_compiled", "ratio"),
    m("ledger.failed_checks", "count"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// A finite JSON number with all its digits (Rust prints the shortest string that
/// round-trips); non-finite values, which JSON cannot carry, become 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for `metrics`, in declaration order.
/// Panics if a declared metric was not measured: the output must be complete.
pub fn metrics_json(metrics: &[Metric], values: &Values) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|metric| {
            let v = values
                .get(metric.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", metric.name));
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                number(*v),
                metric.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The one line a run ends with.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    )
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

fn cache_size(index: u32) -> String {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map_or("unknown".to_string(), |s| s.trim().to_string())
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// Where and how a result was measured, as the body of a JSON object.
pub fn provenance_json(seed: u64, seconds: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let isa = pochoir_core::simd::detected().map_or("scalar", |i| i.name());
    let env = |name: &str| match std::env::var(name) {
        Ok(v) => format!("\"{v}\""),
        Err(_) => "null".to_string(),
    };
    let threads = crate::workloads::client_threads();
    format!(
        "\"seed\": {seed}, \"seconds\": {}, \"git_commit\": \"{}\", \"nproc\": {nproc}, \
         \"workers\": {}, \"client_threads\": {threads}, \"client_threads_capped\": {}, \
         \"detected_isa\": \"{isa}\", \"l2\": \"{}\", \"l3\": \"{}\", \
         \"POCHOIR_SIMD\": {}, \"POCHOIR_NUM_THREADS\": {}, \"POCHOIR_TUNE_PROFILE\": {}",
        number(seconds),
        git_commit(),
        pochoir_runtime::Runtime::global().num_threads(),
        threads < 2,
        cache_size(2),
        cache_size(3),
        env("POCHOIR_SIMD"),
        env("POCHOIR_NUM_THREADS"),
        env("POCHOIR_TUNE_PROFILE"),
    )
}
