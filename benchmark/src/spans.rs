//! In-memory spans around the calls the harness makes into each layer.
//!
//! The harness sits outside the program, so a span marks one call across a layer's
//! public boundary (`run`, `try_drain`, `wait`, ...), tagged with the layer the call
//! enters.  Spans are kept in memory and written out when the run ends; with tracing
//! off (every end-to-end run) opening a span is one relaxed load.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layer a call enters, named after the module that owns the entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own work: building inputs, checking results, bookkeeping.
    Harness,
    /// `core::engine::{executor, schedule, base}` + `stencils::simd`, entered
    /// through `CompiledStencil::run`.
    Solve,
    /// `core::engine::shard`, entered through `CompiledStencil::run_sharded`.
    Shard,
    /// `core::engine::serving` (registry, scheduler, admission), entered through
    /// `StencilServer`.
    Serving,
    /// `serve::{client, server, protocol}`, entered through `Client`.
    Wire,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Harness,
        Layer::Solve,
        Layer::Shard,
        Layer::Serving,
        Layer::Wire,
    ];

    /// Lower-case name used in metric names and trace files.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Solve => "solve",
            Layer::Shard => "shard",
            Layer::Serving => "serving",
            Layer::Wire => "wire",
        }
    }
}

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within the process.
    pub id: u32,
    /// The span that was open on this thread when this one began.
    pub parent: Option<u32>,
    /// The function called (or the harness step performed).
    pub name: &'static str,
    /// The layer the call enters.
    pub layer: Layer,
    /// Nanoseconds since the process-wide epoch.
    pub start_ns: u64,
    /// Nanoseconds since the process-wide epoch.
    pub end_ns: u64,
    /// The op (request, window) the call belongs to; spans of one op share it.
    pub op_id: u64,
}

impl Span {
    /// Wall time of the call in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
static RECORDED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static OP_ID: RefCell<u64> = const { RefCell::new(0) };
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Tags the spans this thread opens from now on with `op_id`.
pub fn set_op(op_id: u64) {
    OP_ID.with(|o| *o.borrow_mut() = op_id);
}

/// Removes and returns everything recorded so far, ordered by start time.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *RECORDED.lock().expect("span buffer lock poisoned"));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// An open span; the call it measures ends when this is dropped.
pub struct Guard(Option<Span>);

/// Opens a span around a call into `layer`.  A no-op while tracing is off.
pub fn span(name: &'static str, layer: Layer) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| {
        let mut open = o.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    Guard(Some(Span {
        id,
        parent,
        name,
        layer,
        op_id: OP_ID.with(|o| *o.borrow()),
        start_ns: now_ns(),
        end_ns: 0,
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut span) = self.0.take() {
            span.end_ns = now_ns();
            OPEN.with(|o| {
                o.borrow_mut().pop();
            });
            // A poisoned buffer only loses spans; never panic in drop.
            if let Ok(mut recorded) = RECORDED.lock() {
                recorded.push(span);
            }
        }
    }
}

/// Times `f` as a span and returns its result.
pub fn in_span<R>(name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
    let _guard = span(name, layer);
    f()
}

/// Each span's self time in seconds, in `spans` order: its duration minus the part
/// of that interval its direct children cover.  Children on one thread never
/// overlap each other, so their durations simply add.
pub fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut covered = std::collections::HashMap::<u32, f64>::new();
    for s in spans {
        if let Some(p) = s.parent {
            *covered.entry(p).or_default() += s.seconds();
        }
    }
    spans
        .iter()
        .map(|s| (s.seconds() - covered.get(&s.id).copied().unwrap_or(0.0)).max(0.0))
        .collect()
}

/// Total self time per layer, in [`Layer::ALL`] order.
pub fn layer_self_seconds(spans: &[Span]) -> [f64; 5] {
    let mut totals = [0.0; 5];
    for (s, own) in spans.iter().zip(self_seconds(spans)) {
        totals[s.layer as usize] += own;
    }
    totals
}

/// Durations in seconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

/// A JSON array with one object per span, in `spans` order.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"layer\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"op_id\": {}}}{}\n",
            s.id,
            s.name,
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.op_id,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}
