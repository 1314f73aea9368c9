//! The versioned traffic-trace format.
//!
//! A trace is a named, seeded stream of submission records — one record per tenant
//! request against a serving preset — in the shape the replay harness drives through
//! `StencilServer`: `(tenant, app, geometry, window, weight, deadline, arrival_tick)`.
//! The on-disk representation is human-readable JSON with one record per line (see
//! [`Trace::emit`]); [`Trace::parse`] validates the format tag, the version, and
//! every record's geometry against its app's dimensionality, so a corrupt or
//! future-version trace fails loudly instead of replaying garbage.
//!
//! `parse ∘ emit` is the identity (property-pinned in `tests/roundtrip.rs`), which is
//! what lets CI treat committed traces as reproducible artifacts: the corpus under
//! `traces/` can be regenerated bit-identically from `(generator, seed)`.

use crate::json::{self, Json};
use std::fmt;

/// The format tag every trace document carries.
pub const TRACE_FORMAT: &str = "pochoir-trace";

/// Current trace format version; [`Trace::parse`] rejects anything newer.
pub const TRACE_VERSION: u32 = 1;

/// The serving preset a record targets.
///
/// The vocabulary is closed on purpose: a trace names *workload shapes the harness
/// can actually serve*, and an unknown app is a parse error rather than a silently
/// dropped record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceApp {
    /// 2D heat (f64, periodic) via `heat::serve_2d`.
    Heat2d,
    /// Game of life (u8) via `life::serve`.
    Life,
    /// 3D wave (f64, two time slices) via `wave::serve`.
    Wave3d,
    /// A giant 1D heat grid submitted through `submit_sharded`
    /// (`heat::serve_giant_1d`): one ticket whose windows are halo-exchanged tile rounds.
    HeatGiant1d,
}

/// All apps, in the order used by generators and reports.
pub const TRACE_APPS: [TraceApp; 4] = [
    TraceApp::Heat2d,
    TraceApp::Life,
    TraceApp::Wave3d,
    TraceApp::HeatGiant1d,
];

impl TraceApp {
    /// The stable on-disk name.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceApp::Heat2d => "heat2d",
            TraceApp::Life => "life",
            TraceApp::Wave3d => "wave3d",
            TraceApp::HeatGiant1d => "heat_giant1d",
        }
    }

    /// Parses an on-disk name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "heat2d" => Some(TraceApp::Heat2d),
            "life" => Some(TraceApp::Life),
            "wave3d" => Some(TraceApp::Wave3d),
            "heat_giant1d" => Some(TraceApp::HeatGiant1d),
            _ => None,
        }
    }

    /// Spatial dimensionality of the app's geometry vector.
    pub fn dims(self) -> usize {
        match self {
            TraceApp::Heat2d | TraceApp::Life => 2,
            TraceApp::Wave3d => 3,
            TraceApp::HeatGiant1d => 1,
        }
    }
}

impl fmt::Display for TraceApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One tenant request: the tuple the replay harness turns into a
/// `submit_with`/`submit_sharded` call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Tenant identity; seeds the deterministic initial grid and groups requests in
    /// reports.  Tenants are stateless across records (each record gets a fresh
    /// grid), matching the serving layer's owned-array submissions.
    pub tenant: u32,
    /// Target serving preset.
    pub app: TraceApp,
    /// Spatial extents; length must equal `app.dims()`.
    pub geometry: Vec<u64>,
    /// Requested kernel-invocation steps: the submission runs `[0, window)`.
    pub window: i64,
    /// Weighted-stride share of dispatch slots (≥ 1).
    pub weight: u32,
    /// Optional logical deadline, in drain ticks of the record's server (see
    /// `SubmitOptions::deadline`).
    pub deadline: Option<u64>,
    /// Arrival time on the trace's logical clock; the replay harness groups
    /// arrivals into drain rounds of [`Trace::epoch`] ticks.
    pub arrival_tick: u64,
}

/// A named, seeded stream of [`TraceRecord`]s plus the replay knobs that are part of
/// the workload's identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Scenario name (also the corpus file stem).
    pub name: String,
    /// The generator seed this trace was built from (0 for hand-written traces);
    /// recorded so reports can state their provenance.
    pub seed: u64,
    /// Chunk height (drain window) of every server the replay builds; part of the
    /// session-registry key, so traces control registry pressure with it.
    pub chunk: i64,
    /// Arrival ticks per drain round during replay: all records arriving inside one
    /// epoch are submitted together, then every server with pending work drains.
    pub epoch: u64,
    /// The records, ordered by `arrival_tick` (ties keep source order).
    pub records: Vec<TraceRecord>,
}

/// Why a trace document was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceError {
    /// The document is not JSON.
    Json(json::JsonError),
    /// The document is JSON but not a trace (missing/ill-typed field).
    Schema(String),
    /// The format tag or version does not match this parser.
    Version(String),
    /// A record is internally inconsistent (geometry arity, zero window, …).
    Record {
        /// Index of the offending record in the `records` array.
        index: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Json(e) => write!(f, "trace is not valid JSON: {e}"),
            TraceError::Schema(msg) => write!(f, "trace schema error: {msg}"),
            TraceError::Version(msg) => write!(f, "trace version error: {msg}"),
            TraceError::Record { index, reason } => {
                write!(f, "trace record {index} invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<json::JsonError> for TraceError {
    fn from(e: json::JsonError) -> Self {
        TraceError::Json(e)
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, TraceError> {
    obj.get(key)
        .ok_or_else(|| TraceError::Schema(format!("missing field '{key}'")))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, TraceError> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| TraceError::Schema(format!("field '{key}' must be a non-negative integer")))
}

fn i64_field(obj: &Json, key: &str) -> Result<i64, TraceError> {
    field(obj, key)?
        .as_i64()
        .ok_or_else(|| TraceError::Schema(format!("field '{key}' must be an integer")))
}

impl Trace {
    /// Renders the trace as pretty JSON: header fields one per line, then one record
    /// per line — diffable in review, greppable in CI logs.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"format\": {},\n",
            Json::Str(TRACE_FORMAT.into())
        ));
        out.push_str(&format!("  \"version\": {TRACE_VERSION},\n"));
        out.push_str(&format!("  \"name\": {},\n", Json::Str(self.name.clone())));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"chunk\": {},\n", self.chunk));
        out.push_str(&format!("  \"epoch\": {},\n", self.epoch));
        out.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let deadline = match r.deadline {
                Some(d) => d.to_string(),
                None => "null".to_string(),
            };
            let geometry: Vec<String> = r.geometry.iter().map(|g| g.to_string()).collect();
            out.push_str(&format!(
                "    {{\"tenant\": {}, \"app\": \"{}\", \"geometry\": [{}], \
                 \"window\": {}, \"weight\": {}, \"deadline\": {}, \"arrival_tick\": {}}}{}\n",
                r.tenant,
                r.app,
                geometry.join(", "),
                r.window,
                r.weight,
                deadline,
                r.arrival_tick,
                if i + 1 == self.records.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Parses and validates a trace document (see the module docs for the checks).
    pub fn parse(input: &str) -> Result<Self, TraceError> {
        let doc = json::parse(input)?;
        let format = field(&doc, "format")?
            .as_str()
            .ok_or_else(|| TraceError::Schema("field 'format' must be a string".into()))?;
        if format != TRACE_FORMAT {
            return Err(TraceError::Version(format!(
                "format tag '{format}' is not '{TRACE_FORMAT}'"
            )));
        }
        let version = u64_field(&doc, "version")?;
        if version != TRACE_VERSION as u64 {
            return Err(TraceError::Version(format!(
                "version {version} is not the supported version {TRACE_VERSION}"
            )));
        }
        let name = field(&doc, "name")?
            .as_str()
            .ok_or_else(|| TraceError::Schema("field 'name' must be a string".into()))?
            .to_string();
        let seed = u64_field(&doc, "seed")?;
        let chunk = i64_field(&doc, "chunk")?;
        if chunk <= 0 {
            return Err(TraceError::Schema("field 'chunk' must be positive".into()));
        }
        let epoch = u64_field(&doc, "epoch")?;
        if epoch == 0 {
            return Err(TraceError::Schema("field 'epoch' must be positive".into()));
        }
        let raw_records = field(&doc, "records")?
            .as_arr()
            .ok_or_else(|| TraceError::Schema("field 'records' must be an array".into()))?;
        let mut records = Vec::with_capacity(raw_records.len());
        for (index, raw) in raw_records.iter().enumerate() {
            records.push(Self::parse_record(index, raw)?);
        }
        Ok(Trace {
            name,
            seed,
            chunk,
            epoch,
            records,
        })
    }

    fn parse_record(index: usize, raw: &Json) -> Result<TraceRecord, TraceError> {
        let bad = |reason: String| TraceError::Record { index, reason };
        let app_name = field(raw, "app")?
            .as_str()
            .ok_or_else(|| bad("field 'app' must be a string".into()))?;
        let app =
            TraceApp::parse(app_name).ok_or_else(|| bad(format!("unknown app '{app_name}'")))?;
        let geometry_raw = field(raw, "geometry")?
            .as_arr()
            .ok_or_else(|| bad("field 'geometry' must be an array".into()))?;
        let mut geometry = Vec::with_capacity(geometry_raw.len());
        for g in geometry_raw {
            let extent = g
                .as_u64()
                .ok_or_else(|| bad("geometry extents must be non-negative integers".into()))?;
            if extent == 0 {
                return Err(bad("geometry extents must be positive".into()));
            }
            geometry.push(extent);
        }
        if geometry.len() != app.dims() {
            return Err(bad(format!(
                "app '{app}' needs {} extents, got {}",
                app.dims(),
                geometry.len()
            )));
        }
        let window = i64_field(raw, "window").map_err(|e| bad(e.to_string()))?;
        if window <= 0 {
            return Err(bad("field 'window' must be positive".into()));
        }
        let weight = u64_field(raw, "weight").map_err(|e| bad(e.to_string()))?;
        if weight == 0 || weight > u32::MAX as u64 {
            return Err(bad("field 'weight' must be in 1..=u32::MAX".into()));
        }
        let deadline = match field(raw, "deadline")? {
            Json::Null => None,
            v => Some(v.as_u64().ok_or_else(|| {
                bad("field 'deadline' must be null or a non-negative integer".into())
            })?),
        };
        let tenant = u64_field(raw, "tenant").map_err(|e| bad(e.to_string()))?;
        if tenant > u32::MAX as u64 {
            return Err(bad("field 'tenant' must fit u32".into()));
        }
        Ok(TraceRecord {
            tenant: tenant as u32,
            app,
            geometry,
            window,
            weight: weight as u32,
            deadline,
            arrival_tick: u64_field(raw, "arrival_tick").map_err(|e| bad(e.to_string()))?,
        })
    }

    /// Total grid-point updates the trace requests (Σ volume × window), the
    /// denominator of replay throughput.
    pub fn points(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.geometry.iter().map(|&g| g as f64).product::<f64>() * r.window as f64)
            .sum()
    }

    /// Distinct `(app, geometry, chunk)` server keys the trace touches — the number
    /// of sessions the replay will ask the registry for.
    pub fn distinct_servers(&self) -> usize {
        let mut keys: Vec<(TraceApp, &[u64])> = self
            .records
            .iter()
            .map(|r| (r.app, r.geometry.as_slice()))
            .collect();
        keys.sort();
        keys.dedup();
        keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            name: "sample".into(),
            seed: 7,
            chunk: 4,
            epoch: 16,
            records: vec![
                TraceRecord {
                    tenant: 0,
                    app: TraceApp::Heat2d,
                    geometry: vec![48, 48],
                    window: 8,
                    weight: 1,
                    deadline: None,
                    arrival_tick: 0,
                },
                TraceRecord {
                    tenant: 3,
                    app: TraceApp::Life,
                    geometry: vec![32, 32],
                    window: 4,
                    weight: 4,
                    deadline: Some(12),
                    arrival_tick: 17,
                },
            ],
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let t = sample();
        assert_eq!(Trace::parse(&t.emit()).unwrap(), t);
    }

    #[test]
    fn rejects_future_version() {
        let doc = sample().emit().replace("\"version\": 1", "\"version\": 2");
        assert!(matches!(Trace::parse(&doc), Err(TraceError::Version(_))));
    }

    #[test]
    fn rejects_wrong_format_tag() {
        let doc = sample().emit().replace(TRACE_FORMAT, "other-format");
        assert!(matches!(Trace::parse(&doc), Err(TraceError::Version(_))));
    }

    #[test]
    fn rejects_geometry_arity_mismatch() {
        let doc = sample().emit().replace("[48, 48]", "[48, 48, 48]");
        assert!(matches!(Trace::parse(&doc), Err(TraceError::Record { .. })));
    }

    #[test]
    fn rejects_unknown_app() {
        let doc = sample().emit().replace("heat2d", "heat9d");
        assert!(matches!(Trace::parse(&doc), Err(TraceError::Record { .. })));
    }

    #[test]
    fn points_and_servers() {
        let t = sample();
        assert_eq!(t.points(), (48.0 * 48.0 * 8.0) + (32.0 * 32.0 * 4.0));
        assert_eq!(t.distinct_servers(), 2);
    }
}
