//! Persisted per-host tuning profiles.
//!
//! The paper's ISAT integration tunes base-case coarsening **once per machine** and
//! bakes the result into the generated code; this module is the runtime analogue: the
//! `pochoir-autotune` binary sweeps coarsening and grain per application and persists
//! the winners as a small JSON file (`target/pochoir-tune.json` by
//! default, overridable via the `POCHOIR_TUNE_PROFILE` environment variable).  The
//! serve/session presets in `pochoir-stencils` consult [`cached`] and fall back to the
//! committed defaults when no profile is present, so a freshly cloned tree works
//! untuned and a tuned host transparently gets its measured parameters.
//!
//! The format is hand-rolled JSON (the workspace takes no serde dependency):
//!
//! ```json
//! {
//!   "version": 1,
//!   "host_isa": "avx2",
//!   "apps": {
//!     "heat2d": { "dt": 5, "dx": [50, 4096], "grain": 1 }
//!   }
//! }
//! ```
//!
//! Keys an entry does not use are ignored, so a profile written with the former
//! per-app `"simd"` column still loads; every preset now runs `SimdPolicy::Auto`.

use pochoir_core::engine::Coarsening;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Current on-disk format version.
pub const PROFILE_VERSION: u64 = 1;

/// Environment variable naming an explicit profile path (overrides the default search).
pub const PROFILE_ENV: &str = "POCHOIR_TUNE_PROFILE";

/// Tuned execution parameters for one application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TuneEntry {
    /// Base-case time coarsening threshold (`Coarsening::dt`).
    pub dt: i64,
    /// Base-case spatial thresholds, one per dimension, unit-stride last.
    pub dx: Vec<i64>,
    /// Parallel-loop grain (zoids per task on wide dependency levels).
    pub grain: usize,
}

impl TuneEntry {
    /// The entry's coarsening when its dimensionality matches `D`.
    pub fn coarsening<const D: usize>(&self) -> Option<Coarsening<D>> {
        if self.dx.len() != D {
            return None;
        }
        let mut dx = [1i64; D];
        dx.copy_from_slice(&self.dx);
        Some(Coarsening::new(self.dt, dx))
    }
}

/// A persisted per-host tuning profile: tuned parameters per application, plus the
/// ISA that was detected when the sweep ran (for provenance).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TuneProfile {
    /// The widest SIMD ISA detected on the tuning host (`avx2` or `scalar`).
    pub host_isa: String,
    /// Tuned entries keyed by application name (`heat2d`, `life`, `wave3d`, …).
    pub apps: BTreeMap<String, TuneEntry>,
}

impl TuneProfile {
    /// An empty profile stamped with the running host's detected ISA.
    pub fn for_this_host() -> TuneProfile {
        TuneProfile {
            host_isa: pochoir_core::simd::detected()
                .map(|i| i.name().to_string())
                .unwrap_or_else(|| "scalar".to_string()),
            apps: BTreeMap::new(),
        }
    }

    /// The entry for `app`, if present.
    pub fn get(&self, app: &str) -> Option<&TuneEntry> {
        self.apps.get(app)
    }

    /// The tuned coarsening for `app` when present and of matching dimensionality.
    pub fn coarsening<const D: usize>(&self, app: &str) -> Option<Coarsening<D>> {
        self.get(app).and_then(|e| e.coarsening::<D>())
    }

    /// Serializes to the on-disk JSON format (stable key order, two-space indent).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"version\": {PROFILE_VERSION},\n"));
        s.push_str(&format!("  \"host_isa\": \"{}\",\n", self.host_isa));
        s.push_str("  \"apps\": {");
        let mut first = true;
        for (name, e) in &self.apps {
            if !first {
                s.push(',');
            }
            first = false;
            let dx =
                e.dx.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
            s.push_str(&format!(
                "\n    \"{name}\": {{ \"dt\": {}, \"dx\": [{dx}], \"grain\": {} }}",
                e.dt, e.grain
            ));
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });
        s.push_str(&format!(
            "  \"generated_by\": \"pochoir-autotune v{PROFILE_VERSION}\"\n"
        ));
        s.push('}');
        s.push('\n');
        s
    }

    /// Parses the on-disk JSON format.  Returns `None` on malformed input or an
    /// unknown version (a stale profile should fall back to defaults, not panic).
    pub fn parse(text: &str) -> Option<TuneProfile> {
        let json = Json::parse(text)?;
        let obj = json.as_object()?;
        match obj.get("version") {
            Some(Json::Number(v)) if *v == PROFILE_VERSION as f64 => {}
            _ => return None,
        }
        let host_isa = obj.get("host_isa")?.as_str()?.to_string();
        let mut apps = BTreeMap::new();
        for (name, entry) in obj.get("apps")?.as_object()? {
            let e = entry.as_object()?;
            let dx = e
                .get("dx")?
                .as_array()?
                .iter()
                .map(|v| v.as_i64())
                .collect::<Option<Vec<i64>>>()?;
            apps.insert(
                name.clone(),
                TuneEntry {
                    dt: e.get("dt")?.as_i64()?,
                    dx,
                    grain: e.get("grain")?.as_i64()?.try_into().ok()?,
                },
            );
        }
        Some(TuneProfile { host_isa, apps })
    }

    /// Writes the profile to `path` (creating parent directories).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Loads and parses a profile from `path`.
    pub fn load(path: &Path) -> Option<TuneProfile> {
        TuneProfile::parse(&std::fs::read_to_string(path).ok()?)
    }
}

/// The default on-disk location: `$POCHOIR_TUNE_PROFILE` when set, else
/// `target/pochoir-tune.json` under the nearest enclosing directory that has a
/// `target/` (searching upward from the current directory, so crate-relative test
/// runs and workspace-root runs resolve to the same file).
pub fn default_path() -> PathBuf {
    if let Ok(p) = std::env::var(PROFILE_ENV) {
        if !p.is_empty() {
            return PathBuf::from(p);
        }
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    for _ in 0..5 {
        let candidate = dir.join("target");
        if candidate.is_dir() {
            return candidate.join("pochoir-tune.json");
        }
        if !dir.pop() {
            break;
        }
    }
    PathBuf::from("target/pochoir-tune.json")
}

/// The process-wide profile, loaded from [`default_path`] once on first use.
/// `None` when no profile exists or it fails to parse — callers fall back to their
/// committed defaults.
pub fn cached() -> Option<&'static TuneProfile> {
    static CACHE: OnceLock<Option<TuneProfile>> = OnceLock::new();
    CACHE
        .get_or_init(|| TuneProfile::load(&default_path()))
        .as_ref()
}

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough for the profile format (objects, arrays,
// strings without escapes beyond \" and \\, and plain numbers).
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Object(BTreeMap<String, Json>),
    Array(Vec<Json>),
    String(String),
    Number(f64),
    Bool(bool),
    Null,
}

impl Json {
    fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        (pos == bytes.len()).then_some(v)
    }

    fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Number(n) if n.fract() == 0.0 && n.abs() < 9.0e18 => Some(*n as i64),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, c: u8) -> Option<()> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'{' => parse_object(b, pos),
        b'[' => parse_array(b, pos),
        b'"' => parse_string(b, pos).map(Json::String),
        b't' if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Some(Json::Bool(true))
        }
        b'f' if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Some(Json::Bool(false))
        }
        b'n' if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Some(Json::Null)
        }
        _ => parse_number(b, pos),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Option<Json> {
    eat(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Json::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        eat(b, pos, b':')?;
        map.insert(key, parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Object(map));
            }
            _ => return None,
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Option<Json> {
    eat(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Json::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Array(items));
            }
            _ => return None,
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if *b.get(*pos)? != b'"' {
        return None;
    }
    *pos += 1;
    let mut out = Vec::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).ok();
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos)? {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    _ => return None, // \uXXXX etc.: not needed by this format
                }
                *pos += 1;
            }
            c => {
                out.push(c);
                *pos += 1;
            }
        }
    }
    None
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(Json::Number)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TuneProfile {
        let mut p = TuneProfile {
            host_isa: "avx2".into(),
            apps: BTreeMap::new(),
        };
        p.apps.insert(
            "heat2d".into(),
            TuneEntry {
                dt: 5,
                dx: vec![50, 4096],
                grain: 1,
            },
        );
        p.apps.insert(
            "wave3d".into(),
            TuneEntry {
                dt: 8,
                dx: vec![8, 8, 1000],
                grain: 2,
            },
        );
        p
    }

    #[test]
    fn json_round_trips() {
        let p = sample();
        let parsed = TuneProfile::parse(&p.to_json()).expect("round trip");
        assert_eq!(parsed, p);
    }

    #[test]
    fn empty_profile_round_trips() {
        let p = TuneProfile {
            host_isa: "scalar".into(),
            apps: BTreeMap::new(),
        };
        assert_eq!(TuneProfile::parse(&p.to_json()), Some(p));
    }

    #[test]
    fn entries_convert_to_typed_parameters() {
        let p = sample();
        assert_eq!(
            p.coarsening::<2>("heat2d"),
            Some(Coarsening::new(5, [50, 4096]))
        );
        // Wrong dimensionality: falls back rather than mis-slicing.
        assert_eq!(p.coarsening::<3>("heat2d"), None);
        assert_eq!(p.coarsening::<2>("absent"), None);
    }

    #[test]
    fn profiles_with_the_former_simd_column_still_load() {
        let old = r#"{
  "version": 1,
  "host_isa": "avx2",
  "apps": {
    "heat2d": { "dt": 5, "dx": [50, 4096], "grain": 1, "simd": "auto" },
    "wave3d": { "dt": 8, "dx": [8, 8, 1000], "grain": 2, "simd": "force-avx2" }
  },
  "generated_by": "pochoir-autotune v1"
}"#;
        assert_eq!(TuneProfile::parse(old), Some(sample()));
    }

    #[test]
    fn malformed_and_versionless_inputs_are_rejected() {
        assert_eq!(TuneProfile::parse(""), None);
        assert_eq!(TuneProfile::parse("{"), None);
        assert_eq!(TuneProfile::parse("{}"), None);
        assert_eq!(
            TuneProfile::parse(r#"{"version": 99, "host_isa": "x", "apps": {}}"#),
            None
        );
        // Trailing garbage is rejected, not silently ignored.
        let mut with_garbage = sample().to_json();
        with_garbage.push_str("...");
        assert_eq!(TuneProfile::parse(&with_garbage), None);
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("pochoir-profile-{}", std::process::id()));
        let path = dir.join("tune.json");
        let p = sample();
        p.save(&path).expect("save");
        assert_eq!(TuneProfile::load(&path), Some(p));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn for_this_host_records_a_known_isa_label() {
        let p = TuneProfile::for_this_host();
        assert!(["avx2", "scalar"].contains(&p.host_isa.as_str()));
    }
}
