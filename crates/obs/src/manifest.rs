//! Run-provenance manifests and report schema versioning.

use std::collections::BTreeMap;

use serde::Serialize;


/// Current report schema version. Bump when the JSON report layout changes
/// incompatibly; readers reject anything newer than what they know.
pub const SCHEMA_VERSION: u32 = 1;

/// A schema-version check failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// The document carries no `schema_version` field (pre-provenance report
    /// or not a report at all).
    Missing,
    /// The document was written by a newer tool than this reader.
    TooNew {
        /// Version found in the document.
        found: u32,
        /// Newest version this reader understands.
        supported: u32,
    },
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::Missing => write!(f, "report has no schema_version field"),
            SchemaError::TooNew { found, supported } => write!(
                f,
                "report schema_version {found} is newer than supported {supported}; \
                 upgrade the reader"
            ),
        }
    }
}

/// Journal/resume provenance for a durably-run campaign: which journal the
/// run wrote, and how much of the work was replayed from a previous run
/// versus executed fresh. Lives in [`Provenance`] — never in the report
/// body — because replay counts legitimately differ between a clean run and
/// a crash/resume run whose *results* are byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct JournalProvenance {
    /// Directory holding the campaign journal (`--resume <dir>`).
    pub dir: String,
    /// Deterministic work units the campaign was chunked into.
    pub chunks_total: usize,
    /// Chunks whose results were replayed from the journal.
    pub chunks_replayed: usize,
    /// Chunks executed (and appended to the journal) by this run.
    pub chunks_executed: usize,
}

/// The manifest embedded in every JSON report the CLI writes: enough to
/// reproduce the run and to account for where its wall time went.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Provenance {
    /// Tool name, always `tensorlib`.
    pub generator: String,
    /// Cargo package version of the writing binary.
    pub pkg_version: String,
    /// The command line that produced the report (program name elided).
    pub command: String,
    /// Every RNG seed the run consumed, in consumption order.
    pub seeds: Vec<u64>,
    /// Worker threads requested (0 = auto).
    pub workers: usize,
    /// Host parallelism available at run time.
    pub host_cores: usize,
    /// Batched-simulation lanes the run used (0 = not applicable). Together
    /// with `workers` and `host_cores` this is the run's *machine shape*;
    /// history comparisons refuse to compare runs across different shapes.
    pub lanes: usize,
    /// Journal/resume accounting for durably-run campaigns (`null` for
    /// ordinary runs). Like `phase_wall_times_us`, this block is the
    /// legitimately run-dependent part of an otherwise byte-deterministic
    /// report, so byte-comparisons strip it.
    pub journal: Option<JournalProvenance>,
    /// Inclusive wall time per instrumented phase, microseconds.
    pub phase_wall_times_us: BTreeMap<String, u64>,
}

impl Provenance {
    /// A manifest for the given command echo, stamped with this build's
    /// package version and the host's core count.
    pub fn new(command: &str) -> Provenance {
        Provenance {
            generator: "tensorlib".to_string(),
            pkg_version: env!("CARGO_PKG_VERSION").to_string(),
            command: command.to_string(),
            seeds: Vec::new(),
            workers: 0,
            host_cores: std::thread::available_parallelism().map_or(1, usize::from),
            lanes: 0,
            journal: None,
            phase_wall_times_us: BTreeMap::new(),
        }
    }
}

/// Pulls the top-level `schema_version` out of a JSON report, if present.
pub fn extract_schema_version(report_json: &str) -> Option<u32> {
    let doc = serde::value::parse(report_json).ok()?;
    let v = doc.get("schema_version")?.as_u64()?;
    u32::try_from(v).ok()
}

/// Validates that a JSON report's schema version is one this build can
/// read. Reports from the future are rejected rather than misread.
pub fn check_schema_version(report_json: &str) -> Result<u32, SchemaError> {
    let found = extract_schema_version(report_json).ok_or(SchemaError::Missing)?;
    if found > SCHEMA_VERSION {
        Err(SchemaError::TooNew {
            found,
            supported: SCHEMA_VERSION,
        })
    } else {
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_schema_is_accepted() {
        let doc = format!("{{\"schema_version\": {SCHEMA_VERSION}, \"x\": 1}}");
        assert_eq!(check_schema_version(&doc), Ok(SCHEMA_VERSION));
    }

    #[test]
    fn future_schema_is_rejected() {
        let doc = format!("{{\"schema_version\": {}}}", SCHEMA_VERSION + 1);
        assert_eq!(
            check_schema_version(&doc),
            Err(SchemaError::TooNew {
                found: SCHEMA_VERSION + 1,
                supported: SCHEMA_VERSION,
            })
        );
    }

    #[test]
    fn missing_schema_is_flagged() {
        assert_eq!(check_schema_version("{\"x\": 1}"), Err(SchemaError::Missing));
        assert_eq!(check_schema_version("not json"), Err(SchemaError::Missing));
    }

    #[test]
    fn provenance_serializes_with_ordered_fields() {
        let mut p = Provenance::new("explore gemm --top 3");
        p.seeds = vec![42];
        p.workers = 2;
        p.phase_wall_times_us.insert("explore".to_string(), 1234);
        let s = serde_json::to_string(&p).expect("serialize");
        assert!(s.contains("\"generator\":\"tensorlib\""));
        assert!(s.contains("\"command\":\"explore gemm --top 3\""));
        assert!(s.contains("\"seeds\":[42]"));
        assert!(s.contains("\"explore\":1234"));
        // Byte-stable: same manifest serializes identically every time.
        assert_eq!(s, serde_json::to_string(&p).unwrap());
    }
}
