//! The per-run manifest: everything a cached run records besides the
//! anonymized table itself.

use secreta_metrics::{Indicators, PhaseTimes};
use secreta_obsv::RunProfile;
use serde::{Deserialize, Serialize, Value};

/// Metadata and measurements of one completed run.
///
/// Stored as `manifest.json` next to the anonymized output. A sweep
/// hit is served from this alone; a single-run hit reconstructs the
/// framework's `RunResult` from this plus the decoded table. Both are
/// byte-identical to the run that was stored: every field round-trips
/// exactly through JSON (floats use shortest-roundtrip formatting,
/// durations are integer seconds/nanos, tables are integers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Content address of this run (64 hex chars); also its directory
    /// name under `runs/`.
    pub key: String,
    /// Store schema the run was written under.
    pub schema_version: u32,
    /// Digest of the session inputs the run was computed against.
    pub context: String,
    /// Human-readable method label, e.g. `RMERGE_r(CLUSTER+NCP)`.
    pub label: String,
    /// The method configuration, as canonical JSON (sorted keys).
    pub config: Value,
    /// RNG seed.
    pub seed: u64,
    /// Sweep parameter label (`k`, `m`, `δ`) when part of a sweep.
    #[serde(default)]
    pub sweep_param: Option<String>,
    /// Sweep-point value when part of a sweep.
    #[serde(default)]
    pub sweep_value: Option<f64>,
    /// Milliseconds since the Unix epoch at which the run finished.
    pub created_unix_ms: u64,
    /// The indicator set the run produced.
    pub indicators: Indicators,
    /// Per-phase wall-clock timings.
    pub phases: PhaseTimes,
    /// The observability profile (span tree, counters, peak RSS), when
    /// the run was recorded with observability enabled. Defaults to
    /// `None` so schema-1 manifests keep loading.
    #[serde(default)]
    pub profile: Option<RunProfile>,
    /// SHA-256 (hex) of the stored `anon.json` bytes, filled in by
    /// `RunStore::put` and verified on read. Defaults to `None` so
    /// pre-schema-3 manifests keep loading (they skip verification but
    /// also never serve cache hits — the schema version is part of the
    /// run key).
    #[serde(default)]
    pub anon_sha256: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    pub(crate) fn sample(key: &str) -> RunManifest {
        RunManifest {
            key: key.to_owned(),
            schema_version: crate::key::STORE_SCHEMA_VERSION,
            context: "c0ffee".to_owned(),
            label: "CLUSTER+NCP".to_owned(),
            config: Value::Obj(vec![("k".to_owned(), Value::U64(5))]),
            seed: 42,
            sweep_param: Some("k".to_owned()),
            sweep_value: Some(5.0),
            created_unix_ms: 1_700_000_000_000,
            indicators: Indicators {
                gcp: 0.125,
                tx_gcp: 1.0 / 3.0,
                ul: 0.5,
                are: 0.0625,
                item_freq_error: 0.01,
                discernibility: 1234,
                avg_class_size: 6.5,
                runtime_ms: 17.25,
                verified: true,
                risk: None,
            },
            phases: PhaseTimes {
                phases: vec![
                    ("anonymize".to_owned(), Duration::new(1, 500)),
                    ("metrics".to_owned(), Duration::from_millis(3)),
                ],
            },
            profile: Some(RunProfile {
                spans: vec![secreta_obsv::ProfileSpan {
                    name: "anonymize".to_owned(),
                    start: Duration::ZERO,
                    duration: Duration::new(1, 500),
                    children: vec![],
                }],
                counters: vec![("cluster/ncp_evals".to_owned(), 99)],
                peak_rss_bytes: 4096,
            }),
            anon_sha256: None,
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = sample("ab".repeat(32).as_str());
        let json = serde_json::to_string_pretty(&m).unwrap();
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn optional_sweep_fields_default() {
        // manifests written for single-point runs omit sweep info
        let json = r#"{
            "key": "k", "schema_version": 1, "context": "c",
            "label": "L", "config": {"k": 5}, "seed": 1,
            "created_unix_ms": 0,
            "indicators": {"gcp":0.0,"tx_gcp":0.0,"ul":0.0,"are":0.0,
                "item_freq_error":0.0,"discernibility":0,
                "avg_class_size":0.0,"runtime_ms":0.0,"verified":true},
            "phases": {"phases": []}
        }"#;
        let m: RunManifest = serde_json::from_str(json).unwrap();
        assert_eq!(m.sweep_param, None);
        assert_eq!(m.sweep_value, None);
    }

    #[test]
    fn schema_one_manifest_without_profile_still_loads() {
        // golden: the exact shape schema-1 stores wrote (no `profile`
        // field anywhere). Bumping the schema must never make these
        // unreadable — `runs list`/`runs show` keep working on old
        // stores even though such runs no longer serve cache hits.
        let json = r#"{
            "key": "deadbeef", "schema_version": 1, "context": "c",
            "label": "CLUSTER+NCP", "config": {"algo": "cluster", "k": 5},
            "seed": 42, "sweep_param": "k", "sweep_value": 5.0,
            "created_unix_ms": 1700000000000,
            "indicators": {"gcp":0.125,"tx_gcp":0.25,"ul":0.5,"are":0.0625,
                "item_freq_error":0.01,"discernibility":1234,
                "avg_class_size":6.5,"runtime_ms":17.25,"verified":true},
            "phases": {"phases": [["anonymize", {"secs": 1, "nanos": 500}]]}
        }"#;
        let m: RunManifest = serde_json::from_str(json).unwrap();
        assert_eq!(m.schema_version, 1);
        assert_eq!(m.profile, None);
        assert_eq!(m.indicators.discernibility, 1234);
        assert_eq!(m.phases.phases.len(), 1);
    }

    #[test]
    fn schema_three_manifest_without_risk_still_loads() {
        // golden: the exact shape schema-3 stores wrote (indicators
        // have no `risk` key at all — not even null). These manifests
        // must keep loading for `runs list`/`runs show`; the schema-4
        // key bump only stops them from serving cache hits.
        let json = r#"{
            "key": "deadbeef", "schema_version": 3, "context": "c",
            "label": "APRIORI+KM", "config": {"algo": "apriori", "k": 3, "m": 2},
            "seed": 7, "sweep_param": "k", "sweep_value": 3.0,
            "created_unix_ms": 1700000000000,
            "anon_sha256": "ab12",
            "indicators": {"gcp":0.125,"tx_gcp":0.25,"ul":0.5,"are":0.0625,
                "item_freq_error":0.01,"discernibility":1234,
                "avg_class_size":6.5,"runtime_ms":17.25,"verified":true},
            "phases": {"phases": [["anonymize", {"secs": 1, "nanos": 500}]]}
        }"#;
        let m: RunManifest = serde_json::from_str(json).unwrap();
        assert_eq!(m.schema_version, 3);
        assert_eq!(m.indicators.risk, None, "missing risk block reads as None");
        // and it round-trips without inventing risk data
        let back: RunManifest = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        assert_eq!(back.indicators.risk, None);
    }
}
