//! Property tests of the store's serialization and key derivation.

use proptest::prelude::*;
use secreta_data::ItemId;
use secreta_hierarchy::NodeId;
use secreta_metrics::{AnonTable, AnonTransaction, GenEntry, Indicators, PhaseTimes, RelColumn};
use secreta_obsv::{ProfileSpan, RunProfile};
use secreta_store::{anon_json, canonicalize, run_key, RunManifest, STORE_SCHEMA_VERSION};
use serde::Value;
use std::time::Duration;

/// A strategy over finite floats with awkward fractional parts. JSON
/// round-trips every finite f64 exactly (shortest-roundtrip
/// formatting), so any finite value must survive.
fn finite_f64() -> impl Strategy<Value = f64> {
    (any::<u32>(), 1u32..997).prop_map(|(n, d)| n as f64 / d as f64 - 1.0e6)
}

fn indicators_strategy() -> impl Strategy<Value = Indicators> {
    (
        (finite_f64(), finite_f64(), finite_f64(), finite_f64()),
        (finite_f64(), 0u64..u64::MAX / 2, finite_f64()),
        (finite_f64(), any::<bool>()),
    )
        .prop_map(
            |((gcp, tx_gcp, ul, are), (item_freq_error, discernibility, avg), (rt, verified))| {
                Indicators {
                    gcp,
                    tx_gcp,
                    ul,
                    are,
                    item_freq_error,
                    discernibility,
                    avg_class_size: avg,
                    runtime_ms: rt,
                    verified,
                    risk: None,
                }
            },
        )
}

fn phases_strategy() -> impl Strategy<Value = PhaseTimes> {
    prop::collection::vec((0usize..6, 0u64..10_000, 0u32..1_000_000_000), 0..5).prop_map(|v| {
        PhaseTimes {
            phases: v
                .into_iter()
                .map(|(name, secs, nanos)| (format!("phase{name}"), Duration::new(secs, nanos)))
                .collect(),
        }
    })
}

fn profile_strategy() -> impl Strategy<Value = Option<RunProfile>> {
    let span = (0usize..6, 0u64..10_000_000, 0u64..10_000_000, 0usize..3).prop_map(
        |(name, start_us, dur_us, n_children)| ProfileSpan {
            name: format!("span{name}"),
            start: Duration::from_micros(start_us),
            duration: Duration::from_micros(dur_us),
            children: (0..n_children)
                .map(|c| ProfileSpan {
                    name: format!("child{c}"),
                    start: Duration::from_micros(start_us),
                    duration: Duration::from_micros(dur_us / 2),
                    children: vec![],
                })
                .collect(),
        },
    );
    (
        any::<bool>(),
        prop::collection::vec(span, 0..4),
        prop::collection::vec((0usize..6, 0u64..u64::MAX / 2), 0..4),
        0u64..u64::MAX / 2,
    )
        .prop_map(|(some, spans, counters, peak)| {
            some.then(|| RunProfile {
                spans,
                counters: counters
                    .into_iter()
                    .map(|(n, v)| (format!("c{n}"), v))
                    .collect(),
                peak_rss_bytes: peak,
            })
        })
}

fn manifest_strategy() -> impl Strategy<Value = RunManifest> {
    (
        ("[a-f0-9]{64}", "[A-Za-z0-9_+()]{1,24}", 0u64..u64::MAX / 2),
        (0usize..4, finite_f64()), // sweep: index 3 = "no sweep"
        (0u64..u64::MAX / 2, indicators_strategy(), phases_strategy()),
        prop::collection::vec((0usize..8, 0u64..1000), 0..6),
        profile_strategy(),
    )
        .prop_map(
            |(
                (key, label, seed),
                (sweep_idx, sweep_val),
                (created, indicators, phases),
                config_fields,
                profile,
            )| {
                let params = ["k", "m", "δ"];
                let config = Value::Obj(
                    config_fields
                        .into_iter()
                        .map(|(name, v)| (format!("f{name}"), Value::U64(v)))
                        .collect(),
                );
                let sweep = params.get(sweep_idx).map(|p| (p.to_string(), sweep_val));
                RunManifest {
                    key,
                    schema_version: STORE_SCHEMA_VERSION,
                    context: "ctx".to_owned(),
                    label,
                    config,
                    seed,
                    sweep_param: sweep.as_ref().map(|(p, _)| p.clone()),
                    sweep_value: sweep.map(|(_, v)| v),
                    created_unix_ms: created,
                    indicators,
                    phases,
                    profile,
                    anon_sha256: None,
                }
            },
        )
}

/// A `u32` that is often at an edge: 0, a single digit, or `u32::MAX`.
fn edgy_u32() -> impl Strategy<Value = u32> {
    (0u8..4, any::<u32>()).prop_map(|(edge, n)| match edge {
        0 => 0,
        1 => n % 10,
        2 => u32::MAX,
        _ => n,
    })
}

/// A `usize` that is often 0 or small, sometimes anything.
fn edgy_usize() -> impl Strategy<Value = usize> {
    (0u8..3, any::<usize>()).prop_map(|(edge, n)| match edge {
        0 => 0,
        1 => n % 100,
        _ => n,
    })
}

/// Every `GenEntry` variant, an empty `Set` included.
fn entry_strategy() -> impl Strategy<Value = GenEntry> {
    (0u8..4, edgy_u32(), prop::collection::vec(edgy_u32(), 0..4)).prop_map(
        |(variant, n, values)| match variant {
            0 => GenEntry::Node(NodeId(n)),
            1 => GenEntry::Set(values),
            2 => GenEntry::Set(Vec::new()),
            _ => GenEntry::Suppressed,
        },
    )
}

fn column_strategy() -> impl Strategy<Value = RelColumn> {
    (
        edgy_usize(),
        prop::collection::vec(entry_strategy(), 0..4),
        prop::collection::vec(edgy_u32(), 0..6),
    )
        .prop_map(|(attr, domain, cells)| RelColumn {
            attr,
            domain,
            cells,
        })
}

/// A CSR transaction attribute built from per-row (item, multiplicity)
/// lists, so empty rows occur, with multiplicities up to `u16::MAX`.
fn transaction_strategy() -> impl Strategy<Value = AnonTransaction> {
    let occurrence = (edgy_u32(), (0u8..3, any::<u16>())).prop_map(|(item, (edge, m))| {
        let m = match edge {
            0 => 1,
            1 => u16::MAX,
            _ => m,
        };
        (item, m)
    });
    (
        prop::collection::vec(entry_strategy(), 0..4),
        prop::collection::vec(prop::collection::vec(occurrence, 0..3), 0..4),
        prop::collection::vec(edgy_u32(), 0..3),
    )
        .prop_map(|(domain, rows, suppressed)| {
            let mut offsets = vec![0u32];
            let (mut items, mut multiplicity) = (Vec::new(), Vec::new());
            for row in rows {
                for (item, m) in row {
                    items.push(item);
                    multiplicity.push(m);
                }
                offsets.push(items.len() as u32);
            }
            AnonTransaction {
                domain,
                offsets,
                items,
                multiplicity,
                suppressed: suppressed.into_iter().map(ItemId).collect(),
            }
        })
}

/// 0–3 relational columns, a transaction attribute or none, and a row
/// count that is often 0.
fn anon_strategy() -> impl Strategy<Value = AnonTable> {
    (
        prop::collection::vec(column_strategy(), 0..4),
        any::<bool>(),
        transaction_strategy(),
        edgy_usize(),
    )
        .prop_map(|(rel, has_tx, tx, n_rows)| AnonTable {
            rel,
            tx: has_tx.then_some(tx),
            n_rows,
        })
}

#[test]
fn anon_json_writes_the_documented_format() {
    let anon = AnonTable {
        rel: vec![RelColumn {
            attr: 2,
            domain: vec![
                GenEntry::Node(NodeId(7)),
                GenEntry::Set(vec![0, 41]),
                GenEntry::Set(Vec::new()),
                GenEntry::Suppressed,
            ],
            cells: vec![3, 0, 1],
        }],
        tx: Some(AnonTransaction {
            domain: vec![GenEntry::Set(vec![u32::MAX])],
            offsets: vec![0, 1, 1, 2],
            items: vec![0, 0],
            multiplicity: vec![1, u16::MAX],
            suppressed: vec![ItemId(5)],
        }),
        n_rows: 3,
    };
    let want = concat!(
        r#"{"rel":[{"attr":2,"domain":[{"Node":7},{"Set":[0,41]},{"Set":[]},"Suppressed"],"#,
        r#""cells":[3,0,1]}],"tx":{"domain":[{"Set":[4294967295]}],"offsets":[0,1,1,2],"#,
        r#""items":[0,0],"multiplicity":[1,65535],"suppressed":[5]},"n_rows":3}"#,
    );
    assert_eq!(String::from_utf8(anon_json::encode(&anon)).unwrap(), want);
    let empty = AnonTable {
        rel: Vec::new(),
        tx: None,
        n_rows: 0,
    };
    assert_eq!(
        anon_json::encode(&empty),
        br#"{"rel":[],"tx":null,"n_rows":0}"#
    );
}

/// Shuffle an object's fields (and, recursively, nested objects) by
/// rotating them, producing a semantically identical value.
fn rotate_fields(v: &Value, by: usize) -> Value {
    match v {
        Value::Obj(entries) if !entries.is_empty() => {
            let mut rotated: Vec<(String, Value)> = entries
                .iter()
                .map(|(k, val)| (k.clone(), rotate_fields(val, by)))
                .collect();
            rotated.rotate_left(by % entries.len());
            Value::Obj(rotated)
        }
        Value::Arr(items) => Value::Arr(items.iter().map(|x| rotate_fields(x, by)).collect()),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The encoder against the derived `Serialize` printed by
    /// `serde_json`, which shares no code with it, and the decoder
    /// reading the bytes back.
    #[test]
    fn anon_json_matches_the_serde_oracle(anon in anon_strategy()) {
        let bytes = anon_json::encode(&anon);
        let text = std::str::from_utf8(&bytes).unwrap();
        let oracle = serde_json::to_string(&anon).unwrap();
        prop_assert_eq!(text, oracle.as_str());
        let back: AnonTable = serde_json::from_str(text).unwrap();
        prop_assert_eq!(&back, &anon);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn manifest_serialization_round_trips(m in manifest_strategy()) {
        let json = serde_json::to_string(&m).unwrap();
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&m, &back);
        // and a second trip is byte-stable
        let json2 = serde_json::to_string(&back).unwrap();
        prop_assert_eq!(json, json2);
    }

    #[test]
    fn run_key_invariant_under_field_reordering(
        fields in prop::collection::vec(("[a-z]{1,6}", 0u64..1000), 1..8),
        seed in 0u64..1000,
        rot in 1usize..7,
    ) {
        let mut entries: Vec<(String, Value)> = fields
            .into_iter()
            .map(|(k, v)| (k, Value::U64(v)))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|a, b| a.0 == b.0);
        let config = Value::Obj(entries);
        let shuffled = rotate_fields(&config, rot);
        prop_assert_eq!(
            run_key("ctx", &config, seed, None),
            run_key("ctx", &shuffled, seed, None)
        );
        prop_assert_eq!(canonicalize(&config), canonicalize(&shuffled));
    }

    #[test]
    fn run_key_sensitive_to_semantic_changes(
        base in prop::collection::vec(("[a-z]{1,6}", 0u64..1000), 1..6),
        seed in 0u64..1000,
        bump in 1u64..100,
    ) {
        let mut entries: Vec<(String, Value)> = base
            .into_iter()
            .map(|(k, v)| (k, Value::U64(v)))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|a, b| a.0 == b.0);
        let config = Value::Obj(entries.clone());
        let key = run_key("ctx", &config, seed, None);

        // changing any one field value changes the key
        for i in 0..entries.len() {
            let mut changed = entries.clone();
            if let Value::U64(v) = changed[i].1 {
                changed[i].1 = Value::U64(v + bump);
            }
            prop_assert_ne!(&key, &run_key("ctx", &Value::Obj(changed), seed, None));
        }
        // changing the seed or the context changes the key
        prop_assert_ne!(&key, &run_key("ctx", &config, seed + bump, None));
        prop_assert_ne!(&key, &run_key("ctx2", &config, seed, None));
    }
}
