//! Property-based tests over the core data structures and invariants.

use miscela_v::miscela_core::evolving::extract_evolving;
use miscela_v::miscela_core::{Bitset, MiningParams};
use miscela_v::miscela_csv::data_csv::{self, DataBatch};
use miscela_v::miscela_csv::{CsvError, CsvReader};
use miscela_v::miscela_model::{
    AppendRowRef, GeoPoint, ModelError, SensorId, TimeSeries, Timestamp,
};
use miscela_v::miscela_server::ApiError;
use miscela_v::miscela_store::Json;
use proptest::prelude::*;

/// The digest of a value under one fixed-key hasher.
fn hash_of<T: std::hash::Hash>(value: &T) -> u64 {
    use std::hash::{DefaultHasher, Hasher};
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Timestamp format/parse round-trips for any representable time.
    #[test]
    fn timestamp_roundtrip(secs in -2_000_000_000i64..4_000_000_000i64) {
        let t = Timestamp::from_epoch_seconds(secs);
        let parsed = Timestamp::parse(&t.format()).unwrap();
        prop_assert_eq!(parsed, t);
    }

    /// Calendar fields stay in range for any timestamp.
    #[test]
    fn calendar_fields_in_range(secs in -2_000_000_000i64..4_000_000_000i64) {
        let t = Timestamp::from_epoch_seconds(secs);
        let (_, m, d) = t.ymd();
        let (h, mi, s) = t.hms();
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
        prop_assert!(h < 24 && mi < 60 && s < 60);
        prop_assert!(t.weekday() < 7);
    }

    /// Haversine distance is symmetric, non-negative and satisfies the
    /// identity of indiscernibles (approximately).
    #[test]
    fn haversine_properties(
        lat1 in -80.0f64..80.0, lon1 in -179.0f64..179.0,
        lat2 in -80.0f64..80.0, lon2 in -179.0f64..179.0,
    ) {
        let a = GeoPoint::new_unchecked(lat1, lon1);
        let b = GeoPoint::new_unchecked(lat2, lon2);
        let d1 = a.distance_km(&b);
        let d2 = b.distance_km(&a);
        prop_assert!(d1 >= 0.0);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!(a.distance_km(&a) < 1e-9);
        prop_assert!(d1 <= 20_100.0); // half the Earth's circumference plus slack
    }

    /// Bitset intersection count never exceeds either operand's count and
    /// and/or are consistent.
    #[test]
    fn bitset_invariants(
        idx_a in proptest::collection::vec(0usize..500, 0..80),
        idx_b in proptest::collection::vec(0usize..500, 0..80),
    ) {
        let a = Bitset::from_indices(500, &idx_a);
        let b = Bitset::from_indices(500, &idx_b);
        let and = a.and(&b);
        let or = a.or(&b);
        prop_assert_eq!(and.count(), a.and_count(&b));
        prop_assert!(and.count() <= a.count().min(b.count()));
        prop_assert!(or.count() >= a.count().max(b.count()));
        prop_assert_eq!(and.count() + or.count(), a.count() + b.count());
        // Round trip through indices.
        prop_assert_eq!(Bitset::from_indices(500, &a.indices()), a);
    }

    /// Evolving-event counts are monotone non-increasing in epsilon, and no
    /// timestamp is both up- and down-evolving for positive epsilon.
    #[test]
    fn evolving_monotone_in_epsilon(
        values in proptest::collection::vec(-50.0f64..50.0, 2..200),
        eps1 in 0.01f64..5.0,
        eps2 in 0.01f64..5.0,
    ) {
        let series = TimeSeries::from_values(values);
        let (lo, hi) = if eps1 <= eps2 { (eps1, eps2) } else { (eps2, eps1) };
        let e_lo = extract_evolving(&series, lo);
        let e_hi = extract_evolving(&series, hi);
        prop_assert!(e_hi.total() <= e_lo.total());
        prop_assert_eq!(e_lo.up().and_count(e_lo.down()), 0);
    }

    /// JSON serialization round-trips for arbitrary nested values built from
    /// a small recursive generator.
    #[test]
    fn json_roundtrip(value in json_strategy()) {
        let text = value.to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        prop_assert_eq!(parsed, value.clone());
        let pretty = value.to_string_pretty();
        prop_assert_eq!(Json::parse(&pretty).unwrap(), value);
    }

    /// data.csv rows round-trip through format/parse.
    #[test]
    fn data_csv_roundtrip(
        id in "[A-Za-z0-9_-]{1,12}",
        attr in "[A-Za-z][A-Za-z0-9 .]{0,15}",
        secs in 0i64..4_000_000_000i64,
        value in proptest::option::of(-1.0e6f64..1.0e6),
    ) {
        let sensor = SensorId::new(id);
        let attribute = attr.trim().to_string();
        let row = AppendRowRef {
            sensor: &sensor,
            attribute: &attribute,
            time: Timestamp::from_epoch_seconds(secs),
            value,
        };
        let line = data_csv::format_row(&row);
        let parsed = DataBatch::parse(&line).unwrap();
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(parsed.keys().len(), 1);
        let got = parsed.rows().next().unwrap();
        prop_assert_eq!(got.sensor, row.sensor);
        prop_assert_eq!(got.attribute, row.attribute);
        prop_assert_eq!(got.time, row.time);
        match (got.value, row.value) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() <= (b.abs() * 1e-6).max(1e-6)),
            (None, None) => {}
            other => prop_assert!(false, "value mismatch: {:?}", other),
        }
    }

    /// Parameter identity (`Eq`, `Hash` and the signature text) is exact:
    /// a change of ψ or μ, or a one-ulp step in ε, η or an effective
    /// tolerance, makes two settings unequal with different text, while a
    /// tolerance the pipeline does not read (segmentation off, or on at
    /// tolerance 0) changes neither equality, hash nor text.
    #[test]
    fn params_signature_distinguishes(
        psi1 in 1usize..100, psi2 in 1usize..100,
        mu1 in 2usize..6, mu2 in 2usize..6,
        eps in 0.0f64..5.0, eta in 0.001f64..10.0,
        tol in 0.001f64..1.0, unread_tol in 0.0f64..1.0,
    ) {
        let p1 = MiningParams::new().with_psi(psi1).with_mu(mu1);
        let p2 = MiningParams::new().with_psi(psi2).with_mu(mu2);
        let same = psi1 == psi2 && mu1 == mu2;
        prop_assert_eq!(p1 == p2, same);
        prop_assert_eq!(p1.signature() == p2.signature(), same);

        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let base = MiningParams::new()
            .with_epsilon(eps)
            .with_eta_km(eta)
            .with_segmentation(true)
            .with_segmentation_error(tol);
        for stepped in [
            base.clone().with_epsilon(next_up(eps)),
            base.clone().with_eta_km(next_up(eta)),
            base.clone().with_segmentation_error(next_up(tol)),
        ] {
            prop_assert_ne!(&base, &stepped);
            prop_assert_ne!(base.signature(), stepped.signature());
        }
        let off = base.clone().with_segmentation(false);
        for unread in [
            off.clone().with_segmentation_error(unread_tol),
            base.clone().with_segmentation_error(0.0),
        ] {
            prop_assert_eq!(&off, &unread);
            prop_assert_eq!(hash_of(&off), hash_of(&unread));
            prop_assert_eq!(off.signature(), unread.signature());
        }
    }

    /// Every byte-level truncation of a WAL's last record recovers exactly
    /// the longest committed prefix: the torn frame is detected at its
    /// offset (never replayed, never blamed on an earlier record), a cut at
    /// the frame boundary is a clean log, and the untruncated file scans in
    /// full.
    #[test]
    fn torn_wal_tail_recovers_the_longest_committed_prefix(
        payloads in proptest::collection::vec(json_strategy(), 1..5),
    ) {
        use miscela_v::miscela_store::wal::{frame_record, scan};
        let frames: Vec<String> = payloads.iter().map(frame_record).collect();
        let full: String = frames.concat();
        let bytes = full.as_bytes();
        let last_start = full.len() - frames.last().unwrap().len();
        let dir = std::env::temp_dir()
            .join(format!("miscela-props-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        for cut in last_start..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let scanned = scan(&path).unwrap();
            let committed = if cut == bytes.len() {
                payloads.len()
            } else {
                payloads.len() - 1
            };
            prop_assert_eq!(scanned.records.len(), committed, "cut at byte {}", cut);
            for (got, want) in scanned.records.iter().zip(payloads.iter()) {
                prop_assert_eq!(got, want, "cut at byte {}", cut);
            }
            prop_assert_eq!(
                scanned.valid_bytes as usize,
                if cut == bytes.len() { cut } else { last_start },
                "cut at byte {}",
                cut
            );
            match scanned.torn {
                None => prop_assert!(
                    cut == last_start || cut == bytes.len(),
                    "cut at byte {} should have torn the last frame",
                    cut
                ),
                Some(torn) => {
                    prop_assert_eq!(torn.offset as usize, last_start, "cut at byte {}", cut);
                    prop_assert_eq!(torn.bytes as usize, cut - last_start, "cut at byte {}", cut);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Time-series interpolation fills every gap (when at least one value is
    /// present) and never alters present values.
    #[test]
    fn interpolation_properties(
        values in proptest::collection::vec(proptest::option::of(-100.0f64..100.0), 1..100),
    ) {
        let series = TimeSeries::from_options(&values);
        let filled = series.interpolate_missing();
        prop_assert_eq!(filled.len(), series.len());
        if series.present_count() > 0 {
            prop_assert_eq!(filled.missing_count(), 0);
        }
        for (i, v) in series.present() {
            prop_assert!((filled.get(i).unwrap() - v).abs() < 1e-12);
        }
    }
}

/// Strategy producing small nested JSON values.
fn json_strategy() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (-1.0e9f64..1.0e9).prop_map(|n| Json::Number((n * 1e3).round() / 1e3)),
        "[a-zA-Z0-9 _.,:\\-]{0,20}".prop_map(Json::String),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Json::Array),
            proptest::collection::btree_map("[a-z]{1,8}", inner, 0..6).prop_map(Json::Object),
        ]
    })
}

// ---------------------------------------------------------------------------
// parsers and codecs on generated input
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The data.csv scanner, which splits unquoted lines in place, yields
    /// exactly the rows (or exactly the error) of parsing every line with
    /// `parse_line`.
    #[test]
    fn data_csv_scanner_matches_parse_line(
        lines in proptest::collection::vec(
            (csv_line_strategy(), prop_oneof![Just("\n"), Just("\r\n"), Just("\r\r\n")]),
            0..8,
        ),
        last_newline in any::<bool>(),
    ) {
        let mut doc: String = lines.iter().map(|(line, end)| format!("{line}{end}")).collect();
        if !last_newline {
            doc.truncate(doc.trim_end_matches(['\r', '\n']).len());
        }
        let scanned = DataBatch::parse(&doc).map(|batch| {
            batch
                .rows()
                .map(|r| (r.sensor.as_str().to_string(), r.attribute.to_string(), r.time, r.value.map(f64::to_bits)))
                .collect::<Vec<_>>()
        });
        prop_assert_eq!(scanned, parse_line_reference(&doc), "document {:?}", doc);
    }

    /// Strings survive the JSON codec whatever they contain: control
    /// characters, quotes, backslashes and multi-byte UTF-8, as values and
    /// as object keys.
    #[test]
    fn json_string_roundtrip(chars in proptest::collection::vec(json_char_strategy(), 0..48)) {
        let s: String = chars.into_iter().collect();
        let encoded = Json::from(s.as_str()).to_string_compact();
        prop_assert!(!encoded.bytes().any(|b| b < 0x20), "raw control byte in {:?}", encoded);
        prop_assert_eq!(Json::parse(&encoded).unwrap(), Json::String(s.clone()));
        let object = Json::from_pairs([(s.clone(), Json::from(s.as_str()))]);
        prop_assert_eq!(Json::parse(&object.to_string_compact()).unwrap(), object.clone());
        prop_assert_eq!(Json::parse(&object.to_string_pretty()).unwrap(), object);
    }

    /// `Timestamp::parse` on arbitrary strings — including digit runs long
    /// enough to overflow any integer — returns a timestamp or a typed
    /// error, never panics, and anything it accepts formats back to the
    /// same instant.
    #[test]
    fn timestamp_parse_never_panics(s in timestamp_text_strategy()) {
        match Timestamp::parse(&s) {
            Ok(t) => prop_assert_eq!(Timestamp::parse(&t.format()), Ok(t)),
            Err(e) => prop_assert!(matches!(e, ModelError::InvalidTimestamp(_)), "{:?}", e),
        }
    }

    /// The integer writer appends exactly `format_number`'s bytes for every
    /// `f64`: integers on both sides of 2^53, signed zeros, fractions and
    /// the non-finite values.
    #[test]
    fn write_number_matches_format_number(n in f64_strategy()) {
        use miscela_v::miscela_store::json::{format_number, write_number};
        let mut out = String::from("[");
        write_number(&mut out, n);
        prop_assert_eq!(&out[1..], format_number(n).as_str(), "{:?} ({:#x})", n, n.to_bits());
    }

    /// A plain integer parses to the bits `str::parse::<f64>` gives, with or
    /// without a sign and leading zeros, whether it is short enough for the
    /// integer fast path (at most 15 digits) or not.
    #[test]
    fn integer_parse_matches_str_parse(text in integer_text_strategy()) {
        let parsed = Json::parse(&text);
        let Ok(Json::Number(n)) = parsed else {
            panic!("{text:?} parsed to {parsed:?}");
        };
        prop_assert_eq!(n.to_bits(), text.parse::<f64>().unwrap().to_bits(), "{}", text);
    }

    /// The direct CAP set writer gives the bytes of serializing the tree.
    #[test]
    fn capset_text_matches_the_tree(caps in capset_strategy()) {
        use miscela_v::miscela_cache::codec::{capset_to_json, capset_to_text};
        prop_assert_eq!(capset_to_text(&caps), capset_to_json(&caps).to_string_compact());
    }

    /// `wal::scan` on arbitrary bytes, including length headers of 19 and
    /// 20 digits that overflow the frame arithmetic, returns the longest
    /// valid prefix and a torn tail; it never panics.
    #[test]
    fn wal_scan_never_panics(pieces in proptest::collection::vec(wal_piece_strategy(), 0..5)) {
        use miscela_v::miscela_store::wal::scan;
        let bytes = pieces.concat();
        let dir = std::env::temp_dir()
            .join(format!("miscela-props-wal-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        std::fs::write(&path, &bytes).unwrap();
        let scanned = scan(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let valid = scanned.valid_bytes as usize;
        prop_assert!(valid <= bytes.len());
        match scanned.torn {
            None => prop_assert_eq!(valid, bytes.len()),
            Some(torn) => {
                prop_assert_eq!(torn.offset as usize, valid);
                prop_assert_eq!(torn.bytes as usize, bytes.len() - valid);
            }
        }
    }

    /// `Json::parse` on arbitrary input returns a value or a typed error;
    /// it never panics or overflows the stack, however deep the nesting.
    #[test]
    fn json_parse_never_panics(
        open in 0usize..300,
        bytes in proptest::collection::vec(json_byte_strategy(), 0..64),
    ) {
        let mut input = "[".repeat(open);
        input.push_str(&String::from_utf8_lossy(&bytes));
        match Json::parse(&input) {
            Ok(value) => prop_assert!(Json::parse(&value.to_string_compact()).is_ok()),
            Err(e) => prop_assert!(e.position <= input.len(), "{} in {:?}", e, input),
        }
    }
}

// ---------------------------------------------------------------------------
// durable records and upload documents: typed errors, never a panic
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A WAL record of any shape decodes or is a typed error.
    #[test]
    fn wal_record_parse_never_panics(record in durable_doc_strategy(WAL_FIELDS, WAL_OPS)) {
        use miscela_v::miscela_server::durability::parse_op;
        if let Err(e) = parse_op(&record) {
            prop_assert!(matches!(e, ApiError::Internal(_)), "{:?} for {}", e, record);
        }
    }

    /// A snapshot's idempotency entry of any shape decodes or is a typed
    /// error.
    #[test]
    fn replay_entry_parse_never_panics(
        entry in durable_doc_strategy(REPLAY_FIELDS, REPLAY_KINDS),
    ) {
        use miscela_v::miscela_server::durability::parse_replay_entry;
        if let Err(e) = parse_replay_entry(&entry) {
            prop_assert!(matches!(e, ApiError::Internal(_)), "{:?} for {}", e, entry);
        }
    }

    /// A snapshot with any of its fields replaced, removed or retyped, or
    /// any JSON at all, restores or is a typed error.
    #[test]
    fn snapshot_restore_never_panics(
        edits in proptest::collection::vec(
            (0usize..SNAPSHOT_PATHS.len(), proptest::option::of(durable_value_strategy())),
            0..4,
        ),
        other in json_strategy(),
        use_other in 0u8..8,
    ) {
        use miscela_v::miscela_server::durability::restore_dataset;
        let snapshot = if use_other == 0 {
            other
        } else {
            let mut doc = snapshot_fixture().clone();
            for (path, value) in edits {
                set_path(&mut doc, SNAPSHOT_PATHS[path], value);
            }
            doc
        };
        if let Err(e) = restore_dataset(&snapshot) {
            prop_assert!(matches!(e, ApiError::Internal(_)), "{:?} for {}", e, snapshot);
        }
    }

    /// `location.csv` and `attribute.csv` of arbitrary bytes parse or are
    /// typed errors; what parses is valid.
    #[test]
    fn upload_documents_parse_never_panics(doc in upload_document_strategy()) {
        use miscela_v::miscela_csv::{attribute_csv, location_csv};
        if let Ok(rows) = location_csv::parse_document(&doc) {
            prop_assert!(!rows.is_empty());
            for row in rows {
                prop_assert!((-90.0..=90.0).contains(&row.location.lat), "{:?}", row);
                prop_assert!((-180.0..=180.0).contains(&row.location.lon), "{:?}", row);
            }
        }
        if let Ok(names) = attribute_csv::parse_document(&doc) {
            prop_assert!(!names.is_empty());
            prop_assert!(names.iter().all(|n| !n.is_empty() && n.trim() == n), "{:?}", names);
        }
    }
}

/// Every field a WAL record can carry.
const WAL_FIELDS: &[&str] = &[
    "op",
    "session",
    "key",
    "seq",
    "index",
    "total",
    "content",
    "revision",
    "elapsed_ns",
    "new_timestamps",
    "measurements",
    "trimmed_timestamps",
    "timestamps",
];
const WAL_OPS: &[&str] = &["begin", "chunk", "commit"];

/// Every field an idempotency entry can carry.
const REPLAY_FIELDS: &[&str] = &[
    "kind",
    "key",
    "name",
    "session",
    "new_timestamps",
    "measurements",
    "trimmed_timestamps",
    "trimmed_total",
    "timestamps",
    "revision",
    "elapsed_ns",
    "sensors",
    "records",
    "attributes",
];
const REPLAY_KINDS: &[&str] = &[
    "upload_begin",
    "begin",
    "finish",
    "retention",
    "register",
    "delete",
];

/// Fields of the snapshot fixture to replace or remove, as dotted paths
/// through objects and array indexes.
const SNAPSHOT_PATHS: &[&str] = &[
    "name",
    "revision",
    "applied_session",
    "grid",
    "grid.start",
    "grid.interval",
    "grid.len",
    "attributes",
    "attributes.0",
    "retention",
    "retention.max_timestamps",
    "retention.max_age",
    "idempotency",
    "idempotency.0.kind",
    "idempotency.0.session",
    "sensors",
    "sensors.0",
    "sensors.0.id",
    "sensors.0.attribute",
    "sensors.0.lat",
    "sensors.0.lon",
    "sensors.0.values",
    "sensors.0.values.1",
    "sensors.1.id",
    "sensors.1.values",
];

/// A well-formed record (the first of `fields` set to one of `names`, every
/// other field an in-range number, `key`/`name`/`content` strings) with
/// up to seven fields replaced, removed or retyped; or any JSON at all.
fn durable_doc_strategy(
    fields: &'static [&'static str],
    names: &'static [&'static str],
) -> impl Strategy<Value = Json> {
    let edited = (
        0..names.len(),
        proptest::collection::vec(
            (
                0..fields.len(),
                proptest::option::of(durable_value_strategy()),
            ),
            0..8,
        ),
    )
        .prop_map(move |(name, edits)| {
            let mut doc = Json::from_pairs(fields.iter().map(|&field| {
                let value = match field {
                    "key" | "name" => Json::from("k"),
                    "content" => Json::from("s1,temperature,2016-03-01 00:00:00,1.5\n"),
                    "attributes" => Json::from(vec!["temperature"]),
                    _ => Json::from(1i64),
                };
                (field, value)
            }));
            doc.set(fields[0], Json::from(names[name]));
            for (field, value) in edits {
                set_path(&mut doc, fields[field], value);
            }
            doc
        });
    (0u8..4, edited, json_strategy())
        .prop_map(|(pick, edited, any)| if pick == 0 { any } else { edited })
}

/// Values a corrupt durable file may hold where a number, string or array
/// belongs: extreme and fractional numbers (non-finite ones too, as a
/// tree built in memory may hold them), negative counts, names of other
/// operations, and nested JSON.
fn durable_value_strategy() -> impl Strategy<Value = Json> {
    let extreme = prop_oneof![
        Just(-1.0),
        Just(-0.5),
        Just(0.5),
        Just(i64::MAX as f64),
        Just(i64::MIN as f64),
        Just(u64::MAX as f64),
        Just(9_007_199_254_740_993.0),
        Just(1e300),
        Just(-1e300),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ];
    prop_oneof![
        extreme.prop_map(Json::Number),
        (-3i64..8).prop_map(Json::from),
        (-1i64..2).prop_map(Json::from),
        prop_oneof![
            "begin",
            "chunk",
            "commit",
            "finish",
            "register",
            "delete",
            "[a-z]{0,6}"
        ]
        .prop_map(Json::from),
        proptest::collection::vec((-2i64..5).prop_map(Json::from), 0..5).prop_map(Json::Array),
        json_strategy(),
    ]
}

/// Replaces (`Some`) or removes (`None`) the value at a dotted path of
/// object keys and array indexes; a path that does not resolve is left
/// alone.
fn set_path(doc: &mut Json, path: &str, value: Option<Json>) {
    let (parent, last) = match path.rsplit_once('.') {
        Some((parent, last)) => (Some(parent), last),
        None => (None, path),
    };
    let mut node = doc;
    for part in parent.into_iter().flat_map(|p| p.split('.')) {
        node = match node {
            Json::Object(map) => match map.get_mut(part) {
                Some(next) => next,
                None => return,
            },
            Json::Array(items) => match part.parse::<usize>().ok().and_then(|i| items.get_mut(i)) {
                Some(next) => next,
                None => return,
            },
            _ => return,
        };
    }
    match (node, value) {
        (Json::Object(map), Some(value)) => {
            map.insert(last.to_string(), value);
        }
        (Json::Object(map), None) => {
            map.remove(last);
        }
        (Json::Array(items), value) => {
            if let Some(i) = last.parse::<usize>().ok().filter(|&i| i < items.len()) {
                match value {
                    Some(value) => items[i] = value,
                    None => {
                        items.remove(i);
                    }
                }
            }
        }
        _ => {}
    }
}

/// The snapshot of a two-sensor, three-point dataset with a retention
/// policy and one idempotency entry.
fn snapshot_fixture() -> &'static Json {
    use miscela_v::miscela_model::{DatasetBuilder, Duration, RetentionPolicy, TimeGrid};
    use miscela_v::miscela_server::durability::snapshot_data;
    use miscela_v::miscela_server::service::ReplayOutcome;
    static FIXTURE: std::sync::OnceLock<Json> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut b = DatasetBuilder::new("fixture");
        let start = Timestamp::parse("2016-03-01 00:00:00").unwrap();
        b.set_grid(TimeGrid::new(start, Duration::hours(1), 3).unwrap());
        for (id, attribute) in [("s1", "temperature"), ("s2", "traffic")] {
            let idx = b
                .add_sensor(id, attribute, GeoPoint::new_unchecked(43.46, -3.80))
                .unwrap();
            b.set_series(
                idx,
                TimeSeries::from_options(&[Some(1.5), None, Some(-2.0)]),
            )
            .unwrap();
        }
        b.set_retention(RetentionPolicy::keep_last(2));
        let ds = b.build().unwrap();
        snapshot_data(
            &ds,
            3,
            1,
            &[("k".to_string(), ReplayOutcome::Begin { session: 1 })],
        )
    })
}

/// `location.csv`/`attribute.csv`-like text: arbitrary bytes, CSV
/// structure, number-like runs and the documents' own words.
fn upload_document_strategy() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..8)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
        "[,\"\r\n ]{1,3}",
        "[0-9.eE+\\-]{1,8}",
        prop_oneof![
            "id,attribute,lat,lon",
            "ID,Attribute,LAT,lon",
            "attribute",
            "temperature",
            "NaN",
            "inf",
            "-inf",
            "1e999",
            "90.0000001",
            "-180",
            "43.46,-3.80",
            "\"a,\"\"b\""
        ],
    ];
    proptest::collection::vec(piece, 0..12).prop_map(|pieces| pieces.concat())
}

/// Any `f64`: every bit pattern, integers around 2^53 and from 1e15 to
/// 1e20, fractions, signed zeros and the non-finite values.
fn f64_strategy() -> impl Strategy<Value = f64> {
    const TWO_53: f64 = 9_007_199_254_740_992.0;
    prop_oneof![
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(TWO_53 - 1.0),
            Just(1.0 - TWO_53),
            Just(TWO_53),
            Just(-TWO_53),
            Just(1e15),
            Just(1e20),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ],
        any::<u64>().prop_map(f64::from_bits),
        any::<i64>().prop_map(|n| n as f64),
        (1e15f64..1e20).prop_map(f64::trunc),
        (-1e20f64..-1e15).prop_map(f64::trunc),
        -1e6f64..1e6,
        (-1e6f64..1e6).prop_map(f64::trunc),
    ]
}

/// Plain JSON integers: an optional minus sign and 1 to 20 digits, often
/// with leading zeros.
fn integer_text_strategy() -> impl Strategy<Value = String> {
    let digits = prop_oneof!["[0-9]{1,20}", "[0]{1,4}[0-9]{0,14}", "[0-9]{15,16}"];
    (prop_oneof![Just(""), Just("-")], digits).prop_map(|(sign, digits)| format!("{sign}{digits}"))
}

/// CAP sets of up to four CAPs over any sensors, attributes and
/// timestamps, `u32::MAX` included; the empty set too.
fn capset_strategy() -> impl Strategy<Value = miscela_v::miscela_core::CapSet> {
    use miscela_v::miscela_core::{Cap, CapMember, CapSet, Direction};
    use miscela_v::miscela_model::{AttributeId, SensorIndex};
    let index = || prop_oneof![0u32..600, Just(u32::MAX), any::<u32>()];
    let member = (index(), any::<bool>()).prop_map(|(sensor, up)| CapMember {
        sensor: SensorIndex(sensor),
        direction: if up { Direction::Up } else { Direction::Down },
    });
    let attribute = prop_oneof![0u16..8, Just(u16::MAX)];
    let cap = (
        proptest::collection::vec(member, 0..5),
        proptest::collection::vec(attribute, 0..4),
        proptest::collection::vec(index(), 0..10),
    )
        .prop_map(|(members, attributes, timestamps)| {
            Cap::new(
                members,
                attributes.into_iter().map(AttributeId).collect(),
                timestamps,
            )
        });
    proptest::collection::vec(cap, 0..5).prop_map(CapSet::from_caps)
}

/// Pieces of a WAL file: valid frames, frame-shaped records whose length
/// header is any 1 to 20 digits (often 19 or 20, and often just below
/// `u64::MAX`, where adding the frame overhead overflows), and arbitrary
/// bytes.
fn wal_piece_strategy() -> impl Strategy<Value = Vec<u8>> {
    use miscela_v::miscela_store::wal::frame_record;
    let length = prop_oneof![
        "[0-9]{1,3}",
        "[0-9]{19,20}",
        "18446744073709551[56][0-9]{2}"
    ];
    let shaped = (
        length,
        "[0-9a-f]{14,17}",
        "[{}\\[\\]0-9a-z\":,]{0,12}",
        any::<bool>(),
    )
        .prop_map(|(len, checksum, payload, newline)| {
            let end = if newline { "\n" } else { "" };
            format!("{len}:{checksum}:{payload}{end}").into_bytes()
        });
    prop_oneof![
        json_strategy().prop_map(|j| frame_record(&j).into_bytes()),
        shaped,
        proptest::collection::vec(any::<u8>(), 0..24),
    ]
}

/// Timestamp-like strings: a well-formed `YYYY-MM-DD HH:MM:SS` whose year
/// is any digit run (up to 30 digits, far past what `i64` holds), or a
/// concatenation of digit runs, the format's separators and arbitrary text.
fn timestamp_text_strategy() -> impl Strategy<Value = String> {
    let year = || prop_oneof!["[0-9]{1,4}", "[0-9]{5,30}"];
    let skeleton = (
        year(),
        "[0][1-9]-[1-2][0-8] [0-1][0-9]:[0-5][0-9]:[0-5][0-9]",
    )
        .prop_map(|(year, rest)| format!("{year}-{rest}"));
    let pieces = proptest::collection::vec(
        prop_oneof![year(), "[- :T]", "[a-zA-Z0-9 _.,:\\-]{0,6}"],
        0..8,
    )
    .prop_map(|pieces| pieces.concat());
    prop_oneof![skeleton, pieces]
}

/// One `data.csv` line: mostly rows whose fields are drawn per column
/// (well-formed, quoted, padded, occasionally malformed), plus lines of 3
/// to 5 arbitrary fields, headers in any letter case, and blanks.
fn csv_line_strategy() -> impl Strategy<Value = String> {
    fn pool(fields: &[&str], random: &'static str) -> BoxedStrategy<String> {
        let mut arms: Vec<BoxedStrategy<String>> =
            fields.iter().map(|f| Just(f.to_string()).boxed()).collect();
        arms.push(random.boxed());
        proptest::strategy::Union::new(arms).boxed()
    }
    let id = pool(
        &[
            "s1",
            " 00042 ",
            "\"s,1\"",
            "\"say \"\"hi\"\"\"",
            "  \"q\" ",
            "ID",
            "s1",
            "s2",
        ],
        "[a-z0-9 .\t]{1,6}",
    );
    let attribute = pool(
        &[
            "temperature",
            "\tPM2.5 ",
            "\"traffic, volume\"",
            "Attribute",
            "temperature",
        ],
        "[a-z .\t]{1,6}",
    );
    let time = pool(
        &[
            "2016-03-01 00:00:00",
            " 2016-03-01 05:00:00\t",
            "\" 2016-03-01 01:00:00\"",
            "2016-03-01T02:00",
            "2016-03-01",
            "2016-03-01 00:00:00",
            "not-a-time",
            " 2016-13-01 00:00:00\t",
        ],
        "2016-0[1-3]-0[1-9] [0-2][0-9]:00:00",
    );
    let value = pool(
        &[
            "9.87", "null", "NaN", "", " -3.5e2 ", "\"1.5\"", "abc", "DATA", "120",
        ],
        "[0-9]{1,4}",
    );
    let row = (id, attribute, time, value).prop_map(|(i, a, t, v)| format!("{i},{a},{t},{v}"));
    let chaos = pool(
        &[
            "\"unterminated",
            "\"closed\"junk",
            "\"quoted, comma\"",
            "9.87",
            "s1",
        ],
        "[a-z0-9 .,\t\r\"]{0,6}",
    );
    // Any letter case; bits past the letters pad a field with a space.
    let header = any::<u32>().prop_map(|bits| {
        let cased: String = "id,attribute,time,data"
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if bits >> i & 1 == 1 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect();
        cased
            .split(',')
            .enumerate()
            .map(|(i, f)| {
                if bits >> (24 + i) & 1 == 1 {
                    format!(" {f} ")
                } else {
                    f.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join(",")
    });
    prop_oneof![
        row.clone(),
        row.clone(),
        row.clone(),
        row.clone(),
        row.clone(),
        row,
        proptest::collection::vec(chaos, 3..6).prop_map(|f| f.join(",")),
        header,
        prop_oneof![
            Just(String::new()),
            Just("  \t ".to_string()),
            Just("\r".to_string())
        ],
    ]
}

/// `data.csv` parsed the way the row-per-`Vec<String>` parser did: every
/// non-blank line through `parse_line`, header skipped, then the four
/// fields checked in order (count, time, value).
#[allow(clippy::type_complexity)]
fn parse_line_reference(
    doc: &str,
) -> Result<Vec<(String, String, Timestamp, Option<u64>)>, CsvError> {
    let mut rows = Vec::new();
    for (line, fields) in CsvReader::new(doc) {
        let fields = fields?;
        if data_csv::is_header(&fields) {
            continue;
        }
        if fields.len() != 4 {
            return Err(CsvError::WrongFieldCount {
                file: "data.csv",
                line,
                expected: 4,
                actual: fields.len(),
            });
        }
        let time = Timestamp::parse(&fields[2]).map_err(|_| CsvError::BadField {
            file: "data.csv",
            line,
            field: "time",
            value: fields[2].clone(),
        })?;
        let value = data_csv::parse_value(&fields[3], line)?;
        rows.push((
            fields[0].trim().to_string(),
            fields[1].trim().to_string(),
            time,
            value.map(f64::to_bits),
        ));
    }
    Ok(rows)
}

/// Characters the JSON string codec must treat specially, plus ordinary
/// ASCII and 2-, 3- and 4-byte UTF-8.
fn json_char_strategy() -> impl Strategy<Value = char> {
    prop_oneof![
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        Just('"'),
        Just('\\'),
        Just('/'),
        Just('\u{7f}'),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        prop_oneof![
            Just('é'),
            Just('大'),
            Just('阪'),
            Just('✓'),
            Just('𝄞'),
            Just('\u{FFFD}')
        ],
        (0x80u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{10FFFF}')),
    ]
}

/// Bytes weighted toward JSON's structural characters, so arbitrary input
/// reaches deep into the parser.
fn json_byte_strategy() -> impl Strategy<Value = u8> {
    prop_oneof![
        any::<u8>(),
        prop_oneof![
            Just(b'['),
            Just(b']'),
            Just(b'{'),
            Just(b'}'),
            Just(b'"'),
            Just(b'\\'),
            Just(b':'),
            Just(b','),
        ],
        prop_oneof![
            Just(b'u'),
            Just(b'0'),
            Just(b'-'),
            Just(b'e'),
            Just(b'n'),
            Just(b't')
        ],
    ]
}

// ---------------------------------------------------------------------------
// chaos-transport convergence
// ---------------------------------------------------------------------------

/// A small register → append → mine fixture shared by every chaos schedule
/// (generated once: the property varies the chaos, not the data), plus the
/// clean twin's final state to converge to.
struct ChaosFixture {
    location_csv: String,
    attribute_csv: String,
    prefix_csv: String,
    tail_csv: String,
    twin_caps: String,
    twin_snapshot: String,
    twin_revision: u64,
}

fn chaos_fixture() -> &'static ChaosFixture {
    use miscela_v::miscela_csv::DatasetWriter;
    use miscela_v::miscela_datagen::SantanderGenerator;
    static FIXTURE: std::sync::OnceLock<ChaosFixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let full = SantanderGenerator::small().with_scale(0.01).generate();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 24).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let writer = DatasetWriter::new();
        let fx = ChaosFixture {
            location_csv: writer.location_csv(&prefix),
            attribute_csv: writer.attribute_csv(&prefix),
            prefix_csv: writer.data_csv(&prefix),
            tail_csv: writer.data_csv(&tail),
            twin_caps: String::new(),
            twin_snapshot: String::new(),
            twin_revision: 0,
        };
        let (caps, snapshot, revision) =
            chaos_workflow(&fx, None, 0).expect("the clean twin must converge");
        ChaosFixture {
            twin_caps: caps,
            twin_snapshot: snapshot,
            twin_revision: revision,
            ..fx
        }
    })
}

/// Runs register → append → mine through a resilient client — over perfect
/// transport when `config` is `None`, through seeded chaos otherwise —
/// and returns (mined caps JSON, final snapshot encoding, final revision).
/// Also asserts the client's per-request backoff budget held.
fn chaos_workflow(
    fx: &ChaosFixture,
    config: Option<miscela_v::miscela_server::client::ChaosConfig>,
    seed: u64,
) -> Result<(String, String, u64), String> {
    use miscela_v::miscela_server::client::{
        ChaosTransport, ResilientClient, RetryPolicy, RouterTransport,
    };
    use miscela_v::miscela_server::durability::snapshot_data;
    use miscela_v::miscela_server::{MiscelaService, Router, DEFAULT_TENANT};
    use std::sync::Arc;

    let service = Arc::new(MiscelaService::new());
    let router = Arc::new(Router::new(Arc::clone(&service)));
    let inner = RouterTransport::new(router);
    let mine_body = Json::from_pairs([
        ("epsilon", Json::from(0.4)),
        ("eta_km", Json::from(0.5)),
        ("mu", Json::from(3i64)),
        ("psi", Json::from(20usize)),
        ("segmentation", Json::from(false)),
    ]);
    let run = |caps: Result<Json, _>, budget_held: bool| -> Result<(String, String, u64), String> {
        let caps = caps.map_err(|e| format!("mine failed: {e}"))?;
        if !budget_held {
            return Err("per-request backoff exceeded the budget".to_string());
        }
        let ds = service
            .dataset_in(DEFAULT_TENANT, "prop")
            .map_err(|e| format!("dataset lost: {e:?}"))?;
        let revision = service.dataset_revision_in(DEFAULT_TENANT, "prop").unwrap();
        Ok((
            caps.get("caps").unwrap().to_string_compact(),
            snapshot_data(&ds, revision, 0, &[]).to_string(),
            revision,
        ))
    };
    match config {
        None => {
            let mut client = ResilientClient::new(inner, "twin");
            client
                .register(
                    "prop",
                    &fx.location_csv,
                    &fx.attribute_csv,
                    &fx.prefix_csv,
                    500,
                )
                .map_err(|e| format!("twin register failed: {e}"))?;
            client
                .append("prop", &fx.tail_csv, 100)
                .map_err(|e| format!("twin append failed: {e}"))?;
            let caps = client.mine("prop", mine_body);
            run(caps, true)
        }
        Some(config) => {
            let chaos = ChaosTransport::new(inner, config, seed);
            let mut client = ResilientClient::new(chaos, format!("prop-{seed}"));
            client
                .register(
                    "prop",
                    &fx.location_csv,
                    &fx.attribute_csv,
                    &fx.prefix_csv,
                    500,
                )
                .map_err(|e| format!("register failed: {e}"))?;
            client
                .append("prop", &fx.tail_csv, 100)
                .map_err(|e| format!("append failed: {e}"))?;
            let caps = client.mine("prop", mine_body);
            client.transport_mut().drain();
            let budget_held =
                client.stats().max_request_slept_ms <= RetryPolicy::default().budget_ms;
            run(caps, budget_held)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seeded schedule of request drops, response drops, duplicated
    /// and delayed deliveries converges to the clean twin's exact CapSet,
    /// snapshot bytes and revision — and the client never backs off past
    /// its per-request budget.
    #[test]
    fn chaos_schedules_converge_to_the_clean_twin(
        seed in 0u64..1_000_000,
        drop_request in 0.0f64..0.3,
        drop_response in 0.0f64..0.3,
        duplicate in 0.0f64..0.3,
        delay in 0.0f64..0.2,
    ) {
        use miscela_v::miscela_server::client::ChaosConfig;
        let fx = chaos_fixture();
        let config = ChaosConfig {
            drop_request,
            delay_request: delay,
            duplicate_request: duplicate,
            drop_response,
            max_delayed: 4,
        };
        let (caps, snapshot, revision) = chaos_workflow(fx, Some(config), seed)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        prop_assert_eq!(&caps, &fx.twin_caps, "CapSet diverged under chaos");
        prop_assert_eq!(&snapshot, &fx.twin_snapshot, "snapshot bytes diverged under chaos");
        prop_assert_eq!(revision, fx.twin_revision, "revision diverged under chaos");
    }
}

// ---------------------------------------------------------------------------
// append sessions across a restart
// ---------------------------------------------------------------------------

/// The location/attribute/prefix documents of a small registered dataset
/// and the tail chunks an append session streams into it, generated once.
struct AppendFixture {
    location_csv: String,
    attribute_csv: String,
    prefix_csv: String,
    chunks: Vec<miscela_v::miscela_csv::chunk::Chunk>,
}

fn append_fixture() -> &'static AppendFixture {
    use miscela_v::miscela_csv::{split_into_chunks, DatasetWriter};
    use miscela_v::miscela_datagen::SantanderGenerator;
    static FIXTURE: std::sync::OnceLock<AppendFixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let full = SantanderGenerator::small().with_scale(0.01).generate();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 12).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let writer = DatasetWriter::new();
        let chunks = split_into_chunks(&writer.data_csv(&tail), 20);
        assert!(chunks.len() >= 4, "the tail must span several chunks");
        AppendFixture {
            location_csv: writer.location_csv(&prefix),
            attribute_csv: writer.attribute_csv(&prefix),
            prefix_csv: writer.data_csv(&prefix),
            chunks,
        }
    })
}

/// One step of an append-session script. Sequence numbers and session ids
/// are drawn relative to the session's state when the step runs.
#[derive(Debug, Clone)]
enum AppendStep {
    /// The next sequence number.
    InOrder(usize),
    /// A sequence number `back` below the next one (the next one itself
    /// while nothing is acknowledged yet).
    Duplicate(usize, u64),
    /// A sequence number `ahead + 1` past the next one.
    Gap(usize, u64),
    /// The next sequence number, under a session id `ahead + 1` past the
    /// open one.
    Stale(usize, u64),
    /// An unsequenced delivery.
    Unsequenced(usize),
    /// A keyed retention change: a snapshot that re-logs the session.
    Retention,
}

fn append_step_strategy() -> impl Strategy<Value = AppendStep> {
    (0u8..6, 0usize..8, 0u64..3).prop_map(|(kind, index, offset)| match kind {
        0 => AppendStep::InOrder(index),
        1 => AppendStep::Duplicate(index, offset),
        2 => AppendStep::Gap(index, offset),
        3 => AppendStep::Stale(index, offset),
        4 => AppendStep::Unsequenced(index),
        _ => AppendStep::Retention,
    })
}

/// What a client can observe of a chunk answer: the ack, or the error's
/// status with the watermark a typed 412 carries.
fn observed<T: std::fmt::Debug>(
    answer: Result<T, ApiError>,
) -> Result<String, (u16, Option<(u64, u64)>)> {
    answer.map(|ok| format!("{ok:?}")).map_err(|e| {
        let watermark = match e {
            ApiError::SequenceGap {
                expected_session,
                expected_seq,
                ..
            } => Some((expected_session, expected_seq)),
            _ => None,
        };
        (e.status().as_u16(), watermark)
    })
}

/// Runs `script` on two durable services in two directories, restarting the
/// second before step `restart_at` (after the last step when it is past
/// the end), and finishes the session on both. Every status, delivery
/// answer and final state must agree.
fn append_twins_agree(script: &[AppendStep], restart_at: usize) {
    use miscela_v::miscela_model::RetentionPolicy;
    use miscela_v::miscela_server::{MiscelaService, DEFAULT_TENANT};
    use std::sync::atomic::{AtomicU64, Ordering};

    static CASE: AtomicU64 = AtomicU64::new(0);
    let fx = append_fixture();
    let root = std::env::temp_dir().join(format!(
        "miscela-append-twins-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let (dir_a, dir_b) = (root.join("a"), root.join("b"));
    let name = "prop";
    let open = |dir: &std::path::Path| MiscelaService::with_durability(dir).unwrap();
    let (a, mut b) = (open(&dir_a), open(&dir_b));
    for svc in [&a, &b] {
        svc.upload_documents_in(
            DEFAULT_TENANT,
            name,
            &fx.prefix_csv,
            &fx.location_csv,
            &fx.attribute_csv,
            10_000,
        )
        .unwrap();
        svc.begin_append_keyed_in(DEFAULT_TENANT, name, None)
            .unwrap();
    }
    let status = |svc: &MiscelaService| svc.append_status_in(DEFAULT_TENANT, name).unwrap();
    for (i, step) in script.iter().enumerate() {
        if i == restart_at {
            drop(b);
            b = open(&dir_b);
        }
        let live = status(&a).unwrap();
        assert_eq!(
            Some(live),
            status(&b),
            "status before step {i} of {script:?}"
        );
        let chunk = |index: usize| &fx.chunks[index % fx.chunks.len()];
        let deliver = |svc: &MiscelaService, index: usize, session: u64, seq: u64| {
            observed(svc.append_chunk_seq_in(DEFAULT_TENANT, name, session, seq, chunk(index)))
        };
        let next = live.acked_seq + 1;
        let answers = match *step {
            AppendStep::InOrder(index) => {
                [&a, &b].map(|svc| deliver(svc, index, live.session, next))
            }
            AppendStep::Duplicate(index, back) => {
                let seq = live.acked_seq.saturating_sub(back).max(1);
                [&a, &b].map(|svc| deliver(svc, index, live.session, seq))
            }
            AppendStep::Gap(index, ahead) => {
                [&a, &b].map(|svc| deliver(svc, index, live.session, next + 1 + ahead))
            }
            AppendStep::Stale(index, ahead) => {
                [&a, &b].map(|svc| deliver(svc, index, live.session + 1 + ahead, next))
            }
            AppendStep::Unsequenced(index) => [&a, &b]
                .map(|svc| observed(svc.append_chunk_in(DEFAULT_TENANT, name, chunk(index)))),
            AppendStep::Retention => [&a, &b].map(|svc| {
                let key = format!("retention-{i}");
                let policy = RetentionPolicy::keep_last(100_000);
                observed(svc.set_retention_keyed_in(DEFAULT_TENANT, name, policy, Some(&key)))
            }),
        };
        assert_eq!(answers[0], answers[1], "step {i} ({step:?}) of {script:?}");
    }
    if restart_at >= script.len() {
        drop(b);
        b = open(&dir_b);
    }
    assert_eq!(status(&a), status(&b), "status after {script:?}");
    let mut finished = Vec::new();
    for svc in [&a, &b] {
        for chunk in &fx.chunks {
            svc.append_chunk_in(DEFAULT_TENANT, name, chunk).unwrap();
        }
        svc.finish_append_keyed_in(DEFAULT_TENANT, name, None)
            .unwrap();
        finished.push((
            svc.dataset_revision_in(DEFAULT_TENANT, name).unwrap(),
            svc.dataset_in(DEFAULT_TENANT, name)
                .unwrap()
                .timestamp_count(),
        ));
    }
    assert_eq!(finished[0], finished[1], "finished state after {script:?}");
    drop((a, b));
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A durable append session answers every status request and every
    /// sequenced or unsequenced delivery — in order, duplicated, reusing a
    /// chunk index, gapped or for a stale session, across keyed retention
    /// snapshots that re-log it — the same after a restart as a twin that
    /// never restarted, and both finish to the same revision and rows.
    #[test]
    fn append_sessions_answer_the_same_after_a_restart(
        script in proptest::collection::vec(append_step_strategy(), 1..14),
        restart_at in 0usize..16,
    ) {
        append_twins_agree(&script, restart_at);
    }
}
