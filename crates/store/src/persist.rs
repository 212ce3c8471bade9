//! Persistence: saving and loading a [`Database`] as a directory of
//! JSON-lines files.
//!
//! Miscela-V keeps cached CAP results in MongoDB so that they serve later
//! sessions (Section 3.3). The file format here serves the same purpose:
//! one `<collection>.jsonl` file per collection, one `{"body":…,"key":…}`
//! line per document in key order, plus a `_manifest.json` naming the
//! collections. A collection's file stem is its name when the name is
//! plain (ASCII letters, digits, `_`, `-`), and an escaped spelling of
//! every byte otherwise, so no two collections share a file. Writes go to a
//! temporary file first and are renamed into place, so a crash mid-save
//! never corrupts the previous snapshot.

use crate::database::{Collection, Database};
use crate::error::StoreError;
use crate::json::Json;
use crate::recovery::dir_of_name;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Name of the manifest file inside a snapshot directory.
pub const MANIFEST_FILE: &str = "_manifest.json";

/// The layout version [`save`] writes and [`load`] reads. Version 1 stored
/// documents under store-assigned ids, with index declarations.
const VERSION: i64 = 2;

/// Saves every collection of `db` under `dir`.
pub fn save(db: &Database, dir: &Path) -> Result<(), StoreError> {
    // Encode under the read lock, write after releasing it.
    let files: Vec<(String, String)> = db
        .collections
        .read()
        .iter()
        .map(|(name, docs)| {
            let lines = docs.iter().map(|(key, body)| {
                let line =
                    Json::from_pairs([("body", body.clone()), ("key", Json::from(key.as_str()))]);
                line.to_string_compact() + "\n"
            });
            (name.clone(), lines.collect())
        })
        .collect();
    fs::create_dir_all(dir)?;
    for (name, text) in &files {
        write_atomically(&collection_path(dir, name), text)?;
    }
    let names = files.iter().map(|(name, _)| Json::from(name.as_str()));
    let manifest = Json::from_pairs([
        ("collections", Json::Array(names.collect())),
        ("version", Json::from(VERSION)),
    ]);
    write_atomically(&dir.join(MANIFEST_FILE), &manifest.to_string_pretty())
}

/// Loads a database previously written by [`save`]. Any damage is a typed
/// error and nothing is dropped silently: a manifest of another version, a
/// collection file that is missing, and a line that is not a `body` and a
/// string `key` (a truncated tail or mid-file corruption, reported with
/// its record index) are each [`StoreError::Corrupt`] or
/// [`StoreError::Io`].
pub fn load(dir: &Path) -> Result<Database, StoreError> {
    let manifest = Json::parse(&fs::read_to_string(dir.join(MANIFEST_FILE))?)?;
    if manifest.get("version").and_then(Json::as_f64) != Some(VERSION as f64) {
        return Err(StoreError::Corrupt(format!(
            "manifest is not version {VERSION}"
        )));
    }
    let names = manifest
        .get("collections")
        .and_then(Json::as_array)
        .ok_or_else(|| StoreError::Corrupt("manifest missing collections".to_string()))?;
    let mut collections = BTreeMap::new();
    for name in names {
        let name = name.as_str().ok_or_else(|| {
            StoreError::Corrupt(format!("collection name {name} is not a string"))
        })?;
        let text = fs::read_to_string(collection_path(dir, name))?;
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut docs = Collection::new();
        for (i, line) in lines.iter().enumerate() {
            let (key, body) = parse_line(line).ok_or_else(|| {
                let place = if i + 1 == lines.len() {
                    "a truncated tail"
                } else {
                    "mid-file"
                };
                StoreError::Corrupt(format!(
                    "collection {name:?} is corrupt at record index {i} ({place})"
                ))
            })?;
            docs.insert(key, body);
        }
        collections.insert(name.to_string(), docs);
    }
    Ok(Database {
        collections: RwLock::new(collections),
    })
}

/// One saved document: its key and body, `None` unless the line is an
/// object holding both.
fn parse_line(line: &str) -> Option<(String, Json)> {
    let Ok(Json::Object(mut fields)) = Json::parse(line) else {
        return None;
    };
    match (fields.remove("key")?, fields.remove("body")?) {
        (Json::String(key), body) => Some((key, body)),
        _ => None,
    }
}

fn write_atomically(path: &Path, text: &str) -> Result<(), StoreError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

fn collection_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{}.jsonl", dir_of_name(name)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("miscela-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn populated_db() -> Database {
        let db = Database::new();
        for i in 0..25 {
            db.put(
                "caps",
                format!("k{i:02}"),
                Json::parse(&format!(
                    r#"{{"dataset":"d{}","support":{},"sensors":[{},{}]}}"#,
                    i % 3,
                    i,
                    i,
                    i + 1
                ))
                .unwrap(),
            );
        }
        db.put(
            "datasets",
            "santander",
            Json::parse(r#"{"name":"santander","sensors":552}"#).unwrap(),
        );
        db
    }

    fn documents(db: &Database) -> BTreeMap<String, Collection> {
        db.collections.read().clone()
    }

    #[test]
    fn save_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let db = populated_db();
        save(&db, &dir).unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(documents(&loaded), documents(&db));
        assert_eq!(loaded.len("caps"), 25);
        assert_eq!(loaded.get("caps", "k07"), db.get("caps", "k07"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_is_idempotent_and_overwrites() {
        let dir = temp_dir("overwrite");
        let db = populated_db();
        save(&db, &dir).unwrap();
        // Add more documents and save again; the snapshot must reflect the
        // latest state, not append.
        db.put(
            "datasets",
            "china6",
            Json::parse(r#"{"name":"china6"}"#).unwrap(),
        );
        save(&db, &dir).unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.len("datasets"), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_directory_is_error() {
        let dir = temp_dir("missing");
        assert!(matches!(load(&dir), Err(StoreError::Io(_))));
    }

    #[test]
    fn corrupt_manifest_is_reported() {
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST_FILE), "{not json").unwrap();
        assert!(matches!(load(&dir), Err(StoreError::Json(_))));
        fs::write(dir.join(MANIFEST_FILE), r#"{"version":2}"#).unwrap();
        assert!(matches!(load(&dir), Err(StoreError::Corrupt(_))));
        fs::write(
            dir.join(MANIFEST_FILE),
            r#"{"collections":[7],"version":2}"#,
        )
        .unwrap();
        assert!(matches!(load(&dir), Err(StoreError::Corrupt(_))));
        // A collection the manifest names must have its file.
        fs::write(
            dir.join(MANIFEST_FILE),
            r#"{"collections":["caps"],"version":2}"#,
        )
        .unwrap();
        assert!(matches!(load(&dir), Err(StoreError::Io(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_stores_are_refused() {
        // The id-addressed layout: documents under `_id`, index
        // declarations in the manifest.
        let dir = temp_dir("version1");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(MANIFEST_FILE),
            r#"{"collections":[{"documents":1,"indexes":["dataset"],"name":"caps"}],"version":1}"#,
        )
        .unwrap();
        fs::write(
            dir.join("caps.jsonl"),
            "{\"_id\":0,\"body\":{\"dataset\":\"d\"}}\n",
        )
        .unwrap();
        let err = load(&dir).unwrap_err();
        assert!(err.to_string().contains("version 2"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_refused() {
        // Simulate a crash mid-write: the last JSON line of a collection
        // file is cut off halfway through a document.
        let dir = temp_dir("truncated");
        save(&populated_db(), &dir).unwrap();
        let caps_path = dir.join("caps.jsonl");
        let content = fs::read_to_string(&caps_path).unwrap();
        let cut = content.len() - 17;
        fs::write(&caps_path, &content[..cut]).unwrap();

        // The loader refuses rather than silently dropping data.
        let err = load(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("truncated"), "{msg}");
        assert!(msg.contains("record index 24"), "{msg}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_refused_with_its_record_index() {
        let dir = temp_dir("midfile");
        save(&populated_db(), &dir).unwrap();
        let caps_path = dir.join("caps.jsonl");
        let content = fs::read_to_string(&caps_path).unwrap();
        let mut lines: Vec<&str> = content.lines().collect();
        lines[3] = "{torn in the middle";
        lines[4] = "also not json";
        fs::write(&caps_path, lines.join("\n")).unwrap();

        // A torn line with intact lines after it is corruption, not a
        // partial write: the loader refuses with the precise record index
        // of the first malformed record.
        let err = load(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("record index 3"), "{msg}");
        assert!(msg.contains("mid-file"), "{msg}");
        assert!(msg.contains("caps"), "{msg}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lines_without_a_string_key_and_a_body_are_corrupt() {
        for line in [
            "not json",
            r#"[1,2]"#,
            r#"{"body":{}}"#,
            r#"{"key":"a"}"#,
            r#"{"body":{},"key":7}"#,
        ] {
            assert_eq!(parse_line(line), None, "{line}");
        }
        assert_eq!(
            parse_line(r#"{"body":[1],"key":"a"}"#),
            Some(("a".to_string(), Json::parse("[1]").unwrap()))
        );
    }

    #[test]
    fn collection_names_round_trip() {
        let dir = temp_dir("names");
        let db = Database::new();
        db.put("caps/../weird name", "k", Json::object());
        save(&db, &dir).unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.len("caps/../weird name"), 1);
        // Plain names keep their file name.
        db.put("cap_results", "k", Json::object());
        save(&db, &dir).unwrap();
        assert!(dir.join("cap_results.jsonl").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn names_that_differ_only_in_punctuation_keep_their_own_files() {
        let dir = temp_dir("punctuation");
        let db = Database::new();
        db.put("a.b", "1", Json::object());
        db.put("a_b", "1", Json::object());
        db.put("a_b", "2", Json::object());
        save(&db, &dir).unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!((loaded.len("a.b"), loaded.len("a_b")), (1, 2));
        fs::remove_dir_all(&dir).unwrap();
    }
}
