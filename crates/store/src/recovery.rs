//! Crash recovery: per-dataset snapshots plus a write-ahead log.
//!
//! A [`RecoveryStore`] owns a directory with one subdirectory per dataset:
//!
//! ```text
//! durability/
//!   santander/
//!     snapshot.json   # full dataset state at some generation
//!     wal.log         # framed records appended since that snapshot
//! ```
//!
//! The snapshot is the O(dataset) base; the WAL is the O(rows since last
//! snapshot) tail replayed on top of it at startup. [`DatasetLog::install_snapshot`]
//! is the compaction step: it writes the new snapshot to a temporary file,
//! atomically renames it into place, and only then resets the WAL — so a
//! crash at any byte of compaction leaves either the old snapshot with the
//! full WAL or the new snapshot (with the WAL possibly still holding
//! already-applied records, which the caller's replay must make idempotent,
//! e.g. by recording an applied-session watermark in the snapshot).
//!
//! All writes go through the [`SinkOpener`] injected at construction, so a
//! fault-injection harness can kill snapshot writes and WAL appends alike
//! with one shared [`crate::wal::FailPoint`].

use crate::error::StoreError;
use crate::json::Json;
use crate::wal::{scan, DiskOpener, SinkOpener, TornTail, Wal};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of a dataset's snapshot inside its log directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";
/// File name of a dataset's write-ahead log inside its log directory.
pub const WAL_FILE: &str = "wal.log";

/// A directory of per-dataset durability logs.
#[derive(Clone)]
pub struct RecoveryStore {
    root: PathBuf,
    opener: Arc<dyn SinkOpener>,
}

impl RecoveryStore {
    /// Opens (or lazily creates) the store rooted at `root`, writing through
    /// real file sinks.
    pub fn open(root: impl Into<PathBuf>) -> RecoveryStore {
        RecoveryStore::with_opener(root, Arc::new(DiskOpener))
    }

    /// Like [`RecoveryStore::open`] but writing through `opener` — the hook
    /// a fault-injection test uses to kill the write path.
    pub fn with_opener(root: impl Into<PathBuf>, opener: Arc<dyn SinkOpener>) -> RecoveryStore {
        RecoveryStore {
            root: root.into(),
            opener,
        }
    }

    /// The directory this store lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A store rooted at `sub` inside this store's root, writing through
    /// the same [`SinkOpener`] — the hook a multi-tenant service uses to
    /// give each tenant its own durability directory while one injected
    /// fail point still covers every write path.
    pub fn namespace(&self, sub: impl AsRef<Path>) -> RecoveryStore {
        RecoveryStore {
            root: self.root.join(sub),
            opener: Arc::clone(&self.opener),
        }
    }

    /// Names of datasets with a durability log on disk, sorted. Each is
    /// read back from its directory name ([`RecoveryStore::dataset`]); a
    /// directory this store would never create for any name is skipped.
    pub fn dataset_names(&self) -> Result<Vec<String>, StoreError> {
        if !self.root.exists() {
            return Ok(Vec::new());
        }
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let dir = entry.path();
            if dir.join(SNAPSHOT_FILE).exists() || dir.join(WAL_FILE).exists() {
                if let Some(name) = entry.file_name().to_str().and_then(name_of_dir) {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Opens the log for `name`, scanning its WAL: valid records become the
    /// replay tail, and a torn final record (crash mid-append) is truncated
    /// away so subsequent appends keep the log cleanly framed. The snapshot,
    /// if any, is parsed here once: the log reads its generation from it and
    /// hands it over with [`DatasetLog::take_snapshot`].
    ///
    /// The log lives in its own directory under the root. A non-empty name
    /// made only of ASCII letters, digits, `_` and `-` is its directory's
    /// name; any other name, the empty one included, is stored as `%`
    /// followed by the name with every other byte written `%XX`. No two
    /// names share a directory, and none writes into the root itself.
    pub fn dataset(&self, name: &str) -> Result<DatasetLog, StoreError> {
        let dir = self.root.join(dir_of_name(name));
        fs::create_dir_all(&dir)?;
        let wal_path = dir.join(WAL_FILE);
        let scanned = scan(&wal_path)?;
        let mut torn_bytes = 0;
        if let Some(torn) = &scanned.torn {
            torn_bytes = torn.bytes;
            let file = fs::OpenOptions::new().write(true).open(&wal_path)?;
            file.set_len(scanned.valid_bytes)?;
            file.sync_data()?;
        }
        let sink = self.opener.open_append(&wal_path)?;
        let replayed = scanned.records.len() as u64;
        let snapshot = load_snapshot_at(&dir)?;
        let generation = snapshot.as_ref().map_or(0, |s| s.generation);
        Ok(DatasetLog {
            dir,
            opener: Arc::clone(&self.opener),
            wal: Wal::resume(sink, replayed, scanned.valid_bytes),
            snapshot,
            replay: scanned.records,
            torn: scanned.torn,
            replayed,
            torn_bytes,
            generation,
            compactions: 0,
        })
    }

    /// Deletes the durability log for `name`, if present.
    pub fn remove_dataset(&self, name: &str) -> Result<(), StoreError> {
        let dir = self.root.join(dir_of_name(name));
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        Ok(())
    }
}

/// A snapshot loaded from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Monotone counter bumped by every [`DatasetLog::install_snapshot`].
    pub generation: u64,
    /// The caller-provided snapshot payload.
    pub data: Json,
}

/// Counters for one dataset's durability log, served by
/// `/datasets/{name}/durability`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Records currently framed in the WAL (replayed + appended).
    pub wal_records: u64,
    /// Valid framed bytes in the WAL.
    pub wal_bytes: u64,
    /// Records appended but not yet fsynced.
    pub wal_pending: u64,
    /// Completed fsyncs since the log was opened.
    pub wal_syncs: u64,
    /// Records replayed from the WAL when the log was opened.
    pub replayed_records: u64,
    /// Bytes of torn tail truncated away when the log was opened.
    pub torn_bytes: u64,
    /// Generation of the current snapshot (0 = none yet).
    pub snapshot_generation: u64,
    /// Snapshot installations (compactions) since the log was opened.
    pub compactions: u64,
}

/// One dataset's open durability log: snapshot + WAL.
pub struct DatasetLog {
    dir: PathBuf,
    opener: Arc<dyn SinkOpener>,
    wal: Wal,
    snapshot: Option<Snapshot>,
    replay: Vec<Json>,
    torn: Option<TornTail>,
    replayed: u64,
    torn_bytes: u64,
    generation: u64,
    compactions: u64,
}

impl DatasetLog {
    /// The WAL records found on open, in append order — the tail the caller
    /// replays on top of the snapshot.
    pub fn replay_records(&self) -> &[Json] {
        &self.replay
    }

    /// Takes ownership of the replay tail (subsequent calls see it empty).
    pub fn take_replay(&mut self) -> Vec<Json> {
        std::mem::take(&mut self.replay)
    }

    /// The torn tail truncated away on open, if the WAL ended mid-record.
    pub fn torn_tail(&self) -> Option<&TornTail> {
        self.torn.as_ref()
    }

    /// Appends one record to the WAL. Not durable until [`DatasetLog::commit`].
    pub fn log(&mut self, record: &Json) -> Result<(), StoreError> {
        self.wal.append(record)
    }

    /// Fsyncs the WAL, making every logged record durable.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        self.wal.commit()
    }

    /// Takes ownership of the snapshot parsed when the log was opened — the
    /// base the caller replays the WAL tail on. Subsequent calls, and calls
    /// after [`DatasetLog::install_snapshot`], see `None`: the log keeps no
    /// copy.
    pub fn take_snapshot(&mut self) -> Option<Snapshot> {
        self.snapshot.take()
    }

    /// Generation of the current snapshot (0 = none installed yet).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Installs `data` as the new snapshot and resets the WAL (compaction).
    ///
    /// Crash-ordering: the snapshot is written to a temporary file and
    /// renamed into place *before* the WAL is truncated, so no crash point
    /// loses data — at worst the WAL still holds records the new snapshot
    /// already covers, which the caller's replay must tolerate.
    pub fn install_snapshot(&mut self, data: &Json) -> Result<(), StoreError> {
        let generation = self.generation + 1;
        // The document `{"data":…,"generation":…}`, in the key order a
        // `Json` object writes, written straight from the borrowed tree.
        let mut doc = String::from(r#"{"data":"#);
        data.write_compact(&mut doc);
        doc.push_str(r#","generation":"#);
        Json::from(generation as i64).write_compact(&mut doc);
        doc.push('}');
        let snapshot_path = self.dir.join(SNAPSHOT_FILE);
        let tmp = self.dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        {
            let mut sink = self.opener.open_truncate(&tmp)?;
            sink.write_all(doc.as_bytes())?;
            sink.sync()?;
        }
        fs::rename(&tmp, &snapshot_path)?;
        let sink = self.opener.open_truncate(&self.dir.join(WAL_FILE))?;
        self.wal = Wal::fresh(sink);
        self.snapshot = None;
        self.generation = generation;
        self.compactions += 1;
        Ok(())
    }

    /// Counters describing this log's state and activity.
    pub fn stats(&self) -> DurabilityStats {
        let wal = self.wal.stats();
        DurabilityStats {
            wal_records: wal.records,
            wal_bytes: wal.bytes,
            wal_pending: wal.pending,
            wal_syncs: wal.syncs,
            replayed_records: self.replayed,
            torn_bytes: self.torn_bytes,
            snapshot_generation: self.generation,
            compactions: self.compactions,
        }
    }
}

fn load_snapshot_at(dir: &Path) -> Result<Option<Snapshot>, StoreError> {
    let path = dir.join(SNAPSHOT_FILE);
    if !path.exists() {
        return Ok(None);
    }
    let text = fs::read_to_string(&path)?;
    let mut doc = Json::parse(&text)?;
    let generation = doc
        .get("generation")
        .and_then(|g| g.as_i64())
        .ok_or_else(|| StoreError::Corrupt("snapshot missing generation".to_string()))?;
    let data = doc
        .as_object_mut()
        .and_then(|fields| fields.remove("data"))
        .ok_or_else(|| StoreError::Corrupt("snapshot missing data".to_string()))?;
    Ok(Some(Snapshot {
        generation: generation as u64,
        data,
    }))
}

/// Whether a byte stands for itself in a log directory name.
fn is_plain(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'-'
}

/// The path component holding `name`: a dataset log's directory (see
/// [`RecoveryStore::dataset`]) and a saved collection's file stem (see
/// [`crate::persist::save`]). Plain names never start with `%`, and the
/// escaped form spells every byte, so the mapping is one-to-one.
pub(crate) fn dir_of_name(name: &str) -> String {
    if !name.is_empty() && name.bytes().all(is_plain) {
        return name.to_string();
    }
    let mut dir = String::with_capacity(1 + 3 * name.len());
    dir.push('%');
    for b in name.bytes() {
        if is_plain(b) {
            dir.push(char::from(b));
        } else {
            // Writing into a `String` cannot fail.
            let _ = write!(dir, "%{b:02X}");
        }
    }
    dir
}

/// The dataset name whose log lives in directory `dir`: the inverse of
/// [`dir_of_name`], `None` for a directory name it never produces.
fn name_of_dir(dir: &str) -> Option<String> {
    let name = match dir.strip_prefix('%') {
        None => dir.to_string(),
        Some(escaped) => {
            let mut bytes = Vec::with_capacity(escaped.len());
            let mut rest = escaped.as_bytes();
            while let Some((&b, tail)) = rest.split_first() {
                rest = if b == b'%' {
                    let hex = std::str::from_utf8(tail.get(..2)?).ok()?;
                    bytes.push(u8::from_str_radix(hex, 16).ok()?);
                    &tail[2..]
                } else {
                    bytes.push(b);
                    tail
                };
            }
            String::from_utf8(bytes).ok()?
        }
    };
    // Only the one spelling `dir_of_name` writes maps back.
    (dir_of_name(&name) == dir).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{FailPoint, FailingOpener};

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "miscela-recovery-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(i: i64) -> Json {
        Json::from_pairs([("op", Json::from("chunk")), ("index", Json::from(i))])
    }

    #[test]
    fn log_commit_reopen_replays_records() {
        let root = temp_root("replay");
        let store = RecoveryStore::open(&root);
        {
            let mut log = store.dataset("santander").unwrap();
            assert!(log.replay_records().is_empty());
            for i in 0..4 {
                log.log(&record(i)).unwrap();
            }
            log.commit().unwrap();
            assert_eq!(log.stats().wal_records, 4);
            assert_eq!(log.stats().wal_pending, 0);
        }
        let mut log = store.dataset("santander").unwrap();
        let replay = log.take_replay();
        assert_eq!(replay.len(), 4);
        assert_eq!(replay[2], record(2));
        assert!(log.torn_tail().is_none());
        assert_eq!(store.dataset_names().unwrap(), vec!["santander"]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn install_snapshot_compacts_the_wal_and_bumps_generation() {
        let root = temp_root("compact");
        let store = RecoveryStore::open(&root);
        let mut log = store.dataset("d").unwrap();
        log.log(&record(0)).unwrap();
        log.commit().unwrap();
        let data = Json::from_pairs([("revision", Json::from(3i64))]);
        log.install_snapshot(&data).unwrap();
        assert_eq!(log.generation(), 1);
        assert_eq!(log.stats().compactions, 1);
        assert_eq!(log.stats().wal_records, 0);
        // New records land in the fresh WAL.
        log.log(&record(1)).unwrap();
        log.commit().unwrap();
        drop(log);

        let mut log = store.dataset("d").unwrap();
        let snap = log.take_snapshot().expect("snapshot installed");
        assert_eq!(snap.generation, 1);
        assert_eq!(snap.data, data);
        assert_eq!(log.generation(), 1);
        assert_eq!(log.take_replay(), vec![record(1)]);
        // A second install bumps the generation again.
        log.install_snapshot(&data).unwrap();
        assert_eq!(log.generation(), 2);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_parses_the_snapshot_once_and_hands_it_over() {
        let root = temp_root("handover");
        let store = RecoveryStore::open(&root);
        let data = Json::from_pairs([("revision", Json::from(5i64))]);
        {
            let mut log = store.dataset("d").unwrap();
            log.install_snapshot(&data).unwrap();
            log.install_snapshot(&data).unwrap();
        }
        let mut log = store.dataset("d").unwrap();
        // The snapshot was parsed at open: recovery no longer reads the file.
        fs::remove_file(root.join("d").join(SNAPSHOT_FILE)).unwrap();
        assert_eq!(log.generation(), 2);
        assert_eq!(log.stats().snapshot_generation, 2);
        assert_eq!(
            log.take_snapshot(),
            Some(Snapshot {
                generation: 2,
                data
            })
        );
        // It is handed over once; the log keeps no copy.
        assert_eq!(log.take_snapshot(), None);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn snapshot_bytes_are_the_compact_wrapper_document() {
        let root = temp_root("bytes");
        let store = RecoveryStore::open(&root);
        let mut log = store.dataset("d").unwrap();
        let data = Json::from_pairs([
            ("revision", Json::from(7i64)),
            ("name", Json::from("a \"quoted\" name")),
            (
                "values",
                Json::Array(vec![Json::from(1.5), Json::Null, Json::from(-2i64)]),
            ),
            ("empty", Json::object()),
        ]);
        for generation in 1..=2i64 {
            log.install_snapshot(&data).unwrap();
            let doc = Json::from_pairs([
                ("generation", Json::from(generation)),
                ("data", data.clone()),
            ]);
            let written = fs::read_to_string(root.join("d").join(SNAPSHOT_FILE)).unwrap();
            assert_eq!(written, doc.to_string_compact());
        }
        drop(log);
        let mut log = store.dataset("d").unwrap();
        assert_eq!(log.take_snapshot().unwrap().data, data);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_open() {
        let root = temp_root("torn");
        let store = RecoveryStore::open(&root);
        {
            let mut log = store.dataset("d").unwrap();
            log.log(&record(0)).unwrap();
            log.log(&record(1)).unwrap();
            log.commit().unwrap();
        }
        let wal_path = root.join("d").join(WAL_FILE);
        let bytes = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();

        let mut log = store.dataset("d").unwrap();
        assert_eq!(log.take_replay(), vec![record(0)]);
        let stats = log.stats();
        assert!(stats.torn_bytes > 0);
        assert_eq!(stats.replayed_records, 1);
        // The tail was physically truncated: appending keeps the log valid.
        log.log(&record(2)).unwrap();
        log.commit().unwrap();
        drop(log);
        let mut log = store.dataset("d").unwrap();
        assert_eq!(log.take_replay(), vec![record(0), record(2)]);
        assert!(log.torn_tail().is_none());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn failed_compaction_preserves_the_old_state() {
        let root = temp_root("failed-compaction");
        // Set up a committed snapshot + WAL with real sinks first.
        let store = RecoveryStore::open(&root);
        let old = Json::from_pairs([("revision", Json::from(1i64))]);
        {
            let mut log = store.dataset("d").unwrap();
            log.install_snapshot(&old).unwrap();
            log.log(&record(0)).unwrap();
            log.commit().unwrap();
        }
        // Now re-open through a fail point whose budget dies mid-snapshot:
        // the tmp write fails before the rename, so neither the snapshot nor
        // the WAL is touched.
        let fail = FailPoint::after_bytes(10);
        let failing = RecoveryStore::with_opener(&root, Arc::new(FailingOpener::new(fail.clone())));
        let mut log = failing.dataset("d").unwrap();
        let new = Json::from_pairs([("revision", Json::from(2i64))]);
        assert!(log.install_snapshot(&new).is_err());
        assert!(fail.tripped());
        drop(log);

        let mut log = store.dataset("d").unwrap();
        let snap = log.take_snapshot().unwrap();
        assert_eq!(snap.data, old, "old snapshot must survive");
        assert_eq!(log.take_replay(), vec![record(0)], "WAL must survive");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn every_name_gets_its_own_directory_and_reads_back() {
        let names = [
            "santander",
            "a_b",
            "-_-",
            "a.b",
            "",
            "%",
            "%41",
            "a/b",
            "a b",
            "é",
        ];
        let dirs: std::collections::HashSet<String> =
            names.iter().map(|name| dir_of_name(name)).collect();
        assert_eq!(dirs.len(), names.len(), "two names share a directory");
        for name in names {
            let dir = dir_of_name(name);
            assert!(!dir.is_empty() && !dir.contains('/'), "{name:?} -> {dir:?}");
            assert_eq!(name_of_dir(&dir).as_deref(), Some(name));
        }
        // Plain names keep the directory they always had.
        assert_eq!(dir_of_name("a_b"), "a_b");
        // Directories the store never writes are no dataset's.
        for dir in ["", "a.b", "%a", "%2e", "%2", "%zz", "%+1", "%FF"] {
            assert_eq!(name_of_dir(dir), None, "{dir:?}");
        }

        let root = temp_root("names");
        let store = RecoveryStore::open(&root);
        for (i, name) in ["a.b", "a_b", ""].into_iter().enumerate() {
            let mut log = store.dataset(name).unwrap();
            log.log(&record(i as i64)).unwrap();
            log.commit().unwrap();
        }
        assert_eq!(store.dataset_names().unwrap(), vec!["", "a.b", "a_b"]);
        for (i, name) in ["a.b", "a_b", ""].into_iter().enumerate() {
            let mut log = store.dataset(name).unwrap();
            assert_eq!(log.take_replay(), vec![record(i as i64)], "{name:?}");
        }
        assert!(
            !root.join(WAL_FILE).exists(),
            "a log was written into the root"
        );
        store.remove_dataset("a.b").unwrap();
        assert_eq!(store.dataset_names().unwrap(), vec!["", "a_b"]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn remove_dataset_deletes_the_log() {
        let root = temp_root("remove");
        let store = RecoveryStore::open(&root);
        let mut log = store.dataset("gone").unwrap();
        log.log(&record(0)).unwrap();
        log.commit().unwrap();
        drop(log);
        assert_eq!(store.dataset_names().unwrap(), vec!["gone"]);
        store.remove_dataset("gone").unwrap();
        assert!(store.dataset_names().unwrap().is_empty());
        // Removing a missing dataset is fine.
        store.remove_dataset("gone").unwrap();
        fs::remove_dir_all(&root).unwrap();
    }
}
