//! Append-only write-ahead log with checksummed record framing.
//!
//! The durability substrate for streaming appends: before the server
//! acknowledges an `append_chunk`, the batch is framed, appended here and
//! fsynced, so acknowledged rows survive a crash at *any* byte of the write
//! path. One record is one line:
//!
//! ```text
//! <payload length>:<16-hex-digit FNV-1a checksum>:<single-line JSON payload>\n
//! ```
//!
//! The payload is compact JSON whose strings escape every control character
//! (see [`crate::json`]), so a record never contains an interior newline and
//! the trailing `\n` is always the record's final byte. That makes torn-tail
//! detection sound: any strict prefix of the final record fails the length,
//! checksum or terminator check, and [`scan`] reports exactly the longest
//! valid record prefix plus a [`TornTail`] describing what was cut off.
//!
//! Writes go through the [`WalSink`] trait; production uses [`FileSink`]
//! (plain file writes + `fdatasync`), and tests inject a [`FailPoint`]-
//! wrapped sink ([`FailingOpener`]) that deterministically kills the write
//! path after a byte budget — no `unsafe`, no global state. Syncing is
//! batched: [`Wal::append`] only writes; [`Wal::commit`] performs the one
//! fsync that makes the batch durable.

use crate::error::StoreError;
use crate::json::Json;
use parking_lot::Mutex;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a hash of a byte slice — the per-record checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Frames one payload as a WAL record: `len:checksum:payload\n`.
pub fn frame_record(payload: &Json) -> String {
    let body = payload.to_string_compact();
    format!("{}:{:016x}:{}\n", body.len(), fnv1a(body.as_bytes()), body)
}

/// The byte sink the WAL writes through. Production sinks are files; tests
/// wrap them in a [`FailPoint`] to kill the write path deterministically.
pub trait WalSink: Send {
    /// Writes the whole buffer (or fails, possibly after a partial write —
    /// exactly what a crash mid-write leaves behind).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Makes previously written bytes durable (fsync).
    fn sync(&mut self) -> io::Result<()>;
}

/// A [`WalSink`] over a real file, syncing with `fdatasync`.
#[derive(Debug)]
pub struct FileSink {
    file: fs::File,
}

impl FileSink {
    /// Opens `path` for appending (creating it if absent).
    pub fn append(path: &Path) -> io::Result<FileSink> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(FileSink { file })
    }

    /// Opens `path` truncated to empty (creating it if absent).
    pub fn truncate(path: &Path) -> io::Result<FileSink> {
        let file = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(FileSink { file })
    }
}

impl WalSink for FileSink {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.file, buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// How the durability layer opens its sinks. The indirection exists so a
/// test can swap in a [`FailingOpener`] and kill every file the layer
/// writes — WAL appends *and* snapshot/compaction writes — at a precise
/// byte offset.
pub trait SinkOpener: Send + Sync {
    /// Opens a sink appending to `path`.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn WalSink>>;
    /// Opens a sink over `path` truncated to empty.
    fn open_truncate(&self, path: &Path) -> io::Result<Box<dyn WalSink>>;
}

/// The production [`SinkOpener`]: plain buffered-by-the-OS file sinks.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskOpener;

impl SinkOpener for DiskOpener {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn WalSink>> {
        Ok(Box::new(FileSink::append(path)?))
    }

    fn open_truncate(&self, path: &Path) -> io::Result<Box<dyn WalSink>> {
        Ok(Box::new(FileSink::truncate(path)?))
    }
}

#[derive(Debug)]
struct FailState {
    budget: u64,
    written: u64,
    boundaries: Vec<u64>,
    dead: bool,
}

/// Deterministic fault injection for the durable write path: a shared byte
/// budget consumed by every sink the owning [`FailingOpener`] hands out.
/// Once the budget runs out the write that crossed it persists only the
/// prefix that fit (a torn write), and every later write or sync fails —
/// exactly the observable effect of the process dying at that byte.
///
/// The state is shared through an `Arc` owned by the test; there is no
/// global registry and no `unsafe`.
#[derive(Debug, Clone)]
pub struct FailPoint(Arc<Mutex<FailState>>);

impl FailPoint {
    /// A fail point that kills the write path after `budget` bytes.
    pub fn after_bytes(budget: u64) -> FailPoint {
        FailPoint(Arc::new(Mutex::new(FailState {
            budget,
            written: 0,
            boundaries: Vec::new(),
            dead: false,
        })))
    }

    /// A fail point that never trips — useful as a probe that records the
    /// byte boundary of every write, from which a kill-point matrix derives
    /// its budgets.
    pub fn unlimited() -> FailPoint {
        FailPoint::after_bytes(u64::MAX)
    }

    /// Whether the budget has been exhausted (the simulated crash
    /// happened).
    pub fn tripped(&self) -> bool {
        self.0.lock().dead
    }

    /// Trips the fail point immediately: every later write or sync through
    /// it fails, with no partial prefix — the deterministic analogue of the
    /// disk filling up between two writes.
    pub fn exhaust(&self) {
        self.0.lock().dead = true;
    }

    /// Re-arms a tripped fail point with an unlimited budget, so the sinks
    /// it wraps work again — the deterministic analogue of the disk
    /// recovering (space freed, device back). Degraded-mode recovery tests
    /// pair this with [`FailPoint::exhaust`].
    pub fn heal(&self) {
        let mut state = self.0.lock();
        state.budget = u64::MAX;
        state.dead = false;
    }

    /// Total bytes successfully written through this fail point.
    pub fn written(&self) -> u64 {
        self.0.lock().written
    }

    /// Cumulative byte offsets at which each fully-successful write ended —
    /// the framing boundaries a kill-point matrix truncates at.
    pub fn write_boundaries(&self) -> Vec<u64> {
        self.0.lock().boundaries.clone()
    }

    /// Consumes up to `want` bytes of budget; returns how many may be
    /// written. Anything short of `want` marks the fail point dead.
    fn consume(&self, want: usize) -> usize {
        let mut state = self.0.lock();
        if state.dead {
            return 0;
        }
        let allowed = (state.budget - state.written).min(want as u64) as usize;
        state.written += allowed as u64;
        if allowed < want {
            state.dead = true;
        } else {
            let offset = state.written;
            state.boundaries.push(offset);
        }
        allowed
    }

    fn is_dead(&self) -> bool {
        self.0.lock().dead
    }
}

/// A sink that forwards to an inner sink until its [`FailPoint`] budget is
/// exhausted, then fails forever (persisting the torn prefix of the write
/// that crossed the budget).
struct FailingSink {
    inner: Box<dyn WalSink>,
    fail: FailPoint,
}

impl WalSink for FailingSink {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let allowed = self.fail.consume(buf.len());
        if allowed > 0 {
            self.inner.write_all(&buf[..allowed])?;
        }
        if allowed < buf.len() {
            return Err(io::Error::other("fail point tripped mid-write"));
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.fail.is_dead() {
            return Err(io::Error::other("fail point tripped before sync"));
        }
        self.inner.sync()
    }
}

/// A [`SinkOpener`] wrapping every sink of an inner opener in one shared
/// [`FailPoint`].
pub struct FailingOpener {
    inner: Box<dyn SinkOpener>,
    fail: FailPoint,
}

impl FailingOpener {
    /// Wraps [`DiskOpener`] sinks in `fail`.
    pub fn new(fail: FailPoint) -> FailingOpener {
        FailingOpener {
            inner: Box::new(DiskOpener),
            fail,
        }
    }
}

impl SinkOpener for FailingOpener {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn WalSink>> {
        Ok(Box::new(FailingSink {
            inner: self.inner.open_append(path)?,
            fail: self.fail.clone(),
        }))
    }

    fn open_truncate(&self, path: &Path) -> io::Result<Box<dyn WalSink>> {
        Ok(Box::new(FailingSink {
            inner: self.inner.open_truncate(path)?,
            fail: self.fail.clone(),
        }))
    }
}

/// Counters describing one WAL's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records currently framed in the log (replayed + appended).
    pub records: u64,
    /// Valid framed bytes in the log.
    pub bytes: u64,
    /// Records appended since the last [`Wal::commit`] (not yet durable).
    pub pending: u64,
    /// Completed fsyncs since the log was opened.
    pub syncs: u64,
}

/// An open write-ahead log: framed appends + batched fsync.
pub struct Wal {
    sink: Box<dyn WalSink>,
    stats: WalStats,
}

impl Wal {
    /// Wraps a sink positioned after `records` valid records (`bytes`
    /// framed bytes) — what [`scan`] reports for the file being resumed.
    pub fn resume(sink: Box<dyn WalSink>, records: u64, bytes: u64) -> Wal {
        Wal {
            sink,
            stats: WalStats {
                records,
                bytes,
                ..WalStats::default()
            },
        }
    }

    /// Wraps a sink over a fresh (empty) log.
    pub fn fresh(sink: Box<dyn WalSink>) -> Wal {
        Wal::resume(sink, 0, 0)
    }

    /// Frames and appends one record. Not durable until [`Wal::commit`].
    pub fn append(&mut self, payload: &Json) -> Result<(), StoreError> {
        let frame = frame_record(payload);
        self.sink.write_all(frame.as_bytes())?;
        self.stats.records += 1;
        self.stats.pending += 1;
        self.stats.bytes += frame.len() as u64;
        Ok(())
    }

    /// Fsyncs the log, making every appended record durable. The one sync
    /// covers the whole batch appended since the previous commit.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        self.sink.sync()?;
        self.stats.syncs += 1;
        self.stats.pending = 0;
        Ok(())
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }
}

/// What a torn final record looked like when [`scan`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first invalid frame.
    pub offset: u64,
    /// Bytes from the offset to the end of the file.
    pub bytes: u64,
    /// Which framing check failed.
    pub reason: String,
}

/// The result of scanning a WAL file: every validly framed record plus the
/// torn tail, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Payloads of the valid record prefix, in append order.
    pub records: Vec<Json>,
    /// Bytes covered by the valid prefix (the truncation point that
    /// restores a cleanly framed log).
    pub valid_bytes: u64,
    /// Present when the file ends in a partial or corrupt frame.
    pub torn: Option<TornTail>,
}

/// Scans a WAL file, returning the longest valid record prefix. A missing
/// file is an empty log. A frame that fails any check (length header,
/// checksum, terminator, payload JSON) ends the scan and is reported as the
/// torn tail — the signature of a crash mid-append.
pub fn scan(path: &Path) -> Result<WalScan, StoreError> {
    if !path.exists() {
        return Ok(WalScan {
            records: Vec::new(),
            valid_bytes: 0,
            torn: None,
        });
    }
    let data = fs::read(path)?;
    let mut records = Vec::new();
    let mut pos = 0usize;
    let torn = loop {
        if pos == data.len() {
            break None;
        }
        match parse_frame(&data, pos) {
            Ok((payload, consumed)) => {
                records.push(payload);
                pos += consumed;
            }
            Err(reason) => {
                break Some(TornTail {
                    offset: pos as u64,
                    bytes: (data.len() - pos) as u64,
                    reason,
                });
            }
        }
    };
    Ok(WalScan {
        records,
        valid_bytes: pos as u64,
        torn,
    })
}

/// Parses one frame at `pos`, returning the payload and the frame's length
/// in bytes, or the reason the frame is invalid.
fn parse_frame(data: &[u8], pos: usize) -> Result<(Json, usize), String> {
    let rest = &data[pos..];
    let header_window = &rest[..rest.len().min(21)];
    let colon = header_window
        .iter()
        .position(|&b| b == b':')
        .ok_or_else(|| "unterminated length header".to_string())?;
    let len: usize = std::str::from_utf8(&rest[..colon])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "unparseable length header".to_string())?;
    // Frame layout after the first colon: 16 hex digits, ':', payload, '\n'.
    let checksum_start = colon + 1;
    let payload_start = checksum_start + 17;
    // The header holds up to 20 digits, so the sum can overflow `usize`.
    let frame_len = len
        .checked_add(payload_start + 1)
        .filter(|&n| n <= rest.len())
        .ok_or_else(|| {
            format!(
                "truncated record ({} frame bytes present for a {len}-byte payload)",
                rest.len()
            )
        })?;
    if rest[checksum_start + 16] != b':' {
        return Err("malformed checksum separator".to_string());
    }
    let checksum = std::str::from_utf8(&rest[checksum_start..checksum_start + 16])
        .ok()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| "unparseable checksum".to_string())?;
    if rest[frame_len - 1] != b'\n' {
        return Err("missing record terminator".to_string());
    }
    let payload = &rest[payload_start..payload_start + len];
    if fnv1a(payload) != checksum {
        return Err("checksum mismatch".to_string());
    }
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("payload is not valid JSON: {e}"))?;
    Ok((json, frame_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("miscela-wal-{tag}-{}", std::process::id()))
    }

    fn payload(i: usize) -> Json {
        Json::from_pairs([
            ("op", Json::from("chunk")),
            ("index", Json::from(i)),
            ("content", Json::from(format!("line {i}\nwith newline"))),
        ])
    }

    #[test]
    fn fnv1a_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn append_scan_round_trip() {
        let path = temp_path("roundtrip");
        let _ = fs::remove_file(&path);
        let mut wal = Wal::fresh(DiskOpener.open_truncate(&path).unwrap());
        for i in 0..5 {
            wal.append(&payload(i)).unwrap();
        }
        assert_eq!(wal.stats().pending, 5);
        wal.commit().unwrap();
        assert_eq!(wal.stats().pending, 0);
        assert_eq!(wal.stats().syncs, 1);

        let scan = scan(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert!(scan.torn.is_none());
        assert_eq!(scan.valid_bytes, wal.stats().bytes);
        for (i, rec) in scan.records.iter().enumerate() {
            assert_eq!(rec, &payload(i));
        }
        // Resuming appends more records after the valid prefix.
        let mut wal = Wal::resume(
            DiskOpener.open_append(&path).unwrap(),
            scan.records.len() as u64,
            scan.valid_bytes,
        );
        wal.append(&payload(5)).unwrap();
        wal.commit().unwrap();
        assert_eq!(scan_records(&path), 6);
        fs::remove_file(&path).unwrap();
    }

    fn scan_records(path: &Path) -> usize {
        scan(path).unwrap().records.len()
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let path = temp_path("missing");
        let _ = fs::remove_file(&path);
        let scan = scan(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_bytes, 0);
        assert!(scan.torn.is_none());
    }

    #[test]
    fn every_truncation_of_the_last_record_is_detected() {
        let path = temp_path("truncate");
        let _ = fs::remove_file(&path);
        let mut wal = Wal::fresh(DiskOpener.open_truncate(&path).unwrap());
        for i in 0..3 {
            wal.append(&payload(i)).unwrap();
        }
        wal.commit().unwrap();
        let full = fs::read(&path).unwrap();
        let last_start = full.len() - frame_record(&payload(2)).len();

        for cut in last_start..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let scan = scan(&path).unwrap();
            assert_eq!(scan.records.len(), 2, "cut at {cut}");
            assert_eq!(scan.valid_bytes, last_start as u64, "cut at {cut}");
            if cut == last_start {
                assert!(scan.torn.is_none(), "cut at the boundary is clean");
            } else {
                let torn = scan.torn.expect("mid-record cut must be torn");
                assert_eq!(torn.offset, last_start as u64);
                assert_eq!(torn.bytes, (cut - last_start) as u64);
            }
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_checksum_ends_the_scan() {
        let path = temp_path("checksum");
        let _ = fs::remove_file(&path);
        let mut wal = Wal::fresh(DiskOpener.open_truncate(&path).unwrap());
        for i in 0..3 {
            wal.append(&payload(i)).unwrap();
        }
        wal.commit().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of the middle record.
        let frame0 = frame_record(&payload(0)).len();
        let target = frame0 + frame_record(&payload(1)).len() - 3;
        bytes[target] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        let torn = scan.torn.expect("corrupt record is reported");
        assert_eq!(torn.offset, frame0 as u64);
        assert!(torn.reason.contains("checksum"), "{}", torn.reason);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn overflowing_length_header_is_a_torn_tail() {
        let path = temp_path("overflow");
        let file = b"18446744073709551577:0000000000000000:{}\n";
        assert_eq!(file.len(), 41);
        fs::write(&path, file).unwrap();
        let scan = scan(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_bytes, 0);
        let torn = scan.torn.expect("an impossible length is a torn tail");
        assert_eq!((torn.offset, torn.bytes), (0, 41));
        assert!(torn.reason.contains("truncated"), "{}", torn.reason);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fail_point_kills_the_write_path_at_the_budget() {
        let path = temp_path("failpoint");
        let _ = fs::remove_file(&path);
        let frame = frame_record(&payload(0));
        // Budget covers one full record plus half of the next.
        let budget = frame.len() as u64 + frame.len() as u64 / 2;
        let fail = FailPoint::after_bytes(budget);
        let opener = FailingOpener::new(fail.clone());
        let mut wal = Wal::fresh(opener.open_truncate(&path).unwrap());
        wal.append(&payload(0)).unwrap();
        wal.commit().unwrap();
        assert!(!fail.tripped());
        // The second append crosses the budget: it fails, the torn prefix
        // persists, and everything afterwards fails too.
        assert!(wal.append(&payload(0)).is_err());
        assert!(fail.tripped());
        assert!(wal.commit().is_err());
        assert!(wal.append(&payload(1)).is_err());
        assert_eq!(fail.written(), budget);
        assert_eq!(fail.write_boundaries(), vec![frame.len() as u64]);

        // Recovery sees the committed record and the torn tail.
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_bytes, frame.len() as u64);
        let torn = scan.torn.expect("torn tail detected");
        assert_eq!(torn.bytes, budget - frame.len() as u64);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exhaust_and_heal_toggle_the_write_path() {
        let path = temp_path("exhaust-heal");
        let _ = fs::remove_file(&path);
        let fail = FailPoint::unlimited();
        let opener = FailingOpener::new(fail.clone());
        let mut wal = Wal::fresh(opener.open_truncate(&path).unwrap());
        wal.append(&payload(0)).unwrap();
        wal.commit().unwrap();

        // Exhausting kills writes and syncs with no torn prefix.
        let written_before = fail.written();
        fail.exhaust();
        assert!(fail.tripped());
        assert!(wal.append(&payload(1)).is_err());
        assert!(wal.commit().is_err());
        assert_eq!(fail.written(), written_before, "no bytes leak while dead");

        // Healing re-arms the same sink: a fresh (truncated) log opened
        // through the healed opener writes and scans cleanly.
        fail.heal();
        assert!(!fail.tripped());
        let mut wal = Wal::fresh(opener.open_truncate(&path).unwrap());
        wal.append(&payload(2)).unwrap();
        wal.commit().unwrap();
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records, vec![payload(2)]);
        assert!(scan.torn.is_none());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frame_is_newline_terminated_and_single_line() {
        let json = Json::from_pairs([("text", Json::from("a\nb\r\tc\"d"))]);
        let frame = frame_record(&json);
        assert!(frame.ends_with('\n'));
        assert_eq!(frame.matches('\n').count(), 1, "escapes keep one line");
    }
}
