//! The segmented append-only store: open/recover, append with rotation, keyed reads.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::format::{
    decode_record, decode_segment_header, encode_record, encode_segment_header, RecordError,
    MAX_PAYLOAD, RECORD_PRELUDE_LEN, SEGMENT_HEADER_LEN,
};

/// Default rotation threshold: segments grow to ~16 MiB before a new one opens.
pub const DEFAULT_MAX_SEGMENT_BYTES: u64 = 16 * 1024 * 1024;

/// Tuning knobs for a [`SegmentStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Rotate to a fresh segment once the current one would exceed this size.
    /// Clamped to `u32::MAX` so record offsets stay 32-bit.
    pub max_segment_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { max_segment_bytes: DEFAULT_MAX_SEGMENT_BYTES }
    }
}

/// Counters describing a store's on-disk shape and this handle's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of segment files currently in the store.
    pub segments: u64,
    /// Records recovered into the index by the opening scan.
    pub records_indexed: u64,
    /// Records appended through this handle since open.
    pub records_appended: u64,
    /// Bytes appended through this handle since open (preludes included).
    pub bytes_appended: u64,
    /// Torn-tail bytes discarded during the opening scan.
    pub truncated_bytes: u64,
    /// Wall time the opening scan spent rebuilding the index.
    pub index_rebuild_micros: u64,
}

/// (segment id, byte offset of the record prelude within the segment).
type Loc = (u32, u32);

/// Index slot: the common case is a single record per key hash, so avoid a Vec
/// allocation until a hash actually repeats (same key overwritten, or collision).
#[derive(Debug)]
enum Slot {
    One(Loc),
    Many(Vec<Loc>),
}

impl Slot {
    fn push(&mut self, loc: Loc) {
        match self {
            Slot::One(first) => *self = Slot::Many(vec![*first, loc]),
            Slot::Many(locs) => locs.push(loc),
        }
    }

    /// Locations newest-first: later appends shadow earlier ones.
    fn newest_first(&self) -> impl Iterator<Item = Loc> + '_ {
        let locs: &[Loc] = match self {
            Slot::One(loc) => std::slice::from_ref(loc),
            Slot::Many(locs) => locs,
        };
        locs.iter().rev().copied()
    }
}

#[derive(Debug)]
struct Writer {
    id: u32,
    file: File,
    len: u64,
}

#[derive(Debug)]
struct State {
    index: HashMap<u64, Slot>,
    segment_ids: Vec<u32>,
    writer: Writer,
    readers: HashMap<u32, File>,
    stats: StoreStats,
}

/// An append-only segmented binary key/value store.
///
/// All methods take `&self`; a single internal mutex serializes index updates,
/// appends, and reads so the handle can be shared across sweep worker threads.
/// Across handles and processes, an exclusive lock on `DIR/LOCK` admits one
/// open handle per directory for as long as it lives.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    config: StoreConfig,
    state: Mutex<State>,
    /// Holds the directory's exclusive lock; closing it on drop releases the lock.
    _lock: File,
}

/// How long [`lock_dir`] keeps trying a held lock. The lock belongs to the open file
/// description, so a child process that another thread forks keeps a just-dropped handle's
/// lock until it execs; this outlasts that window and still refuses a store that is
/// really in use quickly.
const LOCK_PATIENCE: Duration = Duration::from_millis(250);

/// Takes the directory's exclusive lock, retrying for at most [`LOCK_PATIENCE`]. The
/// index and the append offset live in the handle, so a second writer would append at a
/// stale offset and overwrite the first one's records; it is refused instead.
fn lock_dir(dir: &Path) -> io::Result<File> {
    let lock =
        OpenOptions::new().create(true).truncate(false).write(true).open(dir.join("LOCK"))?;
    let started = Instant::now();
    loop {
        match lock.try_lock() {
            Ok(()) => return Ok(lock),
            Err(fs::TryLockError::WouldBlock) if started.elapsed() < LOCK_PATIENCE => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(fs::TryLockError::WouldBlock) => {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!("store {} is locked by another open handle", dir.display()),
                ))
            }
            Err(fs::TryLockError::Error(err)) => return Err(err),
        }
    }
}

fn segment_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("seg-{id:05}.bin"))
}

fn parse_segment_name(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".bin")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1_0000_0000_01b3);
    }
    hash
}

/// Create a fresh segment file containing only the header.
fn create_segment(dir: &Path, id: u32) -> io::Result<Writer> {
    let mut file =
        OpenOptions::new().create(true).write(true).truncate(true).open(segment_path(dir, id))?;
    file.write_all(&encode_segment_header())?;
    Ok(Writer { id, file, len: SEGMENT_HEADER_LEN as u64 })
}

impl SegmentStore {
    /// Open (or create) the store at `dir` with default configuration.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<SegmentStore> {
        SegmentStore::open_with(dir, StoreConfig::default())
    }

    /// Open (or create) the store at `dir`.
    ///
    /// Opening performs recovery: every segment is scanned sequentially to
    /// rebuild the in-memory index, and a torn tail — an interrupted append or
    /// a flipped byte at the end of a segment — is truncated away so the store
    /// reopens cleanly after a crash. A damaged header is tolerated only on
    /// the newest segment (the one a crashed writer could have been creating);
    /// anywhere else it is a hard error.
    ///
    /// A directory another handle holds open fails with [`io::ErrorKind::WouldBlock`]
    /// (after retrying for at most 250 ms) and the store is left untouched.
    pub fn open_with(dir: impl AsRef<Path>, config: StoreConfig) -> io::Result<SegmentStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let lock = lock_dir(&dir)?;
        let config =
            StoreConfig { max_segment_bytes: config.max_segment_bytes.clamp(1, u32::MAX as u64) };

        let started = Instant::now();
        let mut ids: Vec<u32> = fs::read_dir(&dir)?
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| parse_segment_name(&entry.file_name().to_string_lossy()))
            .collect();
        ids.sort_unstable();
        ids.dedup();

        let mut index: HashMap<u64, Slot> = HashMap::new();
        let mut stats = StoreStats::default();
        let last = ids.last().copied();
        for &id in &ids {
            let path = segment_path(&dir, id);
            let bytes = fs::read(&path)?;
            match decode_segment_header(&bytes) {
                Ok(_) => {}
                Err(_) if Some(id) == last => {
                    // A crash between file creation and header write leaves a
                    // short or garbled newest segment; reset it in place.
                    stats.truncated_bytes += bytes.len() as u64;
                    create_segment(&dir, id)?;
                    continue;
                }
                Err(err) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("segment {} has an invalid header ({err:?})", path.display()),
                    ));
                }
            }
            let mut offset = SEGMENT_HEADER_LEN;
            loop {
                if offset == bytes.len() {
                    break;
                }
                match decode_record(&bytes[offset..]) {
                    Ok(record) => {
                        index
                            .entry(fnv1a(record.key))
                            .and_modify(|slot| slot.push((id, offset as u32)))
                            .or_insert(Slot::One((id, offset as u32)));
                        stats.records_indexed += 1;
                        offset += record.consumed;
                    }
                    Err(_) => {
                        // Torn or corrupt tail: cut the segment back to its
                        // last whole record and carry on.
                        stats.truncated_bytes += (bytes.len() - offset) as u64;
                        OpenOptions::new().write(true).open(&path)?.set_len(offset as u64)?;
                        break;
                    }
                }
            }
        }

        let writer = match ids.last() {
            None => {
                ids.push(0);
                create_segment(&dir, 0)?
            }
            Some(&id) => {
                let mut file =
                    OpenOptions::new().read(true).write(true).open(segment_path(&dir, id))?;
                let len = file.seek(SeekFrom::End(0))?;
                Writer { id, file, len }
            }
        };

        stats.segments = ids.len() as u64;
        stats.index_rebuild_micros = started.elapsed().as_micros() as u64;
        Ok(SegmentStore {
            dir,
            config,
            state: Mutex::new(State {
                index,
                segment_ids: ids,
                writer,
                readers: HashMap::new(),
                stats,
            }),
            _lock: lock,
        })
    }

    /// Directory holding the segment files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the store's counters.
    pub fn stats(&self) -> StoreStats {
        self.state.lock().unwrap().stats
    }

    /// Append a record, rotating to a new segment at the size threshold.
    /// Returns the encoded record length in bytes.
    pub fn append(&self, key: &[u8], value: &[u8]) -> io::Result<u64> {
        let encoded = encode_record(key, value);
        let mut state = self.state.lock().unwrap();
        let state = &mut *state;
        if state.writer.len > SEGMENT_HEADER_LEN as u64
            && state.writer.len + encoded.len() as u64 > self.config.max_segment_bytes
        {
            let next = state.writer.id + 1;
            state.writer = create_segment(&self.dir, next)?;
            state.segment_ids.push(next);
            state.stats.segments = state.segment_ids.len() as u64;
            // Drop any cached read handle for the id in case of reuse.
            state.readers.remove(&next);
        }
        let offset = state.writer.len as u32;
        state.writer.file.write_all(&encoded)?;
        state.writer.len += encoded.len() as u64;
        state
            .index
            .entry(fnv1a(key))
            .and_modify(|slot| slot.push((state.writer.id, offset)))
            .or_insert(Slot::One((state.writer.id, offset)));
        state.stats.records_appended += 1;
        state.stats.bytes_appended += encoded.len() as u64;
        Ok(encoded.len() as u64)
    }

    /// Fetch the newest value stored under `key`, if any.
    ///
    /// The index keys on a 64-bit hash; this reads the record back and compares
    /// the full key bytes, so hash collisions can never serve a foreign value.
    /// I/O errors degrade to misses, matching cache semantics.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut state = self.state.lock().unwrap();
        let state = &mut *state;
        let slot = state.index.get(&fnv1a(key))?;
        let candidates: Vec<Loc> = slot.newest_first().collect();
        for (segment, offset) in candidates {
            match read_record_at(&self.dir, &mut state.readers, segment, offset) {
                Ok((stored_key, value)) if stored_key == key => return Some(value),
                _ => {}
            }
        }
        None
    }

    /// Whether `key` has a stored value.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }
}

/// Bytes [`read_record_at`] asks for first: the prelude plus a typical cell result (about
/// 250 bytes), so that most records take one read.
const FIRST_READ: usize = 512;

/// Reads the record at `(segment, offset)`, verifying its CRC: one positioned read for
/// the prelude and a typical payload, a second one only for a longer record.
fn read_record_at(
    dir: &Path,
    readers: &mut HashMap<u32, File>,
    segment: u32,
    offset: u32,
) -> io::Result<(Vec<u8>, Vec<u8>)> {
    let file = match readers.entry(segment) {
        std::collections::hash_map::Entry::Occupied(entry) => entry.into_mut(),
        std::collections::hash_map::Entry::Vacant(entry) => {
            entry.insert(File::open(segment_path(dir, segment))?)
        }
    };
    let offset = offset as u64;
    let mut buf = vec![0u8; FIRST_READ];
    // The read comes back short at the end of the segment.
    let mut got = file.read_at(&mut buf, offset)?;
    if got < RECORD_PRELUDE_LEN {
        file.read_exact_at(&mut buf[got..RECORD_PRELUDE_LEN], offset + got as u64)?;
        got = RECORD_PRELUDE_LEN;
    }
    let payload_len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if !(2..=MAX_PAYLOAD).contains(&payload_len) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad record length"));
    }
    let len = RECORD_PRELUDE_LEN + payload_len;
    if got < len {
        buf.resize(len, 0);
        file.read_exact_at(&mut buf[got..], offset + got as u64)?;
    }
    buf.truncate(len);
    let record = decode_record(&buf).map_err(|err: RecordError| {
        io::Error::new(io::ErrorKind::InvalidData, format!("record at {segment}:{offset}: {err:?}"))
    })?;
    Ok((record.key.to_vec(), record.value.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("local-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_then_get_round_trips() {
        let dir = temp_dir("round-trip");
        let store = SegmentStore::open(&dir).unwrap();
        store.append(b"alpha", b"first").unwrap();
        store.append(b"beta", b"second").unwrap();
        assert_eq!(store.get(b"alpha").as_deref(), Some(b"first".as_slice()));
        assert_eq!(store.get(b"beta").as_deref(), Some(b"second".as_slice()));
        assert_eq!(store.get(b"gamma"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_append_shadows_older_values_across_reopen() {
        let dir = temp_dir("shadow");
        {
            let store = SegmentStore::open(&dir).unwrap();
            store.append(b"key", b"v1").unwrap();
            store.append(b"key", b"v2").unwrap();
            assert_eq!(store.get(b"key").as_deref(), Some(b"v2".as_slice()));
        }
        let reopened = SegmentStore::open(&dir).unwrap();
        assert_eq!(reopened.get(b"key").as_deref(), Some(b"v2".as_slice()));
        assert_eq!(reopened.stats().records_indexed, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_splits_records_across_segments_and_reopen_sees_all() {
        let dir = temp_dir("rotation");
        let config = StoreConfig { max_segment_bytes: 128 };
        let keys: Vec<String> = (0..40).map(|i| format!("cell-{i:03}")).collect();
        {
            let store = SegmentStore::open_with(&dir, config).unwrap();
            for key in &keys {
                store.append(key.as_bytes(), format!("value-of-{key}").as_bytes()).unwrap();
            }
            assert!(store.stats().segments > 1, "tiny threshold must rotate");
        }
        let reopened = SegmentStore::open_with(&dir, config).unwrap();
        assert_eq!(reopened.stats().records_indexed, keys.len() as u64);
        for key in &keys {
            assert_eq!(reopened.get(key.as_bytes()), Some(format!("value-of-{key}").into_bytes()));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_oversized_record_never_rotates_forever() {
        // A record larger than max_segment_bytes must still land (in its own
        // segment) rather than rotate endlessly.
        let dir = temp_dir("oversized");
        let store = SegmentStore::open_with(&dir, StoreConfig { max_segment_bytes: 64 }).unwrap();
        let big = vec![7u8; 256];
        store.append(b"big", &big).unwrap();
        store.append(b"big2", &big).unwrap();
        assert_eq!(store.get(b"big").as_deref(), Some(big.as_slice()));
        assert_eq!(store.get(b"big2").as_deref(), Some(big.as_slice()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_store_accepts_new_appends() {
        let dir = temp_dir("torn-tail");
        {
            let store = SegmentStore::open(&dir).unwrap();
            store.append(b"whole", b"kept").unwrap();
            store.append(b"torn", b"lost").unwrap();
        }
        // Tear the last record: chop 3 bytes off the tail.
        let path = segment_path(&dir, 0);
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 3).unwrap();

        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(store.get(b"whole").as_deref(), Some(b"kept".as_slice()));
        assert_eq!(store.get(b"torn"), None);
        assert!(store.stats().truncated_bytes > 0);
        store.append(b"torn", b"rewritten").unwrap();
        assert_eq!(store.get(b"torn").as_deref(), Some(b"rewritten".as_slice()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn headerless_newest_segment_is_reset_in_place() {
        let dir = temp_dir("headerless");
        {
            let store = SegmentStore::open(&dir).unwrap();
            store.append(b"key", b"value").unwrap();
        }
        // Simulate a crash during rotation: the next segment file exists but
        // holds only half a header.
        fs::write(segment_path(&dir, 1), b"LSTO").unwrap();
        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(store.get(b"key").as_deref(), Some(b"value".as_slice()));
        assert_eq!(store.stats().segments, 2);
        store.append(b"key2", b"value2").unwrap();
        drop(store);
        let reopened = SegmentStore::open(&dir).unwrap();
        assert_eq!(reopened.get(b"key2").as_deref(), Some(b"value2".as_slice()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_header_on_an_interior_segment_is_a_hard_error() {
        let dir = temp_dir("bad-interior");
        let config = StoreConfig { max_segment_bytes: 64 };
        {
            let store = SegmentStore::open_with(&dir, config).unwrap();
            for i in 0..8 {
                store.append(format!("k{i}").as_bytes(), b"0123456789abcdef").unwrap();
            }
            assert!(store.stats().segments >= 3);
        }
        let mut bytes = fs::read(segment_path(&dir, 0)).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(segment_path(&dir, 0), &bytes).unwrap();
        let err = SegmentStore::open_with(&dir, config).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn colliding_hashes_cannot_serve_a_foreign_value() {
        // Force every key into one slot by storing distinct keys, then verify
        // each lookup compares full key bytes (Many-slot path).
        let dir = temp_dir("collision");
        let store = SegmentStore::open(&dir).unwrap();
        store.append(b"same", b"v1").unwrap();
        store.append(b"same", b"v2").unwrap();
        store.append(b"same", b"v3").unwrap();
        assert_eq!(store.get(b"same").as_deref(), Some(b"v3".as_slice()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_held_directory_refuses_a_second_open_until_dropped() {
        let dir = temp_dir("locked");
        let store = SegmentStore::open(&dir).unwrap();
        store.append(b"key", b"value").unwrap();
        let err = SegmentStore::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(err.to_string().contains(&dir.display().to_string()), "{err}");
        drop(store);
        let reopened = SegmentStore::open(&dir).unwrap();
        assert_eq!(reopened.get(b"key").as_deref(), Some(b"value".as_slice()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_lock_released_while_opening_is_taken() {
        let dir = temp_dir("lock-release");
        let held = SegmentStore::open(&dir).unwrap();
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            drop(held);
        });
        let reopened = SegmentStore::open(&dir);
        releaser.join().unwrap();
        assert!(reopened.is_ok(), "{:?}", reopened.err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_longer_and_shorter_than_the_first_read_round_trip() {
        let dir = temp_dir("read-sizes");
        let values: Vec<Vec<u8>> = [0usize, 1, 400, 503, 504, 505, 3000, 1]
            .iter()
            .map(|&len| (0..len).map(|i| (i * 7 + len) as u8).collect())
            .collect();
        {
            let store = SegmentStore::open(&dir).unwrap();
            for (i, value) in values.iter().enumerate() {
                store.append(format!("k{i}").as_bytes(), value).unwrap();
            }
        }
        // A fresh handle reads from disk; the last record ends the segment.
        let store = SegmentStore::open(&dir).unwrap();
        for (i, value) in values.iter().enumerate() {
            assert_eq!(store.get(format!("k{i}").as_bytes()).as_ref(), Some(value), "k{i}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_track_appends_and_bytes() {
        let dir = temp_dir("stats");
        let store = SegmentStore::open(&dir).unwrap();
        let written = store.append(b"key", b"value").unwrap();
        let stats = store.stats();
        assert_eq!(stats.records_appended, 1);
        assert_eq!(stats.bytes_appended, written);
        assert_eq!(stats.segments, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
