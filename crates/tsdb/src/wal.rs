//! The write-ahead log: durable batch ingest ahead of acknowledgment.
//!
//! [`TraceDb::insert_batch`](crate::TraceDb::insert_batch) is the WAL
//! unit: a disk-backed database appends the whole batch as one framed
//! record *before* it touches the in-memory hot tail, so a crash loses
//! at most the batch being written — never an acknowledged one.
//!
//! ```text
//! file   := magic(8) frame*
//! frame  := marker(0xB7) payload_len:u32le crc:u32le payload
//! payload:= ngroups:varint group*
//! group  := measurement:str node:str nrecords:varint record{32}*
//! ```
//!
//! Records are [`CompactRecord::encode`]'s fixed 32-byte little-endian
//! layout ([`COMPACT_RECORD_BYTES`]) — the bytes the perf ring carried.
//! Replay walks frames until the first incomplete or corrupt one — a
//! prefix-truncated WAL (torn write, crash mid-frame) replays exactly the
//! clean frame prefix, and the dirty tail is truncated away before new
//! appends so later frames are never written after garbage.
//!
//! The WAL only ever covers the hot tail: sealing rotates to a fresh
//! file once the tail's records are safely in columnar segments (see
//! [`crate::store`]).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::batch::RecordBatch;
use crate::codec::{crc32, get_str, get_uvarint, put_str, put_uvarint, CodecError};
use crate::record::{CompactRecord, COMPACT_RECORD_BYTES};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"VNTWAL1\n";

/// Marker byte opening every frame; anything else at a frame boundary
/// marks the dirty tail.
const FRAME_MARKER: u8 = 0xb7;

/// Frame header bytes after the marker: payload length + CRC.
const FRAME_HEADER: usize = 8;

/// Upper bound on one frame's payload: `append` refuses a bigger batch,
/// and the bound stops a corrupt length from driving a huge allocation
/// during replay.
const MAX_PAYLOAD: u64 = 1 << 31;

/// Errors from WAL operations.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A structurally invalid file (bad magic).
    Corrupt(String),
    /// A frame payload failed to decode.
    Codec(CodecError),
    /// A batch whose frame payload would exceed the 2 GiB replay accepts;
    /// nothing was written.
    BatchTooLarge {
        /// The refused payload's size in bytes.
        payload_bytes: usize,
    },
}

impl core::fmt::Display for WalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o: {e}"),
            WalError::Corrupt(m) => write!(f, "corrupt wal: {m}"),
            WalError::Codec(e) => write!(f, "wal codec: {e}"),
            WalError::BatchTooLarge { payload_bytes } => write!(
                f,
                "batch encodes to {payload_bytes} bytes, over the {MAX_PAYLOAD}-byte frame limit"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<CodecError> for WalError {
    fn from(e: CodecError) -> Self {
        WalError::Codec(e)
    }
}

fn put_record(buf: &mut Vec<u8>, r: &CompactRecord) {
    buf.extend_from_slice(&r.encode());
}

fn get_record(buf: &[u8], pos: &mut usize) -> Result<CompactRecord, CodecError> {
    let end = pos
        .checked_add(COMPACT_RECORD_BYTES as usize)
        .ok_or(CodecError::Truncated)?;
    let r = buf
        .get(*pos..end)
        .and_then(CompactRecord::decode)
        .ok_or(CodecError::Truncated)?;
    *pos = end;
    Ok(r)
}

/// Appends a batch to `buf` as one frame payload (empty groups are
/// skipped, mirroring `insert_batch`'s behavior).
pub fn encode_batch(buf: &mut Vec<u8>, batch: &RecordBatch) {
    let groups = || batch.groups().iter().filter(|g| !g.records.is_empty());
    buf.reserve(16 + batch.len() * COMPACT_RECORD_BYTES as usize);
    put_uvarint(buf, groups().count() as u64);
    for g in groups() {
        put_str(buf, &g.measurement);
        put_str(buf, &g.node);
        put_uvarint(buf, g.records.len() as u64);
        for r in &g.records {
            put_record(buf, r);
        }
    }
}

/// The marker and header of a frame carrying `payload_len` bytes that
/// checksum to `crc`.
///
/// # Errors
///
/// [`WalError::BatchTooLarge`] for a payload [`replay`] would discard as
/// a dirty tail.
fn frame_header(payload_len: usize, crc: u32) -> Result<[u8; 1 + FRAME_HEADER], WalError> {
    let len = u32::try_from(payload_len)
        .ok()
        .filter(|&len| u64::from(len) <= MAX_PAYLOAD)
        .ok_or(WalError::BatchTooLarge {
            payload_bytes: payload_len,
        })?;
    let mut header = [FRAME_MARKER; 1 + FRAME_HEADER];
    header[1..5].copy_from_slice(&len.to_le_bytes());
    header[5..9].copy_from_slice(&crc.to_le_bytes());
    Ok(header)
}

/// Decodes one frame payload back into a batch.
///
/// # Errors
///
/// Any [`CodecError`] on malformed payloads.
pub fn decode_batch(payload: &[u8]) -> Result<RecordBatch, CodecError> {
    let mut batch = RecordBatch::new();
    let mut pos = 0usize;
    let ngroups = get_uvarint(payload, &mut pos)?;
    for _ in 0..ngroups {
        let measurement = get_str(payload, &mut pos)?;
        let node = get_str(payload, &mut pos)?;
        let n = get_uvarint(payload, &mut pos)? as usize;
        if n > payload.len() / COMPACT_RECORD_BYTES as usize + 1 {
            return Err(CodecError::BadLength {
                expected: n,
                actual: payload.len() / COMPACT_RECORD_BYTES as usize,
            });
        }
        let group = batch.group_mut(&measurement, &node);
        group.records.reserve(n);
        for _ in 0..n {
            group.records.push(get_record(payload, &mut pos)?);
        }
    }
    if pos != payload.len() {
        return Err(CodecError::BadLength {
            expected: pos,
            actual: payload.len(),
        });
    }
    Ok(batch)
}

/// The clean prefix of a WAL read back at open time.
#[derive(Debug)]
pub struct WalReplay {
    /// The acknowledged batches, in append order.
    pub batches: Vec<RecordBatch>,
    /// Byte length of the clean frame prefix (including the header
    /// magic); everything past it is torn or corrupt.
    pub clean_len: u64,
    /// Whether a dirty tail was found (and will be truncated).
    pub dirty_tail: bool,
}

/// Reads every clean frame of the WAL at `path`.
///
/// Stops — without error — at the first torn or corrupt frame: a crash
/// mid-append must replay the acknowledged prefix, not fail the open.
///
/// # Errors
///
/// I/O failure, or [`WalError::Corrupt`] if the header magic itself is
/// wrong (the file is not a WAL at all).
pub fn replay(path: &Path) -> Result<WalReplay, WalError> {
    let mut file = File::open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.len() < WAL_MAGIC.len() {
        if bytes[..] == WAL_MAGIC[..bytes.len()] {
            // The header write itself was torn: nothing was ever
            // acknowledged, so the empty prefix is the clean state.
            return Ok(WalReplay {
                batches: Vec::new(),
                clean_len: 0,
                dirty_tail: true,
            });
        }
        return Err(WalError::Corrupt("bad wal magic".into()));
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(WalError::Corrupt("bad wal magic".into()));
    }
    let mut batches = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        let frame_start = pos;
        let Some(&marker) = bytes.get(pos) else {
            // Clean EOF at a frame boundary.
            return Ok(WalReplay {
                batches,
                clean_len: frame_start as u64,
                dirty_tail: false,
            });
        };
        let dirty = |batches: Vec<RecordBatch>| {
            Ok(WalReplay {
                batches,
                clean_len: frame_start as u64,
                dirty_tail: true,
            })
        };
        if marker != FRAME_MARKER {
            return dirty(batches);
        }
        let Some(header) = bytes.get(pos + 1..pos + 1 + FRAME_HEADER) else {
            return dirty(batches);
        };
        let len = u64::from(u32::from_le_bytes(
            header[0..4].try_into().expect("4 bytes"),
        ));
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return dirty(batches);
        }
        let payload_start = pos + 1 + FRAME_HEADER;
        let Some(payload) = bytes.get(payload_start..payload_start + len as usize) else {
            return dirty(batches);
        };
        if crc32(payload) != crc {
            return dirty(batches);
        }
        let Ok(batch) = decode_batch(payload) else {
            return dirty(batches);
        };
        batches.push(batch);
        pos = payload_start + len as usize;
    }
}

/// An open WAL in append mode.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    len: u64,
    batches: u64,
    records: u64,
    sync_on_append: bool,
}

impl Wal {
    /// Creates a fresh WAL at `path` (truncating any existing file) and
    /// durably writes the header.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn create(path: impl Into<PathBuf>, sync_on_append: bool) -> Result<Self, WalError> {
        let path = path.into();
        let mut file = File::create(&path)?;
        file.write_all(WAL_MAGIC)?;
        file.flush()?;
        if sync_on_append {
            file.sync_data()?;
        }
        Ok(Wal {
            file,
            path,
            len: WAL_MAGIC.len() as u64,
            batches: 0,
            records: 0,
            sync_on_append,
        })
    }

    /// Reopens an existing WAL for appending after replay: truncates any
    /// dirty tail to `replay.clean_len` and seeks to the end, restoring
    /// the backlog counters from the replayed batches.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn reopen(
        path: impl Into<PathBuf>,
        replay: &WalReplay,
        sync_on_append: bool,
    ) -> Result<Self, WalError> {
        let path = path.into();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut clean_len = replay.clean_len;
        if replay.dirty_tail {
            file.set_len(clean_len)?;
            if clean_len < WAL_MAGIC.len() as u64 {
                // The header itself was torn; restore it before any
                // frame can be appended past it.
                file.seek(SeekFrom::Start(0))?;
                file.write_all(WAL_MAGIC)?;
                file.flush()?;
                clean_len = WAL_MAGIC.len() as u64;
            }
            if sync_on_append {
                file.sync_data()?;
            }
        }
        file.seek(SeekFrom::Start(clean_len))?;
        let records = replay.batches.iter().map(|b| b.len() as u64).sum();
        Ok(Wal {
            file,
            path,
            len: clean_len,
            batches: replay.batches.len() as u64,
            records,
            sync_on_append,
        })
    }

    /// Appends one batch as a frame; the batch is durable (modulo the
    /// `sync_on_append` setting) when this returns. The frame is encoded
    /// once, behind room for its header, which is filled in afterwards;
    /// its buffer lives for this call only (kept across appends it bought
    /// no time and sat, batch-sized, under every seal's peak memory).
    ///
    /// # Errors
    ///
    /// I/O failure, or [`WalError::BatchTooLarge`] before any byte is
    /// written.
    pub fn append(&mut self, batch: &RecordBatch) -> Result<(), WalError> {
        let mut frame = vec![0; 1 + FRAME_HEADER];
        encode_batch(&mut frame, batch);
        let (header, payload) = frame.split_at_mut(1 + FRAME_HEADER);
        header.copy_from_slice(&frame_header(payload.len(), crc32(payload))?);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        if self.sync_on_append {
            self.file.sync_data()?;
        }
        self.len += frame.len() as u64;
        self.batches += 1;
        self.records += batch.len() as u64;
        Ok(())
    }

    /// Forces the file contents to stable storage regardless of the
    /// per-append sync setting.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// The WAL file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes written (header + clean frames).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the WAL holds no frames.
    pub fn is_empty(&self) -> bool {
        self.batches == 0
    }

    /// Batches in the backlog (appended to this file, not yet sealed).
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Records in the backlog.
    pub fn records(&self) -> u64 {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64) -> CompactRecord {
        CompactRecord {
            timestamp_ns: ts,
            trace_id: ts as u32,
            pkt_len: 60,
            flags: 1,
            ..Default::default()
        }
    }

    fn batch(base: u64, n: u64) -> RecordBatch {
        let mut b = RecordBatch::new();
        for i in 0..n {
            b.push("tp_a", "n1", rec(base + i));
            b.push("tp_b", "n2", rec(base + i + 1000));
        }
        b
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vnt_wal_test_{}_{name}.log", std::process::id()))
    }

    #[test]
    fn append_replay_round_trip() {
        let path = tmp("round_trip");
        let mut wal = Wal::create(&path, false).unwrap();
        for i in 0..5 {
            wal.append(&batch(i * 100, 4)).unwrap();
        }
        assert_eq!(wal.batches(), 5);
        assert_eq!(wal.records(), 5 * 8);
        drop(wal);
        let replay = replay(&path).unwrap();
        assert!(!replay.dirty_tail);
        assert_eq!(replay.batches.len(), 5);
        for (i, b) in replay.batches.iter().enumerate() {
            let expect = batch(i as u64 * 100, 4);
            assert_eq!(b.len(), expect.len());
            let es: Vec<_> = expect
                .groups()
                .iter()
                .map(|g| (g.measurement.clone(), g.node.clone(), g.records.clone()))
                .collect();
            let gs: Vec<_> = b
                .groups()
                .iter()
                .map(|g| (g.measurement.clone(), g.node.clone(), g.records.clone()))
                .collect();
            assert_eq!(gs, es);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_replays_clean_prefix() {
        let path = tmp("truncate");
        let mut wal = Wal::create(&path, false).unwrap();
        let mut boundaries = vec![wal.len()];
        for i in 0..4 {
            wal.append(&batch(i, 8)).unwrap();
            boundaries.push(wal.len());
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Truncate at EVERY byte length: the replay must recover exactly
        // the batches whose frames fit completely.
        for cut in WAL_MAGIC.len()..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let r = replay(&path).unwrap();
            let expect = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(r.batches.len(), expect, "cut at {cut}");
            assert_eq!(r.dirty_tail, boundaries[expect] != cut as u64);
            assert_eq!(r.clean_len, boundaries[expect]);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_truncates_dirty_tail_and_appends() {
        let path = tmp("reopen");
        let mut wal = Wal::create(&path, false).unwrap();
        wal.append(&batch(0, 4)).unwrap();
        let clean = wal.len();
        wal.append(&batch(100, 4)).unwrap();
        drop(wal);
        // Tear the second frame.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..clean as usize + 5]).unwrap();

        let r = replay(&path).unwrap();
        assert!(r.dirty_tail);
        assert_eq!(r.batches.len(), 1);
        let mut wal = Wal::reopen(&path, &r, false).unwrap();
        assert_eq!(wal.batches(), 1);
        wal.append(&batch(200, 4)).unwrap();
        drop(wal);
        let r = replay(&path).unwrap();
        assert!(!r.dirty_tail);
        assert_eq!(r.batches.len(), 2, "append after truncation is clean");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_payload_bytes_stop_replay() {
        let path = tmp("corrupt");
        let mut wal = Wal::create(&path, false).unwrap();
        wal.append(&batch(0, 4)).unwrap();
        wal.append(&batch(100, 4)).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&path).unwrap();
        assert!(r.dirty_tail);
        assert!(r.batches.len() < 2, "corruption must not replay past it");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn frame_header_refuses_what_replay_would_discard() {
        let max = MAX_PAYLOAD as usize;
        let header = frame_header(max, 0xa1b2_c3d4).expect("the bound itself replays");
        assert_eq!(header, [0xb7, 0, 0, 0, 0x80, 0xd4, 0xc3, 0xb2, 0xa1]);
        assert_eq!(
            frame_header(5, 1).unwrap(),
            [0xb7, 5, 0, 0, 0, 1, 0, 0, 0],
            "marker, length, CRC, all little-endian"
        );
        // One past the bound, the last length a u32 holds (which `append`
        // used to acknowledge), and the first it does not (which used to
        // panic): all typed, none written.
        for len in [max + 1, u32::MAX as usize, u32::MAX as usize + 1] {
            assert!(matches!(
                frame_header(len, 0),
                Err(WalError::BatchTooLarge { payload_bytes }) if payload_bytes == len
            ));
        }
    }

    #[test]
    fn non_wal_file_is_rejected() {
        let path = tmp("notwal");
        std::fs::write(&path, b"hello world, definitely not a wal").unwrap();
        assert!(matches!(replay(&path), Err(WalError::Corrupt(_))));
        let _ = std::fs::remove_file(&path);
    }
}
