//! The trace database: one table per measurement, in first-seen order,
//! optionally backed by an on-disk segment store.
//!
//! [`TraceDb::new`] builds the classic in-memory store: everything lives
//! in per-measurement [`Table`]s and vanishes with the process — the
//! right shape for the live engine and short testbed runs.
//!
//! [`TraceDb::open`] binds the database to a directory and turns
//! [`TraceDb::insert_batch`] into a durable operation: each batch is
//! appended to a write-ahead log before it is acknowledged, the
//! in-memory hot tail is sealed into immutable columnar segments (see
//! [`crate::segment`]) once it crosses a threshold, and each seal hands
//! a background worker one round of small-segment merges that the next
//! seal commits (see [`crate::compact`]). The directory holds:
//!
//! ```text
//! MANIFEST        committed state: WAL file + live segment files
//! wal-<id>.log    the hot tail's write-ahead log
//! seg-<id>.col    immutable columnar segments
//! ```
//!
//! The `MANIFEST` is the commit point for every multi-file transition
//! (seal, compaction): new files are written and fsynced first, the
//! manifest is atomically replaced (write-temp + rename), and only then
//! are superseded files deleted. A crash at any point leaves either the
//! old or the new manifest, and unreferenced files are garbage-collected
//! at the next open. Reopening replays the WAL tail past the last sealed
//! segment, truncating a torn final frame, so the database always
//! reopens to exactly the acknowledged-batch prefix.
//!
//! [`TraceDb::insert_batch`] is the only way in, so on a disk-backed
//! database everything stored is journaled.

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde_json::{member, object, FromJson, ToJson, Value};

use crate::batch::RecordBatch;
use crate::compact::{plan_windows, CompactionJob, Compactor, FinishedCompaction};
use crate::join::FirstSeen;
use crate::record::COMPACT_RECORD_BYTES;
use crate::segment::{Segment, SegmentError, SegmentWriter};
use crate::table::Table;
use crate::wal::{self, Wal, WalError};

/// Name of the manifest file inside a database directory; a directory
/// without one holds no database (yet).
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Errors from the disk-backed store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A segment failed to write, open or decode.
    Segment(SegmentError),
    /// The write-ahead log failed.
    Wal(WalError),
    /// The manifest is unreadable or structurally invalid.
    Manifest(String),
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
            StoreError::Segment(e) => write!(f, "{e}"),
            StoreError::Wal(e) => write!(f, "{e}"),
            StoreError::Manifest(m) => write!(f, "bad manifest: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<SegmentError> for StoreError {
    fn from(e: SegmentError) -> Self {
        StoreError::Segment(e)
    }
}

impl From<WalError> for StoreError {
    fn from(e: WalError) -> Self {
        StoreError::Wal(e)
    }
}

/// Tunables for a disk-backed database.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Seal the hot tail into segments once it holds this many records.
    pub seal_threshold: usize,
    /// Fsync WAL appends, segment files and manifest swaps. Turning
    /// this off trades crash durability for speed (tests, benchmarks).
    pub fsync: bool,
    /// How many seq-adjacent segments of one measurement a merge takes.
    /// A run of them merges once its oldest segment holds no more rows
    /// than the rest together, so a merged segment waits for newer ones
    /// to catch up with it (see [`crate::compact`]).
    pub compact_fanin: usize,
    /// Do not produce merged segments larger than this many rows.
    pub compact_max_rows: u64,
    // Ignored: there is one compaction mode (crate::compact). Kept only
    // because `bench_e2e/src/rack.rs:79`, a file only a `benchmark` PR may
    // edit, still names the field; that PR drops the mention and this
    // shim together (ROADMAP item 2).
    #[doc(hidden)]
    pub background_compaction: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            seal_threshold: 512 * 1024,
            fsync: true,
            compact_fanin: 4,
            compact_max_rows: 8 * 1024 * 1024,
            background_compaction: true,
        }
    }
}

/// A snapshot of a disk-backed database's storage state, surfaced
/// through `CollectorStats` and `vnt db stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageStats {
    /// Live segment files.
    pub segments: u64,
    /// Records sealed into segments.
    pub sealed_records: u64,
    /// Total encoded segment bytes on disk.
    pub encoded_bytes: u64,
    /// What the sealed records would occupy in raw 32-byte form.
    pub raw_bytes: u64,
    /// Bytes in the current WAL (header + frames).
    pub wal_bytes: u64,
    /// Batches in the WAL backlog (appended, not yet sealed).
    pub wal_batches: u64,
    /// Records in the WAL backlog.
    pub wal_records: u64,
    /// Seals performed by this process.
    pub seals: u64,
    /// Compaction merges committed by this process.
    pub compactions: u64,
    /// Input segments consumed by those merges.
    pub segments_merged: u64,
    /// Rows those merges wrote: over `sealed_records`, how many times
    /// compaction has rewritten a stored row on average.
    pub rows_merged: u64,
    /// Bytes reclaimed by deleting merged inputs (net of the output).
    pub bytes_reclaimed: u64,
}

impl StorageStats {
    /// Encoded-to-raw compression ratio (0 when nothing is sealed).
    pub fn compression_ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            0.0
        } else {
            self.encoded_bytes as f64 / self.raw_bytes as f64
        }
    }
}

/// One measurement's storage breakdown on a disk-backed database — a
/// row of [`TraceDb::measurement_storage`] and of `vnt db stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MeasurementStorage {
    /// Measurement (table) name.
    pub measurement: String,
    /// Sealed segment files holding this measurement.
    pub segments: u64,
    /// Row blocks across those segments (the unit scans read and skip).
    pub blocks: u64,
    /// Records sealed into those segments.
    pub sealed_records: u64,
    /// Encoded bytes on disk across those segments.
    pub encoded_bytes: u64,
    /// What those records would occupy in raw 32-byte form.
    pub raw_bytes: u64,
    /// Records still in the in-memory hot tail (covered by the WAL).
    pub hot_records: u64,
}

impl MeasurementStorage {
    /// Encoded-to-raw compression ratio (0 when nothing is sealed).
    pub fn compression_ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            0.0
        } else {
            self.encoded_bytes as f64 / self.raw_bytes as f64
        }
    }
}

/// The committed state of a database directory: which WAL and which
/// segment files are live. Replaced atomically on every transition.
#[derive(Debug, Clone)]
struct Manifest {
    next_file_id: u64,
    wal: String,
    segments: Vec<String>,
}

impl Manifest {
    /// Hands out the next file name.
    fn next_file(&mut self, prefix: &str, suffix: &str) -> String {
        let id = self.next_file_id;
        self.next_file_id += 1;
        format!("{prefix}{id}{suffix}")
    }
}

impl ToJson for Manifest {
    fn to_json(&self) -> Value {
        object([
            ("version", 1u64.to_json()),
            ("next_file_id", self.next_file_id.to_json()),
            ("wal", self.wal.to_json()),
            ("segments", self.segments.to_json()),
        ])
    }
}

impl FromJson for Manifest {
    fn from_json(value: &Value) -> Result<Self, serde_json::Error> {
        let version: u64 = member(value, "version")?;
        if version != 1 {
            return Err(serde_json::Error::msg(format!(
                "unsupported manifest version {version}"
            )));
        }
        Ok(Manifest {
            next_file_id: member(value, "next_file_id")?,
            wal: member(value, "wal")?,
            segments: member(value, "segments")?,
        })
    }
}

/// Writes the manifest durably: temp file, fsync, atomic rename, then
/// directory fsync so the rename itself is durable.
fn write_manifest(dir: &Path, manifest: &Manifest, fsync: bool) -> Result<(), StoreError> {
    let tmp = dir.join("MANIFEST.tmp");
    let text = serde_json::to_string(manifest).map_err(|e| StoreError::Manifest(e.to_string()))?;
    {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.flush()?;
        if fsync {
            f.sync_all()?;
        }
    }
    fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
    if fsync {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Deletes files the manifest does not reference: segments and WALs
/// orphaned by a crash between writing files and committing the
/// manifest (or after it), plus leftover temporaries. Unknown file
/// names are left alone.
fn gc_unreferenced(dir: &Path, manifest: &Manifest) -> Result<(), StoreError> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == MANIFEST_FILE || name == manifest.wal || manifest.segments.contains(&name) {
            continue;
        }
        let stray = name.ends_with(".tmp")
            || (name.starts_with("seg-") && name.ends_with(".col"))
            || (name.starts_with("wal-") && name.ends_with(".log"));
        if stray {
            let _ = fs::remove_file(entry.path());
        }
    }
    Ok(())
}

/// The disk half of a [`TraceDb`]: manifest, WAL, open segments and the
/// compactor. The invariant throughout: `segments[i]` is the open
/// handle for `manifest.segments[i]`, and `manifest` lists what the
/// directory's MANIFEST lists: a transition builds the next manifest as
/// a copy and assigns it only once the swap has succeeded.
#[derive(Debug)]
struct DiskStore {
    dir: PathBuf,
    options: StoreOptions,
    manifest: Manifest,
    wal: Wal,
    segments: Vec<Segment>,
    compactor: Compactor,
    seals: u64,
    compactions: u64,
    segments_merged: u64,
    rows_merged: u64,
    bytes_reclaimed: u64,
}

impl DiskStore {
    /// Plans a round: each measurement's windows ([`plan_windows`]) —
    /// measurements in name order, windows in sequence order, output
    /// file ids handed out in that order. A function of the committed
    /// manifest alone.
    fn plan_round(&mut self) -> Vec<CompactionJob> {
        let (fanin, max_rows) = (self.options.compact_fanin, self.options.compact_max_rows);
        let mut by_measurement: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, s) in self.segments.iter().enumerate() {
            by_measurement
                .entry(s.meta().measurement.as_str())
                .or_default()
                .push(i);
        }
        let mut windows: Vec<Vec<usize>> = Vec::new();
        for mut idxs in by_measurement.into_values() {
            idxs.sort_by_key(|&i| self.segments[i].meta().min_seq);
            let rows: Vec<u64> = idxs
                .iter()
                .map(|&i| self.segments[i].meta().records)
                .collect();
            windows.extend(
                plan_windows(&rows, fanin, max_rows)
                    .into_iter()
                    .map(|w| idxs[w].to_vec()),
            );
        }
        let mut jobs = Vec::with_capacity(windows.len());
        for window in windows {
            let input_files: Vec<String> = window
                .iter()
                .map(|&i| self.manifest.segments[i].clone())
                .collect();
            let output_file = self.manifest.next_file("seg-", ".col");
            jobs.push(CompactionJob {
                measurement: self.segments[window[0]].meta().measurement.clone(),
                inputs: input_files.iter().map(|f| self.dir.join(f)).collect(),
                input_files,
                output_tmp: self.dir.join(format!("{output_file}.tmp")),
                output_file,
                fsync: self.options.fsync,
            });
        }
        jobs
    }

    /// Plans a round and hands it to the worker; `false` when nothing
    /// qualifies. Only ever called with no round in flight.
    fn start_round(&mut self) -> Result<bool, StoreError> {
        let jobs = self.plan_round();
        if jobs.is_empty() {
            return Ok(false);
        }
        self.compactor.start(jobs)?;
        Ok(true)
    }

    /// Joins the round in flight, if any, and commits its outputs in
    /// plan order; returns how many. A failed merge does not keep the
    /// round's other outputs from committing — the first error is
    /// returned once they have.
    fn finish_round(&mut self) -> Result<u64, StoreError> {
        let mut merges = 0u64;
        let mut failed = None;
        for finished in self.compactor.finish() {
            match self.commit_compaction(finished) {
                Ok(()) => merges += 1,
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        failed.map_or(Ok(merges), Err)
    }

    /// Commits a finished merge: renames the output into place, swaps
    /// the manifest (inputs out, output in, at the first input's
    /// position), deletes the inputs, and refreshes the open handles.
    /// Nothing in memory changes unless the swap succeeds; an output
    /// renamed for a failed swap is collected at the next open.
    fn commit_compaction(&mut self, finished: FinishedCompaction) -> Result<(), StoreError> {
        let FinishedCompaction { job, result } = finished;
        let meta = result?;
        let output_path = self.dir.join(&job.output_file);
        fs::rename(&job.output_tmp, &output_path)?;
        if self.options.fsync {
            File::open(&self.dir)?.sync_all()?;
        }
        let output = Segment::open(&output_path)?;
        let first = self
            .manifest
            .segments
            .iter()
            .position(|f| Some(f) == job.input_files.first())
            .ok_or_else(|| {
                StoreError::Manifest("compaction input no longer in the manifest".into())
            })?;
        let mut next = self.manifest.clone();
        next.segments.retain(|f| !job.input_files.contains(f));
        let insert_at = first.min(next.segments.len());
        next.segments.insert(insert_at, job.output_file.clone());
        write_manifest(&self.dir, &next, self.options.fsync)?;
        self.manifest = next;
        let reclaimed: u64 = self
            .segments
            .iter()
            .filter(|s| job.input_files.iter().any(|f| self.dir.join(f) == s.path()))
            .map(|s| s.meta().file_bytes)
            .sum();
        for f in &job.input_files {
            let _ = fs::remove_file(self.dir.join(f));
        }
        self.segments
            .retain(|s| !job.input_files.iter().any(|f| self.dir.join(f) == s.path()));
        self.segments.insert(insert_at, output);
        self.compactions += 1;
        self.segments_merged += job.input_files.len() as u64;
        self.rows_merged += meta.records;
        self.bytes_reclaimed += reclaimed.saturating_sub(meta.file_bytes);
        Ok(())
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        // An uncommitted round is just temp files; remove them so a
        // clean shutdown leaves no strays (a crash leaves them for GC).
        for finished in self.compactor.finish() {
            let _ = fs::remove_file(&finished.job.output_tmp);
        }
    }
}

/// An embedded time-series store, one [`Table`] per measurement —
/// vNetTracer's "trace database" where "all the tracing records at
/// different tracepoints are dumped … where records are indexed by their
/// packet IDs" (§III-C).
///
/// Tables are kept in first-seen order and found by name through one
/// index; a node name is looked up in its table's node dictionary. The batched ingest path ([`TraceDb::insert_batch`])
/// resolves each name once per batch group rather than once per record.
///
/// [`TraceDb::new`] keeps everything in memory; [`TraceDb::open`] binds
/// the database to a directory for durable, larger-than-RAM operation
/// (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct TraceDb {
    tables: Vec<Table>,
    index: HashMap<String, usize>,
    disk: Option<DiskStore>,
}

impl TraceDb {
    /// Creates an empty in-memory database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens (or initializes) a disk-backed database at `dir` with
    /// default [`StoreOptions`].
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from reading the directory's committed state.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Opens (or initializes) a disk-backed database at `dir`.
    ///
    /// Opening an existing directory garbage-collects files orphaned by
    /// a crash, opens every committed segment, replays the WAL tail
    /// into the hot tail (truncating a torn final frame), and reserves
    /// sequence numbers past the sealed maximum so the hot tail keeps
    /// numbering where the segments left off.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`]: I/O, an unreadable manifest, or a corrupt
    /// committed segment.
    pub fn open_with(dir: impl AsRef<Path>, options: StoreOptions) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut db = TraceDb::new();
        let disk = |dir, options, manifest, wal, segments| DiskStore {
            dir,
            options,
            manifest,
            wal,
            segments,
            compactor: Compactor::default(),
            seals: 0,
            compactions: 0,
            segments_merged: 0,
            rows_merged: 0,
            bytes_reclaimed: 0,
        };
        if manifest_path.exists() {
            let text = fs::read_to_string(&manifest_path)?;
            let manifest: Manifest =
                serde_json::from_str(&text).map_err(|e| StoreError::Manifest(e.to_string()))?;
            gc_unreferenced(&dir, &manifest)?;
            let mut segments = Vec::with_capacity(manifest.segments.len());
            for f in &manifest.segments {
                segments.push(Segment::open(dir.join(f))?);
            }
            for s in &segments {
                let meta = s.meta();
                let measurement = meta.measurement.clone();
                let max_seq = meta.max_seq;
                db.table_mut(&measurement).reserve_seq(max_seq + 1);
            }
            let wal_path = dir.join(&manifest.wal);
            let replay = wal::replay(&wal_path)?;
            for batch in &replay.batches {
                db.insert_batch_memory(batch);
            }
            let wal = Wal::reopen(&wal_path, &replay, options.fsync)?;
            let seal_threshold = options.seal_threshold;
            db.disk = Some(disk(dir, options, manifest, wal, segments));
            if db.hot_records() >= seal_threshold {
                db.seal()?;
            }
        } else {
            let mut manifest = Manifest {
                next_file_id: 0,
                wal: String::new(),
                segments: Vec::new(),
            };
            manifest.wal = manifest.next_file("wal-", ".log");
            let wal = Wal::create(dir.join(&manifest.wal), options.fsync)?;
            write_manifest(&dir, &manifest, options.fsync)?;
            db.disk = Some(disk(dir, options, manifest, wal, Vec::new()));
        }
        Ok(db)
    }

    /// Whether the database is bound to an on-disk directory.
    pub fn is_disk_backed(&self) -> bool {
        self.disk.is_some()
    }

    /// The database directory, if disk-backed.
    pub fn dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(|d| d.dir.as_path())
    }

    fn table_mut(&mut self, measurement: &str) -> &mut Table {
        let i = match self.index.get(measurement) {
            Some(&i) => i,
            None => {
                self.tables.push(Table::new(measurement));
                self.index
                    .insert(measurement.to_owned(), self.tables.len() - 1);
                self.tables.len() - 1
            }
        };
        &mut self.tables[i]
    }

    /// The memory half of batch ingest: appends each group's records
    /// to its table's hot tail.
    fn insert_batch_memory(&mut self, batch: &RecordBatch) -> u64 {
        let mut ingested = 0u64;
        for group in batch.groups() {
            if group.records.is_empty() {
                continue;
            }
            self.table_mut(&group.measurement)
                .insert_records(&group.node, &group.records);
            ingested += group.records.len() as u64;
        }
        ingested
    }

    /// Ingests a whole batch: each group's records are appended to its
    /// table's hot tail in one go, with no per-record name hashing or
    /// allocation. Returns the number of records ingested.
    ///
    /// On a disk-backed database the batch is the WAL unit: it is
    /// appended durably *before* it reaches the hot tail, and a batch
    /// that fills the tail is a seal point: the compaction round in
    /// flight is joined and committed, the tail is sealed into segments,
    /// and the next round starts.
    ///
    /// # Panics
    ///
    /// Panics if the disk store fails (WAL append, seal or compaction
    /// commit I/O). Use [`TraceDb::try_insert_batch`] to handle storage
    /// errors.
    pub fn insert_batch(&mut self, batch: &RecordBatch) -> u64 {
        self.try_insert_batch(batch)
            .unwrap_or_else(|e| panic!("disk-backed trace store failed: {e}"))
    }

    /// [`TraceDb::insert_batch`] with storage errors surfaced instead of
    /// panicking. Identical to it on an in-memory database.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from the WAL append, a seal, or a compaction
    /// commit.
    pub fn try_insert_batch(&mut self, batch: &RecordBatch) -> Result<u64, StoreError> {
        if let Some(disk) = &mut self.disk {
            if batch.groups().iter().any(|g| !g.records.is_empty()) {
                disk.wal.append(batch)?;
            }
        }
        let ingested = self.insert_batch_memory(batch);
        if let Some(seal_threshold) = self.disk.as_ref().map(|d| d.options.seal_threshold) {
            if self.hot_records() >= seal_threshold {
                self.seal()?;
                if let Some(disk) = &mut self.disk {
                    disk.start_round()?;
                }
            }
        }
        Ok(ingested)
    }

    /// Records currently resident in the hot tail.
    fn hot_records(&self) -> usize {
        self.tables.iter().map(Table::len).sum()
    }

    /// A seal point. Joins and commits the compaction round in flight,
    /// then seals the hot tail: every table's rows, under its dictionary
    /// and sequence numbers, become one new immutable segment, the WAL rotates to a fresh file, and the
    /// manifest commits both in one swap (nothing to seal when the tail
    /// is empty). The tail is cleared only after the swap, so a seal
    /// that fails leaves memory as it was; the files it wrote are
    /// collected at the next open. Starting the next round is the
    /// caller's decision.
    fn seal(&mut self) -> Result<(), StoreError> {
        let Some(disk) = self.disk.as_mut() else {
            return Ok(());
        };
        disk.finish_round()?;
        let mut next = disk.manifest.clone();
        let mut sealed: Vec<Segment> = Vec::new();
        for table in self.tables.iter().filter(|t| !t.is_empty()) {
            let file = next.next_file("seg-", ".col");
            let tmp = disk.dir.join(format!("{file}.tmp"));
            let mut writer = SegmentWriter::create(&tmp)?;
            writer.append_rows(table.first_seq(), table.rows())?;
            writer.finish(table.name(), table.nodes(), disk.options.fsync)?;
            let path = disk.dir.join(&file);
            fs::rename(&tmp, &path)?;
            sealed.push(Segment::open(path)?);
            next.segments.push(file);
        }
        if sealed.is_empty() {
            return Ok(());
        }
        if disk.options.fsync {
            File::open(&disk.dir)?.sync_all()?;
        }
        next.wal = next.next_file("wal-", ".log");
        let new_wal = Wal::create(disk.dir.join(&next.wal), disk.options.fsync)?;
        write_manifest(&disk.dir, &next, disk.options.fsync)?;
        disk.manifest = next;
        let old_wal = std::mem::replace(&mut disk.wal, new_wal);
        let _ = fs::remove_file(old_wal.path());
        disk.segments.extend(sealed);
        for table in &mut self.tables {
            table.clear_sealed();
        }
        disk.seals += 1;
        Ok(())
    }

    /// Joins and commits the compaction round in flight, seals the hot
    /// tail and syncs the WAL; starts no new round. After a flush, every
    /// acknowledged record is durable on disk and the directory is
    /// quiescent. No-op on an in-memory database.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from sealing, committing or syncing.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.seal()?;
        if let Some(disk) = self.disk.as_mut() {
            disk.wal.sync()?;
        }
        Ok(())
    }

    /// Runs compaction to quiescence: commits the round in flight, then
    /// starts and commits rounds until no measurement qualifies. Returns
    /// the number of merges committed.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from a merge or its commit.
    pub fn compact_now(&mut self) -> Result<u64, StoreError> {
        let Some(disk) = &mut self.disk else {
            return Ok(0);
        };
        let mut merges = disk.finish_round()?;
        while disk.start_round()? {
            merges += disk.finish_round()?;
        }
        Ok(merges)
    }

    /// Storage state of a disk-backed database; `None` when in-memory.
    pub fn storage_stats(&self) -> Option<StorageStats> {
        let d = self.disk.as_ref()?;
        let sealed_records: u64 = d.segments.iter().map(|s| s.meta().records).sum();
        let encoded_bytes: u64 = d.segments.iter().map(|s| s.meta().file_bytes).sum();
        Some(StorageStats {
            segments: d.segments.len() as u64,
            sealed_records,
            encoded_bytes,
            raw_bytes: sealed_records * COMPACT_RECORD_BYTES,
            wal_bytes: d.wal.len(),
            wal_batches: d.wal.batches(),
            wal_records: d.wal.records(),
            seals: d.seals,
            compactions: d.compactions,
            segments_merged: d.segments_merged,
            rows_merged: d.rows_merged,
            bytes_reclaimed: d.bytes_reclaimed,
        })
    }

    /// Per-measurement storage breakdown, sorted by measurement name —
    /// the rows behind `vnt db stats`. Empty for in-memory databases;
    /// measurements living only in the hot tail appear with zero
    /// segments.
    pub fn measurement_storage(&self) -> Vec<MeasurementStorage> {
        let Some(d) = &self.disk else {
            return Vec::new();
        };
        let mut by: BTreeMap<String, MeasurementStorage> = BTreeMap::new();
        for s in &d.segments {
            let m = s.meta();
            let e = by
                .entry(m.measurement.clone())
                .or_insert_with(|| MeasurementStorage {
                    measurement: m.measurement.clone(),
                    ..Default::default()
                });
            e.segments += 1;
            e.blocks += m.blocks.len() as u64;
            e.sealed_records += m.records;
            e.encoded_bytes += m.file_bytes;
            e.raw_bytes += m.records * COMPACT_RECORD_BYTES;
        }
        for t in &self.tables {
            let hot = t.len() as u64;
            if hot == 0 && !by.contains_key(t.name()) {
                continue;
            }
            by.entry(t.name().to_owned())
                .or_insert_with(|| MeasurementStorage {
                    measurement: t.name().to_owned(),
                    ..Default::default()
                })
                .hot_records = hot;
        }
        by.into_values().collect()
    }

    /// The open segments holding `measurement`'s sealed records, in
    /// sequence order. Empty for in-memory databases.
    pub(crate) fn sealed_segments_for(&self, measurement: &str) -> Vec<&Segment> {
        let Some(d) = &self.disk else {
            return Vec::new();
        };
        let mut segs: Vec<&Segment> = d
            .segments
            .iter()
            .filter(|s| s.meta().measurement == measurement)
            .collect();
        segs.sort_by_key(|s| s.meta().min_seq);
        segs
    }

    /// Borrows a measurement's table — the *hot tail* on a disk-backed
    /// database (sealed records are reachable through
    /// [`Query::scan`](crate::query::Query::scan)).
    pub fn table(&self, measurement: &str) -> Option<&Table> {
        self.index.get(measurement).map(|&i| &self.tables[i])
    }

    /// Names of all measurements, in first-seen order.
    pub fn measurements(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(Table::name)
    }

    /// Total number of stored records: the hot tail, plus sealed segment
    /// records on a disk-backed database.
    pub fn len(&self) -> usize {
        let hot = self.hot_records();
        let sealed: u64 = self
            .disk
            .as_ref()
            .map(|d| d.segments.iter().map(|s| s.meta().records).sum())
            .unwrap_or(0);
        hot + sealed as usize
    }

    /// Whether the database holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Joins a trace ID across two measurements: for every trace ID seen
    /// in both, yields the pair of timestamps `(t_from, t_to)` of its
    /// first record in each, sorted (see [`FirstSeen::join`]).
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from reading a sealed segment.
    pub fn join_timestamps(&self, from: &str, to: &str) -> Result<Vec<(u64, u64)>, StoreError> {
        let from = FirstSeen::scan(self, from)?;
        if from.is_empty() {
            return Ok(Vec::new());
        }
        Ok(from.join(&FirstSeen::scan(self, to)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CompactRecord;

    fn rec(ts: u64, trace_id: u32) -> CompactRecord {
        CompactRecord {
            timestamp_ns: ts,
            trace_id,
            pkt_len: 60,
            flags: 1,
            ..Default::default()
        }
    }

    #[test]
    fn tables_created_on_demand() {
        let mut db = TraceDb::new();
        assert!(db.is_empty());
        let mut batch = RecordBatch::new();
        batch.push("a", "n", rec(1, 1));
        batch.push("b", "n", rec(2, 2));
        batch.push("a", "n", rec(3, 3));
        assert_eq!(db.insert_batch(&batch), 3);
        assert_eq!(db.len(), 3);
        assert_eq!(db.table("a").unwrap().len(), 2);
        let mut names: Vec<&str> = db.measurements().collect();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "b"]);
        assert!(db.table("zzz").is_none());
    }

    #[test]
    fn join_timestamps_pairs_by_trace_id() {
        let mut batch = RecordBatch::new();
        for (id, ta, tb) in [(7, 100u64, 150u64), (8, 200, 280)] {
            batch.push("p1", "n", rec(ta, id));
            batch.push("p2", "n", rec(tb, id));
        }
        // An incomplete record: seen at p1 only (e.g. dropped packet).
        batch.push("p1", "n", rec(300, 9));
        let mut db = TraceDb::new();
        db.insert_batch(&batch);
        let joined = db.join_timestamps("p1", "p2").unwrap();
        assert_eq!(joined, vec![(100, 150), (200, 280)]);
        assert!(db.join_timestamps("p1", "absent").unwrap().is_empty());
    }

    #[test]
    fn empty_batch_groups_are_skipped() {
        let mut db = TraceDb::new();
        let mut batch = RecordBatch::new();
        batch.push("tp", "n", rec(1, 1));
        batch.clear(); // group remains, but empty
        assert_eq!(db.insert_batch(&batch), 0);
        assert!(db.is_empty());
        assert!(db.table("tp").is_none(), "no table for an empty group");
    }

    fn test_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vnt_store_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn fast_options() -> StoreOptions {
        StoreOptions {
            seal_threshold: 100,
            fsync: false,
            compact_fanin: 3,
            compact_max_rows: 1 << 20,
            ..StoreOptions::default()
        }
    }

    fn push_records(db: &mut TraceDb, base: u64, n: u64) {
        let mut batch = RecordBatch::new();
        for i in 0..n {
            batch.push(
                "tp",
                if i % 2 == 0 { "n0" } else { "n1" },
                rec(base + i, (base + i) as u32),
            );
        }
        db.insert_batch(&batch);
    }

    #[test]
    fn disk_db_seals_and_reopens_identically() {
        let dir = test_dir("seal_reopen");
        let mut db = TraceDb::open_with(&dir, fast_options()).unwrap();
        for round in 0..5u64 {
            push_records(&mut db, round * 1000, 60);
        }
        assert_eq!(db.len(), 300);
        let stats = db.storage_stats().unwrap();
        assert!(stats.seals >= 1, "threshold crossed at least twice");
        assert!(stats.sealed_records > 0);
        assert!(stats.wal_records < 300, "sealed records left the backlog");
        assert_eq!(stats.sealed_records + stats.wal_records, 300);
        let before = db.join_timestamps("tp", "tp").unwrap();
        drop(db);

        let db = TraceDb::open_with(&dir, fast_options()).unwrap();
        assert_eq!(db.len(), 300, "reopen sees every acknowledged record");
        assert_eq!(db.join_timestamps("tp", "tp").unwrap(), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_merges_and_preserves_data() {
        let dir = test_dir("compact");
        let mut opts = fast_options();
        opts.seal_threshold = 50;
        let mut db = TraceDb::open_with(&dir, opts).unwrap();
        for round in 0..8u64 {
            push_records(&mut db, round * 100, 50);
        }
        db.flush().unwrap();
        let stats = db.storage_stats().unwrap();
        assert!(stats.compactions >= 1, "fanin 3 must have triggered");
        assert!(stats.segments_merged >= 3);
        assert_eq!(stats.sealed_records, 400);
        // Only committed files live in the directory.
        let files: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("seg-"))
            .collect();
        assert_eq!(files.len() as u64, stats.segments);
        drop(db);
        let db = TraceDb::open_with(&dir, fast_options()).unwrap();
        assert_eq!(db.len(), 400);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_directory_initializes_empty() {
        let dir = test_dir("fresh");
        let db = TraceDb::open_with(&dir, fast_options()).unwrap();
        assert!(db.is_disk_backed());
        assert!(db.is_empty());
        assert_eq!(db.dir(), Some(dir.as_path()));
        let stats = db.storage_stats().unwrap();
        assert_eq!(stats.segments, 0);
        assert_eq!(stats.wal_batches, 0);
        assert_eq!(stats.compression_ratio(), 0.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_db_reports_no_storage() {
        let db = TraceDb::new();
        assert!(!db.is_disk_backed());
        assert!(db.storage_stats().is_none());
        assert!(db.dir().is_none());
    }
}
