//! Crash-recovery tests for the disk-backed store: every prefix
//! truncation of the WAL reopens to exactly the acknowledged-batch
//! prefix, a crash at any point of the compaction protocol — including
//! between two commits of one round — leaves a readable database (old
//! segments win until the manifest swap), one failing merge fails only
//! itself, a failed manifest swap changes nothing in memory, and
//! reopening is idempotent.

use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

use vnet_tsdb::segment::SegmentError;
use vnet_tsdb::{
    write_json_lines, ColumnId, CompactRecord, Query, RecordBatch, Segment, StoreError,
    StoreOptions, TraceDb, COMPACT_RECORD_BYTES,
};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vnt-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn no_fsync() -> StoreOptions {
    StoreOptions {
        fsync: false,
        ..StoreOptions::default()
    }
}

/// `n` records starting at logical index `start`: two nodes, two
/// measurements, advancing timestamps.
fn make_batch(start: u64, n: u64) -> RecordBatch {
    let mut batch = RecordBatch::new();
    for i in start..start + n {
        let m = if i % 2 == 0 { "tp_a" } else { "tp_b" };
        let node = if i % 3 == 0 { "vm1" } else { "vm2" };
        batch.push(
            m,
            node,
            CompactRecord {
                timestamp_ns: i * 1_000,
                trace_id: i as u32,
                pkt_len: 60 + (i % 100) as u32,
                saddr: u32::from(Ipv4Addr::new(10, 0, 0, 1)),
                daddr: u32::from(Ipv4Addr::new(10, 0, 0, 2)),
                sport: 1_000,
                dport: 2_000,
                cpu: (i % 4) as u16,
                direction: (i % 2) as u8,
                flags: 1,
            },
        );
    }
    batch
}

fn export(db: &TraceDb) -> Vec<u8> {
    let mut buf = Vec::new();
    write_json_lines(db, &mut buf).expect("export");
    buf
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Truncate the WAL to *every* possible length, byte by byte, and check
/// each reopen recovers exactly the batches whose frames fit — never an
/// error, never a partial batch.
#[test]
fn every_wal_prefix_reopens_to_acknowledged_batch_prefix() {
    const BATCHES: u64 = 8;
    const PER_BATCH: u64 = 16;
    let dir = test_dir("wal-prefix");

    // Ingest and record the WAL length after each acknowledged batch.
    // The seal threshold stays far away, so the WAL holds everything.
    let mut db = TraceDb::open_with(&dir, no_fsync()).unwrap();
    let mut acked_lens = vec![db.storage_stats().unwrap().wal_bytes];
    for b in 0..BATCHES {
        db.insert_batch(&make_batch(b * PER_BATCH, PER_BATCH));
        acked_lens.push(db.storage_stats().unwrap().wal_bytes);
    }
    // Reference exports for every acknowledged prefix.
    let expected: Vec<Vec<u8>> = (0..=BATCHES)
        .map(|k| {
            let mut mem = TraceDb::new();
            for b in 0..k {
                mem.insert_batch(&make_batch(b * PER_BATCH, PER_BATCH));
            }
            export(&mem)
        })
        .collect();
    let wal_path = dir.join("wal-0.log");
    drop(db);
    let full_wal = std::fs::read(&wal_path).unwrap();
    assert_eq!(full_wal.len() as u64, *acked_lens.last().unwrap());

    let scratch = test_dir("wal-prefix-scratch");
    for cut in 0..=full_wal.len() {
        let _ = std::fs::remove_dir_all(&scratch);
        copy_dir(&dir, &scratch);
        std::fs::write(scratch.join("wal-0.log"), &full_wal[..cut]).unwrap();

        let recovered = TraceDb::open_with(&scratch, no_fsync()).unwrap();
        let survived = acked_lens
            .iter()
            .filter(|&&len| len <= cut as u64)
            .count()
            .saturating_sub(1) as u64;
        assert_eq!(
            recovered.len() as u64,
            survived * PER_BATCH,
            "cut at byte {cut} must recover the {survived} complete batches"
        );
        assert_eq!(
            export(&recovered),
            expected[survived as usize],
            "cut at byte {cut}: recovered DB must equal the acknowledged prefix"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// `Wal::append` encodes a frame in place: the payload behind room for
/// the header, which is filled in once the payload can be measured and
/// checksummed. Batches that shrink, grow and come empty through one
/// store must each append exactly the frame a fresh store writes for that
/// batch alone (none for the empty one), and replay to the same records.
#[test]
fn frames_encoded_in_place_are_exact_whatever_the_batch_sizes() {
    let sizes = [64u64, 3, 200, 1, 0, 17];
    let starts: Vec<u64> = sizes
        .iter()
        .scan(0, |at, n| Some(std::mem::replace(at, *at + n)))
        .collect();
    let dir = test_dir("wal-reuse");
    let mut db = TraceDb::open_with(&dir, no_fsync()).unwrap();
    let mut mem = TraceDb::new();
    let mut expected = b"VNTWAL1\n".to_vec();
    for (&start, &n) in starts.iter().zip(&sizes) {
        let batch = make_batch(start, n);
        db.insert_batch(&batch);
        mem.insert_batch(&batch);
        let alone = test_dir("wal-reuse-alone");
        let mut fresh = TraceDb::open_with(&alone, no_fsync()).unwrap();
        fresh.insert_batch(&batch);
        drop(fresh);
        expected.extend_from_slice(&std::fs::read(alone.join("wal-0.log")).unwrap()[8..]);
        let _ = std::fs::remove_dir_all(&alone);
        assert_eq!(
            db.storage_stats().unwrap().wal_bytes,
            expected.len() as u64,
            "after the {n}-record batch"
        );
    }
    drop(db);
    assert_eq!(std::fs::read(dir.join("wal-0.log")).unwrap(), expected);
    let recovered = TraceDb::open_with(&dir, no_fsync()).unwrap();
    assert_eq!(recovered.storage_stats().unwrap().wal_batches, 5);
    assert_eq!(export(&recovered), export(&mem));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Truncating the live WAL never touches records already sealed into
/// segments: only the post-seal tail is at risk, and only to batch
/// granularity.
#[test]
fn wal_truncation_preserves_sealed_segments() {
    let dir = test_dir("wal-sealed");
    let options = StoreOptions {
        seal_threshold: 64,
        ..no_fsync()
    };
    let mut db = TraceDb::open_with(&dir, options.clone()).unwrap();
    // Four batches of 32: seals at 64 and 128; the last two batches sit
    // in the fresh WAL.
    for b in 0..4 {
        db.insert_batch(&make_batch(b * 32, 32));
    }
    let stats = db.storage_stats().unwrap();
    assert!(stats.segments >= 1, "seal must have happened");
    assert_eq!(stats.wal_records, 0, "wal-sealed: threshold seals align");
    // One more partial batch that stays WAL-only.
    db.insert_batch(&make_batch(128, 8));
    let wal_name = dir
        .join(
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().into_string().unwrap())
                .find(|n| n.starts_with("wal-"))
                .expect("a live wal"),
        )
        .clone();
    drop(db);

    // Chop the whole tail off the live WAL (header survives).
    let wal = std::fs::read(&wal_name).unwrap();
    std::fs::write(&wal_name, &wal[..8]).unwrap();

    let recovered = TraceDb::open_with(&dir, options).unwrap();
    assert_eq!(
        recovered.len(),
        128,
        "sealed records survive, the unsynced tail batch is gone"
    );
    let mut mem = TraceDb::new();
    for b in 0..4 {
        mem.insert_batch(&make_batch(b * 32, 32));
    }
    assert_eq!(export(&recovered), export(&mem));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash *during* compaction — the merged output exists only as a
/// tmp file, the manifest still references the inputs — must reopen to
/// the old segments, byte-for-byte, and clear the debris.
#[test]
fn crash_mid_compaction_keeps_old_segments_authoritative() {
    let dir = test_dir("mid-compaction");
    let options = StoreOptions {
        seal_threshold: 32,
        compact_fanin: 4,
        ..no_fsync()
    };
    let mut db = TraceDb::open_with(&dir, options.clone()).unwrap();
    for b in 0..3 {
        db.insert_batch(&make_batch(b * 32, 32));
    }
    let before = export(&db);
    drop(db);

    // Simulate the mid-merge crash: a half-written tmp output and an
    // unreferenced (never-committed) segment file in the directory.
    std::fs::write(dir.join("seg-900.col.tmp"), b"partial merge output").unwrap();
    std::fs::write(dir.join("seg-901.col"), b"completed but never committed").unwrap();

    let recovered = TraceDb::open_with(&dir, options).unwrap();
    assert_eq!(export(&recovered), before);
    assert!(
        !dir.join("seg-900.col.tmp").exists(),
        "tmp debris must be garbage-collected on open"
    );
    assert!(
        !dir.join("seg-901.col").exists(),
        "uncommitted segments must be garbage-collected on open"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash *after* the manifest swap but before the input segments are
/// deleted must reopen to the merged segment and delete the stale
/// inputs — the manifest is the single commit point.
#[test]
fn crash_after_compaction_commit_gcs_stale_inputs() {
    let dir = test_dir("post-commit");
    let options = StoreOptions {
        seal_threshold: 16,
        compact_fanin: 2,
        ..no_fsync()
    };
    let mut db = TraceDb::open_with(&dir, options.clone()).unwrap();
    db.insert_batch(&make_batch(0, 16));
    // Snapshot the pre-compaction segment files.
    let pre_segments: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".col"))
        .map(|e| (e.path(), std::fs::read(e.path()).unwrap()))
        .collect();
    assert!(pre_segments.len() >= 2, "need at least fan-in segments");
    db.insert_batch(&make_batch(16, 16));
    let merges = db.compact_now().unwrap();
    assert!(merges >= 1, "compaction must have run");
    let before = export(&db);
    drop(db);

    // Resurrect the consumed inputs, as if the crash hit between the
    // manifest swap and the input deletes.
    for (path, bytes) in &pre_segments {
        if !path.exists() {
            std::fs::write(path, bytes).unwrap();
        }
    }

    let recovered = TraceDb::open_with(&dir, options).unwrap();
    assert_eq!(export(&recovered), before);
    for (path, _) in &pre_segments {
        assert!(
            !path.exists() || recovered.storage_stats().unwrap().segments > 0,
            "stale inputs must not resurface"
        );
    }
    // Only manifest-referenced segment files remain.
    let stats = recovered.storage_stats().unwrap();
    let on_disk = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".col"))
        .count() as u64;
    assert_eq!(on_disk, stats.segments);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store whose first compaction round — one merge for each of four
/// tables — has just been joined by a seal with three of its merges
/// failing: the inputs of `t1`, `t2` and `t3` carry a flipped byte.
struct FailedRound {
    dir: PathBuf,
    options: StoreOptions,
    db: TraceDb,
    /// The in-memory twin: every batch the store acknowledged.
    mem: TraceDb,
    /// What the joining `try_insert_batch` returned.
    err: StoreError,
    /// The damaged input files and their bytes before the flip.
    pristine: Vec<(PathBuf, Vec<u8>)>,
}

/// Batch `k` of the four-table stream: 16 records for each of `t0`–`t3`,
/// which is exactly one seal at [`failed_round`]'s threshold.
fn four_table_batch(k: u64) -> RecordBatch {
    let mut batch = RecordBatch::new();
    for t in 0..4u64 {
        for j in 0..16u64 {
            let i = (k * 4 + t) * 16 + j;
            batch.push(
                &format!("t{t}"),
                if j % 2 == 0 { "vm1" } else { "vm2" },
                CompactRecord {
                    timestamp_ns: i * 1_000,
                    trace_id: i as u32,
                    pkt_len: 60 + (i % 100) as u32,
                    flags: 1,
                    ..Default::default()
                },
            );
        }
    }
    batch
}

/// The names of `dir`'s files that end in `suffix`, sorted.
fn files_ending(dir: &Path, suffix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(suffix))
        .collect();
    names.sort();
    names
}

fn failed_round(tag: &str) -> FailedRound {
    let dir = test_dir(tag);
    let options = StoreOptions {
        seal_threshold: 64,
        compact_fanin: 2,
        ..no_fsync()
    };
    let mut mem = TraceDb::new();
    let mut db = TraceDb::open_with(&dir, options.clone()).unwrap();
    mem.insert_batch(&four_table_batch(0));
    db.insert_batch(&four_table_batch(0));
    drop(db);

    // Flip a byte inside a column chunk (the footer stays readable, so
    // the store opens and plans; the merge's CRC check is what fails).
    let mut pristine = Vec::new();
    for name in files_ending(&dir, ".col") {
        let path = dir.join(name);
        let meta = Segment::open(&path).unwrap().meta().clone();
        if meta.measurement == "t0" {
            continue;
        }
        let chunk = meta.blocks[0].chunks[ColumnId::Ts as usize];
        let mut bytes = std::fs::read(&path).unwrap();
        pristine.push((path.clone(), bytes.clone()));
        bytes[(chunk.offset + chunk.len / 2) as usize] ^= 0x10;
        std::fs::write(&path, bytes).unwrap();
    }
    assert_eq!(pristine.len(), 3);

    let mut db = TraceDb::open_with(&dir, options.clone()).unwrap();
    mem.insert_batch(&four_table_batch(1));
    db.insert_batch(&four_table_batch(1));
    let stats = db.storage_stats().unwrap();
    assert_eq!(
        (stats.seals, stats.segments, stats.compactions),
        (1, 8, 0),
        "the second seal started the round; nothing commits before the next"
    );
    mem.insert_batch(&four_table_batch(2));
    let err = db
        .try_insert_batch(&four_table_batch(2))
        .expect_err("the third seal joins a round with three failed merges");
    FailedRound {
        dir,
        options,
        db,
        mem,
        err,
        pristine,
    }
}

/// A merge that fails inside a round is the error of the seal that
/// joined the round, and of nothing else: the round's other output is
/// committed, the failed merges' inputs stay referenced and leave no
/// temporary file, the batch is acknowledged, and the next seal goes
/// through.
#[test]
fn failing_merge_fails_its_seal_and_spares_the_rest_of_the_round() {
    let FailedRound {
        dir,
        mut db,
        mem,
        err,
        ..
    } = failed_round("round-failure");
    assert!(
        matches!(&err, StoreError::Segment(SegmentError::Corrupt(m)) if m.contains("CRC")),
        "{err}"
    );
    let stats = db.storage_stats().unwrap();
    assert_eq!(
        (stats.compactions, stats.segments_merged),
        (1, 2),
        "t0's merge committed"
    );
    assert_eq!(stats.segments, 7, "t1-t3 keep both inputs");
    assert_eq!(stats.seals, 1, "the joining seal stopped at the error");
    assert_eq!(
        stats.wal_records, 64,
        "its batch is in the WAL all the same"
    );
    assert_eq!(db.len(), 192);
    assert!(files_ending(&dir, ".tmp").is_empty(), "no temporary file");
    assert_eq!(files_ending(&dir, ".col").len(), 7);
    let t0 = |db: &TraceDb| {
        let scan = Query::new("t0").scan(db).unwrap();
        let rows: Vec<_> = scan
            .entries()
            .iter()
            .map(|e| (e.node().to_owned(), *e.record()))
            .collect();
        rows
    };
    assert_eq!(t0(&db), t0(&mem));

    // Nothing is in flight any more, so the tail seals on the next batch.
    db.try_insert_batch(&four_table_batch(3)).unwrap();
    let stats = db.storage_stats().unwrap();
    assert_eq!((stats.seals, stats.wal_records), (2, 0));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash between two commits of one round: of its four outputs one is
/// committed (manifest swapped, inputs deleted), one is renamed into
/// place but unreferenced, two are still `*.tmp`. Reopening yields
/// exactly the acknowledged records, deletes the three strays, and the
/// next seal plans the uncommitted windows again.
#[test]
fn partially_committed_round_reopens_exactly_and_is_replanned() {
    let FailedRound {
        dir,
        options,
        db,
        mut mem,
        pristine,
        ..
    } = failed_round("round-partial");
    drop(db);
    // `failed_round` left the committed state such a crash leaves; undo
    // the damage that produced it and lay down the uncommitted outputs.
    for (path, bytes) in &pristine {
        std::fs::write(path, bytes).unwrap();
    }
    let committed = files_ending(&dir, ".col").last().unwrap().clone();
    let id: u64 = committed["seg-".len()..committed.len() - ".col".len()]
        .parse()
        .unwrap();
    let output = std::fs::read(dir.join(&committed)).unwrap();
    let renamed = format!("seg-{}.col", id + 1);
    std::fs::write(dir.join(&renamed), &output).unwrap();
    std::fs::write(dir.join(format!("seg-{}.col.tmp", id + 2)), &output).unwrap();
    std::fs::write(
        dir.join(format!("seg-{}.col.tmp", id + 3)),
        &output[..output.len() / 2],
    )
    .unwrap();

    let mut recovered = TraceDb::open_with(&dir, options).unwrap();
    assert_eq!(export(&recovered), export(&mem));
    assert!(
        files_ending(&dir, ".tmp").is_empty(),
        "tmp outputs are gone"
    );
    assert!(
        !dir.join(&renamed).exists(),
        "so is the unreferenced output"
    );
    // The replayed WAL batch filled the tail, so the open sealed it; an
    // open starts no round.
    let stats = recovered.storage_stats().unwrap();
    assert_eq!((stats.seals, stats.wal_records), (1, 0));
    assert_eq!((stats.segments, stats.compactions), (11, 0));
    assert_eq!(files_ending(&dir, ".col").len(), 11);

    // The next seal plans t0's third and fourth seals (its merged
    // segment holds more rows than the third alone, so it waits), and
    // for each of t1-t3 the window the crash left uncommitted and the
    // one that has accumulated behind it; the flush commits all seven.
    mem.insert_batch(&four_table_batch(3));
    recovered.insert_batch(&four_table_batch(3));
    recovered.flush().unwrap();
    let stats = recovered.storage_stats().unwrap();
    assert_eq!((stats.compactions, stats.segments_merged), (7, 14));
    assert_eq!(stats.segments, 8);
    assert_eq!(export(&recovered), export(&mem));
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Makes the next MANIFEST swap in `dir` fail: with a directory at
/// `MANIFEST.tmp`, creating the temporary manifest fails before anything
/// is renamed.
fn block_manifest_swap(dir: &Path) {
    std::fs::create_dir(dir.join("MANIFEST.tmp")).unwrap();
}

fn unblock_manifest_swap(dir: &Path) {
    std::fs::remove_dir(dir.join("MANIFEST.tmp")).unwrap();
}

/// A seal point whose round cannot commit — every MANIFEST swap fails —
/// returns the error and leaves the store in memory as it was: the same
/// segments, the same counters, every acknowledged record readable. Once
/// the swap works again the next seal (and the round it plans) goes
/// through, and a reopen sees every acknowledged record.
#[test]
fn failed_manifest_swap_at_a_round_commit_changes_nothing_in_memory() {
    let dir = test_dir("swap-round");
    let options = StoreOptions {
        seal_threshold: 100,
        compact_fanin: 2,
        ..no_fsync()
    };
    let mut db = TraceDb::open_with(&dir, options.clone()).unwrap();
    let mut mem = TraceDb::new();
    for b in 0..2 {
        mem.insert_batch(&make_batch(b * 100, 100));
        db.insert_batch(&make_batch(b * 100, 100));
    }
    let before = db.storage_stats().unwrap();
    assert_eq!(
        (before.seals, before.segments, before.compactions),
        (2, 4, 0),
        "the second seal started a round of one merge per table"
    );

    block_manifest_swap(&dir);
    mem.insert_batch(&make_batch(200, 100));
    let err = db
        .try_insert_batch(&make_batch(200, 100))
        .expect_err("the round's commits cannot swap the MANIFEST");
    assert!(matches!(err, StoreError::Io(_)), "{err}");
    let stats = db.storage_stats().unwrap();
    assert_eq!((stats.seals, stats.segments, stats.compactions), (2, 4, 0));
    assert_eq!(stats.wal_records, 100, "the batch is in the WAL");
    assert_eq!(db.len(), 300);
    assert_eq!(export(&db), export(&mem));

    unblock_manifest_swap(&dir);
    mem.insert_batch(&make_batch(300, 100));
    db.try_insert_batch(&make_batch(300, 100)).unwrap();
    let stats = db.storage_stats().unwrap();
    assert_eq!((stats.seals, stats.segments, stats.wal_records), (3, 6, 0));
    assert_eq!(export(&db), export(&mem));
    // The seal planned the uncommitted windows again; the flush commits
    // them.
    db.flush().unwrap();
    let stats = db.storage_stats().unwrap();
    assert_eq!((stats.segments, stats.compactions), (4, 2));
    assert_eq!(export(&db), export(&mem));
    drop(db);

    let cold = TraceDb::open_with(&dir, options).unwrap();
    assert_eq!(export(&cold), export(&mem));
    let segments = cold.storage_stats().unwrap().segments;
    assert_eq!(files_ending(&dir, ".col").len() as u64, segments);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A seal whose MANIFEST swap fails returns the error and leaves the hot
/// tail, the WAL and the segments as they were, so the batch whose append
/// succeeded stays readable; the next seal seals it, and a reopen sees
/// every acknowledged record and none of the failed seal's files.
#[test]
fn failed_manifest_swap_at_a_seal_changes_nothing_in_memory() {
    let dir = test_dir("swap-seal");
    let options = StoreOptions {
        seal_threshold: 100,
        compact_fanin: 1_000,
        ..no_fsync()
    };
    let mut db = TraceDb::open_with(&dir, options.clone()).unwrap();
    let mut mem = TraceDb::new();
    for b in 0..2 {
        mem.insert_batch(&make_batch(b * 100, 100));
        db.insert_batch(&make_batch(b * 100, 100));
    }

    block_manifest_swap(&dir);
    mem.insert_batch(&make_batch(200, 100));
    let err = db
        .try_insert_batch(&make_batch(200, 100))
        .expect_err("the seal cannot swap the MANIFEST");
    assert!(matches!(err, StoreError::Io(_)), "{err}");
    let stats = db.storage_stats().unwrap();
    assert_eq!((stats.seals, stats.segments), (2, 4));
    assert_eq!(stats.wal_records, 100, "the batch is in the WAL");
    assert_eq!(db.len(), 300, "and in the hot tail");
    assert_eq!(export(&db), export(&mem));

    unblock_manifest_swap(&dir);
    mem.insert_batch(&make_batch(300, 100));
    db.try_insert_batch(&make_batch(300, 100)).unwrap();
    let stats = db.storage_stats().unwrap();
    assert_eq!((stats.seals, stats.segments, stats.wal_records), (3, 6, 0));
    assert_eq!(db.len(), 400);
    assert_eq!(export(&db), export(&mem));
    drop(db);

    let cold = TraceDb::open_with(&dir, options).unwrap();
    assert_eq!(export(&cold), export(&mem));
    assert_eq!(files_ending(&dir, ".col").len(), 6);
    assert_eq!(files_ending(&dir, ".log").len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reopening a database any number of times — with no writes in
/// between — neither loses, duplicates, nor reorders anything, and
/// appends after a reopen continue the same sequence space.
#[test]
fn reopen_is_idempotent_and_appendable() {
    let dir = test_dir("idempotent");
    let options = StoreOptions {
        seal_threshold: 48,
        ..no_fsync()
    };
    let mut db = TraceDb::open_with(&dir, options.clone()).unwrap();
    for b in 0..3 {
        db.insert_batch(&make_batch(b * 20, 20));
    }
    let first = export(&db);
    drop(db);

    for _ in 0..3 {
        let db = TraceDb::open_with(&dir, options.clone()).unwrap();
        assert_eq!(export(&db), first, "reopen must be a no-op");
        drop(db);
    }

    // Continue writing after reopen: identical to one uninterrupted
    // in-memory session over the same batches.
    let mut db = TraceDb::open_with(&dir, options.clone()).unwrap();
    db.insert_batch(&make_batch(60, 20));
    let disk_export = export(&db);
    let raw_bytes = (db.len() as u64) * COMPACT_RECORD_BYTES;
    assert!(db.storage_stats().unwrap().raw_bytes <= raw_bytes);
    drop(db);

    let mut mem = TraceDb::new();
    for b in 0..4 {
        mem.insert_batch(&make_batch(b * 20, 20));
    }
    assert_eq!(
        disk_export,
        export(&mem),
        "a reopened store must continue exactly where it left off"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A WAL whose every byte is written out here — header, frame, group
/// names, and two records in the 32-byte layout `record.rs` pins — must
/// replay to the batch those bytes spell. Nothing on this side goes
/// through `CompactRecord::encode`, so the on-disk format cannot drift
/// with the codec.
#[test]
fn hand_written_wal_replays_to_the_records_its_bytes_spell() {
    #[rustfmt::skip]
    let record: [u8; 32] = [
        0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, //  0 timestamp_ns
        0xef, 0xbe, 0xad, 0xde,                         //  8 trace_id
        0x66, 0x00, 0x00, 0x00,                         // 12 pkt_len
        0x01, 0x00, 0x00, 0x0a,                         // 16 saddr
        0x02, 0x00, 0x00, 0x0a,                         // 20 daddr
        0x28, 0x23,                                     // 24 sport
        0x07, 0x00,                                     // 26 dport
        0x03, 0x00,                                     // 28 cpu
        0x01,                                           // 30 direction
        0x05,                                           // 31 flags
    ];
    let mut second = record;
    second[0] = 0x89; // one nanosecond later
    second[8] = 0xf0; // the next trace ID
    second[31] = 0x01; // not a drop record

    // payload := ngroups group*; group := measurement node nrecords record*
    let mut payload = vec![1, 4];
    payload.extend_from_slice(b"tp_a");
    payload.push(3);
    payload.extend_from_slice(b"vm1");
    payload.push(2);
    payload.extend_from_slice(&record);
    payload.extend_from_slice(&second);
    // file := magic frame*; frame := 0xB7 payload_len:u32le crc:u32le payload
    let mut wal = b"VNTWAL1\n".to_vec();
    wal.push(0xb7);
    wal.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wal.extend_from_slice(&vnet_tsdb::codec::crc32(&payload).to_le_bytes());
    wal.extend_from_slice(&payload);

    let expected = CompactRecord {
        timestamp_ns: 0x1122_3344_5566_7788,
        trace_id: 0xdead_beef,
        pkt_len: 102,
        saddr: u32::from(Ipv4Addr::new(10, 0, 0, 1)),
        daddr: u32::from(Ipv4Addr::new(10, 0, 0, 2)),
        sport: 9000,
        dport: 7,
        cpu: 3,
        direction: 1,
        flags: 1 | (2 << 1),
    };
    let mut batch = RecordBatch::new();
    batch.push("tp_a", "vm1", expected);
    batch.push(
        "tp_a",
        "vm1",
        CompactRecord {
            timestamp_ns: expected.timestamp_ns + 1,
            trace_id: 0xdead_bef0,
            flags: 1,
            ..expected
        },
    );

    // An empty store, then its (header-only) WAL swapped for ours.
    let dir = test_dir("wal-by-hand");
    drop(TraceDb::open_with(&dir, no_fsync()).unwrap());
    std::fs::write(dir.join("wal-0.log"), &wal).unwrap();
    let recovered = TraceDb::open_with(&dir, no_fsync()).unwrap();
    let mut mem = TraceDb::new();
    mem.insert_batch(&batch);
    assert_eq!(recovered.len(), 2);
    assert_eq!(export(&recovered), export(&mem));
    drop(recovered);

    // And the store writes the very same bytes for that batch.
    let dir2 = test_dir("wal-by-hand-written");
    let mut db = TraceDb::open_with(&dir2, no_fsync()).unwrap();
    db.insert_batch(&batch);
    drop(db);
    assert_eq!(std::fs::read(dir2.join("wal-0.log")).unwrap(), wal);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}
