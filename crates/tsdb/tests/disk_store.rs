//! Disk-backed vs in-memory equivalence: the segment store is an
//! implementation detail — every query, join, and export must give the
//! same answer whether the records live in the hot tail, sealed segments,
//! merged segments, or a reopened directory.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use vnet_tsdb::segment::{Block, BlockMeta, SegmentError, ALL_COLUMNS};
use vnet_tsdb::{
    columns, trace_id_tag, write_json_lines, ColumnId, CompactRecord, FirstSeen, Query,
    RecordBatch, Rows, Segment, StoreError, StoreOptions, TraceDb,
};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vnt-disk-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic but irregular record stream: three measurements,
/// three nodes, skewed ports, every fourth record trace-flagged.
fn batches() -> Vec<RecordBatch> {
    let mut out = Vec::new();
    let mut i = 0u64;
    for b in 0..12u64 {
        let mut batch = RecordBatch::new();
        for _ in 0..(40 + (b % 5) * 7) {
            let m = ["tp_rx", "tp_tx", "tp_drop"][(i % 3) as usize];
            let node = ["vm1", "vm2", "vm3"][((i / 2) % 3) as usize];
            batch.push(
                m,
                node,
                CompactRecord {
                    timestamp_ns: i * 500 + (i % 7) * 13,
                    trace_id: (i.is_multiple_of(4)) as u32 * (0x1000 + i as u32),
                    pkt_len: 60 + (i % 1400) as u32,
                    saddr: u32::from(Ipv4Addr::new(10, 0, (b % 4) as u8, 1)),
                    daddr: u32::from(Ipv4Addr::new(10, 0, 0, 2)),
                    sport: 9_000 + (i % 16) as u16,
                    dport: 80,
                    cpu: (i % 8) as u16,
                    direction: (i % 2) as u8,
                    flags: (i.is_multiple_of(4)) as u8,
                },
            );
            i += 1;
        }
        out.push(batch);
    }
    out
}

fn export(db: &TraceDb) -> Vec<u8> {
    let mut buf = Vec::new();
    write_json_lines(db, &mut buf).expect("export");
    buf
}

/// Queries of every shape the scan path handles differently: no window,
/// a window per table, an instant, an inverted window, one past the end,
/// an absent table.
fn query_shapes() -> Vec<Query> {
    vec![
        Query::new("tp_rx"),
        Query::new("tp_tx").time_range(5_000, 120_000),
        Query::new("tp_drop").time_range(0, 80_000),
        Query::new("tp_rx").time_range(10_000, 200_000),
        Query::new("tp_rx").time_range(4_000, 4_000),
        Query::new("tp_tx").time_range(200_000, 100_000),
        Query::new("tp_drop").time_range(400_000, u64::MAX),
        Query::new("absent"),
    ]
}

/// A query's results as comparable `(node, record)` pairs.
fn answers(q: &Query, db: &TraceDb) -> Vec<(String, CompactRecord)> {
    let scan = q.scan(db).expect("scan");
    node_records(&scan.entries())
}

fn node_records(entries: &[vnet_tsdb::Entry<'_>]) -> Vec<(String, CompactRecord)> {
    let pairs = entries.iter().map(|e| (e.node().to_owned(), *e.record()));
    pairs.collect()
}

#[test]
fn disk_and_memory_agree_on_every_query_shape() {
    let dir = test_dir("equivalence");
    let options = StoreOptions {
        seal_threshold: 100,
        fsync: false,
        compact_fanin: 3,
        compact_max_rows: 100_000,
        ..StoreOptions::default()
    };

    let mut mem = TraceDb::new();
    let mut disk = TraceDb::open_with(&dir, options.clone()).unwrap();
    for batch in batches() {
        mem.insert_batch(&batch);
        disk.insert_batch(&batch);
    }

    assert_eq!(mem.len(), disk.len());
    let stats = disk.storage_stats().unwrap();
    assert!(stats.segments > 0, "the stream must have sealed");
    // Four seals: the third started a round of one merge per table, and
    // the fourth — the seal point after it — committed that round.
    assert_eq!(stats.seals, 4);
    assert_eq!(stats.compactions, 3, "fan-in 3 must have merged");

    for q in query_shapes() {
        assert_eq!(
            answers(&q, &mem),
            answers(&q, &disk),
            "disk and memory disagree"
        );
    }
    assert_eq!(
        mem.join_timestamps("tp_rx", "tp_tx").unwrap(),
        disk.join_timestamps("tp_rx", "tp_tx").unwrap()
    );
    assert_eq!(export(&mem), export(&disk));

    // ... and all of it still holds after a flush and a cold reopen.
    disk.flush().unwrap();
    drop(disk);
    let cold = TraceDb::open_with(&dir, options).unwrap();
    for q in query_shapes() {
        assert_eq!(answers(&q, &mem), answers(&q, &cold), "cold reopen drifted");
    }
    assert_eq!(
        mem.join_timestamps("tp_rx", "tp_tx").unwrap(),
        cold.join_timestamps("tp_rx", "tp_tx").unwrap()
    );
    assert_eq!(export(&mem), export(&cold));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn time_range_scans_prune_segments_on_footer_metadata() {
    let dir = test_dir("pruning");
    let options = StoreOptions {
        seal_threshold: 64,
        fsync: false,
        compact_fanin: 1_000, // keep seals separate so pruning is visible
        compact_max_rows: 100_000,
        ..StoreOptions::default()
    };
    let mut db = TraceDb::open_with(&dir, options).unwrap();
    // One measurement, strictly advancing time: each sealed segment
    // covers a disjoint time slice.
    let mut batch = RecordBatch::new();
    for i in 0..512u64 {
        batch.clear();
        for j in 0..8u64 {
            let k = i * 8 + j;
            batch.push(
                "tp",
                "vm1",
                CompactRecord {
                    timestamp_ns: k * 1_000,
                    ..Default::default()
                },
            );
        }
        db.insert_batch(&batch);
    }
    db.flush().unwrap();
    let total = db.storage_stats().unwrap().segments;
    assert!(
        total >= 4,
        "expected several disjoint segments, got {total}"
    );

    // A narrow window in the middle must prune all but ~one segment.
    let scan = Query::new("tp")
        .time_range(2_000_000, 2_050_000)
        .scan(&db)
        .unwrap();
    let s = scan.stats();
    assert_eq!(s.segments_total, total);
    assert!(
        s.segments_pruned >= total - 2,
        "only the covering segment(s) may be touched: pruned {} of {}",
        s.segments_pruned,
        s.segments_total
    );
    assert_eq!(s.rows_matched, 51, "inclusive window, 1ms apart");
    // A window past the last record prunes everything on the footers.
    let scan = Query::new("tp")
        .time_range(5_000_000, u64::MAX)
        .scan(&db)
        .unwrap();
    assert_eq!(scan.stats().segments_scanned, 0);
    assert_eq!(scan.stats().bytes_read, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One window, one answer, wherever the rows live: for windows that hold
/// some rows, none, one instant, or are inverted, the same rows come back
/// from an in-memory store, a disk store before `flush` (hot tail beside
/// sealed segments), after it, and reopened cold; and they are the rows
/// whose timestamp says so.
#[test]
fn time_windows_agree_hot_sealed_cold() {
    let dir = test_dir("hot-sealed-cold");
    let options = StoreOptions {
        seal_threshold: 150,
        fsync: false,
        compact_fanin: 1_000,
        compact_max_rows: 100_000,
        ..StoreOptions::default()
    };
    let mut mem = TraceDb::new();
    let mut disk = TraceDb::open_with(&dir, options.clone()).unwrap();
    for batch in batches() {
        mem.insert_batch(&batch);
        disk.insert_batch(&batch);
    }
    let stats = disk.storage_stats().unwrap();
    assert!(stats.segments > 0 && stats.wal_records > 0, "sealed + hot");

    // Per window: whether some rows fall in it.
    let windows = [
        ((10_000, 60_000), true),
        ((0, 0), true),
        ((4_000, 4_000), false),
        ((280_000, 400_000), true),
        ((400_000, u64::MAX), false),
        ((60_000, 10_000), false),
    ];
    let ask =
        |db: &TraceDb, (lo, hi): (u64, u64)| answers(&Query::new("tp_rx").time_range(lo, hi), db);
    let everything = Query::new("tp_rx").scan(&mem).unwrap();
    let mut matched = Vec::new();
    for (window, carried) in windows {
        let by_timestamp: Vec<_> = node_records(&everything.entries())
            .into_iter()
            .filter(|(_, r)| (window.0..=window.1).contains(&r.timestamp_ns))
            .collect();
        let rows = by_timestamp.len();
        assert_eq!(rows > 0, carried, "{window:?}");
        assert!(rows < everything.len(), "{window:?}: not every row");
        assert_eq!(ask(&mem, window), by_timestamp, "memory: {window:?}");
        assert_eq!(ask(&disk, window), by_timestamp, "hot+sealed: {window:?}");
        matched.push((window, by_timestamp));
    }

    disk.flush().unwrap();
    assert_eq!(disk.storage_stats().unwrap().wal_records, 0, "all sealed");
    for (window, want) in &matched {
        assert_eq!(&ask(&disk, *window), want, "sealed: {window:?}");
    }
    drop(disk);
    let cold = TraceDb::open_with(&dir, options).unwrap();
    for (window, want) in &matched {
        assert_eq!(&ask(&cold, *window), want, "cold: {window:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The block index of every committed segment file in `dir`.
fn block_index(dir: &Path) -> Vec<Vec<BlockMeta>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "col"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|f| Segment::open(f).unwrap().meta().blocks.clone())
        .collect()
}

/// Scan cost tracks the rows matched, not the segment: on one 64-block
/// segment a window of `rows` rows reads at most ⌈rows/block⌉+1 blocks'
/// bytes, more rows always cost more bytes, and no decoded block holds
/// more than one block's rows.
#[test]
fn scan_cost_tracks_rows_matched_on_a_64_block_segment() {
    const ROWS: u64 = 128 * 1024;
    let dir = test_dir("block-budget");
    let options = StoreOptions {
        seal_threshold: ROWS as usize,
        fsync: false,
        ..StoreOptions::default()
    };
    let mut db = TraceDb::open_with(&dir, options.clone()).unwrap();
    let mut batch = RecordBatch::new();
    for i in 0..ROWS {
        batch.push(
            "tp",
            "vm1",
            CompactRecord {
                timestamp_ns: i * 1_000,
                pkt_len: 64 + (i % 1_400) as u32,
                sport: (i % 977) as u16,
                ..Default::default()
            },
        );
    }
    db.insert_batch(&batch);
    drop(db);
    let db = TraceDb::open_with(&dir, options).unwrap();
    let index = block_index(&dir);
    assert_eq!(index.len(), 1, "one seal, one segment");
    let blocks = &index[0];
    assert_eq!(blocks.len(), 64);
    let block_rows = blocks[0].rows;
    let block_bytes = blocks.iter().map(BlockMeta::encoded_bytes).max().unwrap();

    // Per window size: bytes read at each start position. Positions sit
    // early in a block, late in one (so all but the narrowest window
    // cross into the next), on a block's first row, and at the very end.
    let mut bytes_read: Vec<Vec<u64>> = Vec::new();
    for (share, at_most_blocks) in [(10_000, 2), (100, 3), (4, u64::MAX)] {
        let rows = ROWS / share;
        let budget = (rows.div_ceil(block_rows) + 1).min(at_most_blocks);
        let starts = [
            5 * block_rows + 17,
            9 * block_rows - 200,
            20 * block_rows,
            ROWS - rows - 1,
        ];
        let per_start = starts.map(|first| {
            let scan = Query::new("tp")
                .time_range(first * 1_000, (first + rows) * 1_000)
                .scan(&db)
                .unwrap();
            let s = scan.stats();
            assert_eq!(s.rows_matched, rows + 1, "inclusive window at {first}");
            assert_eq!(s.blocks_total, 64);
            assert_eq!(s.blocks_pruned + s.blocks_scanned, 64);
            assert!(
                s.blocks_scanned <= budget && s.bytes_read <= budget * block_bytes,
                "{rows} rows at {first}: {} blocks, {} B; budget {budget} blocks",
                s.blocks_scanned,
                s.bytes_read
            );
            assert!(s.peak_decoded_rows <= block_rows, "one block resident");
            assert_eq!((s.segments_scanned, s.segments_pruned), (1, 0));
            s.bytes_read
        });
        bytes_read.push(per_start.to_vec());
    }
    // More rows never cost fewer bytes from the same start, and cost
    // strictly more over the position set (block granularity allows a
    // tie only where both windows fit the same blocks).
    for pair in bytes_read.windows(2) {
        assert!(pair[0].iter().zip(&pair[1]).all(|(few, many)| few <= many));
        assert!(pair[0].iter().sum::<u64>() < pair[1].iter().sum::<u64>());
    }
    // A window between two rows touches a block and matches nothing; one
    // past the end is pruned on the segment footer.
    let scan = Query::new("tp").time_range(1_001, 1_999).scan(&db).unwrap();
    assert_eq!((scan.len(), scan.stats().blocks_scanned), (0, 1));
    let scan = Query::new("tp")
        .time_range(ROWS * 1_000, u64::MAX)
        .scan(&db)
        .unwrap();
    assert_eq!(scan.stats().segments_pruned, 1);
    assert_eq!(scan.stats().bytes_read, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One cold single-segment table `tp` of `rows` trace-flagged records
/// with wide (random-looking) addresses, and the directory it lives in.
fn cold_table(tag: &str, rows: u64) -> (TraceDb, PathBuf, StoreOptions) {
    let dir = test_dir(tag);
    let options = StoreOptions {
        seal_threshold: rows as usize,
        fsync: false,
        ..StoreOptions::default()
    };
    let mut db = TraceDb::open_with(&dir, options.clone()).unwrap();
    let mut batch = RecordBatch::new();
    for i in 0..rows {
        let mix = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        batch.push(
            "tp",
            "vm1",
            CompactRecord {
                timestamp_ns: i * 1_000 + mix % 700,
                trace_id: (mix >> 32) as u32,
                pkt_len: 64 + (i % 1_400) as u32,
                saddr: mix as u32,
                daddr: (mix >> 16) as u32,
                sport: (mix >> 8) as u16,
                dport: 80,
                flags: 1,
                ..Default::default()
            },
        );
    }
    db.insert_batch(&batch);
    drop(db);
    (
        TraceDb::open_with(&dir, options.clone()).unwrap(),
        dir,
        options,
    )
}

/// Encoded bytes of the given columns over every block of every segment.
fn chunk_bytes(dir: &Path, cols: &[ColumnId]) -> u64 {
    let blocks = block_index(dir).into_iter().flatten();
    blocks
        .map(|b| cols.iter().map(|&c| b.chunks[c as usize].len).sum::<u64>())
        .sum()
}

/// The join reads the three lanes it needs and nothing else: its bytes
/// are exactly those chunks' footer lengths, under a third of a full
/// scan's.
#[test]
fn join_reads_only_its_projected_chunks() {
    let (db, dir, _) = cold_table("join-budget", 10_000);
    let projected = [ColumnId::Ts, ColumnId::TraceId, ColumnId::Flags];
    let full = Query::new("tp").scan(&db).unwrap();
    assert_eq!(full.stats().bytes_read, chunk_bytes(&dir, &ColumnId::ALL));
    let seen = FirstSeen::scan(&db, "tp").unwrap();
    assert_eq!(seen.iter().count(), 10_000);
    assert_eq!(seen.stats().bytes_read, chunk_bytes(&dir, &projected));
    assert!(seen.stats().bytes_read * 3 < full.stats().bytes_read);
    assert_eq!(seen.stats().rows_matched, 10_000);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The one segment file of a [`cold_table`] directory.
fn segment_file(dir: &Path) -> PathBuf {
    let mut files = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    files
        .find(|p| p.extension().is_some_and(|x| x == "col"))
        .unwrap()
}

/// Flips one byte in the middle of block 0's `column` chunk.
fn flip_chunk_byte(file: &Path, column: ColumnId) {
    let chunk = Segment::open(file).unwrap().meta().blocks[0].chunks[column as usize];
    let mut bytes = std::fs::read(file).unwrap();
    bytes[(chunk.offset + chunk.len / 2) as usize] ^= 0x10;
    std::fs::write(file, bytes).unwrap();
}

/// Flips one byte of block 0's `column` chunk in the table's one segment
/// file and reopens the store.
fn reopen_with_flipped_chunk(dir: &Path, options: &StoreOptions, column: ColumnId) -> TraceDb {
    flip_chunk_byte(&segment_file(dir), column);
    TraceDb::open_with(dir, options.clone()).expect("the footer is intact")
}

/// A projected read fetches each run of neighbouring chunks with one
/// `pread`; whatever the runs, it must hand back the lanes and the byte
/// count that reading the same chunks one call (so one `pread`) at a time
/// does, and widening a loaded block must fetch only what is missing —
/// including when the missing chunks lie on both sides of loaded ones.
#[test]
fn coalesced_block_reads_match_chunk_at_a_time_reads() {
    let (db, dir, _) = cold_table("block-runs", 5_000);
    drop(db);
    let seg = Segment::open(segment_file(&dir)).unwrap();
    assert_eq!(seg.meta().blocks.len(), 3);
    let mut sets = vec![
        ColumnId::ALL.to_vec(),
        vec![ColumnId::Ts, ColumnId::TraceId, ColumnId::Flags],
        vec![
            ColumnId::Seq,
            ColumnId::Ts,
            ColumnId::PktLen,
            ColumnId::Saddr,
        ],
    ];
    sets.extend(ColumnId::ALL.map(|c| vec![c]));
    sets.extend(ColumnId::ALL.windows(2).map(<[ColumnId]>::to_vec));
    for (b, meta) in seg.meta().blocks.iter().enumerate() {
        let one_at_a_time = ColumnId::ALL.map(|c| {
            let mut blk = Block::default();
            let read = seg.read_block(b, &columns(&[c]), &mut blk).unwrap();
            assert_eq!(read, meta.chunks[c as usize].len);
            assert_eq!(blk.col(c).len() as u64, meta.rows);
            blk.col(c).to_vec()
        });
        for set in &sets {
            let mut blk = Block::default();
            let read = seg.read_block(b, &columns(set), &mut blk).unwrap();
            let footer_bytes: u64 = set.iter().map(|&c| meta.chunks[c as usize].len).sum();
            assert_eq!(read, footer_bytes, "block {b} {set:?}");
            for c in ColumnId::ALL {
                let lane: &[u64] = match set.contains(&c) {
                    true => &one_at_a_time[c as usize],
                    false => &[],
                };
                assert_eq!(blk.col(c), lane, "block {b} {set:?} lane {c:?}");
            }
            assert_eq!(seg.read_block(b, &columns(set), &mut blk).unwrap(), 0);
            let rest = seg.read_block(b, &ALL_COLUMNS, &mut blk).unwrap();
            assert_eq!(read + rest, meta.encoded_bytes(), "block {b} {set:?}");
            let lanes = ColumnId::ALL.map(|c| blk.col(c).to_vec());
            assert_eq!(lanes, one_at_a_time, "block {b} {set:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped byte in the middle of a multi-chunk run is pinned on its own
/// column by that chunk's CRC, and a read whose runs leave the damaged
/// chunk out — even one that fetches both its neighbours — succeeds.
#[test]
fn corrupt_chunk_inside_a_run_is_named_and_skippable() {
    let (db, dir, _) = cold_table("block-run-corrupt", 3_000);
    drop(db);
    let file = segment_file(&dir);
    flip_chunk_byte(&file, ColumnId::PktLen);
    let seg = Segment::open(&file).expect("the footer is intact");
    let run = [ColumnId::TraceId, ColumnId::PktLen, ColumnId::Saddr];
    for set in [ALL_COLUMNS, columns(&run), columns(&[ColumnId::PktLen])] {
        let mut blk = Block::default();
        let err = seg.read_block(0, &set, &mut blk).unwrap_err();
        assert!(
            matches!(&err, SegmentError::Corrupt(m) if m.contains("block 0 column PktLen CRC")),
            "{err}"
        );
        assert!(blk.col(ColumnId::PktLen).is_empty());
    }
    let around: Vec<ColumnId> = ColumnId::ALL
        .into_iter()
        .filter(|&c| c != ColumnId::PktLen)
        .collect();
    let mut blk = Block::default();
    let read = seg.read_block(0, &columns(&around), &mut blk).unwrap();
    let meta = &seg.meta().blocks[0];
    let damaged = meta.chunks[ColumnId::PktLen as usize].len;
    assert_eq!(read, meta.encoded_bytes() - damaged);
    assert!(seg
        .read_block(1, &ALL_COLUMNS, &mut Block::default())
        .is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A damaged chunk is a typed error for exactly the readers that project
/// it: the join fails on its own lanes and never notices damage to a lane
/// it does not read, which a full scan of the same table reports.
#[test]
fn corrupt_chunks_fail_only_the_readers_that_project_them() {
    let (db, dir, options) = cold_table("join-corrupt", 3_000);
    let clean = db.join_timestamps("tp", "tp").unwrap();
    assert_eq!(clean.len(), 3_000);
    drop(db);

    let db = reopen_with_flipped_chunk(&dir, &options, ColumnId::Saddr);
    assert_eq!(db.join_timestamps("tp", "tp").unwrap(), clean);
    let scan = Query::new("tp").scan(&db);
    assert!(matches!(
        scan,
        Err(StoreError::Segment(SegmentError::Corrupt(_)))
    ));
    drop(db);

    let db = reopen_with_flipped_chunk(&dir, &options, ColumnId::TraceId);
    for (a, b) in [("tp", "tp"), ("tp", "absent")] {
        let joined = db.join_timestamps(a, b);
        assert!(matches!(joined, Err(StoreError::Segment(_))), "{a} x {b}");
    }
    assert!(db.join_timestamps("absent", "tp").unwrap().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The parent's join, kept as the oracle: every entry in ingest order,
/// keyed by its `trace_id` tag *string*, first one wins.
fn string_keyed_first_seen(db: &TraceDb, table: &str) -> BTreeMap<String, u64> {
    let scan = Query::new(table).scan(db).unwrap();
    let mut first = BTreeMap::new();
    for e in scan.entries() {
        if e.record().has_trace_id() {
            let id = trace_id_tag(e.record().trace_id);
            first.entry(id).or_insert(e.record().timestamp_ns);
        }
    }
    first
}

fn string_keyed_join(db: &TraceDb, a: &str, b: &str) -> Vec<(u64, u64)> {
    let (a, b) = (
        string_keyed_first_seen(db, a),
        string_keyed_first_seen(db, b),
    );
    let mut out: Vec<(u64, u64)> = a
        .iter()
        .filter_map(|(id, &ta)| b.get(id).map(|&tb| (ta, tb)))
        .collect();
    out.sort_unstable();
    out
}

/// The typed join and its key listing against the string-keyed oracle.
fn assert_join_matches_oracle(db: &TraceDb, what: &str) -> Vec<(u64, u64)> {
    for (a, b) in [("a", "b"), ("b", "a"), ("a", "a"), ("a", "absent")] {
        let joined = db.join_timestamps(a, b).unwrap();
        assert_eq!(joined, string_keyed_join(db, a, b), "{what}: {a} x {b}");
    }
    for table in ["a", "b"] {
        let seen = FirstSeen::scan(db, table).unwrap();
        let mut typed: Vec<(String, u64)> =
            seen.iter().map(|(id, ts)| (trace_id_tag(id), ts)).collect();
        typed.sort();
        let oracle: Vec<(String, u64)> = string_keyed_first_seen(db, table).into_iter().collect();
        assert_eq!(typed, oracle, "{what}: first seen at {table}");
    }
    db.join_timestamps("a", "b").unwrap()
}

/// One step of the compaction-determinism stream.
enum Step {
    Insert(RecordBatch),
    Flush,
    CompactNow,
}

/// A batch of `counts` records per table, numbered on from `*next`.
fn table_batch(counts: &[(&str, u64)], next: &mut u64) -> Step {
    Step::Insert(numbered_batch(counts, next))
}

fn numbered_batch(counts: &[(&str, u64)], next: &mut u64) -> RecordBatch {
    let mut batch = RecordBatch::new();
    for &(table, n) in counts {
        for _ in 0..n {
            let i = *next;
            *next += 1;
            batch.push(
                table,
                ["vm1", "vm2", "vm3"][(i % 3) as usize],
                CompactRecord {
                    timestamp_ns: i * 700 + (i % 5) * 11,
                    trace_id: 0x4000 + i as u32,
                    pkt_len: 60 + (i % 900) as u32,
                    sport: 7_000 + (i % 13) as u16,
                    direction: (i % 2) as u8,
                    flags: 1,
                    ..Default::default()
                },
            );
        }
    }
    batch
}

/// Thirteen seals over three tables at the default fan-in of 4. Eight
/// flushes (which seal but start no round) leave `a` with eight segments
/// and `b` with four; the first batch that fills the tail then starts a
/// round of three merges — two windows of `a`, one of `b` — and each
/// later one commits the round before it and starts the next.
fn round_stream(compact_in_the_middle: bool) -> Vec<Step> {
    let mut next = 0;
    let mut steps = Vec::new();
    for k in 0..8 {
        let b = if k % 2 == 0 { 20 } else { 0 };
        steps.push(table_batch(&[("a", 30), ("b", b)], &mut next));
        steps.push(Step::Flush);
    }
    for k in 0..4 {
        steps.push(table_batch(&[("a", 100), ("b", 80), ("c", 60)], &mut next));
        if k == 0 && compact_in_the_middle {
            steps.push(Step::CompactNow);
        }
    }
    steps.push(table_batch(&[("a", 10), ("c", 10)], &mut next));
    steps.push(Step::Flush);
    steps
}

/// Every file of a store directory, by name, with its bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// Compaction is a function of the input: at default `StoreOptions`
/// (sized down, fsync off) the same steps leave the same directory —
/// names, bytes, counters — run after run, with a `compact_now` in the
/// middle or without, and every table scans like its in-memory twin after
/// every step, a round in flight or not.
#[test]
fn same_stream_leaves_the_same_directory_whatever_the_worker_does() {
    let options = StoreOptions {
        seal_threshold: 240,
        fsync: false,
        ..StoreOptions::default()
    };
    for compact_in_the_middle in [false, true] {
        let run = |tag: &str| {
            let dir = test_dir(tag);
            let mut mem = TraceDb::new();
            let mut disk = TraceDb::open_with(&dir, options.clone()).unwrap();
            let mut stats = Vec::new();
            for step in round_stream(compact_in_the_middle) {
                match step {
                    Step::Insert(batch) => {
                        mem.insert_batch(&batch);
                        disk.insert_batch(&batch);
                    }
                    Step::Flush => disk.flush().unwrap(),
                    Step::CompactNow => assert_eq!(disk.compact_now().unwrap(), 3),
                }
                for table in ["a", "b", "c"] {
                    let q = Query::new(table);
                    assert_eq!(answers(&q, &disk), answers(&q, &mem), "{table}");
                }
                stats.push(disk.storage_stats().unwrap());
            }
            drop(disk);
            let files = dir_bytes(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            (stats, files)
        };
        let (stats, files) = run("rounds-1");
        let (again, files_again) = run("rounds-2");
        assert_eq!(stats, again, "counters after every step");
        assert_eq!(
            files.keys().collect::<Vec<_>>(),
            files_again.keys().collect::<Vec<_>>()
        );
        assert!(files == files_again, "every file byte for byte");
        assert!(
            files.keys().all(|f| !f.ends_with(".tmp")),
            "quiescent after flush"
        );

        // The commit points, spelled out: (seals, merges, segments in)
        // after each seal. The round the ninth seal starts — two windows
        // of `a`, one of `b` — is still uncommitted when that insert
        // returns, with its inputs what readers see, and commits at the
        // tenth seal (or the `compact_now` before it), not in between.
        let sealed: Vec<(u64, u64, u64)> = stats
            .iter()
            .map(|s| (s.seals, s.compactions, s.segments_merged))
            .filter(|&(seals, ..)| seals >= 8)
            .collect();
        let mut expected = vec![(8, 0, 0), (9, 0, 0)];
        if compact_in_the_middle {
            expected.push((9, 3, 12));
        }
        expected.extend([
            (10, 3, 12),
            (11, 4, 16),
            (12, 5, 20),
            (12, 5, 20),
            (13, 6, 24),
        ]);
        assert_eq!(sealed, expected);
        let last = stats.last().unwrap();
        assert_eq!((last.segments, last.wal_records), (8, 0));
    }
}

/// Adds every committed segment file in `dir` to `seen`, by name, with
/// the sequence range it holds.
fn record_segments(dir: &Path, seen: &mut BTreeMap<String, (u64, u64)>) {
    for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if path.extension().is_some_and(|x| x == "col") {
            let meta = Segment::open(&path).unwrap().meta().clone();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            seen.insert(name, (meta.min_seq, meta.max_seq));
        }
    }
}

/// Sixty-four equal seals of one table at the default fan-in of 4, then
/// a flush: no row is rewritten more than ⌈log2 64⌉ = 6 times (merging
/// any four adjacent segments rewrites the first seal's rows 21 times), and
/// `rows_merged` is exactly the rows the committed merges wrote.
#[test]
fn sixty_four_equal_seals_rewrite_no_row_more_than_six_times() {
    const SEAL: u64 = 100;
    let dir = test_dir("rewrites");
    let options = StoreOptions {
        seal_threshold: SEAL as usize,
        fsync: false,
        ..StoreOptions::default()
    };
    let mut db = TraceDb::open_with(&dir, options).unwrap();
    let mut next = 0;
    // A file lives from one seal point to at least the next, so looking
    // after every seal sees each one the store ever committed.
    let mut seen = BTreeMap::new();
    for _ in 0..64 {
        db.insert_batch(&numbered_batch(&[("a", SEAL)], &mut next));
        record_segments(&dir, &mut seen);
    }
    db.flush().unwrap();
    record_segments(&dir, &mut seen);
    // Seal `k` holds sequence numbers `k * SEAL ..`; its rows were
    // rewritten once by every merged file that holds them.
    let rewrites: Vec<u64> = (0..64)
        .map(|k| {
            let holding = seen
                .values()
                .filter(|&&(lo, hi)| lo <= k * SEAL && (k + 1) * SEAL - 1 <= hi)
                .count();
            holding as u64 - 1
        })
        .collect();
    let most = *rewrites.iter().max().unwrap();
    assert!(most <= 6, "a row rewritten {most} times: {rewrites:?}");
    let stats = db.storage_stats().unwrap();
    assert_eq!(stats.sealed_records, 64 * SEAL);
    assert_eq!(stats.rows_merged, rewrites.iter().sum::<u64>() * SEAL);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The benchmark stores' shape, on one table at the default fan-in of 4:
/// seven equal seals and a partial tail. The fourth seal plans one merge
/// of the first four, which the fifth commits; at the seventh the merged
/// segment holds more rows than the three seals behind it, so nothing is
/// planned and `flush` has no round to wait for — it only seals the tail.
#[test]
fn seven_equal_seals_then_flush_commit_exactly_one_round() {
    const SEAL: u64 = 1_000;
    let dir = test_dir("benchmark-shape");
    let options = StoreOptions {
        seal_threshold: SEAL as usize,
        fsync: false,
        ..StoreOptions::default()
    };
    let mut db = TraceDb::open_with(&dir, options).unwrap();
    let mut next = 0;
    for _ in 0..7 {
        db.insert_batch(&numbered_batch(&[("a", SEAL)], &mut next));
    }
    db.insert_batch(&numbered_batch(&[("a", SEAL / 4)], &mut next));
    let committed = |db: &TraceDb| {
        let s = db.storage_stats().unwrap();
        (s.seals, s.compactions, s.segments_merged, s.rows_merged)
    };
    assert_eq!(committed(&db), (7, 1, 4, 4 * SEAL));
    db.flush().unwrap();
    assert_eq!(committed(&db), (8, 1, 4, 4 * SEAL), "one round in all");
    assert_eq!(db.storage_stats().unwrap().segments, 5);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file of a store directory, name then bytes, appended to `fold`.
fn fold_files(dir: &Path, fold: &mut Vec<u8>) {
    for (name, bytes) in dir_bytes(dir) {
        fold.extend_from_slice(name.as_bytes());
        fold.extend_from_slice(&bytes);
    }
}

/// Each table of `batches()` scanned over a spread of windows — none,
/// everything, instants, narrow and wide slices, past the end, inverted
/// — with the entries (node name, record) and `ScanStats` appended to
/// `fold`.
fn fold_scans(db: &TraceDb, fold: &mut Vec<u8>) {
    use std::io::Write as _;
    let windows = [
        None,
        Some((0, u64::MAX)),
        Some((0, 0)),
        Some((1_000, 9_000)),
        Some((40_000, 41_000)),
        Some((100_000, 180_000)),
        Some((200_000, 400_000)),
        Some((320_000, u64::MAX)),
        Some((300_000, 450_000)),
        Some((400_000, 420_000)),
        Some((50_000, 10_000)),
        Some((u64::MAX, u64::MAX)),
    ];
    for table in ["tp_rx", "tp_tx", "tp_drop"] {
        for window in windows {
            let q = Query::new(table);
            let q = window.map_or(q.clone(), |(lo, hi)| q.time_range(lo, hi));
            let scan = q.scan(db).unwrap();
            writeln!(fold, "{table} {window:?} {:?}", scan.stats()).unwrap();
            for e in scan.entries() {
                writeln!(fold, "{} {:?}", e.node(), e.record()).unwrap();
            }
        }
    }
}

/// `batch` with every timestamp moved `by` nanoseconds later.
fn shifted(batch: &RecordBatch, by: u64) -> RecordBatch {
    let mut out = RecordBatch::new();
    for group in batch.groups() {
        for record in &group.records {
            let timestamp_ns = record.timestamp_ns + by;
            let record = CompactRecord {
                timestamp_ns,
                ..*record
            };
            out.push(&group.measurement, &group.node, record);
        }
    }
    out
}

/// The bytes a store leaves and the answers it gives, folded into one
/// CRC-32: interleaved three-node batches into three tables sealed four
/// times (one compaction round committed), dropped with a hot tail,
/// reopened over that WAL tail, fed more (two more seals), flushed, and
/// reopened cold — every directory file after each drop, and every scan
/// of [`fold_scans`] in memory, hot beside sealed, after the reopen,
/// after the flush and cold.
#[test]
fn sealed_files_and_scans_fold_to_one_crc() {
    let dir = test_dir("row-form-pin");
    let options = StoreOptions {
        seal_threshold: 100,
        fsync: false,
        compact_fanin: 3,
        compact_max_rows: 100_000,
        ..StoreOptions::default()
    };
    let mut early = batches();
    let mut late = early.split_off(11);
    late.extend(early[..4].iter().map(|b| shifted(b, 400_000)));
    let mut fold = Vec::new();
    let mut mem = TraceDb::new();
    let mut disk = TraceDb::open_with(&dir, options.clone()).unwrap();
    for batch in &early {
        mem.insert_batch(batch);
        disk.insert_batch(batch);
    }
    let stats = disk.storage_stats().unwrap();
    assert_eq!((stats.seals, stats.compactions), (4, 3));
    assert!(stats.wal_records > 0, "a hot tail to replay");
    fold_scans(&mem, &mut fold);
    fold_scans(&disk, &mut fold);
    drop(disk);
    fold_files(&dir, &mut fold);

    let mut disk = TraceDb::open_with(&dir, options.clone()).unwrap();
    fold_scans(&disk, &mut fold);
    for batch in &late {
        mem.insert_batch(batch);
        disk.insert_batch(batch);
    }
    assert_eq!(
        disk.storage_stats().unwrap().seals,
        2,
        "sealed after reopen"
    );
    fold_scans(&mem, &mut fold);
    fold_scans(&disk, &mut fold);
    disk.flush().unwrap();
    fold_scans(&disk, &mut fold);
    drop(disk);
    fold_files(&dir, &mut fold);

    let cold = TraceDb::open_with(&dir, options).unwrap();
    fold_scans(&cold, &mut fold);
    assert_eq!(vnet_tsdb::codec::crc32(&fold), 0xd0a8_6ac1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rows per segment block (`segment::BLOCK_ROWS`).
const BLOCK: u64 = 2_048;

/// One seal's batch: `a` rows of table `a` whose nodes cycle through
/// `nodes` in that order (so the seal's dictionary lists them so), and
/// `b` rows of table `b` on one node, numbered on from `*next`.
fn seal_batch(a: u64, nodes: &[&str], b: u64, next: &mut u64) -> RecordBatch {
    let mut batch = RecordBatch::new();
    for (table, n, nodes) in [("a", a, nodes), ("b", b, &["vm9"][..])] {
        for k in 0..n {
            let i = *next;
            *next += 1;
            batch.push(
                table,
                nodes[(k % nodes.len() as u64) as usize],
                CompactRecord {
                    timestamp_ns: i * 900 + (i % 7) * 31,
                    trace_id: i.is_multiple_of(3) as u32 * (0x9000 + i as u32),
                    pkt_len: 60 + (i * 37 % 1400) as u32,
                    saddr: 0x0a00_0001 + (i % 5) as u32,
                    daddr: 0x0a00_0102,
                    sport: 5_000 + (i % 17) as u16,
                    dport: 443,
                    cpu: (i % 4) as u16,
                    direction: (i % 2) as u8,
                    flags: i.is_multiple_of(3) as u8,
                },
            );
        }
    }
    batch
}

/// The merge's two block paths, pinned: table `a` seals whole 2 048-row
/// blocks, alternating exact multiples of a block with ragged tails, and
/// switches its node order mid-stream, so the rounds merge full blocks
/// that land aligned under a dictionary that maps to itself, full blocks
/// that land behind a ragged tail, and blocks whose node indices are
/// remapped; table `b` seals only ragged single blocks. Every directory
/// file after the last seal, after `compact_now` and after a cold reopen,
/// and a full scan of each table cold, fold into one CRC-32.
#[test]
fn full_block_seals_and_merges_fold_to_one_crc() {
    let dir = test_dir("full-block-pin");
    let options = StoreOptions {
        seal_threshold: BLOCK as usize,
        fsync: false,
        compact_fanin: 2,
        compact_max_rows: 100 * BLOCK,
        ..StoreOptions::default()
    };
    let (v1v2, v2v1, v1v2v3) = (
        &["vm1", "vm2"][..],
        &["vm2", "vm1"][..],
        &["vm1", "vm2", "vm3"][..],
    );
    let seals: [(u64, &[&str], u64); 13] = [
        (2 * BLOCK, v1v2, 30),
        (BLOCK, v1v2, 0),
        (3 * BLOCK, v1v2v3, 7),
        (2 * BLOCK + 300, v1v2, 0),
        (3 * BLOCK, v1v2, 11),
        (2 * BLOCK, v2v1, 0),
        (BLOCK, v1v2, 0),
        (BLOCK + 1, v1v2v3, 3),
        (4 * BLOCK, v2v1, 0),
        (BLOCK, v2v1, 40),
        (3 * BLOCK - 5, v1v2, 0),
        (2 * BLOCK, v1v2, 0),
        (BLOCK, v1v2v3, 1),
    ];
    let mut mem = TraceDb::new();
    let mut disk = TraceDb::open_with(&dir, options.clone()).unwrap();
    let mut next = 0;
    for (a, nodes, b) in seals {
        let batch = seal_batch(a, nodes, b, &mut next);
        mem.insert_batch(&batch);
        disk.insert_batch(&batch);
    }
    let tail = seal_batch(BLOCK / 2, v2v1, 5, &mut next);
    mem.insert_batch(&tail);
    disk.insert_batch(&tail);
    disk.flush().unwrap();
    let mut fold = Vec::new();
    fold_files(&dir, &mut fold);
    assert_eq!(
        disk.compact_now().unwrap(),
        1,
        "a window left for compact_now"
    );
    let stats = disk.storage_stats().unwrap();
    assert_eq!(
        (stats.seals, stats.compactions, stats.segments),
        (14, 11, 10)
    );
    drop(disk);
    fold_files(&dir, &mut fold);

    let cold = TraceDb::open_with(&dir, options).unwrap();
    for table in ["a", "b"] {
        assert_eq!(
            answers(&Query::new(table), &cold),
            answers(&Query::new(table), &mem)
        );
        for e in Query::new(table).scan(&cold).unwrap().entries() {
            fold.extend_from_slice(format!("{} {:?}\n", e.node(), e.record()).as_bytes());
        }
    }
    drop(cold);
    fold_files(&dir, &mut fold);
    assert_eq!(vnet_tsdb::codec::crc32(&fold), 0x0166_fdcd);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Table `walk`'s seals: three segments of 30, 20 and 16 full blocks,
/// each with a ragged tail, under three node dictionaries.
const WALK_SEALS: [(u64, &[&str]); 3] = [
    (30 * BLOCK + 500, &["vm1", "vm2", "vm3"]),
    (20 * BLOCK + 77, &["vm2", "vm1"]),
    (16 * BLOCK + 1, &["vm3", "vm1", "vm2", "vm4"]),
];
/// Rows of table `walk` left in the hot tail after its seals.
const WALK_HOT: u64 = 1_000;

/// Record `i`'s timestamp in table `walk`: strictly increasing.
fn walk_ts(i: u64) -> u64 {
    i * 1_000 + (i % 5) * 37
}

/// Inserts table `walk` into `dbs`: one batch per seal of
/// [`WALK_SEALS`], then [`WALK_HOT`] rows on `vm2`.
fn insert_walk_table(dbs: &mut [&mut TraceDb]) {
    let hot: (u64, &[&str]) = (WALK_HOT, &["vm2"]);
    let mut i = 0u64;
    for (rows, nodes) in WALK_SEALS.into_iter().chain([hot]) {
        let mut batch = RecordBatch::new();
        for k in 0..rows {
            let mix = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let record = CompactRecord {
                timestamp_ns: walk_ts(i),
                trace_id: (i / 3 % 40_000) as u32,
                pkt_len: 64 + (mix % 1_400) as u32,
                saddr: mix as u32,
                daddr: (mix >> 16) as u32,
                sport: (mix >> 8) as u16,
                dport: 80,
                cpu: (i % 4) as u16,
                direction: (i % 2) as u8,
                flags: u8::from(!i.is_multiple_of(7)),
            };
            batch.push("walk", nodes[(k % nodes.len() as u64) as usize], record);
            i += 1;
        }
        for db in dbs.iter_mut() {
            db.insert_batch(&batch);
        }
    }
}

/// Windows over table `walk`, by the rows they hold: none, all, one row,
/// exactly one block, a full block with its segment's ragged tail, a
/// block's last row with the next one's first, the gap between two
/// blocks, across two segments, a quarter of the table, into the hot
/// tail, inverted, and past the end.
fn walk_windows() -> Vec<Option<(u64, u64)>> {
    let sealed: u64 = WALK_SEALS.iter().map(|(rows, _)| rows).sum();
    let total = sealed + WALK_HOT;
    let first = WALK_SEALS[0].0;
    let rows = |a: u64, b: u64| Some((walk_ts(a), walk_ts(b)));
    vec![
        None,
        Some((0, u64::MAX)),
        rows(12_345, 12_345),
        rows(5 * BLOCK, 6 * BLOCK - 1),
        rows(29 * BLOCK, first - 1),
        rows(10 * BLOCK - 1, 10 * BLOCK),
        Some((walk_ts(7 * BLOCK - 1) + 1, walk_ts(7 * BLOCK) - 1)),
        rows(first - 3, first + 2 * BLOCK),
        rows(total / 4, total / 2),
        rows(sealed - 100, sealed + 10),
        rows(50 * BLOCK, 10 * BLOCK),
        Some((walk_ts(total) + 1, u64::MAX)),
        Some((u64::MAX, u64::MAX)),
    ]
}

/// Every [`walk_windows`] window over table `walk`, appended to `fold`:
/// each scan's `ScanStats` and entries, then each `Rows` a walk hands
/// over under `FirstSeen`'s projection and under an empty one (the
/// dictionary, the matched indices and every loaded lane of a block).
fn fold_walks(db: &TraceDb, fold: &mut Vec<u8>) {
    use std::io::Write as _;
    let first_seen = columns(&[ColumnId::Ts, ColumnId::TraceId, ColumnId::Flags]);
    for window in walk_windows() {
        let q = Query::new("walk");
        let q = window.map_or(q.clone(), |(lo, hi)| q.time_range(lo, hi));
        let scan = q.scan(db).unwrap();
        writeln!(fold, "{window:?} {:?}", scan.stats()).unwrap();
        for e in scan.entries() {
            fold.extend_from_slice(e.node().as_bytes());
            fold.extend_from_slice(&e.record().encode());
        }
        for project in [first_seen, columns(&[])] {
            let stats = q
                .walk(db, &project, |rows| {
                    match rows {
                        Rows::Sealed {
                            block,
                            matched,
                            nodes,
                        } => {
                            writeln!(fold, "sealed {nodes:?} {}", matched.len()).unwrap();
                            for &i in matched {
                                fold.extend_from_slice(&(i as u32).to_le_bytes());
                            }
                            for lane in ColumnId::ALL.map(|c| block.col(c)) {
                                fold.extend_from_slice(&(lane.len() as u32).to_le_bytes());
                                for v in lane {
                                    fold.extend_from_slice(&v.to_le_bytes());
                                }
                            }
                        }
                        Rows::Hot { node, record } => {
                            fold.extend_from_slice(node.as_bytes());
                            fold.extend_from_slice(&record.encode());
                        }
                    }
                    Ok(())
                })
                .unwrap();
            writeln!(fold, "{project:?} {stats:?}").unwrap();
        }
    }
}

/// Many-block walks, pinned: table `walk` ([`WALK_SEALS`], 66 full
/// blocks and three ragged tails, plus a hot tail) scanned and walked
/// over every [`walk_windows`] window in memory, on hot plus sealed data,
/// and cold after a flush, all folded into one CRC-32.
#[test]
fn many_block_walks_fold_to_one_crc() {
    let dir = test_dir("many-block-walks");
    let options = StoreOptions {
        seal_threshold: BLOCK as usize,
        fsync: false,
        compact_fanin: 1_000,
        ..StoreOptions::default()
    };
    let mut mem = TraceDb::new();
    let mut disk = TraceDb::open_with(&dir, options.clone()).unwrap();
    insert_walk_table(&mut [&mut mem, &mut disk]);
    let stats = disk.storage_stats().unwrap();
    assert_eq!((stats.segments, stats.wal_records), (3, WALK_HOT));
    let blocks: usize = block_index(&dir).iter().map(Vec::len).sum();
    assert_eq!(blocks, 66 + 3);
    let mut fold = Vec::new();
    fold_walks(&mem, &mut fold);
    fold_walks(&disk, &mut fold);
    disk.flush().unwrap();
    drop(disk);
    let cold = TraceDb::open_with(&dir, options).unwrap();
    assert_eq!(cold.storage_stats().unwrap().segments, 4);
    fold_walks(&cold, &mut fold);
    drop(cold);
    assert_eq!(vnet_tsdb::codec::crc32(&fold), 0xd768_6248);
    let _ = std::fs::remove_dir_all(&dir);
}

const NODES: [&str; 3] = ["vm1", "vm2", "vm3"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Block pruning is invisible: on a multi-segment, multi-block store
    /// whose timestamps are only near-monotone (per-node clock skew,
    /// jitter, duplicates), `Query::scan` returns exactly the rows of an
    /// unfiltered scan of the in-memory twin that pass the same condition
    /// written on the typed timestamp — for arbitrary windows, empty and
    /// inverted windows, and windows laid on block boundaries.
    #[test]
    fn block_pruned_scan_equals_full_filter(
        rows in 20_000u64..32_000,
        step in 0u64..40,
        skews in proptest::collection::vec(0u64..200_000, 3),
        jitter in proptest::collection::vec(0u64..3_000, 1..50),
        cuts in proptest::collection::vec((0u64..=1_000, 0u64..=1_000), 4),
    ) {
        let dir = test_dir("block-differential");
        let options = StoreOptions {
            seal_threshold: 5_000,
            fsync: false,
            compact_fanin: 2,
            compact_max_rows: 12_000,
            ..StoreOptions::default()
        };
        let mut mem = TraceDb::new();
        let mut disk = TraceDb::open_with(&dir, options).unwrap();
        let mut batch = RecordBatch::new();
        for i in 0..rows {
            let node = (i % 3) as usize;
            batch.push(
                "tp",
                NODES[node],
                CompactRecord {
                    timestamp_ns: 1_000 + i * step + skews[node] + jitter[i as usize % jitter.len()],
                    trace_id: 0x100 + (i / 4) as u32 % 64,
                    pkt_len: 60 + (i % 9) as u32,
                    direction: (i % 2) as u8,
                    flags: u8::from(i % 4 == 0),
                    ..Default::default()
                },
            );
            if batch.len() == 1_500 || i + 1 == rows {
                mem.insert_batch(&batch);
                disk.insert_batch(&batch);
                batch.clear();
            }
        }
        let index = block_index(&dir);
        prop_assert!(index.len() >= 2, "several segments");
        prop_assert!(index.iter().any(|blocks| blocks.len() >= 2), "some multi-block");

        let all: Vec<&BlockMeta> = index.iter().flatten().collect();
        let t_min = all.iter().map(|b| b.min_ts).min().unwrap();
        let t_max = all.iter().map(|b| b.max_ts).max().unwrap();
        let at = |share: u64| t_min + (t_max - t_min) * share / 1_000;
        // Arbitrary windows (inverted ones are empty), then windows on
        // the edges of blocks: exactly a block, its first and last
        // instants, and the gap (or overlap) to the next block.
        let mut windows: Vec<(u64, u64)> = cuts.iter().map(|&(a, b)| (at(a), at(b))).collect();
        windows.push((t_max + 1, u64::MAX));
        for pair in all.windows(2).step_by(all.len().div_ceil(6)) {
            let (b, next) = (pair[0], pair[1]);
            windows.extend([
                (b.min_ts, b.max_ts),
                (b.max_ts, b.max_ts),
                (next.min_ts, next.min_ts),
                (b.max_ts + 1, next.min_ts.saturating_sub(1)),
            ]);
        }
        let everything = Query::new("tp").scan(&mem).unwrap();
        for &(lo, hi) in &windows {
            let q = Query::new("tp").time_range(lo, hi);
            let scan = q.scan(&disk).unwrap();
            let scanned = node_records(&scan.entries());
            let filtered: Vec<_> = node_records(&everything.entries())
                .into_iter()
                .filter(|(_, r)| (lo..=hi).contains(&r.timestamp_ns))
                .collect();
            prop_assert_eq!(scanned, filtered, "window {}..={}", lo, hi);
            let s = scan.stats();
            prop_assert_eq!(s.blocks_total, all.len() as u64);
            prop_assert_eq!(s.blocks_pruned + s.blocks_scanned, s.blocks_total);
            prop_assert_eq!(s.segments_pruned + s.segments_scanned, s.segments_total);
            let overlapping = all.iter().filter(|b| b.max_ts >= lo && b.min_ts <= hi).count();
            prop_assert!(s.blocks_scanned <= overlapping as u64, "only overlapping blocks");
        }
        drop(disk); // joins the round in flight before its directory goes
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The typed, column-projected join is the string-keyed join: same
    /// pairs in the same order on an in-memory store, a disk store with
    /// sealed segments and a hot tail, the same store compacted, and a
    /// cold reopen — with IDs duplicated inside and across segments and
    /// blocks (the first by sequence wins), unflagged records, and the
    /// IDs 0 and `u32::MAX`.
    #[test]
    fn typed_join_equals_string_keyed_oracle(
        ids in proptest::collection::vec(0u32..1_500, 6_000..9_000),
        stamps in proptest::collection::vec(0u64..50_000, 1..60),
        unflagged in 2u64..9,
    ) {
        let dir = test_dir("join-differential");
        let options = StoreOptions {
            seal_threshold: 2_500,
            fsync: false,
            compact_fanin: 3,
            compact_max_rows: 1 << 20,
            ..StoreOptions::default()
        };
        let mut mem = TraceDb::new();
        let mut disk = TraceDb::open_with(&dir, options.clone()).unwrap();
        let mut batch = RecordBatch::new();
        for (i, &id) in ids.iter().enumerate() {
            let i = i as u64;
            let record = CompactRecord {
                timestamp_ns: 100 + i * 20 + stamps[i as usize % stamps.len()],
                trace_id: match id {
                    0 => 0,
                    1 => u32::MAX,
                    id => id,
                },
                flags: u8::from(!(i / 3).is_multiple_of(unflagged)),
                ..Default::default()
            };
            batch.push(if i.is_multiple_of(3) { "b" } else { "a" }, NODES[(i % 3) as usize], record);
            if batch.len() == 700 || i + 1 == ids.len() as u64 {
                mem.insert_batch(&batch);
                disk.insert_batch(&batch);
                batch.clear();
            }
        }
        let joined = assert_join_matches_oracle(&mem, "memory");
        prop_assert!(joined.len() > 100, "the tables share IDs");
        prop_assert!(block_index(&dir).len() >= 2, "several segments");
        prop_assert_eq!(&assert_join_matches_oracle(&disk, "hot + sealed"), &joined);
        disk.flush().unwrap();
        disk.compact_now().unwrap();
        let index = block_index(&dir);
        prop_assert!(index.iter().any(|blocks| blocks.len() >= 2), "some multi-block");
        prop_assert_eq!(&assert_join_matches_oracle(&disk, "compacted"), &joined);
        drop(disk);
        let cold = TraceDb::open_with(&dir, options).unwrap();
        prop_assert_eq!(&assert_join_matches_oracle(&cold, "cold reopen"), &joined);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
