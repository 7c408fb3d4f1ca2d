//! The JSON-lines reader at its trust boundary (`vnt db import`):
//! whatever bytes it is given it answers `Ok` or a typed error naming the
//! line, never a panic; and a dump survives export → import → export byte
//! for byte, into memory and into a disk-backed store.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use vnet_tsdb::{
    import_json_lines, read_json_lines, write_json_lines, CompactRecord, PersistError, RecordBatch,
    StoreOptions, TraceDb,
};

/// Three tables: `shared` is fed by two nodes whose records interleave
/// (runs of one and of three), `drops` carries every drop reason, and
/// `plain` has unflagged records from one node.
fn sample_db() -> TraceDb {
    let mut db = TraceDb::new();
    let mut batch = RecordBatch::new();
    for i in 0..60u32 {
        let record = CompactRecord {
            timestamp_ns: u64::from(i) * 700 + u64::from(i % 5),
            trace_id: 0x4000 + i,
            pkt_len: 60 + i,
            saddr: u32::from(Ipv4Addr::new(10, 0, (i % 3) as u8, 1)),
            daddr: u32::from(Ipv4Addr::new(10, 0, 0, 2)),
            sport: 9_000 + (i % 4) as u16,
            dport: 80,
            cpu: (i % 8) as u16,
            direction: (i % 2) as u8,
            flags: 1,
        };
        // One batch per record: the tables' orders are the loop's.
        batch.clear();
        let node = ["vm1", "vm2", "vm1", "vm2", "vm2", "vm2"][i as usize % 6];
        batch.push("shared", node, record);
        let drop = CompactRecord {
            flags: (i % 2) as u8 | ((i % 6) as u8) << 1,
            ..record
        };
        batch.push("drops", "host", drop);
        let plain = CompactRecord {
            trace_id: 0,
            flags: 0,
            ..record
        };
        batch.push("plain", "vm3", plain);
        db.insert_batch(&batch);
    }
    db
}

fn export(db: &TraceDb) -> Vec<u8> {
    let mut buf = Vec::new();
    write_json_lines(db, &mut buf).expect("export");
    buf
}

#[test]
fn export_import_export_is_byte_identical_in_memory_and_on_disk() {
    let db = sample_db();
    let dump = export(&db);
    assert_eq!(dump.iter().filter(|&&b| b == b'\n').count(), 180);
    let nodes: Vec<&str> = db
        .table("shared")
        .unwrap()
        .entries()
        .iter()
        .map(|e| e.node())
        .collect();
    assert!(
        nodes.windows(2).filter(|w| w[0] != w[1]).count() > 20,
        "the two nodes interleave"
    );

    let back = read_json_lines(&dump[..]).unwrap();
    assert_eq!(back.len(), 180);
    assert_eq!(export(&back), dump, "memory");

    let dir = std::env::temp_dir().join(format!("vnt-json-lines-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = StoreOptions {
        seal_threshold: 70,
        fsync: false,
        ..StoreOptions::default()
    };
    let mut disk = TraceDb::open_with(&dir, options.clone()).unwrap();
    assert_eq!(import_json_lines(&dump[..], &mut disk).unwrap(), 180);
    let stats = disk.storage_stats().unwrap();
    assert!(stats.segments > 0 && stats.wal_records > 0, "sealed + hot");
    assert_eq!(export(&disk), dump, "disk, hot + sealed");
    disk.flush().unwrap();
    drop(disk);
    let cold = TraceDb::open_with(&dir, options).unwrap();
    assert_eq!(export(&cold), dump, "disk, cold");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deeply nested line is a typed error like any other bad line, not a
/// stack overflow in the JSON parser.
#[test]
fn a_deeply_nested_line_is_a_parse_error() {
    let mut input = export(&sample_db());
    input.extend(std::iter::repeat_n(b'[', 200_000));
    let err = read_json_lines(&input[..]).unwrap_err();
    assert!(
        matches!(err, PersistError::Parse { line: 181, .. }),
        "{err}"
    );
}

/// `Ok`, or `Parse` naming a line of the input before which every line
/// was accepted.
fn assert_typed_outcome(input: &[u8]) {
    match read_json_lines(input) {
        Ok(db) => {
            let lines = input.split(|&b| b == b'\n');
            let filled = lines.filter(|l| l.iter().any(|b| !b.is_ascii_whitespace()));
            assert!(db.len() <= filled.count(), "at most a record per line");
        }
        Err(PersistError::Parse { line, .. }) => {
            let breaks = input.iter().enumerate().filter(|(_, &b)| b == b'\n');
            let starts: Vec<usize> = std::iter::once(0)
                .chain(breaks.map(|(i, _)| i + 1))
                .collect();
            assert!(
                (1..=starts.len()).contains(&line),
                "line {line} of {}",
                starts.len()
            );
            let before = &input[..starts[line - 1]];
            assert!(
                read_json_lines(before).is_ok(),
                "lines before {line} are good"
            );
        }
        Err(other) => panic!("untyped failure: {other:?}"),
    }
}

/// Bytes that change a dump's structure rather than one of its values.
const STRUCTURAL: &[u8] = b"\n{}[]\":,-e";

proptest! {
    #[test]
    fn arbitrary_bytes_are_ok_or_a_located_parse_error(
        input in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        assert_typed_outcome(&input);
    }

    /// A valid dump with bytes overwritten, a span removed, or cut short.
    #[test]
    fn mutated_dumps_are_ok_or_a_located_parse_error(
        overwrite in proptest::collection::vec((0usize..1 << 20, any::<u8>()), 0..4),
        structural in proptest::collection::vec((0usize..1 << 20, 0..STRUCTURAL.len()), 0..3),
        remove in (0usize..1 << 20, 0usize..300),
        keep in 0usize..1 << 20,
    ) {
        let mut input = export(&sample_db());
        for (at, byte) in overwrite {
            let at = at % input.len();
            input[at] = byte;
        }
        for (at, which) in structural {
            let at = at % input.len();
            input[at] = STRUCTURAL[which];
        }
        let from = remove.0 % input.len();
        input.drain(from..(from + remove.1).min(input.len()));
        // Cut short in one case of four.
        if keep % 4 == 0 {
            input.truncate(keep % (input.len() + 1));
        }
        assert_typed_outcome(&input);
    }
}
