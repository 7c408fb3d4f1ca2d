//! The JSON-lines reader at its trust boundary (`vnt db import`):
//! whatever bytes it is given it answers `Ok` or a typed error naming the
//! line, never a panic; it accepts exactly the lines the export writes;
//! and a dump survives export → import → export byte for byte, into
//! memory and into a disk-backed store.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use serde_json::{parse_value, Value};
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
    let scan = vnet_tsdb::Query::new("shared").scan(&db).unwrap();
    let entries = scan.entries();
    let nodes: Vec<&str> = entries.iter().map(|e| e.node()).collect();
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

/// Every tag shape the export writes, over three tables and four nodes:
/// trace ID on and off, `rx` and `tx`, each of the five drop reasons,
/// no reason, and the unknown codes 6 and 7 (which write no reason
/// either); the integers run to their extremes.
fn tag_shapes_db(db: &mut TraceDb) {
    let mut batch = RecordBatch::new();
    for i in 0..64u32 {
        let (direction, flags) = ((i % 2) as u8, u8::from(i % 3 != 0) | ((i % 8) as u8) << 1);
        let record = if i % 16 == 15 {
            CompactRecord {
                timestamp_ns: u64::MAX - u64::from(i),
                trace_id: u32::MAX,
                pkt_len: u32::MAX,
                saddr: 0,
                daddr: u32::MAX,
                sport: u16::MAX,
                dport: 0,
                cpu: u16::MAX,
                direction,
                flags,
            }
        } else {
            CompactRecord {
                timestamp_ns: u64::from(i) * 1_013,
                trace_id: i.wrapping_mul(0x9e37_79b9),
                pkt_len: 54 + i * 7,
                saddr: u32::from(Ipv4Addr::new(10, 1, (i % 4) as u8, 9)),
                daddr: u32::from(Ipv4Addr::new(192, 168, 0, 2)),
                sport: 40_000 + i as u16,
                dport: 4789,
                cpu: (i % 4) as u16,
                direction,
                flags,
            }
        };
        let table = ["vxlan_rx", "veth_tx", "skb_drops"][i as usize % 3];
        let node = ["vm1", "vm2", "host-a", "host-b"][(i / 3) as usize % 4];
        batch.push(table, node, record);
        if i % 5 == 4 {
            db.insert_batch(&batch);
            batch.clear();
        }
    }
    db.insert_batch(&batch);
}

/// The dump's bytes, pinned: the export of [`tag_shapes_db`] in memory
/// and of its disk twin after a cold reopen fold into one CRC-32.
#[test]
fn export_bytes_fold_to_one_crc() {
    let mut mem = TraceDb::new();
    tag_shapes_db(&mut mem);
    let dump = export(&mem);
    assert_eq!(dump.iter().filter(|&&b| b == b'\n').count(), 64);

    let dir = std::env::temp_dir().join(format!("vnt-json-lines-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = StoreOptions {
        seal_threshold: 20,
        fsync: false,
        ..StoreOptions::default()
    };
    let mut disk = TraceDb::open_with(&dir, options.clone()).unwrap();
    tag_shapes_db(&mut disk);
    disk.flush().unwrap();
    drop(disk);
    let cold = TraceDb::open_with(&dir, options).unwrap();
    let mut fold = dump.clone();
    fold.extend_from_slice(&export(&cold));
    drop(cold);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(fold[dump.len()..], dump[..], "cold disk twin");
    assert_eq!(vnet_tsdb::codec::crc32(&fold), 0x57f2_a40c);
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

/// One dump line as the export writes it: a drop record with a trace ID.
fn good_line() -> Value {
    let mut db = TraceDb::new();
    let mut batch = RecordBatch::new();
    let record = CompactRecord {
        timestamp_ns: 1_234,
        trace_id: 0xdead_beef,
        pkt_len: 60,
        saddr: u32::from(Ipv4Addr::new(10, 0, 0, 1)),
        daddr: u32::from(Ipv4Addr::new(10, 0, 0, 2)),
        sport: 1000,
        dport: 2000,
        cpu: 3,
        direction: 0,
        flags: 1 | 2 << 1,
    };
    batch.push("tp", "server1", record);
    db.insert_batch(&batch);
    let dump = String::from_utf8(export(&db)).unwrap();
    parse_value(dump.trim_end()).unwrap()
}

/// The object member of `v` at `path`.
fn object_at<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut BTreeMap<String, Value> {
    let Value::Object(map) = v else {
        panic!("not an object: {v}")
    };
    match path.split_first() {
        None => map,
        Some((key, rest)) => object_at(map.get_mut(*key).unwrap(), rest),
    }
}

/// A good line, then [`good_line`] with `edit` applied to the object at
/// `path`: the import answers `Parse` naming line 2.
fn assert_second_line_rejected(path: &[&str], edit: impl FnOnce(&mut BTreeMap<String, Value>)) {
    let mut bad = good_line();
    edit(object_at(&mut bad, path));
    let input = format!("{}\n{bad}\n", good_line());
    let mut db = TraceDb::new();
    let err = import_json_lines(input.as_bytes(), &mut db).unwrap_err();
    assert!(
        matches!(err, PersistError::Parse { line: 2, .. }),
        "{bad}: {err:?}"
    );
}

fn text(s: &str) -> Value {
    Value::String(s.to_owned())
}

fn uint(v: u64) -> Value {
    parse_value(&format!(r#"{{"UInt":{v}}}"#)).unwrap()
}

/// Members the export never writes, beside the record's own: at the top
/// level, and inside a field's value.
#[test]
fn extra_members_are_parse_errors() {
    assert_second_line_rejected(&[], |top| {
        top.insert("rack".into(), text("r7"));
    });
    assert_second_line_rejected(&["fields", "pkt_len"], |value| {
        value.insert("Zed".into(), parse_value("1").unwrap());
    });
}

/// Each way a line can name a record the export would spell otherwise.
#[test]
fn lines_export_never_writes_are_parse_errors() {
    assert_second_line_rejected(&["tags"], |tags| {
        tags.insert("rack".into(), text("r7"));
    });
    assert_second_line_rejected(&["fields"], |fields| {
        fields.insert("latency_ns".into(), uint(9));
    });
    assert_second_line_rejected(&["tags"], |tags| {
        tags.remove("node");
    });
    for [key, value] in [
        ["flow", "01.0.0.1:1000->10.0.0.2:2000"],
        ["flow", "10.0.0.1:01000->10.0.0.2:2000"],
        ["flow", "10.0.0.1:1000->10.0.0.2:70000"],
        ["flow", "300.0.0.1:1->2.0.0.2:2"],
        ["flow", "10.0.0.1:1000"],
        ["direction", "up"],
        ["trace_id", "ab"],
        ["trace_id", "DEADBEEF"],
        ["trace_id", "+eadbeef"],
        ["trace_id", "0deadbeef"],
        ["drop_reason", "cosmic-ray"],
    ] {
        assert_second_line_rejected(&["tags"], |tags| {
            tags.insert(key.into(), text(value));
        });
    }
    for value in [
        r#"{"Int":-3}"#,
        r#"{"Float":2.5}"#,
        r#"{"Str":"x"}"#,
        r#"{"UInt":4294967296}"#,
        "9",
        "{}",
    ] {
        assert_second_line_rejected(&["fields"], |fields| {
            fields.insert("pkt_len".into(), parse_value(value).unwrap());
        });
    }
    assert_second_line_rejected(&["fields"], |fields| {
        fields.insert("cpu".into(), uint(65_536));
    });
    for value in ["1.5", "-1", r#""1234""#, "null"] {
        assert_second_line_rejected(&[], |top| {
            top.insert("timestamp_ns".into(), parse_value(value).unwrap());
        });
    }
    assert_second_line_rejected(&[], |top| {
        top.remove("measurement");
    });
    assert_second_line_rejected(&[], |top| {
        top.insert("tags".into(), parse_value("{}").unwrap());
        top.insert("fields".into(), parse_value("{}").unwrap());
    });
}

/// Values a mutation writes into a dump line.
fn mutant_value(which: usize) -> Value {
    let text = [
        "0",
        "60",
        "18446744073709551615",
        "-1",
        "2.5",
        r#""rx""#,
        r#""deadbeef""#,
        r#""policed""#,
        "null",
        "true",
        "[]",
        "{}",
        r#"{"UInt":7}"#,
        r#"{"Int":7}"#,
    ];
    parse_value(text[which % text.len()]).unwrap()
}

/// Keys a mutation adds, removes or renames to.
const MUTANT_KEYS: &[&str] = &[
    "UInt",
    "Zed",
    "node",
    "flow",
    "direction",
    "trace_id",
    "drop_reason",
    "pkt_len",
    "cpu",
    "measurement",
    "timestamp_ns",
    "tags",
    "fields",
    "extra",
];

/// The paths of every object in `v`, `v` itself first.
fn object_paths(v: &Value, path: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
    if let Value::Object(map) = v {
        out.push(path.clone());
        for (k, child) in map {
            path.push(k.clone());
            object_paths(child, path, out);
            path.pop();
        }
    }
}

/// Applies one member-level edit to an object somewhere in `line`:
/// insert (or overwrite) a member, remove one, or rename one.
fn mutate(line: &mut Value, (at, op, key, value): (usize, usize, usize, usize)) {
    let mut paths = Vec::new();
    object_paths(line, &mut Vec::new(), &mut paths);
    let path: Vec<&str> = paths[at % paths.len()].iter().map(String::as_str).collect();
    let map = object_at(line, &path);
    let key = MUTANT_KEYS[key % MUTANT_KEYS.len()].to_owned();
    let existing = map.keys().nth(value % map.len().max(1)).cloned();
    match op % 3 {
        0 => {
            map.insert(key, mutant_value(value));
        }
        1 => {
            if let Some(k) = existing {
                map.remove(&k);
            }
        }
        _ => {
            if let Some(k) = existing {
                let v = map.remove(&k).unwrap();
                map.insert(key, v);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_024))]

    /// Import accepts exactly what export writes: every line of a dump
    /// edited member by member is either a `Parse` error naming it, or
    /// parses to the same value as the line export writes for the record
    /// it imported.
    #[test]
    fn import_accepts_only_lines_export_writes(
        pick in 0usize..1 << 20,
        edits in proptest::collection::vec(
            (0usize..64, 0usize..3, 0usize..64, 0usize..64), 1..4),
    ) {
        static DUMP: std::sync::OnceLock<Vec<Value>> = std::sync::OnceLock::new();
        let dump = DUMP.get_or_init(|| {
            let dump = String::from_utf8(export(&sample_db())).unwrap();
            dump.lines().map(|l| parse_value(l).unwrap()).collect()
        });
        let mut line = dump[pick % dump.len()].clone();
        for edit in edits {
            mutate(&mut line, edit);
        }
        let text = line.to_string();
        match read_json_lines(text.as_bytes()) {
            Ok(db) => {
                let back = String::from_utf8(export(&db)).unwrap();
                prop_assert_eq!(db.len(), 1);
                prop_assert_eq!(parse_value(back.trim_end()).unwrap(), line, "{}", text);
            }
            Err(PersistError::Parse { line: 1, .. }) => {}
            Err(other) => prop_assert!(false, "{}: {:?}", text, other),
        }
    }
}
