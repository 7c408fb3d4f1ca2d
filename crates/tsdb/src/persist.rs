//! Persistence: JSON-lines export and import of a trace database.
//!
//! Mirrors the paper's §III-C pipeline step where raw tracing data "is
//! stored locally and then gathered to the database on the master node".
//! With the columnar segment store (see [`crate::store`]) carrying the
//! durable hot path, this module is the explicit interchange tool behind
//! `vnt db export` / `vnt db import`: a portable, human-greppable dump,
//! not the storage engine.
//!
//! The dump is a codec over [`CompactRecord`] itself: one line is one
//! record with its table and node names, tagged and fielded the way the
//! paper's InfluxDB tables are ("create tables for each tracepoint",
//! §III-E). Nothing holds a record in that form; [`write_json_lines`]
//! builds each line from the record, and [`import_json_lines`] reads a
//! record back and accepts the line only if it is exactly what the export
//! writes for that record.

use std::io::{BufRead, Write};
use std::net::Ipv4Addr;

use serde_json::{object, ToJson, Value};

use crate::batch::RecordBatch;
use crate::query::Query;
use crate::record::{drop_reason_code, trace_id_tag, CompactRecord};
use crate::store::{StoreError, TraceDb};

/// The tag under which a dump line carries the packet's trace ID, as
/// [`trace_id_tag`] spells it (absent when the packet carried none).
pub const TRACE_ID_TAG: &str = "trace_id";

/// The tag under which a drop record's line carries its typed drop
/// reason (derived from record flag bits 1–3; absent on other records).
pub const DROP_REASON_TAG: &str = "drop_reason";

/// A record's dump line: `measurement`, `timestamp_ns`, tags `node`,
/// `flow` (`src:sport->dst:dport`), `direction` (`rx`/`tx`), and, when
/// present, [`TRACE_ID_TAG`] and [`DROP_REASON_TAG`]; fields `pkt_len`
/// and `cpu`, each written `{"UInt":n}`.
fn dump_line(measurement: &str, node: &str, r: &CompactRecord) -> Value {
    let direction = if r.direction == 0 { "rx" } else { "tx" };
    let mut tags = vec![
        ("node", node.to_json()),
        ("flow", r.flow().to_json()),
        ("direction", direction.to_json()),
    ];
    if r.has_trace_id() {
        tags.push((TRACE_ID_TAG, trace_id_tag(r.trace_id).to_json()));
    }
    if let Some(reason) = r.drop_reason() {
        tags.push((DROP_REASON_TAG, reason.to_json()));
    }
    let uint = |v: u64| object([("UInt", v.to_json())]);
    object([
        ("measurement", measurement.to_json()),
        ("tags", object(tags)),
        (
            "fields",
            object([
                ("pkt_len", uint(r.pkt_len.into())),
                ("cpu", uint(r.cpu.into())),
            ]),
        ),
        ("timestamp_ns", r.timestamp_ns.to_json()),
    ])
}

/// The `(measurement, node, record)` a dump line holds: `None` unless
/// [`dump_line`] of the result is exactly `line`. The reading is loose
/// and the one whole-line comparison is the check, so every spelling the
/// export would not write — an extra member anywhere, a padded port, an
/// upper-case trace ID, a value out of range — is refused.
fn record_of(line: &Value) -> Option<(&str, &str, CompactRecord)> {
    let tag = |key: &str| line.get("tags")?.get(key)?.as_str();
    let field = |key: &str| line.get("fields")?.get(key)?.get("UInt")?.as_u64();
    let side = |s: &str| -> Option<(u32, u16)> {
        let (ip, port) = s.rsplit_once(':')?;
        Some((ip.parse::<Ipv4Addr>().ok()?.into(), port.parse().ok()?))
    };
    let (src, dst) = tag("flow")?.split_once("->")?;
    let ((saddr, sport), (daddr, dport)) = (side(src)?, side(dst)?);
    let (trace_id, mut flags) = match tag(TRACE_ID_TAG) {
        Some(id) => (u32::from_str_radix(id, 16).ok()?, 1),
        None => (0, 0),
    };
    if let Some(reason) = tag(DROP_REASON_TAG) {
        flags |= drop_reason_code(reason)? << 1;
    }
    let record = CompactRecord {
        timestamp_ns: line.get("timestamp_ns")?.as_u64()?,
        trace_id,
        pkt_len: field("pkt_len")?.try_into().ok()?,
        saddr,
        daddr,
        sport,
        dport,
        cpu: field("cpu")?.try_into().ok()?,
        direction: u8::from(tag("direction")? != "rx"),
        flags,
    };
    let (measurement, node) = (line.get("measurement")?.as_str()?, tag("node")?);
    (dump_line(measurement, node, &record) == *line).then_some((measurement, node, record))
}

/// Errors from persistence operations.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line is not a record's dump line, with its 1-based line number.
    Parse {
        /// Line number.
        line: usize,
        /// What is wrong with it.
        message: String,
    },
    /// A disk-backed database failed to read its sealed segments.
    Storage(StoreError),
}

impl core::fmt::Display for PersistError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Parse { line, message } => {
                write!(f, "bad record on line {line}: {message}")
            }
            PersistError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Parse { .. } => None,
            PersistError::Storage(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<StoreError> for PersistError {
    fn from(e: StoreError) -> Self {
        PersistError::Storage(e)
    }
}

/// Writes every record of `db` as one JSON object per line: measurements
/// in sorted order, records in insertion order, each as its dump line
/// (see the module docs). A record reads the same hot or sealed, so the
/// export of a disk-backed database is byte-identical to the export of
/// the equivalent in-memory one.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on write failure, or
/// [`PersistError::Storage`] if sealed segments cannot be read.
pub fn write_json_lines(db: &TraceDb, mut w: impl Write) -> Result<usize, PersistError> {
    let mut written = 0;
    let mut measurements: Vec<String> = db.measurements().map(str::to_owned).collect();
    measurements.sort_unstable();
    for m in measurements {
        let scan = Query::new(&m).scan(db)?;
        for e in scan.entries() {
            let line = dump_line(&m, e.node(), e.record()).to_string();
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
            written += 1;
        }
    }
    Ok(written)
}

/// Most records [`import_json_lines`] hands to the store at once.
const IMPORT_BATCH: usize = 8192;

/// Reads a dump written by [`write_json_lines`] into `db`, keeping each
/// table's records in file order, and returns how many it stored. Blank
/// lines are skipped; every other line must be exactly the line the
/// export writes for some record. A batch numbers a table's
/// records one (table, node) group after the other, so a batch ends
/// wherever the next line belongs to another table or node.
///
/// # Errors
///
/// [`PersistError::Parse`] at the first line that is not valid UTF-8,
/// not JSON, or not a record's line (earlier lines may already be
/// stored); [`PersistError::Io`] on read failure;
/// [`PersistError::Storage`] if a disk-backed `db` fails.
pub fn import_json_lines(r: impl BufRead, db: &mut TraceDb) -> Result<u64, PersistError> {
    let mut batch = RecordBatch::new();
    let mut stored = 0;
    for (i, line) in r.lines().enumerate() {
        let parse = |message: String| PersistError::Parse {
            line: i + 1,
            message,
        };
        let line = line.map_err(|e| match e.kind() {
            std::io::ErrorKind::InvalidData => parse(e.to_string()),
            _ => PersistError::Io(e),
        })?;
        if line.trim().is_empty() {
            continue;
        }
        let value = serde_json::parse_value(&line).map_err(|e| parse(e.to_string()))?;
        let (measurement, node, record) = record_of(&value)
            .ok_or_else(|| parse("not a trace record as `write_json_lines` writes it".into()))?;
        let same_group = batch
            .groups()
            .iter()
            .all(|g| g.records.is_empty() || (g.measurement == measurement && g.node == node));
        if !same_group || batch.len() == IMPORT_BATCH {
            stored += db.try_insert_batch(&batch)?;
            batch.clear();
        }
        batch.push(measurement, node, record);
    }
    Ok(stored + db.try_insert_batch(&batch)?)
}

/// [`import_json_lines`] into a new in-memory database.
///
/// # Errors
///
/// As [`import_json_lines`].
pub fn read_json_lines(r: impl BufRead) -> Result<TraceDb, PersistError> {
    let mut db = TraceDb::new();
    import_json_lines(r, &mut db)?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, trace_id: u32) -> CompactRecord {
        CompactRecord {
            timestamp_ns: ts,
            trace_id,
            pkt_len: 60,
            flags: 1,
            ..Default::default()
        }
    }

    fn sample_db() -> TraceDb {
        let mut batch = RecordBatch::new();
        for i in 0..5u32 {
            batch.push("tp_a", "server1", rec(u64::from(i) * 100, i));
            batch.push("tp_b", "server2", rec(u64::from(i) * 100 + 30, i));
        }
        let mut db = TraceDb::new();
        db.insert_batch(&batch);
        db
    }

    /// A record with a trace ID and a drop reason.
    fn sample() -> CompactRecord {
        CompactRecord {
            timestamp_ns: 1_234,
            trace_id: 0xdead_beef,
            pkt_len: 102,
            saddr: u32::from(Ipv4Addr::new(10, 0, 0, 1)),
            daddr: u32::from(Ipv4Addr::new(10, 0, 0, 2)),
            sport: 1000,
            dport: 2000,
            cpu: 3,
            direction: 0,
            flags: 1 | 2 << 1,
        }
    }

    #[test]
    fn a_dump_line_spells_the_record_as_tags_and_fields() {
        assert_eq!(
            dump_line("tp", "server1", &sample()).to_string(),
            concat!(
                r#"{"fields":{"cpu":{"UInt":3},"pkt_len":{"UInt":102}},"measurement":"tp","#,
                r#""tags":{"direction":"rx","drop_reason":"policed","#,
                r#""flow":"10.0.0.1:1000->10.0.0.2:2000","node":"server1","trace_id":"deadbeef"},"#,
                r#""timestamp_ns":1234}"#
            )
        );
        // No trace ID, no reason: neither tag.
        let r = CompactRecord {
            flags: 0,
            direction: 1,
            ..sample()
        };
        let tags = dump_line("tp", "n", &r).get("tags").unwrap().to_string();
        assert_eq!(
            tags,
            r#"{"direction":"tx","flow":"10.0.0.1:1000->10.0.0.2:2000","node":"n"}"#
        );
    }

    #[test]
    fn record_of_inverts_dump_line() {
        for code in 0u8..=5 {
            for (has_id, direction) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                let r = CompactRecord {
                    // An unflagged trace ID is not written, so it cannot
                    // come back.
                    trace_id: if has_id == 1 { 0xdead_beef } else { 0 },
                    flags: has_id | code << 1,
                    direction,
                    ..sample()
                };
                let line = dump_line("tp", "server1", &r);
                assert_eq!(record_of(&line), Some(("tp", "server1", r)));
            }
        }
        // Unknown reason codes write no tag, so they do not come back.
        let r = CompactRecord {
            flags: 1 | 7 << 1,
            ..sample()
        };
        let (_, _, back) = record_of(&dump_line("tp", "n", &r)).unwrap();
        assert_eq!((back.flags, back.drop_reason()), (1, None));
    }

    #[test]
    fn round_trip_preserves_everything() {
        let db = sample_db();
        let mut buf = Vec::new();
        let written = write_json_lines(&db, &mut buf).unwrap();
        assert_eq!(written, 10);
        let loaded = read_json_lines(&buf[..]).unwrap();
        assert_eq!(loaded.len(), db.len());
        // Joins still work after the round trip.
        assert_eq!(
            loaded.join_timestamps("tp_a", "tp_b").unwrap(),
            db.join_timestamps("tp_a", "tp_b").unwrap()
        );
        // Fields preserved.
        let table = loaded.table("tp_a").unwrap();
        let entries = table.entries();
        assert_eq!(entries[0].record().pkt_len, 60);
    }

    #[test]
    fn batch_ingested_records_round_trip() {
        let mut db = TraceDb::new();
        let mut batch = RecordBatch::new();
        for i in 0..4u32 {
            batch.push("tp_a", "server1", rec(u64::from(i) * 100, i));
        }
        db.insert_batch(&batch);
        let mut buf = Vec::new();
        assert_eq!(write_json_lines(&db, &mut buf).unwrap(), 4);
        let loaded = read_json_lines(&buf[..]).unwrap();
        assert_eq!(loaded.len(), 4);
        let rows = |db: &TraceDb| -> Vec<(String, CompactRecord)> {
            let entries = db.table("tp_a").unwrap().entries();
            entries
                .iter()
                .map(|e| (e.node().to_owned(), *e.record()))
                .collect()
        };
        assert_eq!(rows(&loaded), rows(&db));
    }

    #[test]
    fn blank_lines_skipped_bad_lines_located() {
        let record = dump_line("m", "n", &rec(5, 1));
        let input = format!("\n{record}\n\nnot json\n");
        let err = read_json_lines(input.as_bytes()).unwrap_err();
        match err {
            PersistError::Parse { line, .. } => assert_eq!(line, 4),
            other => panic!("unexpected {other:?}"),
        }
        let ok = read_json_lines(&input.as_bytes()[..input.len() - 9]).unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn empty_input_gives_empty_db() {
        assert!(read_json_lines(&b""[..]).unwrap().is_empty());
    }
}
