//! Persistence: JSON-lines export and import of a trace database.
//!
//! Mirrors the paper's §III-C pipeline step where raw tracing data "is
//! stored locally and then gathered to the database on the master node".
//! With the columnar segment store (see [`crate::store`]) carrying the
//! durable hot path, this module is the explicit interchange tool behind
//! `vnt db export` / `vnt db import`: a portable, human-greppable dump,
//! not the storage engine.

use std::io::{BufRead, Write};

use crate::batch::RecordBatch;
use crate::point::DataPoint;
use crate::query::Query;
use crate::record::CompactRecord;
use crate::store::{StoreError, TraceDb};

/// Errors from persistence operations.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line is not a record's JSON view, with its 1-based line number.
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
/// in sorted order, records in insertion order, each in its
/// [`DataPoint`] view. A record reads the same hot or sealed, so the
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
            let line = serde_json::to_string(&e.to_point()).expect("points always serialize");
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
/// lines are skipped; every other line must be a record's [`DataPoint`]
/// view exactly as the export writes it. A batch numbers a table's
/// records one (table, node) group after the other, so a batch ends
/// wherever the next line belongs to another table or node.
///
/// # Errors
///
/// [`PersistError::Parse`] at the first line that is not valid UTF-8,
/// not JSON, or not a record's view (earlier lines may already be
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
        let point: DataPoint = serde_json::from_str(&line).map_err(|e| parse(e.to_string()))?;
        let (node, record) = CompactRecord::from_point(&point)
            .ok_or_else(|| parse("not a trace record as `write_json_lines` writes it".into()))?;
        let same_group = batch.groups().iter().all(|g| {
            g.records.is_empty() || (g.measurement == point.measurement && g.node == node)
        });
        if !same_group || batch.len() == IMPORT_BATCH {
            stored += db.try_insert_batch(&batch)?;
            batch.clear();
        }
        batch.push(&point.measurement, &node, record);
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
        assert_eq!(entries[0].field_u64("pkt_len"), Some(60));
    }

    #[test]
    fn batch_ingested_records_round_trip_as_points() {
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
        let orig: Vec<_> = db.table("tp_a").unwrap().entries();
        let back: Vec<_> = loaded.table("tp_a").unwrap().entries();
        assert!(back.iter().all(|e| e.node() == "server1"));
        assert_eq!(back.len(), orig.len());
        for (o, b) in orig.iter().zip(&back) {
            assert_eq!(o.to_point(), b.to_point());
        }
    }

    #[test]
    fn blank_lines_skipped_bad_lines_located() {
        let record = serde_json::to_string(&rec(5, 1).to_point("m", "n")).unwrap();
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
    fn a_point_that_is_no_record_is_a_parse_error_not_a_row() {
        let good = rec(5, 1).to_point("m", "n");
        let lines = [
            good.clone().tag("rack", "r7"),
            good.clone().field("latency_ns", 9u64),
            DataPoint::new("m", 5),
        ];
        for bad in lines {
            let input = format!(
                "{}\n{}\n",
                serde_json::to_string(&good).unwrap(),
                serde_json::to_string(&bad).unwrap()
            );
            let mut db = TraceDb::new();
            let err = import_json_lines(input.as_bytes(), &mut db).unwrap_err();
            assert!(
                matches!(err, PersistError::Parse { line: 2, .. }),
                "{err:?}"
            );
        }
    }

    #[test]
    fn empty_input_gives_empty_db() {
        assert!(read_json_lines(&b""[..]).unwrap().is_empty());
    }
}
