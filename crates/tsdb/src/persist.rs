//! Persistence: JSON-lines export and import of a trace database.
//!
//! Mirrors the paper's §III-C pipeline step where raw tracing data "is
//! stored locally and then gathered to the database on the master node".
//! With the columnar segment store (see [`crate::store`]) carrying the
//! durable hot path, this module is the explicit interchange tool behind
//! `vnt db export` / `vnt db import`: a portable, human-greppable dump,
//! not the storage engine.

use std::io::{BufRead, Write};

use crate::point::DataPoint;
use crate::query::Query;
use crate::store::{StoreError, TraceDb};

/// Errors from persistence operations.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse, with its 1-based line number.
    Parse {
        /// Line number.
        line: usize,
        /// Serde's error text.
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

/// Writes every entry of `db` as one JSON object per line: measurements
/// in sorted order, entries in insertion order. Record-backed entries
/// (hot or sealed on disk) are materialized to the point form on the
/// way out, so the export of a disk-backed database is byte-identical
/// to the export of the equivalent in-memory one.
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

/// Reads JSON-lines points into a new database.
///
/// # Errors
///
/// Returns [`PersistError::Parse`] on the first malformed line, or
/// [`PersistError::Io`] on read failure.
pub fn read_json_lines(r: impl BufRead) -> Result<TraceDb, PersistError> {
    let mut db = TraceDb::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let point: DataPoint = serde_json::from_str(&line).map_err(|e| PersistError::Parse {
            line: i + 1,
            message: e.to_string(),
        })?;
        db.insert(point);
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TRACE_ID_TAG;

    fn sample_db() -> TraceDb {
        let mut db = TraceDb::new();
        for i in 0..5u64 {
            db.insert(
                DataPoint::new("tp_a", i * 100)
                    .tag(TRACE_ID_TAG, format!("{i:08x}"))
                    .field("pkt_len", 60u64),
            );
            db.insert(DataPoint::new("tp_b", i * 100 + 30).tag(TRACE_ID_TAG, format!("{i:08x}")));
        }
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
        use crate::batch::RecordBatch;
        use crate::record::CompactRecord;

        let mut db = TraceDb::new();
        let mut batch = RecordBatch::new();
        for i in 0..4u32 {
            batch.push(
                "tp_a",
                "server1",
                CompactRecord {
                    timestamp_ns: u64::from(i) * 100,
                    trace_id: i,
                    pkt_len: 60,
                    flags: 1,
                    ..Default::default()
                },
            );
        }
        db.insert_batch(&batch);
        let mut buf = Vec::new();
        assert_eq!(write_json_lines(&db, &mut buf).unwrap(), 4);
        let loaded = read_json_lines(&buf[..]).unwrap();
        assert_eq!(loaded.len(), 4);
        let orig: Vec<_> = db.table("tp_a").unwrap().entries();
        let back: Vec<_> = loaded.table("tp_a").unwrap().entries();
        for (o, b) in orig.iter().zip(&back) {
            assert_eq!(o.to_point(), b.to_point());
        }
    }

    #[test]
    fn blank_lines_skipped_bad_lines_located() {
        let input =
            b"\n{\"measurement\":\"m\",\"tags\":{},\"fields\":{},\"timestamp_ns\":5}\n\nnot json\n";
        let err = read_json_lines(&input[..]).unwrap_err();
        match err {
            PersistError::Parse { line, .. } => assert_eq!(line, 4),
            other => panic!("unexpected {other:?}"),
        }
        let ok = read_json_lines(&input[..input.len() - 9]).unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn empty_input_gives_empty_db() {
        assert!(read_json_lines(&b""[..]).unwrap().is_empty());
    }
}
