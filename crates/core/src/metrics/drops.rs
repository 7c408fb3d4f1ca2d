//! Per-reason drop breakdown over `skb-drop` tables.
//!
//! The `skb-drop` module records one entry per `kfree_skb` firing with
//! the typed drop-reason code folded into the record's flag bits; this
//! metric groups a drop table back into kernel-style reason counts — the
//! `vnt trace drop-lab` report and the scenario pack's ground-truth check.

use std::collections::BTreeMap;

use vnet_tsdb::TraceDb;

use super::scan_table;

/// Reason label used for drop records whose flag bits carry no known
/// reason code (e.g. a record produced by a plain `RecordPacketInfo`
/// program attached at a drop site).
pub const UNATTRIBUTED: &str = "unattributed";

/// Counts the records of `table` grouped by drop reason, sorted by
/// reason name. Scans sealed segments as well as the hot tail, so the
/// breakdown is identical on a reopened disk-backed store. Returns an
/// empty vector when the table does not exist (or cannot be scanned).
pub fn drop_breakdown(db: &TraceDb, table: &str) -> Vec<(String, u64)> {
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for e in scan_table(db, table).entries() {
        let reason = e.record().drop_reason().unwrap_or(UNATTRIBUTED);
        *counts.entry(reason).or_insert(0) += 1;
    }
    counts.into_iter().map(|(r, n)| (r.to_owned(), n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::testutil::db_of;
    use vnet_tsdb::CompactRecord;

    /// A drop record carrying reason `code` in flag bits 1–3.
    fn drop_row(table: &str, ts: u64, code: u8) -> (&str, &str, CompactRecord) {
        let record = CompactRecord {
            timestamp_ns: ts,
            flags: code << 1,
            ..Default::default()
        };
        (table, "n", record)
    }

    #[test]
    fn breakdown_groups_by_reason() {
        let codes = [1u8, 1, 2, 5, 0].into_iter().zip(0u64..);
        let db = db_of(codes.map(|(code, i)| drop_row("lab_drops", i * 10, code)));
        let b = drop_breakdown(&db, "lab_drops");
        assert_eq!(
            b,
            vec![
                ("link-loss".to_owned(), 1),
                ("policed".to_owned(), 1),
                ("queue-full".to_owned(), 2),
                (UNATTRIBUTED.to_owned(), 1),
            ]
        );
        assert!(drop_breakdown(&db, "missing").is_empty());
    }
}
