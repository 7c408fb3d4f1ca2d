//! Packet arrival-time metrics.
//!
//! §III-D's "additional metrics": "more information could also be dug
//! from the raw data for certain scenarios, such as packet arrival
//! time". Inter-arrival gaps expose burstiness; bucketed arrival rates
//! expose rate changes over time (e.g. the congestion episodes of Case
//! Study I).

use vnet_tsdb::TraceDb;

use super::scan_table;

/// Every record's timestamp at a tracepoint, in time order.
fn sorted_stamps(db: &TraceDb, measurement: &str) -> Vec<u64> {
    let scan = scan_table(db, measurement);
    let mut stamps: Vec<u64> = scan.entries().iter().map(|e| e.timestamp_ns()).collect();
    stamps.sort_unstable();
    stamps
}

/// Inter-arrival gaps (ns) between consecutive records at a tracepoint,
/// in time order.
pub fn interarrival_ns(db: &TraceDb, measurement: &str) -> Vec<u64> {
    sorted_stamps(db, measurement)
        .windows(2)
        .map(|w| w[1] - w[0])
        .collect()
}

/// Packet arrival rate per time bucket: returns `(bucket_start_ns,
/// packets)` for every bucket from the first to the last record.
///
/// # Panics
///
/// Panics if `bucket_ns` is zero.
pub fn arrival_rate(db: &TraceDb, measurement: &str, bucket_ns: u64) -> Vec<(u64, u64)> {
    assert!(bucket_ns > 0, "bucket width must be positive");
    let stamps = sorted_stamps(db, measurement);
    let (Some(first), Some(&last)) = (stamps.first(), stamps.last()) else {
        return Vec::new();
    };
    let first = first / bucket_ns * bucket_ns;
    let buckets = (last - first) / bucket_ns + 1;
    let mut out: Vec<(u64, u64)> = (0..buckets).map(|i| (first + i * bucket_ns, 0)).collect();
    for t in stamps {
        let idx = ((t - first) / bucket_ns) as usize;
        out[idx].1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::testutil::db_of;
    use vnet_tsdb::{CompactRecord, RecordBatch};

    fn db_with(stamps: &[u64]) -> TraceDb {
        db_of(stamps.iter().map(|&timestamp_ns| {
            let record = CompactRecord {
                timestamp_ns,
                ..Default::default()
            };
            ("m", "n", record)
        }))
    }

    #[test]
    fn interarrival_gaps() {
        let db = db_with(&[100, 300, 350, 1000]);
        assert_eq!(interarrival_ns(&db, "m"), vec![200, 50, 650]);
        assert!(interarrival_ns(&db, "absent").is_empty());
        assert!(interarrival_ns(&db_with(&[5]), "m").is_empty());
    }

    #[test]
    fn interarrival_sorts_out_of_order_records() {
        // Records from different CPUs/buffers may be ingested out of
        // order; gaps are still computed over time-sorted stamps.
        let db = db_with(&[300, 100, 200]);
        assert_eq!(interarrival_ns(&db, "m"), vec![100, 100]);
    }

    #[test]
    fn arrival_rate_buckets() {
        let db = db_with(&[0, 10, 20, 1_050, 2_700]);
        let rate = arrival_rate(&db, "m", 1_000);
        assert_eq!(rate, vec![(0, 3), (1_000, 1), (2_000, 1)]);
        // Buckets with no arrivals still appear (value 0).
        let db = db_with(&[0, 2_500]);
        let rate = arrival_rate(&db, "m", 1_000);
        assert_eq!(rate, vec![(0, 1), (1_000, 0), (2_000, 1)]);
    }

    #[test]
    fn arrival_rate_empty_inputs() {
        assert!(arrival_rate(&TraceDb::new(), "m", 100).is_empty());
    }

    #[test]
    fn arrival_metrics_survive_a_cold_reopen() {
        let mut batch = RecordBatch::new();
        for i in 0..100u64 {
            let record = CompactRecord {
                // Out of time order, two nodes, uneven gaps.
                timestamp_ns: (i * 37 % 100) * 1_000 + i % 3,
                ..Default::default()
            };
            batch.push("m", if i % 2 == 0 { "vm1" } else { "vm2" }, record);
        }
        let (mem, cold) = crate::metrics::testutil::mem_and_cold("arrival", &batch);
        let gaps = interarrival_ns(&cold.db, "m");
        assert_eq!(gaps.len(), 99);
        assert_eq!(gaps, interarrival_ns(&mem, "m"));
        let rate = arrival_rate(&cold.db, "m", 10_000);
        assert_eq!(rate.iter().map(|b| b.1).sum::<u64>(), 100);
        assert_eq!(rate, arrival_rate(&mem, "m", 10_000));
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_rejected() {
        let _ = arrival_rate(&TraceDb::new(), "m", 0);
    }
}
