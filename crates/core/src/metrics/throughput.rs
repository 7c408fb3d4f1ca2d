//! Throughput at a tracepoint.
//!
//! "We track the packet size S_i and the arrival time T_i during the data
//! transmission, and calculate the network throughput as
//! Σ_{i=1}^{N} (S_i − S_ID) / (T_N − T_1), where … S_ID is the 4 bytes
//! packet unique ID." (§III-D)

use vnet_tsdb::{columns, ColumnId, Query, Rows, TraceDb};

/// Bytes the trace ID adds to each packet on the wire (`S_ID`).
pub const TRACE_ID_WIRE_BYTES: u64 = 4;

/// Computes throughput in bits/second from `(timestamp_ns, size_bytes,
/// carries_trace_id)` samples. Returns 0.0 with fewer than two samples or
/// zero elapsed time.
pub fn throughput_bps(samples: &[(u64, u32, bool)]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let t_first = samples.iter().map(|s| s.0).min().expect("non-empty");
    let t_last = samples.iter().map(|s| s.0).max().expect("non-empty");
    if t_last == t_first {
        return 0.0;
    }
    let bytes: u64 = samples
        .iter()
        .map(|&(_, len, has_id)| {
            u64::from(len).saturating_sub(if has_id { TRACE_ID_WIRE_BYTES } else { 0 })
        })
        .sum();
    (bytes * 8) as f64 / ((t_last - t_first) as f64 / 1e9)
}

/// Computes throughput at a tracepoint's table, reading each record's
/// `pkt_len` field and whether it carries a trace ID. Scans sealed
/// segments as well as the hot tail, so the answer is the same on a
/// reopened disk-backed store. Returns 0.0 when the table does not exist
/// (or cannot be scanned).
pub fn throughput_at(db: &TraceDb, measurement: &str) -> f64 {
    let project = columns(&[ColumnId::Ts, ColumnId::PktLen, ColumnId::Flags]);
    let mut samples: Vec<(u64, u32, bool)> = Vec::new();
    let walked = Query::new(measurement).walk(db, &project, |rows| {
        match rows {
            Rows::Sealed { block, matched, .. } => {
                let (ts, len) = (block.col(ColumnId::Ts), block.col(ColumnId::PktLen));
                let flags = block.col(ColumnId::Flags);
                samples.extend(
                    matched
                        .iter()
                        .map(|&i| (ts[i], len[i] as u32, flags[i] & 1 != 0)),
                );
            }
            Rows::Hot(_, e) => samples.extend(
                e.field_u64("pkt_len")
                    .map(|len| (e.timestamp_ns(), len as u32, e.trace_key().is_some())),
            ),
        }
        Ok(())
    });
    walked.map_or(0.0, |_| throughput_bps(&samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_tsdb::{DataPoint, TRACE_ID_TAG};

    #[test]
    fn formula_subtracts_trace_id_bytes() {
        // 10 packets of 104 bytes with IDs over 1 ms: (104-4)*10*8 bits.
        let samples: Vec<(u64, u32, bool)> = (0..10).map(|i| (i * 111_111, 104, true)).collect();
        let elapsed_s = (9.0 * 111_111.0) / 1e9;
        let expected = 100.0 * 10.0 * 8.0 / elapsed_s;
        assert!((throughput_bps(&samples) - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn untagged_packets_count_fully() {
        let with_id = [(0u64, 104u32, true), (1_000_000, 104, true)];
        let without = [(0u64, 104u32, false), (1_000_000, 104, false)];
        assert!(throughput_bps(&without) > throughput_bps(&with_id));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(throughput_bps(&[]), 0.0);
        assert_eq!(throughput_bps(&[(5, 100, false)]), 0.0);
        assert_eq!(throughput_bps(&[(5, 100, false), (5, 100, false)]), 0.0);
    }

    #[test]
    fn throughput_from_database() {
        let mut db = TraceDb::new();
        for i in 0..100u64 {
            db.insert(
                DataPoint::new("nic_rx", i * 1_000)
                    .tag(TRACE_ID_TAG, format!("{i:08x}"))
                    .field("pkt_len", 104u64),
            );
        }
        // 100 packets * 100 effective bytes * 8 bits over 99us.
        let bps = throughput_at(&db, "nic_rx");
        let expected = (100.0 * 100.0 * 8.0) / (99_000.0 / 1e9);
        assert!((bps - expected).abs() / expected < 1e-9);
        assert_eq!(throughput_at(&db, "absent"), 0.0);
    }

    #[test]
    fn throughput_survives_a_cold_reopen() {
        use vnet_tsdb::{CompactRecord, RecordBatch};
        let mut batch = RecordBatch::new();
        for i in 0..100u32 {
            let record = CompactRecord {
                timestamp_ns: u64::from(i) * 1_000,
                trace_id: i,
                pkt_len: 104,
                flags: u8::from(i % 2 == 0),
                ..Default::default()
            };
            batch.push("nic_rx", "vm1", record);
        }
        let (mem, cold) = crate::metrics::testutil::mem_and_cold("throughput", &batch);
        let bps = throughput_at(&cold.db, "nic_rx");
        assert!(bps > 0.0);
        assert_eq!(bps.to_bits(), throughput_at(&mem, "nic_rx").to_bits());
    }
}
