//! Throughput at a tracepoint.
//!
//! "We track the packet size S_i and the arrival time T_i during the data
//! transmission, and calculate the network throughput as
//! Σ_{i=1}^{N} (S_i − S_ID) / (T_N − T_1), where … S_ID is the 4 bytes
//! packet unique ID." (§III-D)

use vnet_tsdb::{columns, ColumnId, Query, Rows, TraceDb};

/// Bytes the trace ID adds to each packet on the wire (`S_ID`).
pub const TRACE_ID_WIRE_BYTES: u64 = 4;

/// The throughput accumulator: what the formula needs from the records
/// seen so far, updated record by record. The offline functions below
/// fold a table through one; `vnet-live` keeps one per open window and
/// one running total per tracepoint.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThroughputWindow {
    /// Records accumulated.
    pub count: u64,
    /// Effective wire bytes (packet length minus the trace-ID trailer).
    pub bytes: u64,
    /// Earliest record timestamp.
    pub first_ts: u64,
    /// Latest record timestamp.
    pub last_ts: u64,
}

impl ThroughputWindow {
    /// Accounts one record: `S_i − S_ID` bytes (nothing to subtract when
    /// the packet carries no trace ID) at time `T_i`, in any order.
    pub fn push(&mut self, ts: u64, pkt_len: u32, has_trace_id: bool) {
        if self.count == 0 {
            self.first_ts = ts;
            self.last_ts = ts;
        } else {
            self.first_ts = self.first_ts.min(ts);
            self.last_ts = self.last_ts.max(ts);
        }
        self.count += 1;
        self.bytes +=
            u64::from(pkt_len).saturating_sub(if has_trace_id { TRACE_ID_WIRE_BYTES } else { 0 });
    }

    /// Throughput in bits/second over the records' own span,
    /// `Σ(S_i − S_ID)/(T_N − T_1)`; 0 with fewer than two records or
    /// zero elapsed time.
    pub fn bps(&self) -> f64 {
        if self.count < 2 || self.last_ts == self.first_ts {
            return 0.0;
        }
        (self.bytes * 8) as f64 / ((self.last_ts - self.first_ts) as f64 / 1e9)
    }
}

/// Computes throughput in bits/second from `(timestamp_ns, size_bytes,
/// carries_trace_id)` samples. Returns 0.0 with fewer than two samples or
/// zero elapsed time.
pub fn throughput_bps(samples: &[(u64, u32, bool)]) -> f64 {
    let mut acc = ThroughputWindow::default();
    for &(ts, len, has_id) in samples {
        acc.push(ts, len, has_id);
    }
    acc.bps()
}

/// Computes throughput at a tracepoint's table, reading each record's
/// `pkt_len` field and whether it carries a trace ID. Scans sealed
/// segments as well as the hot tail, so the answer is the same on a
/// reopened disk-backed store. Returns 0.0 when the table does not exist
/// (or cannot be scanned).
pub fn throughput_at(db: &TraceDb, measurement: &str) -> f64 {
    let project = columns(&[ColumnId::Ts, ColumnId::PktLen, ColumnId::Flags]);
    let mut acc = ThroughputWindow::default();
    let walked = Query::new(measurement).walk(db, &project, |rows| {
        match rows {
            Rows::Sealed { block, matched, .. } => {
                let (ts, len) = (block.col(ColumnId::Ts), block.col(ColumnId::PktLen));
                let flags = block.col(ColumnId::Flags);
                for &i in matched {
                    acc.push(ts[i], len[i] as u32, flags[i] & 1 != 0);
                }
            }
            Rows::Hot { record, .. } => {
                acc.push(record.timestamp_ns, record.pkt_len, record.has_trace_id());
            }
        }
        Ok(())
    });
    walked.map_or(0.0, |_| acc.bps())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_tsdb::CompactRecord;

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
    fn two_samples_in_any_order_span_first_to_last() {
        // 2 × (104 − 4) bytes over 1 ms, whichever sample comes first.
        let expected = (200.0 * 8.0) / (1_000_000.0 / 1e9);
        let sorted = [(1_000u64, 104u32, true), (1_001_000, 104, true)];
        assert_eq!(throughput_bps(&sorted), expected);
        let reversed = [sorted[1], sorted[0]];
        assert_eq!(throughput_bps(&reversed), expected);
        // The span is min..max, not first..last pushed.
        let shuffled = [(500u64, 60u32, false), (100, 60, false), (300, 60, false)];
        assert_eq!(throughput_bps(&shuffled), (180.0 * 8.0) / (400.0 / 1e9));
    }

    #[test]
    fn throughput_from_database() {
        let db = crate::metrics::testutil::db_of((0..100u32).map(|i| {
            let record = CompactRecord {
                timestamp_ns: u64::from(i) * 1_000,
                trace_id: i,
                pkt_len: 104,
                flags: 1,
                ..Default::default()
            };
            ("nic_rx", "n", record)
        }));
        // 100 packets * 100 effective bytes * 8 bits over 99us.
        let bps = throughput_at(&db, "nic_rx");
        let expected = (100.0 * 100.0 * 8.0) / (99_000.0 / 1e9);
        assert!((bps - expected).abs() / expected < 1e-9);
        assert_eq!(throughput_at(&db, "absent"), 0.0);
    }
}
