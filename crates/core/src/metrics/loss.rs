//! Packet loss between two tracepoints.
//!
//! "To measure packet loss, we track the number of packet N_i at each
//! tracepoint and calculate the packet loss between two tracepoints as
//! N_loss = N_i − N_j and the packet loss rate as R_loss = N_loss / N_i."
//! (§III-D)

use vnet_tsdb::{columns, Query, TraceDb};

/// Loss between an upstream and a downstream tracepoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketLoss {
    /// Packets seen upstream (`N_i`).
    pub upstream: u64,
    /// Packets seen downstream (`N_j`).
    pub downstream: u64,
    /// `N_loss = N_i − N_j` (zero if downstream saw more).
    pub lost: u64,
    /// `R_loss = N_loss / N_i` (zero when upstream is empty).
    pub rate: f64,
}

impl PacketLoss {
    /// The loss between `upstream` packets seen and `downstream` of them
    /// seen again.
    pub fn between(upstream: u64, downstream: u64) -> Self {
        let lost = upstream.saturating_sub(downstream);
        let rate = lost as f64 / upstream.max(1) as f64;
        PacketLoss {
            upstream,
            downstream,
            lost,
            rate,
        }
    }
}

/// Computes packet loss between tracepoint tables `upstream` and
/// `downstream`. Counts sealed segments as well as the hot tail, so the
/// answer is the same on a reopened disk-backed store; a table that does
/// not exist (or cannot be scanned) counts as empty.
pub fn packet_loss(db: &TraceDb, upstream: &str, downstream: &str) -> PacketLoss {
    // Nothing is projected: sealed rows are counted off the block index.
    let count = |table: &str| {
        let walked = Query::new(table).walk(db, &columns(&[]), |_| Ok(()));
        walked.map_or(0, |stats| stats.rows_matched + stats.hot_entries)
    };
    PacketLoss::between(count(upstream), count(downstream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::testutil::db_of;
    use vnet_tsdb::CompactRecord;

    /// `n` records in `table`, one per nanosecond.
    fn seen(table: &str, n: u64) -> impl Iterator<Item = (&str, &str, CompactRecord)> {
        (0..n).map(move |timestamp_ns| {
            let record = CompactRecord {
                timestamp_ns,
                ..Default::default()
            };
            (table, "n", record)
        })
    }

    #[test]
    fn counts_and_rate() {
        let db = db_of(seen("in", 10).chain(seen("out", 7)));
        let loss = packet_loss(&db, "in", "out");
        assert_eq!(loss.upstream, 10);
        assert_eq!(loss.downstream, 7);
        assert_eq!(loss.lost, 3);
        assert!((loss.rate - 0.3).abs() < 1e-12);
    }

    #[test]
    fn no_loss_and_empty_tables() {
        let db = db_of(seen("in", 1).chain(seen("out", 1)));
        let loss = packet_loss(&db, "in", "out");
        assert_eq!(loss.lost, 0);
        assert_eq!(loss.rate, 0.0);
        let loss = packet_loss(&db, "absent_a", "absent_b");
        assert_eq!(loss.upstream, 0);
        assert_eq!(loss.rate, 0.0);
    }

    #[test]
    fn downstream_surplus_clamps_to_zero() {
        let db = db_of(seen("in", 1).chain(seen("out", 3)));
        assert_eq!(packet_loss(&db, "in", "out").lost, 0);
    }
}
