//! Cross-machine clock-skew estimation via Cristian's algorithm.
//!
//! Per-node monotonic clocks inevitably disagree; vNetTracer aligns
//! timestamps offline using the relative skew between the master and each
//! monitoring node (§III-B, Fig. 4). Two trace scripts at the NIC
//! interfaces record:
//!
//! * `t1` — master clock when the probe request leaves,
//! * `t2` — remote clock when it arrives,
//! * `t3` — remote clock when the reply leaves,
//! * `t4` — master clock when the reply arrives.
//!
//! Then `T_RTT = t4 − t1`, `T_pro = t3 − t2`, and the one-way time is
//! `(T_RTT − T_pro)/2`. To mitigate network interference the paper takes
//! **100 samples and selects the minimum** one-way time; the skew is
//! `t1 + T_1wt − t2` (the paper reports its absolute value), and
//! [`align_timestamps`] applies the estimates offline (§III-C).

use std::collections::HashMap;

use vnet_tsdb::{RecordBatch, TraceDb};

use crate::metrics::scan_table;

/// Number of probe samples the paper collects per estimate.
pub const DEFAULT_SAMPLES: usize = 100;

/// One probe exchange's four timestamps (nanoseconds on each node's own
/// clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewSample {
    /// Master clock at request transmission.
    pub t1: u64,
    /// Remote clock at request arrival.
    pub t2: u64,
    /// Remote clock at reply transmission.
    pub t3: u64,
    /// Master clock at reply arrival.
    pub t4: u64,
}

impl SkewSample {
    /// Round-trip time as seen by the master.
    pub fn rtt_ns(&self) -> u64 {
        self.t4.saturating_sub(self.t1)
    }

    /// Remote processing time.
    pub fn processing_ns(&self) -> u64 {
        self.t3.saturating_sub(self.t2)
    }

    /// One-way transmission estimate `(T_RTT − T_pro) / 2`.
    pub fn one_way_ns(&self) -> u64 {
        self.rtt_ns().saturating_sub(self.processing_ns()) / 2
    }

    /// Signed clock offset estimate: remote − master.
    pub fn offset_ns(&self) -> i64 {
        self.t2 as i64 - (self.t1 + self.one_way_ns()) as i64
    }
}

/// The skew estimate produced from a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewEstimate {
    /// One-way transmission time of the best (minimum) sample.
    pub one_way_ns: u64,
    /// Signed offset (remote clock − master clock), used to align remote
    /// timestamps onto the master's time base.
    pub offset_ns: i64,
    /// The `ΔT_skew` the paper reports: the offset's magnitude.
    pub skew_ns: u64,
    /// Number of samples used.
    pub samples: usize,
}

impl SkewEstimate {
    /// Aligns a remote-clock timestamp onto the master clock's time base.
    pub fn align_remote_ns(&self, remote_ts_ns: u64) -> u64 {
        (remote_ts_ns as i64 - self.offset_ns).max(0) as u64
    }
}

/// Estimates the skew from probe samples, selecting the sample with the
/// minimum one-way time as the paper prescribes. Returns `None` when
/// `samples` is empty.
pub fn estimate_skew(samples: &[SkewSample]) -> Option<SkewEstimate> {
    let best = samples.iter().min_by_key(|s| s.one_way_ns())?;
    let offset = best.offset_ns();
    Some(SkewEstimate {
        one_way_ns: best.one_way_ns(),
        offset_ns: offset,
        skew_ns: offset.unsigned_abs(),
        samples: samples.len(),
    })
}

/// Rebuilds the database with every record's timestamp aligned onto the
/// master clock, using each node's skew estimate (records from nodes
/// without an estimate pass through unchanged — e.g. the master itself).
/// Each table keeps its record order.
pub fn align_timestamps(db: &TraceDb, skew_by_node: &HashMap<String, SkewEstimate>) -> TraceDb {
    let mut out = TraceDb::new();
    let mut batch = RecordBatch::new();
    for measurement in db.measurements() {
        let scan = scan_table(db, measurement);
        // A batch numbers a table's records node by node, so each run of
        // one node's records goes in as a batch of its own.
        for run in scan.entries().chunk_by(|a, b| a.node() == b.node()) {
            let skew = skew_by_node.get(run[0].node());
            batch.clear();
            for e in run {
                let mut record = *e.record();
                if let Some(skew) = skew {
                    record.timestamp_ns = skew.align_remote_ns(record.timestamp_ns);
                }
                batch.push(measurement, e.node(), record);
            }
            out.insert_batch(&batch);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::testutil::db_of;
    use vnet_tsdb::CompactRecord;

    /// Builds a sample where the remote clock leads the master by
    /// `offset`, the wire takes `fwd`/`back`, and the remote processes
    /// for `proc`.
    fn sample(start: u64, offset: i64, fwd: u64, back: u64, proc_ns: u64) -> SkewSample {
        let t1 = start;
        let arrive_true = start + fwd;
        let t2 = (arrive_true as i64 + offset) as u64;
        let t3 = t2 + proc_ns;
        let depart_true = arrive_true + proc_ns;
        let t4 = depart_true + back;
        SkewSample { t1, t2, t3, t4 }
    }

    #[test]
    fn symmetric_path_recovers_exact_offset() {
        let s = sample(1_000_000, 2_500, 30_000, 30_000, 5_000);
        assert_eq!(s.rtt_ns(), 65_000);
        assert_eq!(s.processing_ns(), 5_000);
        assert_eq!(s.one_way_ns(), 30_000);
        assert_eq!(s.offset_ns(), 2_500);
    }

    #[test]
    fn negative_offset_recovered() {
        let s = sample(1_000_000, -4_000, 20_000, 20_000, 1_000);
        assert_eq!(s.offset_ns(), -4_000);
        let est = estimate_skew(&[s]).unwrap();
        assert_eq!(est.offset_ns, -4_000);
        assert_eq!(est.skew_ns, 4_000);
    }

    #[test]
    fn minimum_one_way_sample_wins() {
        // Congested samples have inflated one-way times and distorted
        // offsets; the clean (minimum) sample should be chosen.
        let clean = sample(0, 1_000, 10_000, 10_000, 500);
        let mut samples: Vec<SkewSample> = (0..99)
            .map(|i: u64| sample(i * 100_000, 1_000, 10_000 + 40_000, 10_000, 500))
            .collect();
        samples.push(clean);
        let est = estimate_skew(&samples).unwrap();
        assert_eq!(est.samples, 100);
        assert_eq!(est.one_way_ns, 10_000);
        assert_eq!(est.offset_ns, 1_000);
    }

    #[test]
    fn asymmetry_bounds_the_error() {
        // Cristian's algorithm errs by at most half the path asymmetry.
        let s = sample(0, 0, 10_000, 14_000, 0);
        assert!(s.offset_ns().unsigned_abs() <= 2_000);
    }

    #[test]
    fn align_remote_timestamp() {
        let est = SkewEstimate {
            one_way_ns: 10,
            offset_ns: 2_500,
            skew_ns: 2_500,
            samples: 1,
        };
        assert_eq!(est.align_remote_ns(10_000), 7_500);
        let est = SkewEstimate {
            one_way_ns: 10,
            offset_ns: -2_500,
            skew_ns: 2_500,
            samples: 1,
        };
        assert_eq!(est.align_remote_ns(10_000), 12_500);
    }

    #[test]
    fn empty_samples_yield_none() {
        assert!(estimate_skew(&[]).is_none());
    }

    type Row = (&'static str, &'static str, CompactRecord);

    fn tagged(m: &'static str, ts: u64, id: u32, node: &'static str) -> Row {
        let record = CompactRecord {
            timestamp_ns: ts,
            trace_id: id,
            flags: 1,
            ..Default::default()
        };
        (m, node, record)
    }

    /// The estimate for a remote clock leading the master by `offset_ns`.
    fn leading(offset_ns: i64) -> HashMap<String, SkewEstimate> {
        let estimate = SkewEstimate {
            one_way_ns: 0,
            offset_ns,
            skew_ns: offset_ns.unsigned_abs(),
            samples: 100,
        };
        HashMap::from([("remote".to_owned(), estimate)])
    }

    #[test]
    fn alignment_applies_per_node_offsets() {
        let db = db_of([
            tagged("tp0", 1_000, 0xa, "master"),
            tagged("tp1", 2_000, 0xa, "remote"),
        ]);
        let aligned = align_timestamps(&db, &leading(700));
        let ts = |m| aligned.table(m).unwrap().entries()[0].timestamp_ns();
        assert_eq!((ts("tp0"), ts("tp1")), (1_000, 1_300));
        // Latency now reflects the true 300 ns, not the raw 1 000 ns.
        let latency = crate::metrics::latency_between(&aligned, "tp0", "tp1");
        assert_eq!(latency, [300]);
    }

    #[test]
    fn alignment_keeps_records_and_their_order() {
        // One table fed by two nodes in turn, then twice by the same one.
        let nodes = ["master", "remote", "master", "remote", "remote", "master"];
        let rows = nodes.iter().zip(0u32..);
        let db = db_of(rows.map(|(&node, i)| tagged("tp", 1_000 * u64::from(i), i, node)));
        let rows = |db: &TraceDb, shift: u64| -> Vec<(String, CompactRecord)> {
            let entries = db.table("tp").unwrap().entries();
            entries
                .iter()
                .map(|e| {
                    let mut record = *e.record();
                    record.timestamp_ns -= if e.node() == "remote" { shift } else { 0 };
                    (e.node().to_owned(), record)
                })
                .collect()
        };
        let aligned = align_timestamps(&db, &leading(10));
        assert_eq!(rows(&aligned, 0), rows(&db, 10));
    }
}
