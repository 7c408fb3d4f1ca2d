//! The map every trace-ID join keys its state by.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by packet trace ID whose hash is one multiply.
///
/// The standard SipHash keying defends a map against keys chosen to
/// collide; a trace ID is a uniform random 32-bit number the tracer
/// itself draws per packet, so a multiply by an odd constant — distinct
/// IDs get distinct hashes, and the bucket index is a bijection of the
/// ID's own uniformly distributed low bits — spreads them as well at a
/// fraction of the cost, on a path that pays it several times per record.
/// IDs forged to share their low bits would only lengthen probe runs,
/// never lose or merge entries, and the one map that lives as long as the
/// stream (`vnet-live`'s pending table) holds an entry only per resident
/// sighting, of which there are at most `max_pending_pairs × pairs`
/// whatever the IDs are.
pub type TraceIdMap<V> = HashMap<u32, V, BuildHasherDefault<TraceIdHasher>>;

/// [`TraceIdMap`]'s hasher: the ID times 2⁶⁴/φ.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceIdHasher(u64);

impl Hasher for TraceIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a trace ID is hashed through write_u32");
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;
    use crate::{CompactRecord, FirstSeen, RecordBatch, TraceDb};

    /// The worst input the hasher has: IDs that differ only above bit 20
    /// hash to multiples of 2²⁰, so in any table of up to a million
    /// buckets all of them probe from bucket 0. The join must still keep
    /// every one apart.
    #[test]
    fn ids_sharing_one_bucket_still_join_exactly() {
        let ids: Vec<u32> = (0..4_096u32).map(|i| i << 20).collect();
        let hasher = BuildHasherDefault::<TraceIdHasher>::default();
        assert!(ids.iter().all(|id| hasher.hash_one(id) % (1 << 20) == 0));

        let seen = |ts, trace_id| CompactRecord {
            timestamp_ns: ts,
            trace_id,
            flags: 1,
            ..Default::default()
        };
        let mut batch = RecordBatch::new();
        for (i, &id) in ids.iter().enumerate() {
            let i = i as u64;
            batch.push("up", "n", seen(i, id));
            batch.push("up", "n", seen(50_000 + i, id)); // a later duplicate loses
            if i.is_multiple_of(2) {
                batch.push("down", "n", seen(10_000 + i, id));
            }
        }
        let mut db = TraceDb::new();
        db.insert_batch(&batch);
        let up = FirstSeen::scan(&db, "up").unwrap();
        assert_eq!(up.iter().count(), ids.len());
        assert_eq!(up.get(7 << 20), Some(7));
        let expected: Vec<(u64, u64)> = (0..4_096).step_by(2).map(|i| (i, 10_000 + i)).collect();
        assert_eq!(up.join(&FirstSeen::scan(&db, "down").unwrap()), expected);
    }
}
