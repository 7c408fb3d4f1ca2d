//! The trace record: the one struct, the one 32-byte layout.
//!
//! "vNetTracer also records the packet number, packet length and current
//! system time for the detailed network measurement" (§III-B); the flow
//! tuple is captured too so per-flow metrics (§III-D) can be computed
//! offline. A [`CompactRecord`] is that record in integer form, and it
//! keeps that form end to end: the eBPF trace scripts build its
//! [`offsets`] layout on their stack, the agent [`decode`]s the ring
//! bytes once when draining, the WAL [`encode`]s it back into the same
//! bytes, tables and segments hold it as `(node, record)` rows, and the
//! JSON-lines dump ([`crate::persist`]) writes and reads it directly.
//! There is no second, string-tagged form.
//!
//! [`decode`]: CompactRecord::decode
//! [`encode`]: CompactRecord::encode

/// Resolves a drop-reason code (record flag bits 1–3) to its canonical
/// tag value. Code 0 means "not a drop record"; unknown codes also
/// resolve to `None` so malformed flags never invent a tag.
pub fn drop_reason_name(code: u8) -> Option<&'static str> {
    match code {
        1 => Some("queue-full"),
        2 => Some("policed"),
        3 => Some("device-down"),
        4 => Some("no-route"),
        5 => Some("link-loss"),
        _ => None,
    }
}

/// The inverse of [`drop_reason_name`].
pub fn drop_reason_code(name: &str) -> Option<u8> {
    (1..=5).find(|&c| drop_reason_name(c) == Some(name))
}

/// A trace ID as its [`TRACE_ID_TAG`](crate::persist::TRACE_ID_TAG)
/// value: eight lower-case hex digits.
pub fn trace_id_tag(id: u32) -> String {
    format!("{id:08x}")
}

/// Bytes one record occupies in the perf ring, in a WAL frame and (padded)
/// in a hot-tail row — also the unit of ingest byte accounting.
pub const COMPACT_RECORD_BYTES: u64 = 32;

/// Byte offset of each field in the encoded record. The script compiler
/// builds the record at these offsets on the eBPF stack (the field at
/// offset `o` lives at `fp - COMPACT_RECORD_BYTES + o`), and
/// [`CompactRecord::encode`]/[`CompactRecord::decode`] read and write the
/// same table, so the layout is stated once.
pub mod offsets {
    /// Timestamp (`u64`).
    pub const TIMESTAMP: usize = 0;
    /// Trace ID (`u32`).
    pub const TRACE_ID: usize = 8;
    /// Packet length (`u32`).
    pub const PKT_LEN: usize = 12;
    /// Source address (`u32`).
    pub const SADDR: usize = 16;
    /// Destination address (`u32`).
    pub const DADDR: usize = 20;
    /// Source port (`u16`).
    pub const SPORT: usize = 24;
    /// Destination port (`u16`).
    pub const DPORT: usize = 26;
    /// CPU (`u16`).
    pub const CPU: usize = 28;
    /// Direction (`u8`).
    pub const DIRECTION: usize = 30;
    /// Flags (`u8`).
    pub const FLAGS: usize = 31;
}

/// The little-endian bytes of the `W`-byte field at offset `at`.
fn field<const W: usize>(b: &[u8; COMPACT_RECORD_BYTES as usize], at: usize) -> [u8; W] {
    b[at..at + W]
        .try_into()
        .expect("field lies inside the record")
}

/// One packet trace record, in the integer form it has everywhere from
/// the eBPF stack to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactRecord {
    /// Node-local `CLOCK_MONOTONIC` timestamp, nanoseconds.
    pub timestamp_ns: u64,
    /// The packet's trace ID (0 when absent; see
    /// [`CompactRecord::has_trace_id`]).
    pub trace_id: u32,
    /// Packet length in bytes.
    pub pkt_len: u32,
    /// Source IPv4 address (numeric, host order).
    pub saddr: u32,
    /// Destination IPv4 address (numeric, host order).
    pub daddr: u32,
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// CPU the probe fired on.
    pub cpu: u16,
    /// 0 = RX, 1 = TX.
    pub direction: u8,
    /// Bit 0: a trace ID was found in the packet. Bits 1–3: the typed
    /// drop-reason code captured at `kfree_skb` hooks (0 on all other
    /// records).
    pub flags: u8,
}

impl CompactRecord {
    /// Encodes to the fixed little-endian layout of [`offsets`].
    pub fn encode(&self) -> [u8; COMPACT_RECORD_BYTES as usize] {
        let mut b = [0u8; COMPACT_RECORD_BYTES as usize];
        b[offsets::TIMESTAMP..][..8].copy_from_slice(&self.timestamp_ns.to_le_bytes());
        b[offsets::TRACE_ID..][..4].copy_from_slice(&self.trace_id.to_le_bytes());
        b[offsets::PKT_LEN..][..4].copy_from_slice(&self.pkt_len.to_le_bytes());
        b[offsets::SADDR..][..4].copy_from_slice(&self.saddr.to_le_bytes());
        b[offsets::DADDR..][..4].copy_from_slice(&self.daddr.to_le_bytes());
        b[offsets::SPORT..][..2].copy_from_slice(&self.sport.to_le_bytes());
        b[offsets::DPORT..][..2].copy_from_slice(&self.dport.to_le_bytes());
        b[offsets::CPU..][..2].copy_from_slice(&self.cpu.to_le_bytes());
        b[offsets::DIRECTION] = self.direction;
        b[offsets::FLAGS] = self.flags;
        b
    }

    /// Decodes the layout [`CompactRecord::encode`] writes. Returns
    /// `None` unless `bytes` is exactly [`COMPACT_RECORD_BYTES`] long.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let b: &[u8; COMPACT_RECORD_BYTES as usize] = bytes.try_into().ok()?;
        Some(CompactRecord {
            timestamp_ns: u64::from_le_bytes(field(b, offsets::TIMESTAMP)),
            trace_id: u32::from_le_bytes(field(b, offsets::TRACE_ID)),
            pkt_len: u32::from_le_bytes(field(b, offsets::PKT_LEN)),
            saddr: u32::from_le_bytes(field(b, offsets::SADDR)),
            daddr: u32::from_le_bytes(field(b, offsets::DADDR)),
            sport: u16::from_le_bytes(field(b, offsets::SPORT)),
            dport: u16::from_le_bytes(field(b, offsets::DPORT)),
            cpu: u16::from_le_bytes(field(b, offsets::CPU)),
            direction: b[offsets::DIRECTION],
            flags: b[offsets::FLAGS],
        })
    }

    /// Whether the packet carried a trace ID.
    pub fn has_trace_id(&self) -> bool {
        self.flags & 1 != 0
    }

    /// The record's flow, `src:sport->dst:dport`: its per-flow metric
    /// key and its dump line's `flow` tag.
    pub fn flow(&self) -> String {
        let src = std::net::Ipv4Addr::from(self.saddr);
        let dst = std::net::Ipv4Addr::from(self.daddr);
        format!("{src}:{}->{dst}:{}", self.sport, self.dport)
    }

    /// The typed drop-reason code carried in flag bits 1–3 (0 when the
    /// record is not a drop record).
    pub fn drop_reason_code(&self) -> u8 {
        (self.flags >> 1) & 0x7
    }

    /// The drop reason's name, when the record is a drop record with a
    /// known reason code.
    pub fn drop_reason(&self) -> Option<&'static str> {
        drop_reason_name(self.drop_reason_code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One record with a distinct value in every field, and its encoding
    /// written out byte by byte.
    fn fixture() -> (CompactRecord, [u8; 32]) {
        let record = CompactRecord {
            timestamp_ns: 0x1122_3344_5566_7788,
            trace_id: 0xdead_beef,
            pkt_len: 102,
            saddr: 0x0a00_0001,
            daddr: 0x0a00_0002,
            sport: 9000,
            dport: 7,
            cpu: 3,
            direction: 1,
            flags: 1 | (2 << 1), // trace id + "policed"
        };
        #[rustfmt::skip]
        let bytes = [
            0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, //  0 timestamp_ns
            0xef, 0xbe, 0xad, 0xde,                         //  8 trace_id
            0x66, 0x00, 0x00, 0x00,                         // 12 pkt_len
            0x01, 0x00, 0x00, 0x0a,                         // 16 saddr
            0x02, 0x00, 0x00, 0x0a,                         // 20 daddr
            0x28, 0x23,                                     // 24 sport
            0x07, 0x00,                                     // 26 dport
            0x03, 0x00,                                     // 28 cpu
            0x01,                                           // 30 direction
            0x05,                                           // 31 flags
        ];
        (record, bytes)
    }

    #[test]
    fn layout_is_pinned_byte_for_byte() {
        let (record, bytes) = fixture();
        assert_eq!(record.encode(), bytes);
        assert_eq!(CompactRecord::decode(&bytes), Some(record));
        assert!(record.has_trace_id());
        assert_eq!(record.drop_reason(), Some("policed"));
        assert_eq!(
            [
                offsets::TIMESTAMP,
                offsets::TRACE_ID,
                offsets::PKT_LEN,
                offsets::SADDR,
                offsets::DADDR,
                offsets::SPORT,
                offsets::DPORT,
                offsets::CPU,
                offsets::DIRECTION,
                offsets::FLAGS,
            ],
            [0, 8, 12, 16, 20, 24, 26, 28, 30, 31]
        );
    }

    #[test]
    fn decode_requires_exactly_one_record() {
        let (_, bytes) = fixture();
        assert_eq!(CompactRecord::decode(&bytes[..31]), None);
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(CompactRecord::decode(&long), None);
        assert_eq!(CompactRecord::decode(&[]), None);
    }

    #[test]
    fn hex_id_zero_padded() {
        assert_eq!(trace_id_tag(0xa), "0000000a");
    }
}
