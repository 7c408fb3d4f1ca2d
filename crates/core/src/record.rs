//! The on-wire trace record trace scripts emit into the perf buffer.
//!
//! Besides the unique packet ID, "vNetTracer also records the packet
//! number, packet length and current system time for the detailed network
//! measurement" (§III-B); the flow tuple is captured too so per-flow
//! metrics (§III-D) can be computed offline. The layout is fixed at 32
//! bytes; the eBPF trace scripts build it on their stack and the agent
//! decodes it when draining buffers.

use serde::{Deserialize, Serialize};

/// Size of an encoded record in bytes.
pub const RECORD_SIZE: usize = 32;

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Node-local `CLOCK_MONOTONIC` timestamp, nanoseconds.
    pub timestamp_ns: u64,
    /// The packet's trace ID (0 when absent; see `has_trace_id`).
    pub trace_id: u32,
    /// Packet length in bytes (including the 4-byte trace ID for UDP).
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

impl TraceRecord {
    /// Whether the packet carried a trace ID.
    pub fn has_trace_id(&self) -> bool {
        self.flags & 1 != 0
    }

    /// The typed drop-reason code carried in flag bits 1–3 (0 when the
    /// record is not a drop record).
    pub fn drop_reason_code(&self) -> u8 {
        (self.flags >> 1) & 0x7
    }

    /// The drop-reason tag value, when the record is a drop record with
    /// a known reason code.
    pub fn drop_reason(&self) -> Option<&'static str> {
        vnet_tsdb::drop_reason_name(self.drop_reason_code())
    }

    /// Encodes to the 32-byte layout (matching the eBPF stack layout:
    /// offsets 0 ts, 8 id, 12 len, 16 saddr, 20 daddr, 24 sport,
    /// 26 dport, 28 cpu, 30 direction, 31 flags).
    pub fn encode(&self) -> [u8; RECORD_SIZE] {
        let mut b = [0u8; RECORD_SIZE];
        b[0..8].copy_from_slice(&self.timestamp_ns.to_le_bytes());
        b[8..12].copy_from_slice(&self.trace_id.to_le_bytes());
        b[12..16].copy_from_slice(&self.pkt_len.to_le_bytes());
        b[16..20].copy_from_slice(&self.saddr.to_le_bytes());
        b[20..24].copy_from_slice(&self.daddr.to_le_bytes());
        b[24..26].copy_from_slice(&self.sport.to_le_bytes());
        b[26..28].copy_from_slice(&self.dport.to_le_bytes());
        b[28..30].copy_from_slice(&self.cpu.to_le_bytes());
        b[30] = self.direction;
        b[31] = self.flags;
        b
    }

    /// Decodes from the 32-byte layout.
    ///
    /// Returns `None` if `bytes` is not exactly [`RECORD_SIZE`] long.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != RECORD_SIZE {
            return None;
        }
        Some(TraceRecord {
            timestamp_ns: u64::from_le_bytes(bytes[0..8].try_into().ok()?),
            trace_id: u32::from_le_bytes(bytes[8..12].try_into().ok()?),
            pkt_len: u32::from_le_bytes(bytes[12..16].try_into().ok()?),
            saddr: u32::from_le_bytes(bytes[16..20].try_into().ok()?),
            daddr: u32::from_le_bytes(bytes[20..24].try_into().ok()?),
            sport: u16::from_le_bytes(bytes[24..26].try_into().ok()?),
            dport: u16::from_le_bytes(bytes[26..28].try_into().ok()?),
            cpu: u16::from_le_bytes(bytes[28..30].try_into().ok()?),
            direction: bytes[30],
            flags: bytes[31],
        })
    }

    /// Converts to the store's compact form — a field-for-field copy, so
    /// the batched ingest path can move records without materializing
    /// tags or fields.
    pub fn to_compact(&self) -> vnet_tsdb::CompactRecord {
        vnet_tsdb::CompactRecord {
            timestamp_ns: self.timestamp_ns,
            trace_id: self.trace_id,
            pkt_len: self.pkt_len,
            saddr: self.saddr,
            daddr: self.daddr,
            sport: self.sport,
            dport: self.dport,
            cpu: self.cpu,
            direction: self.direction,
            flags: self.flags,
        }
    }
}

/// Byte offsets of the record fields, used by the script compiler when
/// building the record on the eBPF stack (negative offsets from the frame
/// pointer: field at offset `o` lives at `fp - RECORD_SIZE + o`).
pub mod offsets {
    /// Timestamp.
    pub const TIMESTAMP: i16 = 0;
    /// Trace ID.
    pub const TRACE_ID: i16 = 8;
    /// Packet length.
    pub const PKT_LEN: i16 = 12;
    /// Source address.
    pub const SADDR: i16 = 16;
    /// Destination address.
    pub const DADDR: i16 = 20;
    /// Source port.
    pub const SPORT: i16 = 24;
    /// Destination port.
    pub const DPORT: i16 = 26;
    /// CPU.
    pub const CPU: i16 = 28;
    /// Direction.
    pub const DIRECTION: i16 = 30;
    /// Flags.
    pub const FLAGS: i16 = 31;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceRecord {
        TraceRecord {
            timestamp_ns: 0x1122334455667788,
            trace_id: 0xdeadbeef,
            pkt_len: 102,
            saddr: u32::from(std::net::Ipv4Addr::new(10, 0, 0, 1)),
            daddr: u32::from(std::net::Ipv4Addr::new(10, 0, 0, 2)),
            sport: 9000,
            dport: 7,
            cpu: 3,
            direction: 1,
            flags: 1,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let r = sample();
        let b = r.encode();
        assert_eq!(TraceRecord::decode(&b), Some(r));
        assert_eq!(TraceRecord::decode(&b[..31]), None);
    }

    #[test]
    fn flags_gate_trace_id() {
        let mut r = sample();
        assert!(r.has_trace_id());
        r.flags = 0;
        assert!(!r.has_trace_id());
    }

    #[test]
    fn drop_reason_decodes_from_flag_bits() {
        let mut r = sample();
        r.flags = 1 | (2 << 1); // trace id + "policed"
        assert!(r.has_trace_id());
        assert_eq!(r.drop_reason_code(), 2);
        assert_eq!(r.drop_reason(), Some("policed"));
    }
}
