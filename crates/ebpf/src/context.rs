//! The trace-program context: the struct a program receives in `r1`.
//!
//! Mirrors the fixed-layout context structs the kernel hands eBPF
//! programs. Trace scripts read packet headers either through the
//! `data`/`data_end` pointers (XDP style) or with the `skb_load_bytes`
//! helper; both are bounds-checked by the VM.

/// Byte offset of `timestamp_ns` in the context.
pub const CTX_OFF_TIMESTAMP: i16 = 0;
/// Byte offset of `pkt_len`.
pub const CTX_OFF_PKT_LEN: i16 = 8;
/// Byte offset of `cpu`.
pub const CTX_OFF_CPU: i16 = 12;
/// Byte offset of `node`.
pub const CTX_OFF_NODE: i16 = 16;
/// Byte offset of `device`.
pub const CTX_OFF_DEVICE: i16 = 20;
/// Byte offset of `data` (pointer to first packet byte).
pub const CTX_OFF_DATA: i16 = 24;
/// Byte offset of `data_end` (pointer one past the last packet byte).
pub const CTX_OFF_DATA_END: i16 = 32;
/// Byte offset of `direction` (0 = RX, 1 = TX).
pub const CTX_OFF_DIRECTION: i16 = 40;
/// Byte offset of `aux` (hook-specific auxiliary word).
pub const CTX_OFF_AUX: i16 = 44;
/// Total context size in bytes.
pub const CTX_SIZE: usize = 48;

/// The context handed to a trace program, in its host (Rust) form.
///
/// [`TraceContext::to_bytes`] lays it out exactly as programs expect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Node-local `CLOCK_MONOTONIC` at the probe firing, in nanoseconds.
    pub timestamp_ns: u64,
    /// Packet length in bytes (0 when the hook carries no packet).
    pub pkt_len: u32,
    /// CPU the probe fired on.
    pub cpu: u32,
    /// Node id.
    pub node: u32,
    /// Device id (`u32::MAX` when none).
    pub device: u32,
    /// Direction: 0 = RX, 1 = TX.
    pub direction: u32,
    /// Hook-specific auxiliary word: the typed drop-reason code at
    /// `kfree_skb`, the flow-table hit flag at `ovs_flow_tbl_lookup`,
    /// zero everywhere else.
    pub aux: u32,
}

impl TraceContext {
    /// Serializes into the fixed VM layout, with `data`/`data_end` set to
    /// the VM's packet region bounds.
    pub fn to_bytes(self, data: u64, data_end: u64) -> [u8; CTX_SIZE] {
        let mut b = [0u8; CTX_SIZE];
        b[0..8].copy_from_slice(&self.timestamp_ns.to_le_bytes());
        b[8..12].copy_from_slice(&self.pkt_len.to_le_bytes());
        b[12..16].copy_from_slice(&self.cpu.to_le_bytes());
        b[16..20].copy_from_slice(&self.node.to_le_bytes());
        b[20..24].copy_from_slice(&self.device.to_le_bytes());
        b[24..32].copy_from_slice(&data.to_le_bytes());
        b[32..40].copy_from_slice(&data_end.to_le_bytes());
        b[40..44].copy_from_slice(&self.direction.to_le_bytes());
        b[44..48].copy_from_slice(&self.aux.to_le_bytes());
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_offsets() {
        let ctx = TraceContext {
            timestamp_ns: 0x1112131415161718,
            pkt_len: 96,
            cpu: 3,
            node: 1,
            device: 9,
            direction: 1,
            aux: 5,
        };
        let b = ctx.to_bytes(0x2000_0000, 0x2000_0060);
        let ts = u64::from_le_bytes(b[CTX_OFF_TIMESTAMP as usize..8].try_into().unwrap());
        assert_eq!(ts, 0x1112131415161718);
        let len = u32::from_le_bytes(b[CTX_OFF_PKT_LEN as usize..12].try_into().unwrap());
        assert_eq!(len, 96);
        assert_eq!(b[CTX_OFF_CPU as usize], 3);
        assert_eq!(b[CTX_OFF_NODE as usize], 1);
        assert_eq!(b[CTX_OFF_DEVICE as usize], 9);
        let data = u64::from_le_bytes(b[CTX_OFF_DATA as usize..32].try_into().unwrap());
        let data_end = u64::from_le_bytes(b[CTX_OFF_DATA_END as usize..40].try_into().unwrap());
        assert_eq!(data_end - data, 0x60);
        assert_eq!(b[CTX_OFF_DIRECTION as usize], 1);
        assert_eq!(b[CTX_OFF_AUX as usize], 5);
    }
}
