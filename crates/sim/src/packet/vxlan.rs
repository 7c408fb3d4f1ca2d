//! VXLAN (RFC 7348) encapsulation, used by the container overlay network.

/// Length of a VXLAN header in bytes.
pub const VXLAN_HEADER_LEN: usize = 8;

/// IANA-assigned UDP destination port for VXLAN.
pub const VXLAN_UDP_PORT: u16 = 4789;

/// A VXLAN header carrying a 24-bit VXLAN Network Identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VxlanHeader {
    /// The 24-bit VNI identifying the overlay segment.
    pub vni: u32,
}

impl VxlanHeader {
    /// Creates a header for the given VNI.
    ///
    /// # Panics
    ///
    /// Panics if `vni` does not fit in 24 bits.
    pub fn new(vni: u32) -> Self {
        assert!(vni < (1 << 24), "VNI must fit in 24 bits: {vni}");
        VxlanHeader { vni }
    }

    /// The header's wire bytes: the I flag, 24 reserved bits, the VNI
    /// and 8 more reserved bits.
    pub(crate) fn to_bytes(self) -> [u8; VXLAN_HEADER_LEN] {
        let vni = self.vni.to_be_bytes();
        [0x08, 0, 0, 0, vni[1], vni[2], vni[3], 0]
    }

    /// Decodes a header from the start of `buf`, returning it and the inner
    /// Ethernet frame.
    ///
    /// Returns `None` if `buf` is truncated or the I flag is unset.
    pub fn decode(buf: &[u8]) -> Option<(VxlanHeader, &[u8])> {
        if buf.len() < VXLAN_HEADER_LEN || buf[0] & 0x08 == 0 {
            return None;
        }
        let vni = u32::from_be_bytes([0, buf[4], buf[5], buf[6]]);
        Some((VxlanHeader { vni }, &buf[VXLAN_HEADER_LEN..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl VxlanHeader {
        /// Encodes the header into `out`.
        pub(crate) fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.to_bytes());
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let hdr = VxlanHeader::new(0x00abcdef);
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        buf.extend_from_slice(b"inner");
        let (decoded, inner) = VxlanHeader::decode(&buf).unwrap();
        assert_eq!(decoded, hdr);
        assert_eq!(inner, b"inner");
    }

    #[test]
    fn decode_rejects_missing_i_flag() {
        let mut buf = vec![0u8; VXLAN_HEADER_LEN];
        assert!(VxlanHeader::decode(&buf).is_none());
        buf[0] = 0x08;
        assert!(VxlanHeader::decode(&buf).is_some());
    }

    #[test]
    fn decode_rejects_truncated() {
        assert!(VxlanHeader::decode(&[0x08; 7]).is_none());
    }

    #[test]
    #[should_panic(expected = "24 bits")]
    fn new_rejects_oversized_vni() {
        let _ = VxlanHeader::new(1 << 24);
    }
}
