//! UDP header encoding.

/// Length of a UDP header in bytes.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP header.
///
/// The checksum is carried verbatim; the simulator writes zero (legal for
/// UDP over IPv4) because per-packet pseudo-header checksumming adds cost
/// without affecting any traced behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of UDP header plus payload in bytes.
    pub length: u16,
    /// Checksum (zero when unused).
    pub checksum: u16,
}

impl UdpHeader {
    /// Encodes the header into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    /// The header's wire bytes.
    pub(crate) fn to_bytes(self) -> [u8; UDP_HEADER_LEN] {
        let mut b = [0u8; UDP_HEADER_LEN];
        b[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        b[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        b[4..6].copy_from_slice(&self.length.to_be_bytes());
        b[6..8].copy_from_slice(&self.checksum.to_be_bytes());
        b
    }

    /// Decodes a header from the start of `buf`, returning it and the UDP
    /// payload (bounded by the header's length field).
    ///
    /// Returns `None` if `buf` is truncated or the length field is
    /// inconsistent.
    pub fn decode(buf: &[u8]) -> Option<(UdpHeader, &[u8])> {
        if buf.len() < UDP_HEADER_LEN {
            return None;
        }
        let hdr = UdpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            length: u16::from_be_bytes([buf[4], buf[5]]),
            checksum: u16::from_be_bytes([buf[6], buf[7]]),
        };
        let len = hdr.length as usize;
        if len < UDP_HEADER_LEN || len > buf.len() {
            return None;
        }
        Some((hdr, &buf[UDP_HEADER_LEN..len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let hdr = UdpHeader {
            src_port: 5001,
            dst_port: 4789,
            length: 12,
            checksum: 0,
        };
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        buf.extend_from_slice(b"abcdXXXX"); // 4 payload bytes + trailing junk
        let (decoded, payload) = UdpHeader::decode(&buf).unwrap();
        assert_eq!(decoded, hdr);
        assert_eq!(payload, b"abcd");
    }

    #[test]
    fn decode_rejects_bad_lengths() {
        assert!(UdpHeader::decode(&[0u8; 7]).is_none());
        let hdr = UdpHeader {
            src_port: 1,
            dst_port: 2,
            length: 4,
            checksum: 0,
        };
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        assert!(
            UdpHeader::decode(&buf).is_none(),
            "length below header size"
        );
        let hdr = UdpHeader {
            src_port: 1,
            dst_port: 2,
            length: 100,
            checksum: 0,
        };
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        assert!(UdpHeader::decode(&buf).is_none(), "length beyond buffer");
    }
}
