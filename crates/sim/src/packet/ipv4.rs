//! IPv4 header encoding with a real internet checksum.

use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

/// Length of an IPv4 header without options, in bytes.
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol numbers used by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IpProtocol {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Any other protocol number, preserved verbatim.
    Other(u8),
}

impl IpProtocol {
    /// The on-wire protocol number.
    pub fn as_u8(self) -> u8 {
        match self {
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

/// An IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ipv4Header {
    /// Differentiated services / TOS byte.
    pub tos: u8,
    /// Total length of the IP datagram (header + payload) in bytes.
    pub total_len: u16,
    /// IP identification field.
    pub identification: u16,
    /// Time to live.
    pub ttl: u8,
    /// Encapsulated protocol.
    pub protocol: IpProtocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Encodes the header (computing the checksum) into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    /// The header's wire bytes, checksum included.
    pub(crate) fn to_bytes(self) -> [u8; IPV4_HEADER_LEN] {
        let mut b = [0u8; IPV4_HEADER_LEN];
        b[0] = 0x45; // version 4, IHL 5
        b[1] = self.tos;
        b[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        b[4..6].copy_from_slice(&self.identification.to_be_bytes());
        // Bytes 6..8 (flags + fragment offset) and the checksum stay zero
        // until the checksum is computed over them.
        b[8] = self.ttl;
        b[9] = self.protocol.as_u8();
        b[12..16].copy_from_slice(&self.src.octets());
        b[16..20].copy_from_slice(&self.dst.octets());
        let csum = internet_checksum(&b);
        b[10..12].copy_from_slice(&csum.to_be_bytes());
        b
    }

    /// Decodes a header from the start of `buf`, verifying version and IHL.
    ///
    /// Returns `None` if `buf` is truncated or the version/IHL byte is not
    /// `0x45` (the simulator never emits IP options).
    pub fn decode(buf: &[u8]) -> Option<(Ipv4Header, &[u8])> {
        if buf.len() < IPV4_HEADER_LEN || buf[0] != 0x45 {
            return None;
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]);
        if (total_len as usize) < IPV4_HEADER_LEN || (total_len as usize) > buf.len() {
            return None;
        }
        let hdr = Ipv4Header {
            tos: buf[1],
            total_len,
            identification: u16::from_be_bytes([buf[4], buf[5]]),
            ttl: buf[8],
            protocol: buf[9].into(),
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
        };
        Some((hdr, &buf[IPV4_HEADER_LEN..total_len as usize]))
    }

    /// Verifies the header checksum over the first 20 bytes of `buf`.
    pub fn checksum_valid(buf: &[u8]) -> bool {
        buf.len() >= IPV4_HEADER_LEN && internet_checksum(&buf[..IPV4_HEADER_LEN]) == 0
    }
}

/// Computes the RFC 1071 internet checksum of `data`.
///
/// Over a buffer whose checksum field is zero this yields the value to
/// store; over a buffer containing a correct checksum it yields zero.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header {
            tos: 0,
            total_len: 40,
            identification: 0x1234,
            ttl: 64,
            protocol: IpProtocol::Udp,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let hdr = sample();
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        buf.extend_from_slice(&[0u8; 20]); // payload
        let (decoded, payload) = Ipv4Header::decode(&buf).unwrap();
        assert_eq!(decoded, hdr);
        assert_eq!(payload.len(), 20);
    }

    #[test]
    fn checksum_validates() {
        let mut buf = Vec::new();
        sample().encode(&mut buf);
        assert!(Ipv4Header::checksum_valid(&buf));
        buf[8] = buf[8].wrapping_add(1); // corrupt TTL
        assert!(!Ipv4Header::checksum_valid(&buf));
    }

    #[test]
    fn decode_rejects_truncated_and_bad_version() {
        assert!(Ipv4Header::decode(&[0x45; 10]).is_none());
        let mut buf = Vec::new();
        sample().encode(&mut buf);
        buf[0] = 0x46; // IHL 6: options unsupported
        assert!(Ipv4Header::decode(&buf).is_none());
    }

    #[test]
    fn decode_rejects_total_len_beyond_buffer() {
        let mut hdr = sample();
        hdr.total_len = 100; // buffer will only hold the header
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        assert!(Ipv4Header::decode(&buf).is_none());
    }

    #[test]
    fn internet_checksum_known_vector() {
        // RFC 1071 worked example.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }

    #[test]
    fn internet_checksum_odd_length() {
        let even = internet_checksum(&[0xab, 0x00]);
        let odd = internet_checksum(&[0xab]);
        assert_eq!(even, odd);
    }

    #[test]
    fn protocol_round_trip() {
        assert_eq!(IpProtocol::from(6).as_u8(), 6);
        assert_eq!(IpProtocol::from(17), IpProtocol::Udp);
        assert_eq!(IpProtocol::from(89), IpProtocol::Other(89));
    }
}
