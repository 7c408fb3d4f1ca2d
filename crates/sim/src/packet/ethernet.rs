//! Ethernet II framing.

use core::fmt;
use core::str::FromStr;

/// Length of an Ethernet II header in bytes (no 802.1Q tag).
pub const ETHERNET_HEADER_LEN: usize = 14;

/// A 48-bit IEEE 802 MAC address.
///
/// # Examples
///
/// ```
/// use vnet_sim::packet::MacAddr;
///
/// let mac: MacAddr = "02:00:00:00:00:01".parse().unwrap();
/// assert_eq!(mac.to_string(), "02:00:00:00:00:01");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Derives a locally-administered MAC from a small integer, handy for
    /// assigning distinct addresses to simulated devices.
    pub fn from_index(index: u32) -> Self {
        let b = index.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// Error returned when parsing a [`MacAddr`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError;

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid MAC address syntax")
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = [0u8; 6];
        let mut parts = s.split(':');
        for byte in &mut out {
            let part = parts.next().ok_or(ParseMacError)?;
            *byte = u8::from_str_radix(part, 16).map_err(|_| ParseMacError)?;
        }
        if parts.next().is_some() {
            return Err(ParseMacError);
        }
        Ok(MacAddr(out))
    }
}

/// EtherType values used by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (`0x0800`).
    Ipv4,
    /// Any other value, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// The 16-bit on-wire value.
    pub fn as_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Other(v) => v,
        }
    }
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            other => EtherType::Other(other),
        }
    }
}

/// An Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// EtherType of the encapsulated payload.
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Encodes the header into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    /// The header's wire bytes.
    pub(crate) fn to_bytes(self) -> [u8; ETHERNET_HEADER_LEN] {
        let mut b = [0u8; ETHERNET_HEADER_LEN];
        b[0..6].copy_from_slice(&self.dst.0);
        b[6..12].copy_from_slice(&self.src.0);
        b[12..14].copy_from_slice(&self.ethertype.as_u16().to_be_bytes());
        b
    }

    /// Decodes a header from the start of `buf`.
    ///
    /// Returns `None` if `buf` is shorter than [`ETHERNET_HEADER_LEN`].
    pub fn decode(buf: &[u8]) -> Option<(EthernetHeader, &[u8])> {
        if buf.len() < ETHERNET_HEADER_LEN {
            return None;
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        let ethertype = u16::from_be_bytes([buf[12], buf[13]]).into();
        Some((
            EthernetHeader {
                dst: MacAddr(dst),
                src: MacAddr(src),
                ethertype,
            },
            &buf[ETHERNET_HEADER_LEN..],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_parse_and_display_round_trip() {
        let mac: MacAddr = "de:ad:be:ef:00:2a".parse().unwrap();
        assert_eq!(mac.to_string(), "de:ad:be:ef:00:2a");
        assert_eq!(mac.0[5], 0x2a);
    }

    #[test]
    fn mac_parse_rejects_garbage() {
        assert!("de:ad:be:ef:00".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:00:2a:77".parse::<MacAddr>().is_err());
        assert!("zz:ad:be:ef:00:2a".parse::<MacAddr>().is_err());
    }

    #[test]
    fn mac_from_index_is_locally_administered_and_distinct() {
        let a = MacAddr::from_index(1);
        let b = MacAddr::from_index(2);
        assert_ne!(a, b);
        assert_eq!(a.0[0] & 0x02, 0x02, "locally administered bit");
        assert_eq!(a.0[0] & 0x01, 0, "unicast");
    }

    #[test]
    fn header_encode_decode_round_trip() {
        let hdr = EthernetHeader {
            dst: MacAddr::from_index(9),
            src: MacAddr::from_index(4),
            ethertype: EtherType::Ipv4,
        };
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        buf.extend_from_slice(b"rest");
        let (decoded, rest) = EthernetHeader::decode(&buf).unwrap();
        assert_eq!(decoded, hdr);
        assert_eq!(rest, b"rest");
    }

    #[test]
    fn decode_rejects_short_buffer() {
        assert!(EthernetHeader::decode(&[0u8; 13]).is_none());
    }

    #[test]
    fn ethertype_preserves_unknown_values() {
        let t: EtherType = 0x86ddu16.into();
        assert_eq!(t, EtherType::Other(0x86dd));
        assert_eq!(t.as_u16(), 0x86dd);
        assert_eq!(EtherType::from(0x0800).as_u16(), 0x0800);
    }
}
