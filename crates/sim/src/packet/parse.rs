//! Whole-frame parsing: Ethernet → IPv4 → TCP/UDP (→ VXLAN).

use core::fmt;

use super::ethernet::{EtherType, EthernetHeader};
use super::ipv4::{IpProtocol, Ipv4Header};
use super::tcp::{TcpHeader, TcpOption};
use super::udp::UdpHeader;
use super::vxlan::{VxlanHeader, VXLAN_UDP_PORT};
use super::FlowKey;

/// Error produced when a frame cannot be parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer is shorter than an Ethernet header.
    TruncatedEthernet,
    /// The EtherType is not IPv4.
    NotIpv4,
    /// The IPv4 header is truncated or malformed.
    BadIpv4,
    /// The transport header is truncated or malformed.
    BadTransport,
    /// A VXLAN header was expected but malformed.
    BadVxlan,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ParseError::TruncatedEthernet => "frame shorter than an ethernet header",
            ParseError::NotIpv4 => "ethertype is not ipv4",
            ParseError::BadIpv4 => "ipv4 header truncated or malformed",
            ParseError::BadTransport => "transport header truncated or malformed",
            ParseError::BadVxlan => "vxlan header malformed",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ParseError {}

/// The transport-layer header of a parsed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportHeader {
    /// A TCP segment header.
    Tcp(TcpHeader),
    /// A UDP datagram header.
    Udp(UdpHeader),
}

/// A structured view over a frame's headers, borrowing the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPacket<'a> {
    /// The outer IPv4 header.
    pub ipv4: Ipv4Header,
    /// The outer transport header.
    pub transport: TransportHeader,
    /// Transport payload bytes (for VXLAN frames, the VXLAN header plus the
    /// inner frame; see [`ParsedPacket::vxlan`]).
    pub payload: &'a [u8],
}

impl<'a> ParsedPacket<'a> {
    /// The five-tuple of the (outer) headers.
    pub fn flow(&self) -> FlowKey {
        let (src_port, dst_port) = match &self.transport {
            TransportHeader::Tcp(t) => (t.src_port, t.dst_port),
            TransportHeader::Udp(u) => (u.src_port, u.dst_port),
        };
        FlowKey {
            src_ip: self.ipv4.src,
            dst_ip: self.ipv4.dst,
            src_port,
            dst_port,
            protocol: self.ipv4.protocol,
        }
    }

    /// The trace ID carried in the TCP options, if this is a TCP segment
    /// with a vNetTracer option.
    pub fn tcp_trace_id(&self) -> Option<u32> {
        match &self.transport {
            TransportHeader::Tcp(t) => t.options.iter().find_map(|o| match o {
                TcpOption::TraceId(id) => Some(*id),
                _ => None,
            }),
            TransportHeader::Udp(_) => None,
        }
    }

    /// Whether this frame is a VXLAN-encapsulated frame (UDP to port 4789).
    pub fn is_vxlan(&self) -> bool {
        matches!(&self.transport, TransportHeader::Udp(u) if u.dst_port == VXLAN_UDP_PORT)
    }

    /// Parses the VXLAN header and inner frame, if this is a VXLAN frame.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::BadVxlan`] if the frame claims to be VXLAN but
    /// the header is malformed, and [`ParseError`] variants from parsing the
    /// inner frame.
    pub fn vxlan(&self) -> Result<Option<(VxlanHeader, ParsedPacket<'a>)>, ParseError> {
        if !self.is_vxlan() {
            return Ok(None);
        }
        let (hdr, inner) = VxlanHeader::decode(self.payload).ok_or(ParseError::BadVxlan)?;
        Ok(Some((hdr, parse(inner)?)))
    }
}

/// Parses a frame starting at its Ethernet header.
pub fn parse(buf: &[u8]) -> Result<ParsedPacket<'_>, ParseError> {
    let (ethernet, rest) = EthernetHeader::decode(buf).ok_or(ParseError::TruncatedEthernet)?;
    if ethernet.ethertype != EtherType::Ipv4 {
        return Err(ParseError::NotIpv4);
    }
    let (ipv4, ip_payload) = Ipv4Header::decode(rest).ok_or(ParseError::BadIpv4)?;
    let (transport, payload) = match ipv4.protocol {
        IpProtocol::Tcp => {
            let (t, p) = TcpHeader::decode(ip_payload).ok_or(ParseError::BadTransport)?;
            (TransportHeader::Tcp(t), p)
        }
        IpProtocol::Udp => {
            let (u, p) = UdpHeader::decode(ip_payload).ok_or(ParseError::BadTransport)?;
            (TransportHeader::Udp(u), p)
        }
        IpProtocol::Other(_) => return Err(ParseError::BadTransport),
    };
    Ok(ParsedPacket {
        ipv4,
        transport,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::super::{FlowKey, PacketBuilder, SocketAddrV4Ext};
    use super::*;
    use std::net::SocketAddrV4;

    fn udp_flow() -> FlowKey {
        FlowKey::udp(
            SocketAddrV4::sock("10.0.0.1", 1111),
            SocketAddrV4::sock("10.0.0.2", 2222),
        )
    }

    #[test]
    fn parse_udp_frame() {
        let pkt = PacketBuilder::udp(udp_flow(), b"hello".to_vec()).build();
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.flow(), udp_flow());
        assert_eq!(parsed.payload, b"hello");
        assert!(!parsed.is_vxlan());
        assert_eq!(parsed.tcp_trace_id(), None);
    }

    #[test]
    fn parse_errors_are_descriptive() {
        assert_eq!(parse(&[0u8; 4]).unwrap_err(), ParseError::TruncatedEthernet);
        let pkt = PacketBuilder::udp(udp_flow(), vec![]).build();
        let mut bytes = pkt.bytes().to_vec();
        bytes[12] = 0x86; // ethertype -> not ipv4
        assert_eq!(parse(&bytes).unwrap_err(), ParseError::NotIpv4);
        let bytes = pkt.bytes().to_vec();
        assert_eq!(parse(&bytes[..16]).unwrap_err(), ParseError::BadIpv4);
    }

    #[test]
    fn parse_rejects_unknown_transport() {
        let pkt = PacketBuilder::udp(udp_flow(), vec![]).build();
        let mut bytes = pkt.bytes().to_vec();
        bytes[14 + 9] = 89; // rewrite protocol to OSPF; checksum no longer matters
        assert_eq!(parse(&bytes).unwrap_err(), ParseError::BadTransport);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            ParseError::TruncatedEthernet,
            ParseError::NotIpv4,
            ParseError::BadIpv4,
            ParseError::BadTransport,
            ParseError::BadVxlan,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
