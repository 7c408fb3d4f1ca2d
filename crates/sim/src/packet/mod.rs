//! Byte-level network packets.
//!
//! Packets in the simulator are real byte buffers carrying Ethernet, IPv4,
//! TCP/UDP and (for overlay networks) VXLAN headers, so that eBPF trace
//! programs parse the same wire format they would on a live kernel. This is
//! essential for vNetTracer's trace-ID mechanism (§III-B of the paper): the
//! 4-byte packet ID is embedded *in the packet bytes* (a TCP option, or a
//! trailer appended to the UDP payload) and must survive VXLAN encapsulation
//! and device hops exactly as it would on the wire.
//!
//! # Examples
//!
//! ```
//! use vnet_sim::packet::{PacketBuilder, FlowKey, IpProtocol};
//!
//! let flow = FlowKey::udp("10.0.0.1:5001".parse().unwrap(), "10.0.0.2:7".parse().unwrap());
//! let pkt = PacketBuilder::udp(flow, b"ping".to_vec()).build();
//! let parsed = pkt.parse().unwrap();
//! assert_eq!(parsed.ipv4.protocol, IpProtocol::Udp);
//! assert_eq!(parsed.payload, b"ping");
//! ```

mod builder;
mod ethernet;
mod flow;
mod ipv4;
mod parse;
mod tcp;
pub mod trace_id;
mod udp;
mod vxlan;

pub use builder::{vxlan_decapsulate, vxlan_encapsulate, PacketBuilder};
pub use ethernet::{EtherType, EthernetHeader, MacAddr, ETHERNET_HEADER_LEN};
pub use flow::{FlowKey, SocketAddrV4Ext};
pub use ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
pub use parse::{ParseError, ParsedPacket, TransportHeader};
pub use tcp::{TcpFlags, TcpHeader, TcpOption, TCP_BASE_HEADER_LEN, TRACE_ID_OPTION_KIND};
pub use udp::{UdpHeader, UDP_HEADER_LEN};
pub use vxlan::{VxlanHeader, VXLAN_HEADER_LEN, VXLAN_UDP_PORT};

use bytes::BytesMut;
use serde::{Deserialize, Serialize};

/// A simulator-wide unique identifier for a packet *instance*.
///
/// This is simulation metadata used to keep the event queue deterministic;
/// it is **not** the vNetTracer trace ID, which lives inside the packet
/// bytes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PacketUid(pub u64);

impl core::fmt::Display for PacketUid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

/// A network packet: an owned byte buffer plus simulator metadata.
///
/// The byte buffer always starts at the Ethernet header. All header
/// manipulation (trace-ID injection, VXLAN encap/decap) operates on the
/// bytes, exactly as a kernel would on an `sk_buff`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    uid: PacketUid,
    data: BytesMut,
}

impl Packet {
    /// Wraps raw bytes (starting at the Ethernet header) as a packet.
    pub fn from_bytes(data: impl AsRef<[u8]>) -> Self {
        Packet {
            uid: PacketUid(0),
            data: BytesMut::from(data.as_ref()),
        }
    }

    /// The simulator-assigned packet instance id.
    pub fn uid(&self) -> PacketUid {
        self.uid
    }

    /// Assigns the simulator packet instance id (done once at injection).
    pub fn set_uid(&mut self, uid: PacketUid) {
        self.uid = uid;
    }

    /// The full frame bytes, starting at the Ethernet header.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable access to the frame bytes.
    pub fn bytes_mut(&mut self) -> &mut BytesMut {
        &mut self.data
    }

    /// Total frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the frame is empty (never true for a well-formed packet).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Parses the frame into structured headers.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] if the frame is truncated or a header field is
    /// inconsistent with the buffer length.
    pub fn parse(&self) -> Result<ParsedPacket<'_>, ParseError> {
        parse::parse(self.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_wraps_bytes() {
        let p = Packet::from_bytes(vec![0u8; 64]);
        assert_eq!(p.len(), 64);
        assert!(!p.is_empty());
        assert_eq!(p.uid(), PacketUid(0));
    }

    #[test]
    fn uid_is_metadata_not_bytes() {
        let mut a = Packet::from_bytes(vec![1u8, 2, 3]);
        let b = Packet::from_bytes(vec![1u8, 2, 3]);
        a.set_uid(PacketUid(7));
        assert_eq!(a.bytes(), b.bytes());
        assert_ne!(a.uid(), b.uid());
    }
}
