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

/// A simulator-wide unique identifier for a packet *instance*.
///
/// This is simulation metadata used to keep the event queue deterministic;
/// it is **not** the vNetTracer trace ID, which lives inside the packet
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PacketUid(pub u64);

impl core::fmt::Display for PacketUid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

/// A network packet: one owned byte buffer plus simulator metadata.
///
/// The frame starts at the Ethernet header; it is all that
/// [`Packet::bytes`], equality and the parsers see. As in an `sk_buff`,
/// the buffer may hold *headroom* before the frame and spare capacity
/// (*tailroom*) after it. A frame [`PacketBuilder`] writes has room for
/// one VXLAN envelope in front and one UDP trace-ID trailer behind, so
/// encapsulation, decapsulation and the trailer (which work on the bytes,
/// exactly as a kernel would) write headers only: the frame itself is
/// written once and never moves.
#[derive(Clone)]
pub struct Packet {
    uid: PacketUid,
    /// Where the frame starts in `data`; the bytes before are headroom.
    head: usize,
    data: Vec<u8>,
}

impl Packet {
    /// Wraps raw bytes (starting at the Ethernet header) as a packet. The
    /// copy has no headroom: the first encapsulation moves it once.
    pub fn from_bytes(data: impl AsRef<[u8]>) -> Self {
        Packet {
            uid: PacketUid(0),
            head: 0,
            data: data.as_ref().to_vec(),
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
        &self.data[self.head..]
    }

    /// Mutable access to the frame bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data[self.head..]
    }

    /// Total frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len() - self.head
    }

    /// Whether the frame is empty (never true for a well-formed packet).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Prepends `n` bytes to the frame and returns them for the caller to
    /// fill (`skb_push`). They come out of the headroom when it is deep
    /// enough; otherwise the frame moves once into a buffer that has it.
    pub(crate) fn push(&mut self, n: usize) -> &mut [u8] {
        if self.head < n {
            let mut data = Vec::with_capacity(n + self.len());
            data.resize(n, 0);
            data.extend_from_slice(self.bytes());
            self.data = data;
            self.head = n;
        }
        self.head -= n;
        &mut self.data[self.head..self.head + n]
    }

    /// Removes the first `n` bytes of the frame, which become headroom
    /// (`skb_pull`).
    ///
    /// # Panics
    ///
    /// Panics if the frame is shorter than `n` bytes.
    pub(crate) fn pull(&mut self, n: usize) {
        assert!(n <= self.len(), "pull of {n} bytes from a shorter frame");
        self.head += n;
    }

    /// Appends `bytes` to the frame (`skb_put`), into the tailroom when it
    /// is deep enough.
    pub(crate) fn put(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Shortens the frame to `len` bytes (`skb_trim`); the rest becomes
    /// tailroom. A frame no longer than `len` is left as it is.
    pub(crate) fn trim(&mut self, len: usize) {
        self.data.truncate(self.head + len);
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

    /// The five-tuple of the frame's (outer) headers, if the frame parses.
    pub fn flow(&self) -> Option<FlowKey> {
        self.parse().ok().map(|p| p.flow())
    }
}

/// Two packets are equal when their uids and frames are: the headroom
/// and tailroom around a frame are not part of it.
impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.uid == other.uid && self.bytes() == other.bytes()
    }
}

impl Eq for Packet {}

impl core::fmt::Debug for Packet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Packet")
            .field("uid", &self.uid)
            .field("bytes", &self.bytes())
            .finish()
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

    #[test]
    fn push_pull_put_and_trim_move_the_frame_edges() {
        // No headroom: the first push moves the frame once.
        let mut p = Packet::from_bytes([3u8, 4]);
        p.push(2).copy_from_slice(&[1, 2]);
        assert_eq!(p.bytes(), [1, 2, 3, 4]);
        p.pull(1);
        assert_eq!(p.bytes(), [2, 3, 4]);
        assert_eq!(
            p,
            Packet::from_bytes([2u8, 3, 4]),
            "headroom is not compared"
        );
        // The pulled byte is headroom now: pushing it back moves nothing.
        let frame = p.bytes().as_ptr();
        p.push(1)[0] = 9;
        assert_eq!(p.bytes(), [9, 2, 3, 4]);
        assert_eq!(p.bytes()[1..].as_ptr(), frame);
        p.put(&[5]);
        p.trim(3);
        assert_eq!(p.bytes(), [9, 2, 3]);
        p.trim(10);
        assert_eq!(p.len(), 3);
        p.bytes_mut()[0] = 1;
        assert_eq!(p.bytes(), [1, 2, 3]);
    }

    #[test]
    fn flow_is_the_parsed_five_tuple() {
        use std::net::SocketAddrV4;
        let flow = FlowKey::udp(
            SocketAddrV4::sock("172.17.0.2", 9000),
            SocketAddrV4::sock("172.17.0.3", 7),
        );
        let pkt = PacketBuilder::udp(flow, b"ping".to_vec()).build();
        assert_eq!(pkt.flow(), Some(flow));
        assert_eq!(Packet::from_bytes(&pkt.bytes()[..20]).flow(), None);
    }
}
