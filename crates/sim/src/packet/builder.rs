//! Frame construction and VXLAN encapsulation.

use std::net::Ipv4Addr;

use super::ethernet::{EtherType, EthernetHeader, MacAddr, ETHERNET_HEADER_LEN};
use super::ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use super::tcp::{TcpFlags, TcpHeader, TcpOption};
use super::trace_id::TRACE_ID_LEN;
use super::udp::{UdpHeader, UDP_HEADER_LEN};
use super::vxlan::{VxlanHeader, VXLAN_HEADER_LEN, VXLAN_UDP_PORT};
use super::{FlowKey, Packet, PacketUid, ParseError};

/// Builds well-formed frames for injection into the simulator.
///
/// # Examples
///
/// ```
/// use vnet_sim::packet::{PacketBuilder, FlowKey, TcpFlags};
///
/// let flow = FlowKey::tcp("10.0.0.1:4000".parse().unwrap(), "10.0.0.2:80".parse().unwrap());
/// let pkt = PacketBuilder::tcp(flow, 1, 0, TcpFlags::ACK, vec![0u8; 100]).build();
/// assert!(pkt.parse().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    flow: FlowKey,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    ttl: u8,
    identification: u16,
    tcp: Option<TcpPart>,
    payload: Vec<u8>,
}

#[derive(Debug, Clone)]
struct TcpPart {
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    options: Vec<TcpOption>,
}

impl PacketBuilder {
    /// Starts a UDP datagram for `flow` carrying `payload`.
    pub fn udp(flow: FlowKey, payload: Vec<u8>) -> Self {
        debug_assert_eq!(flow.protocol.as_u8(), 17, "udp() requires a UDP flow");
        PacketBuilder {
            flow,
            src_mac: MacAddr::from_index(1),
            dst_mac: MacAddr::from_index(2),
            ttl: 64,
            identification: 0,
            tcp: None,
            payload,
        }
    }

    /// Starts a TCP segment for `flow` carrying `payload`.
    pub fn tcp(flow: FlowKey, seq: u32, ack: u32, flags: TcpFlags, payload: Vec<u8>) -> Self {
        debug_assert_eq!(flow.protocol.as_u8(), 6, "tcp() requires a TCP flow");
        PacketBuilder {
            flow,
            src_mac: MacAddr::from_index(1),
            dst_mac: MacAddr::from_index(2),
            ttl: 64,
            identification: 0,
            tcp: Some(TcpPart {
                seq,
                ack,
                flags,
                options: Vec::new(),
            }),
            payload,
        }
    }

    /// Sets the Ethernet source and destination addresses.
    pub fn macs(mut self, src: MacAddr, dst: MacAddr) -> Self {
        self.src_mac = src;
        self.dst_mac = dst;
        self
    }

    /// Sets the IP TTL (default 64).
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the IP identification field.
    pub fn identification(mut self, id: u16) -> Self {
        self.identification = id;
        self
    }

    /// Appends a TCP option (TCP frames only).
    ///
    /// # Panics
    ///
    /// Panics if the builder was created with [`PacketBuilder::udp`].
    pub fn tcp_option(mut self, option: TcpOption) -> Self {
        self.tcp
            .as_mut()
            .expect("tcp_option on a UDP builder")
            .options
            .push(option);
        self
    }

    /// Encodes the frame, each header once, into a buffer with headroom
    /// for one VXLAN envelope and tailroom for one UDP trace-ID trailer.
    pub fn build(&self) -> Packet {
        let tcp = self.tcp.as_ref().map(|t| TcpHeader {
            src_port: self.flow.src_port,
            dst_port: self.flow.dst_port,
            seq: t.seq,
            ack: t.ack,
            flags: t.flags,
            window: 65535,
            checksum: 0,
            options: t.options.clone(),
        });
        let transport_len = tcp.as_ref().map_or(UDP_HEADER_LEN, TcpHeader::header_len);
        let ip_payload_len = transport_len + self.payload.len();
        let frame_len = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + ip_payload_len;
        let mut data = Vec::with_capacity(VXLAN_OVERHEAD + frame_len + TRACE_ID_LEN);
        data.resize(VXLAN_OVERHEAD, 0);
        self.ethernet().encode(&mut data);
        self.ipv4(ip_payload_len).encode(&mut data);
        match tcp {
            Some(hdr) => hdr.encode(&mut data),
            None => self.udp_header(self.payload.len()).encode(&mut data),
        }
        data.extend_from_slice(&self.payload);
        Packet {
            uid: PacketUid::default(),
            head: VXLAN_OVERHEAD,
            data,
        }
    }

    fn ethernet(&self) -> EthernetHeader {
        EthernetHeader {
            dst: self.dst_mac,
            src: self.src_mac,
            ethertype: EtherType::Ipv4,
        }
    }

    /// The IPv4 header over `ip_payload_len` bytes of transport header
    /// and payload.
    fn ipv4(&self, ip_payload_len: usize) -> Ipv4Header {
        Ipv4Header {
            tos: 0,
            total_len: (IPV4_HEADER_LEN + ip_payload_len) as u16,
            identification: self.identification,
            ttl: self.ttl,
            protocol: self.flow.protocol,
            src: self.flow.src_ip,
            dst: self.flow.dst_ip,
        }
    }

    /// The UDP header over `payload_len` bytes of payload.
    fn udp_header(&self, payload_len: usize) -> UdpHeader {
        UdpHeader {
            src_port: self.flow.src_port,
            dst_port: self.flow.dst_port,
            length: (UDP_HEADER_LEN + payload_len) as u16,
            checksum: 0,
        }
    }
}

/// Bytes a VXLAN envelope puts in front of the inner frame: the outer
/// Ethernet, IPv4 and UDP headers and the VXLAN header.
const VXLAN_OVERHEAD: usize =
    ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + VXLAN_HEADER_LEN;

/// Wraps the frame in a VXLAN/UDP/IPv4/Ethernet envelope between `src` and
/// `dst` underlay endpoints, as the overlay network's `flannel`/`vxlan`
/// devices do. The envelope — the headers a UDP frame from
/// [`PacketBuilder::udp`] to the VXLAN port would carry — is written into
/// the packet's headroom (`skb_push`); the inner frame does not move.
///
/// # Panics
///
/// Panics if `vni` does not fit in 24 bits.
pub fn vxlan_encapsulate(pkt: &mut Packet, vni: u32, src: Ipv4Addr, dst: Ipv4Addr, src_port: u16) {
    let vxlan = VxlanHeader::new(vni);
    let flow = FlowKey {
        src_ip: src,
        dst_ip: dst,
        src_port,
        dst_port: VXLAN_UDP_PORT,
        protocol: IpProtocol::Udp,
    };
    let outer = PacketBuilder::udp(flow, Vec::new());
    let udp_payload_len = VXLAN_HEADER_LEN + pkt.len();
    let envelope = pkt.push(VXLAN_OVERHEAD);
    let (eth, rest) = envelope.split_at_mut(ETHERNET_HEADER_LEN);
    let (ip, rest) = rest.split_at_mut(IPV4_HEADER_LEN);
    let (udp, vxlan_bytes) = rest.split_at_mut(UDP_HEADER_LEN);
    eth.copy_from_slice(&outer.ethernet().to_bytes());
    ip.copy_from_slice(&outer.ipv4(UDP_HEADER_LEN + udp_payload_len).to_bytes());
    udp.copy_from_slice(&outer.udp_header(udp_payload_len).to_bytes());
    vxlan_bytes.copy_from_slice(&vxlan.to_bytes());
}

/// Unwraps a VXLAN-encapsulated frame in place (`skb_pull`), returning
/// the VNI. The inner frame does not move.
///
/// # Errors
///
/// Returns a [`ParseError`] if the frame, or the frame inside it, is not
/// well formed; the packet is then left as it was.
pub fn vxlan_decapsulate(pkt: &mut Packet) -> Result<u32, ParseError> {
    let parsed = pkt.parse()?;
    let (hdr, _) = parsed.vxlan()?.ok_or(ParseError::BadVxlan)?;
    // The outer headers have fixed sizes (the parser admits no IP
    // options), so the inner frame starts right after the envelope and
    // ends where the outer UDP payload does.
    let inner_len = parsed.payload.len() - VXLAN_HEADER_LEN;
    pkt.trim(VXLAN_OVERHEAD + inner_len);
    pkt.pull(VXLAN_OVERHEAD);
    Ok(hdr.vni)
}

#[cfg(test)]
mod tests {
    use super::super::{trace_id, SocketAddrV4Ext};
    use super::*;
    use proptest::prelude::*;
    use std::net::SocketAddrV4;

    fn udp_flow() -> FlowKey {
        FlowKey::udp(
            SocketAddrV4::sock("172.17.0.2", 9000),
            SocketAddrV4::sock("172.17.0.3", 7),
        )
    }

    #[test]
    fn udp_frame_parses_back() {
        let pkt = PacketBuilder::udp(udp_flow(), b"x".repeat(56)).build();
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.flow(), udp_flow());
        assert_eq!(parsed.payload.len(), 56);
        assert_eq!(pkt.len(), 14 + 20 + 8 + 56);
    }

    #[test]
    fn tcp_frame_with_options_parses_back() {
        let flow = FlowKey::tcp(
            SocketAddrV4::sock("10.0.0.1", 4000),
            SocketAddrV4::sock("10.0.0.2", 80),
        );
        let pkt = PacketBuilder::tcp(flow, 7, 9, TcpFlags::ACK, b"data".to_vec())
            .tcp_option(TcpOption::TraceId(0xfeedface))
            .build();
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.tcp_trace_id(), Some(0xfeedface));
        assert_eq!(parsed.payload, b"data");
    }

    #[test]
    fn vxlan_encap_decap_round_trip() {
        let inner = PacketBuilder::udp(udp_flow(), b"overlay".to_vec()).build();
        let mut pkt = inner.clone();
        vxlan_encapsulate(
            &mut pkt,
            42,
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(192, 168, 1, 11),
            55555,
        );
        let parsed = pkt.parse().unwrap();
        assert!(parsed.is_vxlan());
        let (vni, via_view) = parsed.vxlan().unwrap().unwrap();
        assert_eq!(vni.vni, 42);
        assert_eq!(via_view.payload, b"overlay");
        assert_eq!(vxlan_decapsulate(&mut pkt), Ok(42));
        assert_eq!(pkt.bytes(), inner.bytes());
    }

    #[test]
    fn vxlan_decap_rejects_plain_frames() {
        let mut pkt = PacketBuilder::udp(udp_flow(), vec![]).build();
        let before = pkt.clone();
        assert_eq!(vxlan_decapsulate(&mut pkt), Err(ParseError::BadVxlan));
        assert_eq!(pkt, before);
    }

    /// The inner frame is written once, by `build`, and never moves: the
    /// trailer goes into the tailroom, the envelope into the headroom, and
    /// neither the buffer nor the frame's place in it changes.
    #[test]
    fn a_built_frame_never_moves() {
        let mut pkt = PacketBuilder::udp(udp_flow(), b"x".repeat(56)).build();
        let (frame, capacity) = (pkt.bytes().as_ptr(), pkt.data.capacity());
        trace_id::inject_udp_trailer(&mut pkt, 0xfeed).unwrap();
        assert_eq!(pkt.bytes().as_ptr(), frame);
        let underlay = (Ipv4Addr::new(192, 168, 0, 1), Ipv4Addr::new(192, 168, 0, 2));
        vxlan_encapsulate(&mut pkt, 7, underlay.0, underlay.1, 40000);
        assert_eq!(pkt.bytes()[VXLAN_OVERHEAD..].as_ptr(), frame);
        assert_eq!(vxlan_decapsulate(&mut pkt), Ok(7));
        assert_eq!(pkt.bytes().as_ptr(), frame);
        assert_eq!(trace_id::strip_udp_trailer(&mut pkt), Ok(0xfeed));
        assert_eq!(pkt.bytes().as_ptr(), frame);
        assert_eq!(pkt.data.capacity(), capacity, "the buffer was reallocated");
    }

    #[test]
    fn builder_setters_apply() {
        let pkt = PacketBuilder::udp(udp_flow(), vec![])
            .macs(MacAddr::from_index(7), MacAddr::from_index(8))
            .ttl(3)
            .identification(99)
            .build();
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.ethernet.src, MacAddr::from_index(7));
        assert_eq!(parsed.ipv4.ttl, 3);
        assert_eq!(parsed.ipv4.identification, 99);
    }

    #[test]
    fn vxlan_preserves_inner_trace_bytes() {
        // The critical property for cross-boundary tracing: the trace ID
        // inside the inner frame is carried verbatim through encapsulation.
        let flow = FlowKey::tcp(
            SocketAddrV4::sock("10.0.0.1", 4000),
            SocketAddrV4::sock("10.0.0.2", 80),
        );
        let inner = PacketBuilder::tcp(flow, 1, 0, TcpFlags::PSH, vec![1, 2, 3])
            .tcp_option(TcpOption::TraceId(0x12345678))
            .build();
        let mut pkt = inner.clone();
        vxlan_encapsulate(
            &mut pkt,
            7,
            Ipv4Addr::new(192, 168, 0, 1),
            Ipv4Addr::new(192, 168, 0, 2),
            40000,
        );
        vxlan_decapsulate(&mut pkt).unwrap();
        assert_eq!(pkt.parse().unwrap().tcp_trace_id(), Some(0x12345678));
    }

    /// The copying encapsulation and decapsulation of the simulator's
    /// first packet buffer, verbatim: the oracle the frames below are
    /// pinned to.
    mod oracle {
        use super::*;

        pub fn vxlan_encapsulate(
            inner: &Packet,
            vni: u32,
            src: Ipv4Addr,
            dst: Ipv4Addr,
            src_port: u16,
        ) -> Packet {
            let mut payload = Vec::with_capacity(8 + inner.len());
            VxlanHeader::new(vni).encode(&mut payload);
            payload.extend_from_slice(inner.bytes());
            let flow = FlowKey {
                src_ip: src,
                dst_ip: dst,
                src_port,
                dst_port: VXLAN_UDP_PORT,
                protocol: IpProtocol::Udp,
            };
            let mut outer = PacketBuilder::udp(flow, payload).build();
            outer.set_uid(inner.uid());
            outer
        }

        pub fn vxlan_decapsulate(outer: &Packet) -> Result<(u32, Packet), ParseError> {
            let parsed = outer.parse()?;
            let (hdr, _) = parsed.vxlan()?.ok_or(ParseError::BadVxlan)?;
            let inner_bytes = &parsed.payload[VXLAN_HEADER_LEN..];
            let mut inner = Packet::from_bytes(inner_bytes);
            inner.set_uid(outer.uid());
            Ok((hdr.vni, inner))
        }
    }

    /// A frame as the simulator makes one — built UDP or TCP, with or
    /// without its trace ID — or, when `copied`, the same bytes wrapped by
    /// `Packet::from_bytes` with `junk` bytes past the IP datagram.
    fn start_frame(kind: u8, payload: Vec<u8>, id: u32, copied: bool, junk: u8) -> Packet {
        let tcp = FlowKey::tcp(
            SocketAddrV4::sock("10.0.0.1", 4000),
            SocketAddrV4::sock("10.0.0.2", 80),
        );
        let mut pkt = match kind % 5 {
            0 => PacketBuilder::udp(udp_flow(), payload).build(),
            1 => {
                let mut pkt = PacketBuilder::udp(udp_flow(), payload).build();
                trace_id::inject_udp_trailer(&mut pkt, id).unwrap();
                pkt
            }
            2 => PacketBuilder::tcp(tcp, id, 7, TcpFlags::ACK, payload).build(),
            3 => PacketBuilder::tcp(tcp, 1, 2, TcpFlags::PSH, payload)
                .tcp_option(TcpOption::TraceId(id))
                .build(),
            _ => {
                let mut pkt = PacketBuilder::tcp(tcp, 1, 2, TcpFlags::ACK, payload).build();
                trace_id::inject_tcp_option(&mut pkt, id).unwrap();
                pkt
            }
        };
        if copied {
            let mut bytes = pkt.bytes().to_vec();
            bytes.extend((0..junk).map(|i| i.wrapping_mul(37)));
            pkt = Packet::from_bytes(bytes);
        }
        pkt
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_024))]

        /// Encapsulation and decapsulation, in any sequence, leave exactly
        /// the frames the copying oracle does: the same bytes and the same
        /// uid after every step, the same VNI or error from every
        /// decapsulation, and a packet that failed to decapsulate left as
        /// it was. Frames start built (UDP/TCP, with and without a trace
        /// ID) or copied in without headroom, and steps include nested
        /// encapsulation, truncation, bytes past the datagram and flipped
        /// bytes.
        #[test]
        fn vxlan_frames_match_the_copying_oracle(
            (kind, copied, junk) in (0u8..5, any::<bool>(), 0u8..4),
            payload in proptest::collection::vec(any::<u8>(), 0..200),
            (id, uid) in (any::<u32>(), any::<u64>()),
            steps in proptest::collection::vec((0u8..7, any::<u32>(), any::<u32>(), any::<u16>()), 0..8),
        ) {
            let mut pkt = start_frame(kind, payload, id, copied, junk);
            pkt.set_uid(PacketUid(uid));
            let mut want = pkt.clone();
            for (op, a, b, c) in steps {
                match op {
                    0 | 1 => {
                        let (vni, src) = (a % (1 << 24), Ipv4Addr::from(b));
                        let dst = Ipv4Addr::from(a.rotate_left(7) ^ b);
                        want = oracle::vxlan_encapsulate(&want, vni, src, dst, c);
                        vxlan_encapsulate(&mut pkt, vni, src, dst, c);
                    }
                    2 | 3 => {
                        let expected = match oracle::vxlan_decapsulate(&want) {
                            Ok((vni, inner)) => {
                                want = inner;
                                Ok(vni)
                            }
                            Err(e) => Err(e),
                        };
                        prop_assert_eq!(vxlan_decapsulate(&mut pkt), expected);
                    }
                    // Copied in again with `from_bytes`, cut short or with
                    // bytes past the end of the datagram.
                    4 | 5 => {
                        let mut bytes = want.bytes().to_vec();
                        if op == 4 {
                            bytes.truncate(a as usize % (bytes.len() + 1));
                        } else {
                            bytes.extend((0..b % 8 + 1).map(|i| i as u8));
                        }
                        for p in [&mut pkt, &mut want] {
                            let mut copy = Packet::from_bytes(&bytes);
                            copy.set_uid(p.uid());
                            *p = copy;
                        }
                    }
                    _ if !want.is_empty() => {
                        let i = a as usize % want.len();
                        for p in [&mut pkt, &mut want] {
                            p.bytes_mut()[i] ^= b as u8 | 1;
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(&pkt, &want);
                prop_assert_eq!(pkt.uid(), PacketUid(uid));
            }
        }
    }
}
