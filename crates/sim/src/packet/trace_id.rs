//! Byte-level trace-ID injection and removal (the simulated kernel patch).
//!
//! vNetTracer identifies individual packets across protection-domain
//! boundaries by embedding a 32-bit random ID in the packet itself
//! (§III-B, Fig. 3):
//!
//! * **TCP**: a 4-byte value in the TCP options (written at
//!   `tcp_options_write`), encoded here as experimental option kind 253
//!   with length 6.
//! * **UDP**: 4 bytes appended to the payload via `__skb_put()` at the
//!   sender and removed via `pskb_trim_rcsum()` before the receiver's
//!   application sees the data, preserving transparency.
//!
//! These functions operate directly on the frame bytes and keep the IP/UDP
//! length fields (and the IP checksum) consistent, so the modified frames
//! still parse as valid packets everywhere along the path.

use super::ipv4::{internet_checksum, Ipv4Header, IPV4_HEADER_LEN};
use super::tcp::{TcpHeader, TcpOption};
use super::{EthernetHeader, Packet, ParseError, TransportHeader, ETHERNET_HEADER_LEN};

/// Number of bytes the trace ID occupies on the wire (the `S_ID` the
/// throughput formula subtracts).
pub const TRACE_ID_LEN: usize = 4;

/// Injects `id` into a TCP segment's options, rewriting the frame.
///
/// # Errors
///
/// Returns a [`ParseError`] if the frame is not a well-formed TCP segment,
/// or if the options area cannot fit 6 more bytes.
pub fn inject_tcp_option(pkt: &mut Packet, id: u32) -> Result<(), ParseError> {
    let (eth, rest) = EthernetHeader::decode(pkt.bytes()).ok_or(ParseError::TruncatedEthernet)?;
    let (mut ip, ip_payload) = Ipv4Header::decode(rest).ok_or(ParseError::BadIpv4)?;
    let (mut tcp, payload) = TcpHeader::decode(ip_payload).ok_or(ParseError::BadTransport)?;
    let old_hdr_len = tcp.header_len();
    tcp.options.push(TcpOption::TraceId(id));
    let new_hdr_len = tcp.header_len();
    if new_hdr_len > 60 {
        return Err(ParseError::BadTransport);
    }
    ip.total_len = ip
        .total_len
        .checked_add((new_hdr_len - old_hdr_len) as u16)
        .ok_or(ParseError::BadIpv4)?;
    let mut out = Vec::with_capacity(pkt.len() + 8);
    eth.encode(&mut out);
    ip.encode(&mut out);
    tcp.encode(&mut out);
    out.extend_from_slice(payload);
    // The rewritten frame goes back into the packet's own buffer, behind
    // the same headroom.
    pkt.trim(0);
    pkt.put(&out);
    Ok(())
}

/// Appends `id` as a 4-byte trailer to a UDP datagram's payload
/// (`__skb_put`), updating the UDP and IP length fields.
///
/// # Errors
///
/// Returns a [`ParseError`] if the frame is not a well-formed UDP datagram,
/// or if its UDP length or IPv4 total length cannot grow by 4 bytes; the
/// frame is then left untouched.
pub fn inject_udp_trailer(pkt: &mut Packet, id: u32) -> Result<(), ParseError> {
    let parsed = pkt.parse()?;
    let TransportHeader::Udp(udp) = &parsed.transport else {
        return Err(ParseError::BadTransport);
    };
    let udp_len = udp
        .length
        .checked_add(TRACE_ID_LEN as u16)
        .ok_or(ParseError::BadTransport)?;
    let total_len = parsed
        .ipv4
        .total_len
        .checked_add(TRACE_ID_LEN as u16)
        .ok_or(ParseError::BadIpv4)?;
    let udp_off = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
    pkt.put(&id.to_be_bytes());
    let buf = pkt.bytes_mut();
    buf[udp_off + 4..udp_off + 6].copy_from_slice(&udp_len.to_be_bytes());
    set_ip_total_len(buf, total_len);
    Ok(())
}

/// Removes the 4-byte UDP trailer (`pskb_trim_rcsum`), returning the ID.
///
/// # Errors
///
/// Returns a [`ParseError`] if the frame is not a well-formed UDP datagram
/// with at least 4 bytes of payload.
pub fn strip_udp_trailer(pkt: &mut Packet) -> Result<u32, ParseError> {
    let parsed = pkt.parse()?;
    let TransportHeader::Udp(udp) = &parsed.transport else {
        return Err(ParseError::BadTransport);
    };
    if parsed.payload.len() < TRACE_ID_LEN {
        return Err(ParseError::BadTransport);
    }
    // A parsed UDP length covers its header and at least the trailer, and
    // the IPv4 total length covers the UDP length: neither subtraction
    // can wrap.
    let udp_len = udp.length - TRACE_ID_LEN as u16;
    let total_len = parsed.ipv4.total_len - TRACE_ID_LEN as u16;
    let udp_off = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
    let frame_len = pkt.len();
    let tail = &pkt.bytes()[frame_len - TRACE_ID_LEN..];
    let id = u32::from_be_bytes([tail[0], tail[1], tail[2], tail[3]]);
    pkt.trim(frame_len - TRACE_ID_LEN);
    let buf = pkt.bytes_mut();
    buf[udp_off + 4..udp_off + 6].copy_from_slice(&udp_len.to_be_bytes());
    set_ip_total_len(buf, total_len);
    Ok(id)
}

/// Reads the trace ID from a UDP datagram's trailer without removing it.
pub fn read_udp_trailer(pkt: &Packet) -> Option<u32> {
    let parsed = pkt.parse().ok()?;
    let TransportHeader::Udp(_) = parsed.transport else {
        return None;
    };
    let p = parsed.payload;
    if p.len() < TRACE_ID_LEN {
        return None;
    }
    let tail = &p[p.len() - TRACE_ID_LEN..];
    Some(u32::from_be_bytes([tail[0], tail[1], tail[2], tail[3]]))
}

/// Stores `total_len` in the IPv4 total-length field and recomputes the
/// header checksum in place.
fn set_ip_total_len(buf: &mut [u8], total_len: u16) {
    let ip_off = ETHERNET_HEADER_LEN;
    buf[ip_off + 2..ip_off + 4].copy_from_slice(&total_len.to_be_bytes());
    buf[ip_off + 10..ip_off + 12].copy_from_slice(&[0, 0]);
    let csum = internet_checksum(&buf[ip_off..ip_off + IPV4_HEADER_LEN]);
    buf[ip_off + 10..ip_off + 12].copy_from_slice(&csum.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::super::{FlowKey, PacketBuilder, SocketAddrV4Ext, TcpFlags};
    use super::*;
    use std::net::SocketAddrV4;

    fn udp_pkt(payload: &[u8]) -> Packet {
        let flow = FlowKey::udp(
            SocketAddrV4::sock("10.0.0.1", 5001),
            SocketAddrV4::sock("10.0.0.2", 7),
        );
        PacketBuilder::udp(flow, payload.to_vec()).build()
    }

    fn tcp_pkt(payload: &[u8]) -> Packet {
        let flow = FlowKey::tcp(
            SocketAddrV4::sock("10.0.0.1", 5001),
            SocketAddrV4::sock("10.0.0.2", 7),
        );
        PacketBuilder::tcp(flow, 1, 2, TcpFlags::ACK, payload.to_vec()).build()
    }

    #[test]
    fn udp_inject_then_strip_restores_original() {
        let original = udp_pkt(b"request");
        let mut pkt = original.clone();
        inject_udp_trailer(&mut pkt, 0xabad1dea).unwrap();
        assert_eq!(pkt.len(), original.len() + TRACE_ID_LEN);
        assert_eq!(read_udp_trailer(&pkt), Some(0xabad1dea));
        // Frame still parses and checksum is still valid.
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.ipv4.total_len as usize, 20 + 8 + 7 + 4);
        let id = strip_udp_trailer(&mut pkt).unwrap();
        assert_eq!(id, 0xabad1dea);
        assert_eq!(pkt.bytes(), original.bytes(), "application transparency");
    }

    #[test]
    fn udp_inject_keeps_ip_checksum_valid() {
        let mut pkt = udp_pkt(b"x");
        inject_udp_trailer(&mut pkt, 7).unwrap();
        assert!(Ipv4Header::checksum_valid(
            &pkt.bytes()[ETHERNET_HEADER_LEN..]
        ));
    }

    #[test]
    fn tcp_inject_and_read() {
        let mut pkt = tcp_pkt(b"GET /");
        assert_eq!(pkt.parse().unwrap().tcp_trace_id(), None);
        inject_tcp_option(&mut pkt, 0xfeed0001).unwrap();
        assert_eq!(pkt.parse().unwrap().tcp_trace_id(), Some(0xfeed0001));
        // Payload is untouched.
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.payload, b"GET /");
        assert!(Ipv4Header::checksum_valid(
            &pkt.bytes()[ETHERNET_HEADER_LEN..]
        ));
    }

    #[test]
    fn inject_tcp_rejects_udp_and_vice_versa() {
        let mut udp = udp_pkt(b"u");
        assert!(inject_tcp_option(&mut udp, 1).is_err());
        let mut tcp = tcp_pkt(b"t");
        assert!(inject_udp_trailer(&mut tcp, 1).is_err());
        assert!(strip_udp_trailer(&mut tcp).is_err());
    }

    #[test]
    fn strip_requires_payload() {
        let mut pkt = udp_pkt(b"abc"); // only 3 bytes
        assert!(strip_udp_trailer(&mut pkt).is_err());
    }

    #[test]
    fn udp_trailer_never_wraps_the_length_fields() {
        // The largest datagrams: 65 507 payload bytes fill the IPv4 total
        // length to 65 535, so four more cannot be put. After every `Ok`
        // the frame still parses; after an error it is untouched.
        for len in 65_500..=65_507 {
            let mut pkt = udp_pkt(&vec![0; len]);
            let before = pkt.clone();
            match inject_udp_trailer(&mut pkt, 0x0a0b0c0d) {
                Ok(()) => {
                    assert_eq!(pkt.parse().unwrap().payload.len(), len + TRACE_ID_LEN);
                    assert_eq!(read_udp_trailer(&pkt), Some(0x0a0b0c0d));
                }
                Err(e) => {
                    assert_eq!(e, ParseError::BadIpv4, "payload {len}");
                    assert_eq!(pkt, before, "payload {len}: frame touched");
                }
            }
        }
        let mut full = udp_pkt(&vec![0; 65_507]);
        assert_eq!(full.parse().unwrap().ipv4.total_len, u16::MAX);
        assert!(inject_udp_trailer(&mut full, 1).is_err());
    }

    #[test]
    fn udp_trailer_survives_reparse_loop() {
        // Inject, parse, rebuild from bytes, strip: IDs must agree.
        let mut pkt = udp_pkt(&[9u8; 56]);
        inject_udp_trailer(&mut pkt, 0x01020304).unwrap();
        let mut copy = Packet::from_bytes(pkt.bytes());
        assert_eq!(strip_udp_trailer(&mut copy).unwrap(), 0x01020304);
    }
}
