//! Flow identification: the five-tuple vNetTracer filter rules match on.

use std::net::{Ipv4Addr, SocketAddrV4};

use super::ipv4::IpProtocol;

/// The classic five-tuple identifying a transport flow.
///
/// vNetTracer's filter rules (paper §III-A) select packets by source IP,
/// destination IP, source port, destination port and protocol; this type is
/// the structured form of that tuple.
///
/// # Examples
///
/// ```
/// use vnet_sim::packet::FlowKey;
///
/// let flow = FlowKey::udp("10.0.0.1:5001".parse().unwrap(), "10.0.0.2:7".parse().unwrap());
/// assert_eq!(flow.reversed().src_port, 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: IpProtocol,
}

impl FlowKey {
    /// Creates a UDP flow key from socket addresses.
    pub fn udp(src: SocketAddrV4, dst: SocketAddrV4) -> Self {
        Self::new(src, dst, IpProtocol::Udp)
    }

    /// Creates a TCP flow key from socket addresses.
    pub fn tcp(src: SocketAddrV4, dst: SocketAddrV4) -> Self {
        Self::new(src, dst, IpProtocol::Tcp)
    }

    /// Creates a flow key with an explicit protocol.
    pub fn new(src: SocketAddrV4, dst: SocketAddrV4, protocol: IpProtocol) -> Self {
        FlowKey {
            src_ip: *src.ip(),
            dst_ip: *dst.ip(),
            src_port: src.port(),
            dst_port: dst.port(),
            protocol,
        }
    }

    /// The flow in the opposite direction (reply traffic).
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }

    /// A stable hash of the tuple, as used by Receive Packet Steering to
    /// pick the CPU that processes this flow's softirqs.
    ///
    /// Mirrors the kernel's behaviour that *all packets of one connection
    /// hash to the same value* (paper §IV-E: RPS cannot spread a single
    /// containerized application's connection across CPUs).
    pub fn rps_hash(&self) -> u32 {
        // FNV-1a over the tuple bytes: deterministic and well-mixed.
        let mut h: u32 = 0x811c9dc5;
        let mut eat = |b: u8| {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        };
        for b in self.src_ip.octets() {
            eat(b);
        }
        for b in self.dst_ip.octets() {
            eat(b);
        }
        for b in self.src_port.to_be_bytes() {
            eat(b);
        }
        for b in self.dst_port.to_be_bytes() {
            eat(b);
        }
        eat(self.protocol.as_u8());
        h
    }
}

impl core::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} ({:?})",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol
        )
    }
}

/// Convenience extension for building socket addresses in tests and
/// examples.
pub trait SocketAddrV4Ext {
    /// Builds a `SocketAddrV4` from a dotted-quad string and port.
    ///
    /// # Panics
    ///
    /// Panics if `ip` is not a valid dotted quad. Intended for static
    /// configuration in tests, examples and scenario builders.
    fn sock(ip: &str, port: u16) -> SocketAddrV4;
}

impl SocketAddrV4Ext for SocketAddrV4 {
    fn sock(ip: &str, port: u16) -> SocketAddrV4 {
        SocketAddrV4::new(ip.parse().expect("valid dotted quad"), port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowKey {
        FlowKey::udp(
            SocketAddrV4::sock("10.0.0.1", 5001),
            SocketAddrV4::sock("10.0.0.2", 7),
        )
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let f = flow();
        let r = f.reversed();
        assert_eq!(r.src_ip, f.dst_ip);
        assert_eq!(r.dst_port, f.src_port);
        assert_eq!(r.reversed(), f);
    }

    #[test]
    fn rps_hash_is_per_connection_stable() {
        let f = flow();
        assert_eq!(f.rps_hash(), flow().rps_hash());
        // Different connection -> (almost certainly) different hash.
        let g = FlowKey::udp(
            SocketAddrV4::sock("10.0.0.1", 5002),
            SocketAddrV4::sock("10.0.0.2", 7),
        );
        assert_ne!(f.rps_hash(), g.rps_hash());
    }

    #[test]
    fn accessors() {
        let f = flow();
        assert_eq!(f.to_string(), "10.0.0.1:5001 -> 10.0.0.2:7 (Udp)");
    }

    #[test]
    fn tcp_constructor_sets_protocol() {
        let f = FlowKey::tcp(
            SocketAddrV4::sock("1.2.3.4", 1),
            SocketAddrV4::sock("5.6.7.8", 2),
        );
        assert_eq!(f.protocol, IpProtocol::Tcp);
    }
}
