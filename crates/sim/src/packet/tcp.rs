//! TCP header encoding, including the options area used by vNetTracer's
//! trace ID.
//!
//! The paper (§III-B, Fig. 3) reserves a 4-byte space in the TCP options for
//! the per-packet trace ID, written at `tcp_options_write`. We encode it as
//! an experimental option (kind [`TRACE_ID_OPTION_KIND`], length 6) so the
//! packet stays a valid TCP segment and coexists with other options.

/// Length of a TCP header without options, in bytes.
pub const TCP_BASE_HEADER_LEN: usize = 20;

/// TCP option kind used to carry the vNetTracer 4-byte trace ID
/// (RFC 4727 experimental kind 253).
pub const TRACE_ID_OPTION_KIND: u8 = 253;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag.
    pub const ACK: TcpFlags = TcpFlags(0x10);
}

impl core::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

/// A decoded TCP option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOption {
    /// End-of-option-list marker (kind 0).
    EndOfList,
    /// No-op padding (kind 1).
    Nop,
    /// Maximum segment size (kind 2).
    Mss(u16),
    /// vNetTracer trace ID (experimental kind 253, 4-byte value).
    TraceId(u32),
    /// Any other option, preserved as (kind, payload).
    Other(u8, Vec<u8>),
}

impl TcpOption {
    /// Encodes the option into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TcpOption::EndOfList => out.push(0),
            TcpOption::Nop => out.push(1),
            TcpOption::Mss(v) => {
                out.extend_from_slice(&[2, 4]);
                out.extend_from_slice(&v.to_be_bytes());
            }
            TcpOption::TraceId(id) => {
                out.extend_from_slice(&[TRACE_ID_OPTION_KIND, 6]);
                out.extend_from_slice(&id.to_be_bytes());
            }
            TcpOption::Other(kind, payload) => {
                out.push(*kind);
                out.push((payload.len() + 2) as u8);
                out.extend_from_slice(payload);
            }
        }
    }

    /// Decodes all options in `buf` (the options area of a TCP header).
    ///
    /// Stops at an end-of-list marker. Returns `None` if an option length is
    /// malformed.
    pub fn decode_all(buf: &[u8]) -> Option<Vec<TcpOption>> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < buf.len() {
            match buf[i] {
                0 => {
                    out.push(TcpOption::EndOfList);
                    break;
                }
                1 => {
                    out.push(TcpOption::Nop);
                    i += 1;
                }
                kind => {
                    if i + 1 >= buf.len() {
                        return None;
                    }
                    let len = buf[i + 1] as usize;
                    if len < 2 || i + len > buf.len() {
                        return None;
                    }
                    let payload = &buf[i + 2..i + len];
                    let opt = match (kind, payload.len()) {
                        (2, 2) => TcpOption::Mss(u16::from_be_bytes([payload[0], payload[1]])),
                        (TRACE_ID_OPTION_KIND, 4) => TcpOption::TraceId(u32::from_be_bytes([
                            payload[0], payload[1], payload[2], payload[3],
                        ])),
                        _ => TcpOption::Other(kind, payload.to_vec()),
                    };
                    out.push(opt);
                    i += len;
                }
            }
        }
        Some(out)
    }
}

/// A TCP header with options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Checksum, carried verbatim (zero when unused).
    pub checksum: u16,
    /// Decoded options (padding is added on encode).
    pub options: Vec<TcpOption>,
}

impl TcpHeader {
    /// Header length in bytes including options, padded to a multiple of 4.
    pub fn header_len(&self) -> usize {
        let mut opt_len = 0;
        let mut scratch = Vec::new();
        for opt in &self.options {
            scratch.clear();
            opt.encode(&mut scratch);
            opt_len += scratch.len();
        }
        TCP_BASE_HEADER_LEN + opt_len.div_ceil(4) * 4
    }

    /// Encodes the header (with padded options) into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the padded options exceed the TCP maximum of 40 bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut opts = Vec::new();
        for opt in &self.options {
            opt.encode(&mut opts);
        }
        while opts.len() % 4 != 0 {
            opts.push(1); // NOP padding
        }
        assert!(opts.len() <= 40, "TCP options exceed 40 bytes");
        let data_offset_words = (TCP_BASE_HEADER_LEN + opts.len()) / 4;
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push((data_offset_words as u8) << 4);
        out.push(self.flags.0);
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&self.checksum.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // urgent pointer
        out.extend_from_slice(&opts);
    }

    /// Decodes a header from the start of `buf`, returning it and the
    /// segment payload.
    ///
    /// Returns `None` if `buf` is truncated or the data offset is invalid.
    pub fn decode(buf: &[u8]) -> Option<(TcpHeader, &[u8])> {
        if buf.len() < TCP_BASE_HEADER_LEN {
            return None;
        }
        let header_len = ((buf[12] >> 4) as usize) * 4;
        if header_len < TCP_BASE_HEADER_LEN || header_len > buf.len() {
            return None;
        }
        let options = TcpOption::decode_all(&buf[TCP_BASE_HEADER_LEN..header_len])?;
        let hdr = TcpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: TcpFlags(buf[13]),
            window: u16::from_be_bytes([buf[14], buf[15]]),
            checksum: u16::from_be_bytes([buf[16], buf[17]]),
            options,
        };
        Some((hdr, &buf[header_len..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(options: Vec<TcpOption>) -> TcpHeader {
        TcpHeader {
            src_port: 40000,
            dst_port: 80,
            seq: 0xdeadbeef,
            ack: 0x01020304,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 65535,
            checksum: 0,
            options,
        }
    }

    #[test]
    fn encode_decode_round_trip_no_options() {
        let hdr = sample(vec![]);
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        buf.extend_from_slice(b"payload");
        let (decoded, payload) = TcpHeader::decode(&buf).unwrap();
        assert_eq!(decoded, hdr);
        assert_eq!(payload, b"payload");
        assert_eq!(hdr.header_len(), TCP_BASE_HEADER_LEN);
    }

    #[test]
    fn trace_id_option_round_trips() {
        let hdr = sample(vec![TcpOption::Mss(1460), TcpOption::TraceId(0xcafebabe)]);
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        let (decoded, _) = TcpHeader::decode(&buf).unwrap();
        assert_eq!(decoded.options[1], TcpOption::TraceId(0xcafebabe));
        assert_eq!(decoded.options[0], TcpOption::Mss(1460));
    }

    #[test]
    fn options_are_padded_to_word_boundary() {
        // TraceId option is 6 bytes; padding should bring it to 8.
        let hdr = sample(vec![TcpOption::TraceId(1)]);
        assert_eq!(hdr.header_len(), TCP_BASE_HEADER_LEN + 8);
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        assert_eq!(buf.len(), TCP_BASE_HEADER_LEN + 8);
        let (decoded, _) = TcpHeader::decode(&buf).unwrap();
        // Decoded options = TraceId + 2 NOP padding.
        assert_eq!(decoded.options[0], TcpOption::TraceId(1));
    }

    #[test]
    fn decode_rejects_bad_data_offset() {
        let hdr = sample(vec![]);
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        buf[12] = 0x30; // data offset 3 words < minimum 5
        assert!(TcpHeader::decode(&buf).is_none());
        buf[12] = 0xf0; // data offset 60 bytes > buffer
        assert!(TcpHeader::decode(&buf).is_none());
    }

    #[test]
    fn option_decode_rejects_truncated() {
        assert!(TcpOption::decode_all(&[2]).is_none(), "kind without length");
        assert!(
            TcpOption::decode_all(&[2, 10, 0]).is_none(),
            "length beyond buffer"
        );
        assert!(TcpOption::decode_all(&[2, 1]).is_none(), "length below 2");
    }

    #[test]
    fn unknown_options_preserved() {
        let opts = vec![TcpOption::Other(99, vec![7, 8, 9])];
        let mut buf = Vec::new();
        for o in &opts {
            o.encode(&mut buf);
        }
        let decoded = TcpOption::decode_all(&buf).unwrap();
        assert_eq!(decoded, opts);
    }
}
