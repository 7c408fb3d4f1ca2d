//! Column codecs for the on-disk segment format.
//!
//! Every column of a sealed segment is encoded independently with one of
//! three integer codecs, all operating on `u64` lanes:
//!
//! * **varint** — LEB128, one byte per 7 bits. The general-purpose
//!   codec for scalars (packet lengths, ports, addresses, dictionary
//!   indices) whose values are small most of the time.
//! * **zigzag varint** — signed values mapped to unsigned
//!   (`0,-1,1,-2,…` → `0,1,2,3,…`) before LEB128, so small negative
//!   deltas stay short.
//! * **delta-of-delta** — for near-monotonic sequences (timestamps,
//!   insertion sequence numbers): the first value is stored raw, then
//!   each second difference is zigzag-varint encoded. A steady packet
//!   rate encodes to ~1 byte per timestamp; all arithmetic wraps, so
//!   duplicate and out-of-order inputs round-trip exactly.
//!
//! Decoders never panic on malformed input — every read is
//! bounds-checked and returns [`CodecError`] — because segment files and
//! WAL tails are untrusted after a crash. They also accept only the
//! encoders' canonical form (a varint never ends in a redundant zero
//! byte, a column never has trailing bytes), so a chunk a decoder accepts
//! is exactly the bytes its values encode to; compaction relies on that
//! to copy verified chunks instead of re-encoding them, and checks such
//! chunks with [`check_varint_col`], which accepts and rejects exactly as
//! the decoders do but materialises no value. Block integrity is verified
//! separately with [`crc32`] (IEEE 802.3, the polynomial used by
//! Ethernet and zlib).
//!
//! Both column decoders and the checker read a word at a time where they
//! can: a little-endian 8-byte word with no continuation bit is eight
//! one-byte values. The decoders take a multi-byte value through
//! [`get_uvarint`], one byte at a time, since where the next value starts
//! depends on the length just decoded.

/// Errors surfaced by the bounds-checked decoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended inside a value.
    Truncated,
    /// A varint ran past 10 bytes (more than 64 bits of payload).
    Overlong,
    /// A varint ended in a zero byte after continuation bytes: a longer
    /// spelling of a value the encoder writes shorter.
    NonCanonical,
    /// A declared count or length is inconsistent with the data.
    BadLength {
        /// What the caller asked to decode.
        expected: usize,
        /// How many values the buffer actually held.
        actual: usize,
    },
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated inside a value"),
            CodecError::Overlong => write!(f, "varint longer than 10 bytes"),
            CodecError::NonCanonical => write!(f, "varint ends in a redundant zero byte"),
            CodecError::BadLength { expected, actual } => {
                write!(f, "expected {expected} values, buffer held {actual}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends `v` to `buf` as a LEB128 varint (1–10 bytes).
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads a LEB128 varint from `buf` at `*pos`, advancing `*pos`.
///
/// # Errors
///
/// [`CodecError::Truncated`] if the buffer ends mid-value,
/// [`CodecError::Overlong`] if the encoding exceeds 10 bytes,
/// [`CodecError::NonCanonical`] if it is not the one [`put_uvarint`]
/// writes (its last byte is zero, but it is not the only byte).
///
/// Always inlined: the column decoders call it once per multi-byte
/// value, and the call costs about as much as the decode.
#[inline(always)]
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = buf.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::Overlong);
        }
        // The 10th byte may only contribute the top bit of a u64.
        if shift == 63 && b > 1 {
            return Err(CodecError::Overlong);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            if b == 0 && shift > 0 {
                return Err(CodecError::NonCanonical);
            }
            return Ok(v);
        }
        shift += 7;
    }
}

/// Maps a signed value to unsigned with the zigzag transform.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverts [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a column to `buf` as plain varints, one per value.
pub fn put_varint_col(buf: &mut Vec<u8>, values: &[u64]) {
    buf.reserve(values.len() * 2);
    for &v in values {
        put_uvarint(buf, v);
    }
}

/// Decodes a plain-varint column of exactly `n` values into `out`,
/// replacing what it held.
///
/// # Errors
///
/// Any [`CodecError`]; [`CodecError::BadLength`] if the buffer holds a
/// different number of values than declared.
pub fn decode_varint_col(buf: &[u8], n: usize, out: &mut Vec<u64>) -> Result<(), CodecError> {
    out.clear();
    out.reserve(n);
    let mut pos = 0;
    while out.len() < n {
        if let Some(bytes) = one_byte_word(buf, pos, n - out.len()) {
            out.extend_from_slice(&bytes.map(u64::from));
            pos += 8;
            continue;
        }
        // Eight values byte by byte before the next try, so a column of
        // multi-byte values pays one word test per eight values.
        for _ in 0..(n - out.len()).min(8) {
            out.push(get_uvarint(buf, &mut pos)?);
        }
    }
    trailing(buf, pos, n)
}

/// The continuation bit of each byte of a little-endian word.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;
/// The seven payload bits of each byte of a little-endian word.
const LOW_BITS: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// The eight bytes at `pos` as a little-endian word, if `buf` holds them.
fn word_at(buf: &[u8], pos: usize) -> Option<u64> {
    let bytes = buf.get(pos..)?.first_chunk::<8>()?;
    Some(u64::from_le_bytes(*bytes))
}

/// The eight bytes at `pos`, if they are eight whole one-byte varints
/// (no continuation bit) and the column still wants at least eight
/// values (`left`), so none of them is a trailing byte.
fn one_byte_word(buf: &[u8], pos: usize, left: usize) -> Option<[u8; 8]> {
    if left < 8 {
        return None;
    }
    word_at(buf, pos)
        .filter(|w| w & HIGH_BITS == 0)
        .map(u64::to_le_bytes)
}

/// The end of a column of `n` values whose last value ended at `pos`:
/// [`CodecError::BadLength`] if bytes are left over.
fn trailing(buf: &[u8], pos: usize, n: usize) -> Result<(), CodecError> {
    if pos != buf.len() {
        return Err(CodecError::BadLength {
            expected: n,
            actual: n + 1, // trailing bytes imply at least one extra value
        });
    }
    Ok(())
}

/// Checks that `buf` is a column of exactly `n` canonical varints: `Ok`
/// exactly where [`decode_varint_col`] and [`decode_dod`] decode `buf`
/// (a delta-of-delta column of `n` values is `n` varints too), and the
/// same [`CodecError`] where they fail, without materialising a value.
///
/// Works a word at a time: the terminators (bytes with no continuation
/// bit) are counted by one popcount, a zero byte after a continuation
/// byte is found by one mask, and the continuation bytes still open at
/// the word's end are carried into the next. A value of 10 bytes (a run
/// of 9 continuation bytes, where `Overlong` lives), a word that ends
/// more values than are left, a non-canonical zero and the tail shorter
/// than a word all go to the byte decoder, from the start of the value
/// the word began in, so every error is the decoders' own.
///
/// # Errors
///
/// The [`CodecError`] the decoders return for `buf` and `n`.
pub fn check_varint_col(buf: &[u8], n: usize) -> Result<(), CodecError> {
    // Values ended before `pos`, and continuation bytes of the value
    // `pos` is inside.
    let (mut seen, mut pos, mut open) = (0usize, 0usize, 0usize);
    while let Some(w) = word_at(buf, pos) {
        let ends = !w & HIGH_BITS;
        let zero = !(((w & LOW_BITS) + LOW_BITS) | w) & HIGH_BITS;
        let after_continuation = ((w & HIGH_BITS) << 8) | if open > 0 { 0x80 } else { 0 };
        // Continuation bytes before the word's first terminator (all
        // eight when it has none), counting those carried in.
        let first_run = open + (ends.trailing_zeros() / 8) as usize;
        let count = ends.count_ones() as usize;
        if count > n - seen || zero & after_continuation != 0 || first_run >= 9 {
            break;
        }
        seen += count;
        open = if ends == 0 {
            first_run
        } else {
            (ends.leading_zeros() / 8) as usize
        };
        pos += 8;
    }
    let mut pos = pos - open;
    for _ in seen..n {
        get_uvarint(buf, &mut pos)?;
    }
    trailing(buf, pos, n)
}

/// Appends a near-monotonic column to `buf` as delta-of-delta: raw first
/// value, then zigzag-varint second differences. All arithmetic wraps, so
/// the codec is total over arbitrary `u64` inputs (including duplicates
/// and out-of-order values) — compression, not correctness, is what
/// monotonicity buys.
pub fn put_dod(buf: &mut Vec<u8>, values: &[u64]) {
    let Some(&first) = values.first() else {
        return;
    };
    buf.reserve(values.len() + 9);
    put_uvarint(buf, first);
    let mut prev = first;
    let mut prev_delta: i64 = 0;
    for &v in &values[1..] {
        let delta = v.wrapping_sub(prev) as i64;
        let dod = delta.wrapping_sub(prev_delta);
        put_uvarint(buf, zigzag(dod));
        prev = v;
        prev_delta = delta;
    }
}

/// Decodes a delta-of-delta column of exactly `n` values into `out`,
/// replacing what it held.
///
/// # Errors
///
/// Any [`CodecError`]; [`CodecError::BadLength`] on trailing bytes.
pub fn decode_dod(buf: &[u8], n: usize, out: &mut Vec<u64>) -> Result<(), CodecError> {
    out.clear();
    out.reserve(n);
    if n == 0 {
        return trailing(buf, 0, 0);
    }
    let mut pos = 0;
    let first = get_uvarint(buf, &mut pos)?;
    out.push(first);
    let mut prev = first;
    let mut prev_delta: i64 = 0;
    let mut step = |dod: u64| {
        prev_delta = prev_delta.wrapping_add(unzigzag(dod));
        prev = prev.wrapping_add(prev_delta as u64);
        prev
    };
    while out.len() < n {
        if let Some(bytes) = one_byte_word(buf, pos, n - out.len()) {
            let mut values = [0; 8];
            for (v, b) in values.iter_mut().zip(bytes) {
                *v = step(u64::from(b));
            }
            out.extend_from_slice(&values);
            pos += 8;
            continue;
        }
        for _ in 0..(n - out.len()).min(8) {
            out.push(step(get_uvarint(buf, &mut pos)?));
        }
    }
    trailing(buf, pos, n)
}

/// Appends a length-prefixed string (varint length + UTF-8 bytes).
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed string written by [`put_str`].
///
/// # Errors
///
/// [`CodecError::Truncated`] on a short buffer or invalid UTF-8.
pub fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, CodecError> {
    let len = get_uvarint(buf, pos)? as usize;
    let end = pos.checked_add(len).ok_or(CodecError::Truncated)?;
    let bytes = buf.get(*pos..end).ok_or(CodecError::Truncated)?;
    let s = std::str::from_utf8(bytes).map_err(|_| CodecError::Truncated)?;
    *pos = end;
    Ok(s.to_owned())
}

/// Reads a little-endian `u32` from `buf` at `*pos`, advancing `*pos`.
///
/// # Errors
///
/// [`CodecError::Truncated`] on a short buffer.
pub fn get_u32_le(buf: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    let end = pos.checked_add(4).ok_or(CodecError::Truncated)?;
    let b = buf.get(*pos..end).ok_or(CodecError::Truncated)?;
    *pos = end;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// The CRC-32 polynomial (IEEE 802.3, zlib), bit-reversed.
const CRC_POLY: u32 = 0xedb8_8320;

/// Slicing tables: `CRC_TABLES[k][b]` is the CRC register after byte `b`
/// followed by `k` zero bytes, from a zero register.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (CRC_POLY & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// `x^(2^k) mod P` for `k` in `0..32`, as zlib's `x2n_table`: the
/// squarings [`crc_shift`] builds a shift by any length from.
static X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut p = 1 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        t[k] = p;
        p = mul_mod_p(p, p);
        k += 1;
    }
    t
};

/// `a·b mod P` over GF(2), both bit-reversed (`1 << 31` is `x^0`), as
/// zlib's `multmodp`.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut i = 0;
    while i < 32 {
        p ^= b & ((a >> (31 - i)) & 1).wrapping_neg();
        b = (b >> 1) ^ (CRC_POLY & (b & 1).wrapping_neg());
        i += 1;
    }
    p
}

/// `x^(8·len) mod P`: what a register is multiplied by to shift it past
/// `len` bytes, as zlib's `x2nmodp(len, 3)`.
fn crc_shift(len: usize) -> u32 {
    let (mut xn, mut n, mut k) = (1u32 << 31, len, 3);
    while n != 0 {
        if n & 1 != 0 {
            xn = mul_mod_p(X2N[k & 31], xn);
        }
        n >>= 1;
        k += 1;
    }
    xn
}

/// Folds sixteen bytes into the register: one lookup per byte, all
/// independent, read as two little-endian words.
#[inline(always)]
fn crc_step(crc: u32, block: &[u8; 16]) -> u32 {
    let (lo, hi) = block.split_at(8);
    let lo = u64::from_le_bytes(lo.try_into().expect("8 bytes")) ^ u64::from(crc);
    let hi = u64::from_le_bytes(hi.try_into().expect("8 bytes"));
    let t = &CRC_TABLES;
    let byte = |w: u64, i: usize| usize::from((w >> (8 * i)) as u8);
    (0..8).fold(0, |acc, i| {
        acc ^ t[15 - i][byte(lo, i)] ^ t[7 - i][byte(hi, i)]
    })
}

/// Buffers of at least this many bytes are CRC'd in three lanes (see
/// [`crc32`]); below it the shifts that fold the lanes cost more than the
/// lanes save.
pub const CRC32_LANES_MIN: usize = 1024;

/// CRC-32 (IEEE 802.3 / zlib polynomial 0xEDB88320, reflected),
/// slicing-by-16: table `k` holds the CRC of a byte followed by `k` zero
/// bytes, so sixteen input bytes fold into the state with sixteen
/// independent lookups instead of a sixteen-step dependent chain.
///
/// A buffer of at least [`CRC32_LANES_MIN`] bytes is cut into three equal
/// thirds, each a whole number of sixteen-byte steps, and one loop runs
/// the three as independent chains (the second and third from a zero
/// register), so the lookups of one step overlap those of the others.
/// The thirds are then folded as zlib's `crc32_combine` does: the
/// register is linear over GF(2), so the first third's register shifted
/// past the second's bytes (times `x^(8·len) mod P`), xored with the
/// second's, is the register after both. The tail after the thirds,
/// under 48 bytes, and a short buffer whole go through the sixteen-byte
/// step, then one byte per step through table 0. The value is the same
/// for every input either way.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut rest = bytes;
    if bytes.len() >= CRC32_LANES_MIN {
        let third = bytes.len() / 48 * 16;
        let (a, tail) = bytes.split_at(third);
        let (b, tail) = tail.split_at(third);
        let (c, tail) = tail.split_at(third);
        let (mut ca, mut cb, mut cc) = (crc, 0, 0);
        let lanes = a.as_chunks::<16>().0.iter().zip(b.as_chunks::<16>().0);
        for ((a, b), c) in lanes.zip(c.as_chunks::<16>().0) {
            ca = crc_step(ca, a);
            cb = crc_step(cb, b);
            cc = crc_step(cc, c);
        }
        let shift = crc_shift(third);
        crc = mul_mod_p(shift, mul_mod_p(shift, ca) ^ cb) ^ cc;
        rest = tail;
    }
    let (blocks, tail) = rest.as_chunks::<16>();
    for block in blocks {
        crc = crc_step(crc, block);
    }
    for &b in tail {
        crc = CRC_TABLES[0][usize::from((crc as u8) ^ b)] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varint_col(values: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint_col(&mut buf, values);
        buf
    }

    fn dod(values: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_dod(&mut buf, values);
        buf
    }

    type Decoder = fn(&[u8], usize, &mut Vec<u64>) -> Result<(), CodecError>;

    /// What `decode` makes of `buf`, into a lane holding stale values it
    /// must replace.
    fn decoded(decode: Decoder, buf: &[u8], n: usize) -> Result<Vec<u64>, CodecError> {
        let mut out = vec![7; 3];
        decode(buf, n, &mut out).map(|()| out)
    }

    #[test]
    fn varint_round_trip_extremes() {
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let buf = varint_col(&values);
        assert_eq!(
            decoded(decode_varint_col, &buf, values.len()).unwrap(),
            values
        );
        // u64::MAX takes the full 10 bytes.
        let mut one = Vec::new();
        put_uvarint(&mut one, u64::MAX);
        assert_eq!(one.len(), 10);
    }

    #[test]
    fn varint_rejects_truncation_and_overlong() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 1 << 40);
        let mut pos = 0;
        assert_eq!(
            get_uvarint(&buf[..buf.len() - 1], &mut pos),
            Err(CodecError::Truncated)
        );
        // 11 continuation bytes can never terminate inside 64 bits.
        let overlong = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(get_uvarint(&overlong, &mut pos), Err(CodecError::Overlong));
        // A 10-byte varint whose last byte carries more than one bit
        // would overflow 64 bits.
        let mut wide = [0x80u8; 10];
        wide[9] = 0x02;
        let mut pos = 0;
        assert_eq!(get_uvarint(&wide, &mut pos), Err(CodecError::Overlong));
    }

    /// A varint has one spelling: a zero final byte after continuation
    /// bytes is refused, wherever it falls, while a lone zero byte is the
    /// value 0. So both column decoders refuse a column holding one.
    #[test]
    fn varint_rejects_redundant_zero_bytes() {
        let get = |bytes: &[u8]| get_uvarint(bytes, &mut 0);
        assert_eq!(get(&[0x00]), Ok(0));
        assert_eq!(get(&[0x80, 0x01]), Ok(128));
        assert_eq!(get(&[0x80, 0x80, 0x01]), Ok(1 << 14));
        for bad in [&[0x80, 0x00][..], &[0x81, 0x00], &[0xff, 0x80, 0x00]] {
            assert_eq!(get(bad), Err(CodecError::NonCanonical), "{bad:02x?}");
        }
        // Ten bytes whose last carries nothing: u64 values fit in fewer.
        let mut ten = [0x80u8; 10];
        ten[9] = 0x00;
        assert_eq!(get(&ten), Err(CodecError::NonCanonical));
        ten[9] = 0x01;
        assert_eq!(get(&ten), Ok(1 << 63));
        assert_eq!(
            decoded(decode_varint_col, &[0x05, 0x80, 0x00], 2),
            Err(CodecError::NonCanonical)
        );
        assert_eq!(
            decoded(decode_dod, &[0x05, 0x80, 0x00], 2),
            Err(CodecError::NonCanonical)
        );
        assert_eq!(decoded(decode_dod, &[0x05, 0x80, 0x01], 2), Ok(vec![5, 69]));
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn dod_round_trip_monotonic_and_hostile() {
        let steady: Vec<u64> = (0..100).map(|i| 1_000 + i * 50).collect();
        let buf = dod(&steady);
        assert_eq!(decoded(decode_dod, &buf, steady.len()).unwrap(), steady);
        // Steady cadence: first value plus ~1 byte per later value.
        assert!(buf.len() < 110, "steady cadence should stay ~1 B/value");

        let hostile = vec![u64::MAX, 0, 5, 5, 3, u64::MAX / 2, 0];
        let buf = dod(&hostile);
        assert_eq!(decoded(decode_dod, &buf, hostile.len()).unwrap(), hostile);

        assert!(dod(&[]).is_empty());
        assert_eq!(decoded(decode_dod, &[], 0).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn decoders_detect_length_mismatch() {
        let buf = varint_col(&[1, 2, 3]);
        assert!(matches!(
            decoded(decode_varint_col, &buf, 2),
            Err(CodecError::BadLength { .. })
        ));
        assert!(matches!(
            decoded(decode_varint_col, &buf, 4),
            Err(CodecError::Truncated)
        ));
        let buf = dod(&[1, 2, 3]);
        assert!(matches!(
            decoded(decode_dod, &buf, 2),
            Err(CodecError::BadLength { .. })
        ));
        assert!(matches!(
            decoded(decode_dod, &buf, 4),
            Err(CodecError::Truncated)
        ));
        assert!(matches!(
            decoded(decode_dod, &[1], 0),
            Err(CodecError::BadLength { .. })
        ));
    }

    #[test]
    fn strings_round_trip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "flannel.1");
        put_str(&mut buf, "");
        let mut pos = 0;
        assert_eq!(get_str(&buf, &mut pos).unwrap(), "flannel.1");
        assert_eq!(get_str(&buf, &mut pos).unwrap(), "");
        assert_eq!(pos, buf.len());
        assert_eq!(get_str(&buf, &mut pos), Err(CodecError::Truncated));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }
}
