//! Property-based tests for the columnar codecs and the segment file
//! format: every encoder must round-trip arbitrary inputs bit-exactly
//! (duplicates, disorder, full-range values included), and corrupt
//! files must be rejected with errors, never panics.

use proptest::prelude::*;
use std::path::{Path, PathBuf};

use vnet_tsdb::codec::CodecError;
use vnet_tsdb::codec::{
    check_varint_col, crc32, decode_dod, decode_varint_col, get_str, get_uvarint, put_dod, put_str,
    put_uvarint, put_varint_col, unzigzag, zigzag, CRC32_LANES_MIN,
};
use vnet_tsdb::segment::{
    Block, ColumnId, EncodedBlock, Segment, SegmentError, SegmentMeta, SegmentWriter, ALL_COLUMNS,
    BLOCK_ROWS,
};
use vnet_tsdb::CompactRecord;

fn encode_varint_col(values: &[u64]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_varint_col(&mut buf, values);
    buf
}

fn encode_dod(values: &[u64]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_dod(&mut buf, values);
    buf
}

type Encoder = fn(&[u64]) -> Vec<u8>;
type Decoder = fn(&[u8], usize, &mut Vec<u64>) -> Result<(), CodecError>;

/// The `n` values `decode` reads from `buf`.
fn decoded(decode: Decoder, buf: &[u8], n: usize) -> Result<Vec<u64>, CodecError> {
    let mut out = Vec::new();
    decode(buf, n, &mut out).map(|()| out)
}

/// Both column codecs: (name, encoder, decoder).
const CODECS: [(&str, Encoder, Decoder); 2] = [
    ("varint", encode_varint_col, decode_varint_col),
    ("delta-of-delta", encode_dod, decode_dod),
];

/// Writes `rows`, numbered on from `first_seq`, as a segment of `tp`
/// under the dictionary `nodes`, as a seal does.
fn write_rows(
    path: &Path,
    nodes: &[String],
    first_seq: u64,
    rows: &[(u32, CompactRecord)],
) -> SegmentMeta {
    let mut w = SegmentWriter::create(path).unwrap();
    let mut block = EncodedBlock::default();
    for (piece, seq) in rows
        .chunks(BLOCK_ROWS)
        .zip((first_seq..).step_by(BLOCK_ROWS))
    {
        block.encode_rows(seq, piece);
        w.append_encoded(&block).unwrap();
    }
    w.finish("tp", nodes, false).unwrap()
}

/// `rows`, numbered on from `first_seq`, as the twelve lanes
/// `SegmentWriter::append` takes, in `ColumnId::ALL` order.
fn lanes(first_seq: u64, rows: &[(u32, CompactRecord)]) -> Vec<Vec<u64>> {
    let mut lanes = vec![Vec::new(); ColumnId::ALL.len()];
    for ((node, r), seq) in rows.iter().zip(first_seq..) {
        let row = [
            seq,
            r.timestamp_ns,
            u64::from(*node),
            u64::from(r.trace_id),
            u64::from(r.pkt_len),
            u64::from(r.saddr),
            u64::from(r.daddr),
            u64::from(r.sport),
            u64::from(r.dport),
            u64::from(r.cpu),
            u64::from(r.direction),
            u64::from(r.flags),
        ];
        for (lane, value) in lanes.iter_mut().zip(row) {
            lane.push(value);
        }
    }
    lanes
}

/// `0..len` cut at `cuts` (taken modulo `len + 1`), in order.
fn pieces(len: usize, cuts: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
    at.extend([0, len]);
    at.sort_unstable();
    at.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Holds [`check_varint_col`] to both decoders on `buf` read as `n`
/// values: the same `Ok`, or the same [`CodecError`].
fn assert_checks_as_decoded(buf: &[u8], n: usize) {
    let checked = check_varint_col(buf, n);
    for (name, _, decode) in CODECS {
        assert_eq!(
            checked,
            decoded(decode, buf, n).map(drop),
            "{name}: {n} values in {buf:02x?}"
        );
    }
}

/// CRC-32 (reflected 0xEDB88320) one bit at a time: the oracle the
/// sliced [`crc32`] must agree with.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// Decodes every block of `seg` in full; the first failure wins.
fn read_all(seg: &Segment) -> Result<Vec<Block>, SegmentError> {
    (0..seg.meta().blocks.len())
        .map(|b| {
            let mut blk = Block::default();
            seg.read_block(b, &ALL_COLUMNS, &mut blk).map(|_| blk)
        })
        .collect()
}

prop_compose! {
    /// Timestamp-like columns: mostly small positive steps, with
    /// duplicates and out-of-order samples mixed in (a perf buffer
    /// drained across CPUs does not deliver in time order).
    fn arb_ts_col()(
        base in 0u64..u64::MAX / 2,
        steps in proptest::collection::vec(-1_000_000i64..1_000_000, 0..300),
    ) -> Vec<u64> {
        let mut v = Vec::with_capacity(steps.len());
        let mut cur = base;
        for s in steps {
            cur = cur.wrapping_add_signed(s);
            v.push(cur);
        }
        v
    }
}

prop_compose! {
    /// A record with every field free over its full range.
    fn arb_record()(
        timestamp_ns in any::<u64>(),
        trace_id in any::<u32>(),
        pkt_len in any::<u32>(),
        saddr in any::<u32>(),
        daddr in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        cpu in any::<u16>(),
        direction in any::<u8>(),
        flags in any::<u8>(),
    ) -> CompactRecord {
        CompactRecord {
            timestamp_ns, trace_id, pkt_len, saddr, daddr,
            sport, dport, cpu, direction, flags,
        }
    }
}

proptest! {
    /// Unsigned varints round-trip over the full u64 range.
    #[test]
    fn uvarint_round_trip(values in proptest::collection::vec(any::<u64>(), 0..200)) {
        let mut buf = Vec::new();
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
        }
        prop_assert_eq!(pos, buf.len());
    }

    /// Zigzag is a bijection on i64.
    #[test]
    fn zigzag_round_trip(v in any::<i64>()) {
        prop_assert_eq!(unzigzag(zigzag(v)), v);
    }

    /// The varint column codec round-trips full-range scalars.
    #[test]
    fn varint_col_round_trip(values in proptest::collection::vec(any::<u64>(), 0..300)) {
        let enc = encode_varint_col(&values);
        prop_assert_eq!(decoded(decode_varint_col, &enc, values.len()).unwrap(), values);
    }

    /// Delta-of-delta round-trips timestamp-like columns, including
    /// duplicates and out-of-order values.
    #[test]
    fn dod_round_trip_on_timestamps(values in arb_ts_col()) {
        let enc = encode_dod(&values);
        prop_assert_eq!(decoded(decode_dod, &enc, values.len()).unwrap(), values);
    }

    /// Delta-of-delta also round-trips arbitrary (hostile) columns.
    #[test]
    fn dod_round_trip_on_anything(values in proptest::collection::vec(any::<u64>(), 0..300)) {
        let enc = encode_dod(&values);
        prop_assert_eq!(decoded(decode_dod, &enc, values.len()).unwrap(), values);
    }

    /// A column decoder accepts only what its encoder writes: whenever
    /// decoding `n` values from a buffer succeeds, encoding those values
    /// gives back exactly that buffer. The buffers are arbitrary bytes
    /// and near misses of a valid encoding: one byte changed or inserted,
    /// the last dropped, or one value spelled a byte longer (its final
    /// byte given a continuation bit and followed by a zero byte).
    #[test]
    fn accepted_chunks_are_canonical(
        values in proptest::collection::vec(prop_oneof![0u64..400, any::<u64>()], 0..40),
        noise in proptest::collection::vec(any::<u8>(), 0..40),
        at in any::<usize>(),
        byte in prop_oneof![Just(0x00u8), Just(0x80), any::<u8>()],
        n in 0usize..48,
    ) {
        for (name, encode, decode) in CODECS {
            let valid = encode(&values);
            let at = at % (valid.len() + 1);
            let mut changed = valid.clone();
            if at < changed.len() {
                changed[at] = byte;
            }
            let mut inserted = valid.clone();
            inserted.insert(at, byte);
            let dropped = &valid[..valid.len().saturating_sub(1)];
            let mut padded = valid.clone();
            let ends: Vec<usize> = (0..valid.len()).filter(|&i| valid[i] < 0x80).collect();
            if !ends.is_empty() {
                let end = ends[at % ends.len()];
                padded[end] |= 0x80;
                padded.insert(end + 1, 0x00);
            }
            for buf in [&noise[..], &valid, &changed, &inserted, dropped, &padded] {
                for n in [n, values.len(), values.len() + 1] {
                    if let Ok(got) = decoded(decode, buf, n) {
                        prop_assert_eq!(encode(&got).as_slice(), buf, "{} over {} values", name, n);
                    }
                }
            }
        }
    }

    /// The writer's two entry points write the same file: rows encoded
    /// a block at a time through `EncodedBlock` (the seal's), and the
    /// same rows as lanes through `append` (the merge's) in arbitrary
    /// pieces, across block boundaries and onto exact multiples of a
    /// block.
    #[test]
    fn rows_and_lanes_write_the_same_file(
        records in proptest::collection::vec(arb_record(), 1..64),
        len in prop_oneof![1usize..5_000, Just(2_048), Just(4_096)],
        first_seq in 0u64..1 << 40,
        lane_cuts in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let dir = std::env::temp_dir().join(format!("vnt-codec-entry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rows: Vec<(u32, CompactRecord)> = (0..len)
            .map(|i| ((i % 3) as u32, records[i % records.len()]))
            .collect();
        let nodes: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();

        let streamed = dir.join("rows.col");
        let streamed_meta = write_rows(&streamed, &nodes, first_seq, &rows);

        let all = lanes(first_seq, &rows);
        let laned = dir.join("lanes.col");
        let mut w = SegmentWriter::create(&laned).unwrap();
        for piece in pieces(len, &lane_cuts) {
            let cut: Vec<Vec<u64>> = all.iter().map(|lane| lane[piece.clone()].to_vec()).collect();
            w.append(&cut).unwrap();
        }
        let laned_meta = w.finish("tp", &nodes, false).unwrap();

        prop_assert_eq!(&streamed_meta, &laned_meta);
        prop_assert!(std::fs::read(&streamed).unwrap() == std::fs::read(&laned).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Length-prefixed strings round-trip.
    #[test]
    fn str_round_trip(
        raw in proptest::collection::vec(
            proptest::collection::vec(any::<char>(), 0..40),
            0..40,
        ),
    ) {
        let values: Vec<String> = raw.into_iter().map(String::from_iter).collect();
        let mut buf = Vec::new();
        for s in &values {
            put_str(&mut buf, s);
        }
        let mut pos = 0;
        for s in &values {
            prop_assert_eq!(&get_str(&buf, &mut pos).unwrap(), s);
        }
    }

    /// Truncating a varint column never panics: decode returns an error
    /// or (when the cut lands on a value boundary) a prefix.
    #[test]
    fn varint_col_truncation_is_safe(
        values in proptest::collection::vec(any::<u64>(), 1..100),
        cut in any::<usize>(),
    ) {
        let enc = encode_varint_col(&values);
        let cut = cut % (enc.len() + 1);
        let _ = decoded(decode_varint_col, &enc[..cut], values.len());
    }

    /// The sliced CRC agrees with the oracle on buffers long enough for
    /// thousands of sixteen-byte steps, cut at an arbitrary start so the
    /// steps fall at every alignment.
    #[test]
    fn crc32_matches_oracle_on_random_buffers(
        bytes in proptest::collection::vec(any::<u8>(), 0..=65_536),
        skip in 0usize..16,
    ) {
        let bytes = &bytes[skip.min(bytes.len())..];
        prop_assert_eq!(crc32(bytes), crc32_bitwise(bytes));
    }

    /// A whole segment round-trips through disk: high-cardinality node
    /// dictionaries, arbitrary records, sequence numbers counted on from
    /// the first.
    #[test]
    fn segment_round_trip(
        records in proptest::collection::vec(arb_record(), 1..200),
        node_cardinality in 1usize..40,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "vnt-codec-props-{}-{node_cardinality}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("seg-{}.col", records.len()));

        let nodes: Vec<String> = (0..node_cardinality).map(|i| format!("node-{i}")).collect();
        let rows: Vec<(u32, CompactRecord)> = records
            .iter()
            .enumerate()
            .map(|(i, r)| ((i % node_cardinality) as u32, *r))
            .collect();
        let meta = write_rows(&path, &nodes, 0, &rows);
        prop_assert_eq!(meta.records, rows.len() as u64);

        let seg = Segment::open(&path).unwrap();
        prop_assert_eq!(&seg.meta().nodes, &nodes);
        let blocks = read_all(&seg).unwrap();
        prop_assert_eq!(blocks.len(), 1);
        for (i, (node, rec)) in rows.iter().enumerate() {
            prop_assert_eq!(blocks[0].col(ColumnId::Seq)[i], i as u64);
            prop_assert_eq!(blocks[0].col(ColumnId::Node)[i], u64::from(*node));
            prop_assert_eq!(blocks[0].record(i), *rec);
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    /// Flipping any single byte of a segment file is detected: open or
    /// a block read fails with an error — never a panic, never silently
    /// wrong metadata accepted as valid.
    #[test]
    fn corrupt_segment_rejected_without_panic(
        records in proptest::collection::vec(arb_record(), 1..50),
        flip in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let dir = std::env::temp_dir().join(format!("vnt-codec-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("seg-{}.col", records.len()));

        let rows: Vec<(u32, CompactRecord)> = records.iter().map(|r| (0, *r)).collect();
        write_rows(&path, &["n0".into()], 0, &rows);

        let mut bytes = std::fs::read(&path).unwrap();
        let at = flip % bytes.len();
        bytes[at] ^= xor;
        std::fs::write(&path, &bytes).unwrap();

        // Either the footer fails validation at open, or the damaged
        // chunk fails its CRC on read. Both are Err, not panic.
        if let Ok(seg) = Segment::open(&path) {
            prop_assert!(
                read_all(&seg).is_err(),
                "a flipped byte at offset {at} went undetected"
            );
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}

/// Every length around the sixteen-byte step (none, a tail only, one to
/// four steps with every tail) at every start offset within a step, and
/// the classic check value. Below [`CRC32_LANES_MIN`]: one lane.
#[test]
fn crc32_matches_oracle_at_every_short_length_and_alignment() {
    assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    let buf: Vec<u8> = (0..96u32).map(|i| (i * 167 + 13) as u8).collect();
    for start in 0..16 {
        for len in 0..=64 {
            let bytes = &buf[start..start + len];
            assert_eq!(
                crc32(bytes),
                crc32_bitwise(bytes),
                "start {start} len {len}"
            );
        }
    }
}

/// Bytes no run of a short period repeats in, so a lane CRC'd at the
/// wrong offset shows.
fn crc_input(len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8 ^ (i >> 11) as u8)
        .collect()
}

/// Around the length where `crc32` starts running three lanes: every
/// length from 64 below [`CRC32_LANES_MIN`] to 64 above it, at every
/// start offset within a sixteen-byte step.
#[test]
fn crc32_matches_oracle_around_the_lane_threshold() {
    let buf = crc_input(CRC32_LANES_MIN + 64 + 16);
    for start in 0..16 {
        for len in CRC32_LANES_MIN - 64..=CRC32_LANES_MIN + 64 {
            let bytes = &buf[start..start + len];
            assert_eq!(
                crc32(bytes),
                crc32_bitwise(bytes),
                "start {start} len {len}"
            );
        }
    }
}

/// Three lanes of `16·m` bytes each leave a tail of `len − 48·m` bytes,
/// 0 to 47: every one of them, over thirds of a few step counts.
#[test]
fn crc32_matches_oracle_on_every_tail_after_the_thirds() {
    let steps = CRC32_LANES_MIN.div_ceil(48);
    let buf = crc_input(48 * (steps + 40) + 48);
    for third_steps in [steps, steps + 1, steps + 7, steps + 40] {
        for tail in 0..48 {
            let len = 48 * third_steps + tail;
            let bytes = &buf[..len];
            assert_eq!(
                crc32(bytes),
                crc32_bitwise(bytes),
                "{third_steps} steps a third, tail {tail}"
            );
        }
    }
}

/// One 1 MiB buffer: thirds long enough that every bit of the shift
/// length matters.
#[test]
fn crc32_matches_oracle_on_a_mebibyte() {
    let bytes = crc_input(1 << 20);
    assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_096))]

    /// The checker a merge runs over the chunks it copies accepts and
    /// rejects exactly as the decoders do, with the same error: over
    /// columns of values of every length (mostly one byte, so whole
    /// words of them), round-tripped, with a byte changed, cut short,
    /// extended, or with a run of continuation bytes spliced in (values
    /// of 9, 10 and 11 bytes, a 10th byte above 1), each read as its
    /// value count and one more and one fewer.
    #[test]
    fn the_checker_answers_as_the_decoders(
        values in proptest::collection::vec(
            prop_oneof![0u64..128, 0u64..128, 0u64..128, (any::<u64>(), 0u32..64).prop_map(|(v, s)| v >> s)],
            0..80,
        ),
        at in any::<usize>(),
        byte in prop_oneof![Just(0x00u8), Just(0x01), Just(0x02), Just(0x80), Just(0xff), any::<u8>()],
        extra in proptest::collection::vec(any::<u8>(), 1..12),
        run in 1usize..12,
    ) {
        for (_, encode, _) in CODECS {
            let valid = encode(&values);
            let at = at % (valid.len() + 1);
            let mut changed = valid.clone();
            if at < changed.len() {
                changed[at] = byte;
            }
            let cut = &valid[..at];
            let extended = [&valid[..], &extra].concat();
            let mut spliced = valid.clone();
            spliced.splice(at..at, std::iter::repeat_n(0x80 | byte, run).chain([byte]));
            for buf in [&valid[..], &changed, cut, &extended, &spliced] {
                let n = values.len();
                for n in [n.saturating_sub(1), n, n + 1, 0, 1] {
                    assert_checks_as_decoded(buf, n);
                }
            }
        }
    }
}

/// Long values at every offset of a word: behind 0 to 16 one-byte
/// values, a varint of 9 continuation bytes and more (10 and 11 bytes
/// and beyond), ending in each of the bytes a 10th byte may and may
/// not be, or not ending at all; and delta-of-delta columns of 0 and 1
/// values. The checker answers as both decoders, for the column's count
/// and its neighbours.
#[test]
fn the_checker_answers_as_the_decoders_on_long_values() {
    for lead in 0..=16usize {
        for run in 7..=12usize {
            for last in [None, Some(0x00u8), Some(0x01), Some(0x02), Some(0x7f)] {
                let mut buf = vec![0x05; lead];
                buf.extend(std::iter::repeat_n(0x81, run));
                buf.extend(last);
                buf.extend([0x03; 9]);
                let n = lead + 1 + 9;
                for n in [0, 1, lead, lead + 1, n - 1, n, n + 1] {
                    assert_checks_as_decoded(&buf, n);
                }
            }
        }
    }
    for value in [0, 1, 127, 128, 1 << 62, u64::MAX] {
        let one = encode_dod(&[value]);
        assert_checks_as_decoded(&one, 0);
        assert_checks_as_decoded(&one, 1);
        assert_checks_as_decoded(&[], 0);
        assert_checks_as_decoded(&[], 1);
    }
}

/// A three-block segment (two full blocks and a tail, whatever the block
/// size turns out to be) of regular rows, and its bytes.
fn multi_block_segment(tag: &str) -> (PathBuf, SegmentMeta, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("vnt-codec-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seg.col");
    let write = |n: u64| {
        let rows: Vec<(u32, CompactRecord)> = (0..n)
            .map(|i| {
                let record = CompactRecord {
                    timestamp_ns: 1_000 + i * 10,
                    pkt_len: 64,
                    ..Default::default()
                };
                (0, record)
            })
            .collect();
        write_rows(&path, &["n0".into()], 0, &rows)
    };
    let block_rows = write(100_000).blocks[0].rows;
    let meta = write(2 * block_rows + 77);
    assert_eq!(meta.blocks.len(), 3);
    let bytes = std::fs::read(&path).unwrap();
    (path, meta, bytes)
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_dir(path.parent().unwrap());
}

/// Where the footer starts, from the trailer's length word.
fn footer_start(bytes: &[u8]) -> usize {
    let len_at = bytes.len() - 12;
    let footer_len = u32::from_le_bytes(bytes[len_at..len_at + 4].try_into().unwrap());
    bytes.len() - 16 - footer_len as usize
}

/// Cutting the file at every offset of the footer and trailer — the
/// block index included — is rejected at open, as are cuts inside the
/// header and the data.
#[test]
fn truncated_footer_rejected() {
    let (path, _, bytes) = multi_block_segment("trunc");
    let cuts = [0, 1, 7, 8, 15, bytes.len() / 2]
        .into_iter()
        .chain(footer_start(&bytes)..bytes.len());
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = Segment::open(&path).expect_err("truncated file must not open");
        assert!(
            matches!(err, SegmentError::Corrupt(_) | SegmentError::Io(_)),
            "cut at {cut}: {err}"
        );
    }
    cleanup(&path);
}

/// Every single-byte flip in the block index is caught by the footer
/// CRC (or, in the trailer, by the magic and length checks).
#[test]
fn block_index_byte_flips_rejected() {
    let (path, _, bytes) = multi_block_segment("flip");
    for at in footer_start(&bytes)..bytes.len() {
        let mut bad = bytes.clone();
        bad[at] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        assert!(
            Segment::open(&path).is_err(),
            "flip at {at} went undetected"
        );
    }
    cleanup(&path);
}

/// A file of the previous format version is refused with its own typed
/// error: there is no second reader.
#[test]
fn previous_magic_is_unsupported_version() {
    let (path, _, mut bytes) = multi_block_segment("v1");
    let end = bytes.len();
    bytes[..8].copy_from_slice(b"VNTSEG1\n");
    bytes[end - 8..].copy_from_slice(b"VNTSEG1\n");
    std::fs::write(&path, &bytes).unwrap();
    let err = Segment::open(&path).expect_err("v1 must not open");
    assert!(
        matches!(err, SegmentError::UnsupportedVersion(b'1')),
        "{err}"
    );
    cleanup(&path);
}

/// Re-encodes `meta` as a footer with a *valid* CRC and splices it over
/// the original, so only the parser's consistency checks stand between
/// a lying index and the reader.
fn splice_footer(bytes: &[u8], meta: &SegmentMeta) -> Vec<u8> {
    let mut footer = Vec::new();
    put_str(&mut footer, &meta.measurement);
    put_uvarint(&mut footer, meta.nodes.len() as u64);
    for n in &meta.nodes {
        put_str(&mut footer, n);
    }
    let block_count = meta.blocks.len() as u64;
    for v in [
        meta.records,
        meta.min_ts,
        meta.max_ts,
        meta.min_seq,
        meta.max_seq,
        block_count,
    ] {
        put_uvarint(&mut footer, v);
    }
    for b in &meta.blocks {
        for v in [b.rows, b.min_ts, b.max_ts, b.min_seq, b.max_seq] {
            put_uvarint(&mut footer, v);
        }
        for c in &b.chunks {
            put_uvarint(&mut footer, c.len);
            footer.extend_from_slice(&c.crc.to_le_bytes());
        }
    }
    let mut out = bytes[..footer_start(bytes)].to_vec();
    out.extend_from_slice(&footer);
    out.extend_from_slice(&crc32(&footer).to_le_bytes());
    out.extend_from_slice(&(footer.len() as u32).to_le_bytes());
    out.extend_from_slice(&bytes[bytes.len() - 8..]);
    out
}

/// An index that checksums correctly but contradicts itself — row
/// counts that do not add up, block ranges that disagree with the
/// segment's, chunks that do not tile the data — is a typed error at
/// open; one that only misplaces a chunk boundary fails that chunk's
/// CRC at read.
#[test]
fn inconsistent_block_index_rejected() {
    let (path, meta, bytes) = multi_block_segment("lies");
    // The re-encoder is faithful: the untouched index still opens.
    std::fs::write(&path, splice_footer(&bytes, &meta)).unwrap();
    assert_eq!(Segment::open(&path).unwrap().meta(), &meta);

    type Lie = (&'static str, fn(&mut SegmentMeta));
    let lies: [Lie; 10] = [
        ("records above the block sum", |m| m.records += 1),
        ("a block one row short", |m| m.blocks[1].rows -= 1),
        ("an empty block", |m| {
            m.records -= m.blocks[2].rows;
            m.blocks[2].rows = 0;
        }),
        ("no blocks", |m| m.blocks.clear()),
        ("segment min_ts below every block", |m| m.min_ts -= 1),
        ("segment max_ts above every block", |m| m.max_ts += 1),
        ("segment max_seq above every block", |m| m.max_seq += 1),
        ("inverted block range", |m| {
            m.blocks[1].min_ts = m.blocks[1].max_ts + 1
        }),
        ("last chunk past the data region", |m| {
            m.blocks[2].chunks[11].len += 1
        }),
        ("data bytes no chunk covers", |m| {
            m.blocks[0].chunks[0].len -= 1
        }),
    ];
    for (what, lie) in lies {
        let mut bad = meta.clone();
        lie(&mut bad);
        std::fs::write(&path, splice_footer(&bytes, &bad)).unwrap();
        let err = Segment::open(&path).expect_err(what);
        assert!(matches!(err, SegmentError::Corrupt(_)), "{what}: {err}");
    }

    // A boundary moved between two neighbouring chunks keeps the tiling
    // intact, so it opens — and the CRC catches it before any decode.
    let mut shifted = meta.clone();
    shifted.blocks[1].chunks[0].len += 1;
    shifted.blocks[1].chunks[1].len -= 1;
    std::fs::write(&path, splice_footer(&bytes, &shifted)).unwrap();
    let seg = Segment::open(&path).expect("tiling is intact");
    let mut blk = Block::default();
    assert!(seg.read_block(0, &ALL_COLUMNS, &mut blk).is_ok());
    let err = seg
        .read_block(1, &ALL_COLUMNS, &mut Block::default())
        .expect_err("misplaced boundary");
    assert!(matches!(err, SegmentError::Corrupt(_)), "{err}");
    cleanup(&path);
}
