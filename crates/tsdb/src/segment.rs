//! Immutable columnar segments: the on-disk form of a sealed hot tail.
//!
//! A segment holds every compact record one measurement accumulated
//! between two seals, as a sequence of **row blocks** of at most 2 048
//! rows (`BLOCK_ROWS`). Each block stores its rows column-major — twelve
//! independently encoded, CRC'd chunks — so a query reads only the
//! blocks its time window touches and, inside them, only the columns it
//! needs. The file layout is:
//!
//! ```text
//! ┌─────────────┬─────────────────────┬─────┬────────┬─────┬─────┬─────────────┐
//! │ magic (8 B) │ block 0: 12 chunks  │ ... │ footer │ crc │ len │ magic (8 B) │
//! └─────────────┴─────────────────────┴─────┴────────┴─────┴─────┴─────────────┘
//! ```
//!
//! The footer is the segment's index: measurement name, the node
//! dictionary (names are stored once; the node column holds dictionary
//! indices), the record count, the time and sequence ranges used for
//! segment pruning, and one entry per block — row count, the block's own
//! time and sequence ranges, and each chunk's length and CRC. Chunks are
//! laid out back to back in block then [`ColumnId::ALL`] order, so their
//! offsets are the running sum of the lengths: they cannot overlap, and
//! the sum must land exactly on the footer. Readers locate the footer
//! from the fixed-size trailer, verify its CRC, and then read chunks
//! selectively with `read_exact_at` ([`Segment::read_block`]) — a query
//! that prunes on the footer never touches the data bytes at all.
//!
//! Timestamps and sequence numbers use the delta-of-delta codec; every
//! other column is plain varint (see [`crate::codec`]); both restart at
//! every block. Segments are written once and never modified; compaction
//! replaces whole files under a manifest commit (see [`crate::compact`]).
//! The magic is the format version: a file with another `VNTSEG?` magic
//! is refused with [`SegmentError::UnsupportedVersion`], never guessed at.
//!
//! One [`SegmentWriter`] writes every file, streaming. A seal hands it a
//! table's `(node, record)` rows a block at a time, each transposed and
//! encoded into an [`EncodedBlock`] first, on whichever of its two
//! threads claimed it ([`SegmentWriter::append_encoded`]). The merge
//! hands it the decoded lanes of its input blocks
//! ([`SegmentWriter::append`]), of which it encodes only the open block,
//! and writes each block as it fills. A full block the
//! merge would re-encode to the same bytes it copies instead, chunks and
//! CRCs as its reader verified them (`SegmentWriter::append_block`);
//! such a block is read with only the lanes the copy needs decoded and
//! the rest checked (`Segment::read_block_to_copy`).

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::codec::{
    self, crc32, get_str, get_u32_le, get_uvarint, put_str, put_uvarint, CodecError,
};
use crate::record::CompactRecord;

/// Magic bytes at both ends of a segment file; byte 6 is the version.
pub const SEGMENT_MAGIC: &[u8; 8] = b"VNTSEG2\n";

/// Fixed trailer size: footer CRC (4) + footer length (4) + magic (8).
const TRAILER_BYTES: u64 = 16;

/// Rows per block: the unit of I/O, pruning and decode memory. Every
/// block a writer emits is full except a segment's last. Small enough
/// that a block's time span sits well under a typical query window even
/// when a batch interleaves several nodes' runs (about 40 KB encoded),
/// large enough that its ~100-byte index entry and the codecs' restart
/// cost stay under 0.3 % of the data.
pub const BLOCK_ROWS: usize = 2_048;

/// The twelve columns of a segment, in on-disk order. One lane per
/// [`CompactRecord`] field, plus the insertion sequence number (`Seq`,
/// which merges sealed rows with the in-memory hot tail in insertion
/// order) and the dictionary-encoded originating node (`Node`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ColumnId {
    /// Per-table insertion sequence number.
    Seq = 0,
    /// Record timestamp, nanoseconds.
    Ts = 1,
    /// Index into the segment's node dictionary.
    Node = 2,
    /// Packet trace ID.
    TraceId = 3,
    /// Packet length.
    PktLen = 4,
    /// Source IPv4 address.
    Saddr = 5,
    /// Destination IPv4 address.
    Daddr = 6,
    /// Source port.
    Sport = 7,
    /// Destination port.
    Dport = 8,
    /// CPU the probe fired on.
    Cpu = 9,
    /// 0 = RX, 1 = TX.
    Direction = 10,
    /// Record flags (bit 0: trace ID present).
    Flags = 11,
}

impl ColumnId {
    /// All columns in on-disk order.
    pub const ALL: [ColumnId; 12] = [
        ColumnId::Seq,
        ColumnId::Ts,
        ColumnId::Node,
        ColumnId::TraceId,
        ColumnId::PktLen,
        ColumnId::Saddr,
        ColumnId::Daddr,
        ColumnId::Sport,
        ColumnId::Dport,
        ColumnId::Cpu,
        ColumnId::Direction,
        ColumnId::Flags,
    ];

    /// Delta-of-delta (raw first value, zigzag-varint second differences)
    /// for the near-monotonic `Seq`/`Ts` lanes, plain LEB128 varints
    /// otherwise.
    fn encode(self, buf: &mut Vec<u8>, values: &[u64]) {
        match self {
            ColumnId::Seq | ColumnId::Ts => codec::put_dod(buf, values),
            _ => codec::put_varint_col(buf, values),
        }
    }

    fn decode(self, chunk: &[u8], rows: usize, out: &mut Vec<u64>) -> Result<(), CodecError> {
        match self {
            ColumnId::Seq | ColumnId::Ts => codec::decode_dod(chunk, rows, out),
            _ => codec::decode_varint_col(chunk, rows, out),
        }
    }
}

/// Which columns of a block to load, indexed by `ColumnId as usize`.
pub type ColumnSet = [bool; ColumnId::ALL.len()];

/// Every column.
pub const ALL_COLUMNS: ColumnSet = [true; ColumnId::ALL.len()];

/// The lanes a merge decodes from a block it reads to copy: the writer's
/// index entry needs `Seq` and `Ts`, the dictionary remap `Node`.
const COPY_DECODED: ColumnSet = {
    let mut set = [false; ColumnId::ALL.len()];
    set[ColumnId::Seq as usize] = true;
    set[ColumnId::Ts as usize] = true;
    set[ColumnId::Node as usize] = true;
    set
};

/// The set holding exactly `ids`.
pub fn columns(ids: &[ColumnId]) -> ColumnSet {
    let mut set = [false; ColumnId::ALL.len()];
    for &id in ids {
        set[id as usize] = true;
    }
    set
}

/// Interns `name` in a node dictionary (first-seen order) and returns
/// its index.
pub(crate) fn dict_index(nodes: &mut Vec<String>, name: &str) -> u32 {
    let at = nodes.iter().position(|n| n == name).unwrap_or_else(|| {
        nodes.push(name.to_owned());
        nodes.len() - 1
    });
    at as u32
}

/// One encoded column chunk of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkMeta {
    /// Byte offset of the chunk from the start of the file.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u64,
    /// CRC-32 of the encoded chunk.
    pub crc: u32,
}

/// One row block's entry in the footer index.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockMeta {
    /// Number of rows (at least one).
    pub rows: u64,
    /// Smallest timestamp in the block.
    pub min_ts: u64,
    /// Largest timestamp in the block.
    pub max_ts: u64,
    /// Smallest insertion sequence number in the block.
    pub min_seq: u64,
    /// Largest insertion sequence number in the block.
    pub max_seq: u64,
    /// The block's chunks, in [`ColumnId::ALL`] order.
    pub chunks: [ChunkMeta; ColumnId::ALL.len()],
}

impl BlockMeta {
    /// Encoded bytes of all twelve chunks.
    pub fn encoded_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.len).sum()
    }
}

/// A segment's footer index: everything a reader needs to prune, plan
/// and decode without touching the column data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// The measurement (table) the segment belongs to.
    pub measurement: String,
    /// Node-name dictionary; the `Node` column holds indices into it.
    pub nodes: Vec<String>,
    /// Number of rows.
    pub records: u64,
    /// Smallest timestamp in the segment.
    pub min_ts: u64,
    /// Largest timestamp in the segment.
    pub max_ts: u64,
    /// Smallest insertion sequence number.
    pub min_seq: u64,
    /// Largest insertion sequence number.
    pub max_seq: u64,
    /// Per-block index, in file (and sequence) order.
    pub blocks: Vec<BlockMeta>,
    /// Total file size in bytes (header + blocks + footer + trailer).
    pub file_bytes: u64,
}

/// Errors from reading or writing segment files.
#[derive(Debug)]
pub enum SegmentError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file fails structural validation (bad magic, CRC mismatch,
    /// chunks not tiling the data region, inconsistent counts or ranges).
    Corrupt(String),
    /// A column chunk failed to decode.
    Codec(CodecError),
    /// A segment file of another format version (the magic's version
    /// byte, e.g. `b'1'`); stores are rebuilt, not migrated.
    UnsupportedVersion(u8),
}

impl core::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment i/o: {e}"),
            SegmentError::Corrupt(m) => write!(f, "corrupt segment: {m}"),
            SegmentError::Codec(e) => write!(f, "segment codec: {e}"),
            SegmentError::UnsupportedVersion(v) => write!(
                f,
                "segment format version `{}` is not supported (this build reads `{}`)",
                char::from(*v),
                char::from(SEGMENT_MAGIC[6])
            ),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<std::io::Error> for SegmentError {
    fn from(e: std::io::Error) -> Self {
        SegmentError::Io(e)
    }
}

impl From<CodecError> for SegmentError {
    fn from(e: CodecError) -> Self {
        SegmentError::Codec(e)
    }
}

fn corrupt(msg: impl Into<String>) -> SegmentError {
    SegmentError::Corrupt(msg.into())
}

/// The segment-level `[min_ts, max_ts, min_seq, max_seq]` its blocks imply.
fn ranges(blocks: &[BlockMeta]) -> [u64; 4] {
    blocks.iter().fold([u64::MAX, 0, u64::MAX, 0], |r, b| {
        [
            r[0].min(b.min_ts),
            r[1].max(b.max_ts),
            r[2].min(b.min_seq),
            r[3].max(b.max_seq),
        ]
    })
}

fn min_max(values: &[u64]) -> (u64, u64) {
    values
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// The index entry of a block holding `lanes` (its rows and ranges) as
/// `chunks`.
fn block_meta(lanes: &[Vec<u64>], chunks: [ChunkMeta; ColumnId::ALL.len()]) -> BlockMeta {
    let (min_seq, max_seq) = min_max(&lanes[ColumnId::Seq as usize]);
    let (min_ts, max_ts) = min_max(&lanes[ColumnId::Ts as usize]);
    BlockMeta {
        rows: lanes[0].len() as u64,
        min_ts,
        max_ts,
        min_seq,
        max_seq,
        chunks,
    }
}

/// Streaming segment writer: blocks encoded apart from it are written as
/// they come ([`SegmentWriter::append_encoded`], the seal's), appended
/// lanes are cut into blocks of `BLOCK_ROWS` rows, each encoded and
/// written as soon as it fills (the writer never holds more than one
/// block; [`SegmentWriter::append`], the merge's), then
/// [`SegmentWriter::finish`] writes the tail block, footer and trailer.
#[derive(Debug)]
pub struct SegmentWriter {
    file: File,
    offset: u64,
    /// The open block: twelve lanes of fewer than `BLOCK_ROWS` rows.
    pending: [Vec<u64>; ColumnId::ALL.len()],
    /// The last block's twelve encoded chunks, back to back; reused.
    encoded: Vec<u8>,
    blocks: Vec<BlockMeta>,
}

impl SegmentWriter {
    /// Creates the file at `path` (truncating any previous content) and
    /// writes the header magic.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, SegmentError> {
        let mut file = File::create(path.into())?;
        file.write_all(SEGMENT_MAGIC)?;
        Ok(SegmentWriter {
            file,
            offset: SEGMENT_MAGIC.len() as u64,
            pending: std::array::from_fn(|_| Vec::with_capacity(BLOCK_ROWS)),
            encoded: Vec::new(),
            blocks: Vec::new(),
        })
    }

    /// Appends `block` as the segment's next block, its bytes as
    /// [`EncodedBlock::encode_rows`] wrote them. Only a full block may be
    /// followed by another, so a seal appends a table's blocks in row
    /// order, each full but the last, as the writer cuts appended lanes.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`SegmentError::Corrupt`] if the writer holds an
    /// open block or its last block is not full.
    pub fn append_encoded(&mut self, block: &EncodedBlock) -> Result<(), SegmentError> {
        let ragged = self
            .blocks
            .last()
            .is_some_and(|b| b.rows != BLOCK_ROWS as u64);
        if ragged || !self.pending[0].is_empty() {
            return Err(corrupt("an encoded block may only follow full blocks"));
        }
        self.put_block(&block.bytes, block.meta.clone())
    }

    /// Appends rows given as twelve equally long lanes in
    /// [`ColumnId::ALL`] order, re-cutting them into full blocks
    /// whatever their number.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`SegmentError::Corrupt`] on a missing or ragged
    /// lane.
    pub fn append(&mut self, cols: &[Vec<u64>]) -> Result<(), SegmentError> {
        let rows = cols.first().map_or(0, Vec::len);
        if cols.len() != ColumnId::ALL.len() || cols.iter().any(|c| c.len() != rows) {
            return Err(corrupt("rows must come as twelve equally long lanes"));
        }
        self.cut(rows, |lanes, at| {
            for (lane, col) in lanes.iter_mut().zip(cols) {
                lane.extend_from_slice(&col[at.clone()]);
            }
        })
    }

    /// Cuts `rows` rows into blocks: `fill` extends the open block's
    /// lanes with the rows in `at`, as many as the block has room for,
    /// and each block is written as it fills.
    fn cut(
        &mut self,
        rows: usize,
        mut fill: impl FnMut(&mut [Vec<u64>; ColumnId::ALL.len()], Range<usize>),
    ) -> Result<(), SegmentError> {
        let mut at = 0;
        while at < rows {
            let take = (BLOCK_ROWS - self.pending[0].len()).min(rows - at);
            fill(&mut self.pending, at..at + take);
            at += take;
            if self.pending[0].len() == BLOCK_ROWS {
                self.write_block()?;
            }
        }
        Ok(())
    }

    /// Whether block `input` of another segment, appended now, is copied
    /// unless its node remap changes an index: it is full and would
    /// start a block here. The merge reads such a block with
    /// [`Segment::read_block_to_copy`], any other with
    /// [`Segment::read_block`] over every column.
    pub(crate) fn may_copy(&self, input: &BlockMeta) -> bool {
        input.rows == BLOCK_ROWS as u64 && self.pending[0].is_empty()
    }

    /// Appends block `input` of another segment, read whole into `blk`
    /// (by [`Segment::read_block_to_copy`] if [`Self::may_copy`] says so,
    /// else by [`Segment::read_block`]), with its node indices mapped
    /// through `remap` (the index here of each name in the other
    /// segment's dictionary). If the block may be copied and the remap
    /// changed none of its indices, its chunks are written as they read
    /// verified, with their CRCs: re-encoding its lanes would write the
    /// same bytes, since every chunk a decoder accepts is canonical. Any
    /// other block is re-cut as by [`SegmentWriter::append`], its lanes
    /// not yet decoded decoded from the chunks `blk` holds.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`SegmentError::Corrupt`] on a node index outside
    /// `remap`.
    pub(crate) fn append_block(
        &mut self,
        blk: &mut Block,
        input: &BlockMeta,
        remap: &[u64],
    ) -> Result<(), SegmentError> {
        let mut unchanged = true;
        for v in &mut blk.cols[ColumnId::Node as usize] {
            let to = *remap
                .get(*v as usize)
                .ok_or_else(|| corrupt("node index outside dictionary"))?;
            unchanged &= to == *v;
            *v = to;
        }
        let whole = blk.run.len() as u64 == input.encoded_bytes();
        if !(unchanged && whole && self.may_copy(input)) {
            blk.decode_held(input)?;
            return self.append(&blk.cols);
        }
        let mut start = 0;
        let chunks = input.chunks.map(|c| {
            let chunk = ChunkMeta { offset: start, ..c };
            start += c.len;
            chunk
        });
        // The verified chunks are the block to write.
        let meta = block_meta(&blk.cols, chunks);
        self.put_block(&blk.run, meta)
    }

    /// Encodes the open block and writes it.
    fn write_block(&mut self) -> Result<(), SegmentError> {
        let meta = encode_block(&self.pending, &mut self.encoded);
        self.pending.iter_mut().for_each(Vec::clear);
        let encoded = std::mem::take(&mut self.encoded);
        let put = self.put_block(&encoded, meta);
        self.encoded = encoded;
        put
    }

    /// Writes the block `bytes` with one `write_all` and indexes it as
    /// `meta`, whose chunk offsets count from the block's start.
    fn put_block(&mut self, bytes: &[u8], mut meta: BlockMeta) -> Result<(), SegmentError> {
        for chunk in &mut meta.chunks {
            chunk.offset += self.offset;
        }
        self.file.write_all(bytes)?;
        self.offset += bytes.len() as u64;
        self.blocks.push(meta);
        Ok(())
    }

    /// Writes the tail block, footer and trailer, optionally fsyncs, and
    /// returns the completed metadata. The segment must hold at least
    /// one row.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`SegmentError::Corrupt`] on an empty segment.
    pub fn finish(
        mut self,
        measurement: &str,
        nodes: &[String],
        fsync: bool,
    ) -> Result<SegmentMeta, SegmentError> {
        if !self.pending[0].is_empty() {
            self.write_block()?;
        }
        if self.blocks.is_empty() {
            return Err(corrupt("refusing to write an empty segment"));
        }
        let [min_ts, max_ts, min_seq, max_seq] = ranges(&self.blocks);
        let mut meta = SegmentMeta {
            measurement: measurement.to_owned(),
            nodes: nodes.to_vec(),
            records: self.blocks.iter().map(|b| b.rows).sum(),
            min_ts,
            max_ts,
            min_seq,
            max_seq,
            blocks: self.blocks,
            file_bytes: 0,
        };
        let tail = footer_and_trailer(&meta)?;
        self.file.write_all(&tail)?;
        self.file.flush()?;
        if fsync {
            self.file.sync_all()?;
        }
        meta.file_bytes = self.offset + tail.len() as u64;
        Ok(meta)
    }
}

/// Encodes `lanes`, one block's, into `bytes` as its twelve chunks back to
/// back, each CRC'd, and returns the block's index entry, chunk offsets
/// counted from the block's start.
fn encode_block(lanes: &[Vec<u64>; ColumnId::ALL.len()], bytes: &mut Vec<u8>) -> BlockMeta {
    let mut chunks = [ChunkMeta::default(); ColumnId::ALL.len()];
    bytes.clear();
    for id in ColumnId::ALL {
        let start = bytes.len();
        id.encode(bytes, &lanes[id as usize]);
        let chunk = &bytes[start..];
        chunks[id as usize] = ChunkMeta {
            offset: start as u64,
            len: chunk.len() as u64,
            crc: crc32(chunk),
        };
    }
    block_meta(lanes, chunks)
}

/// One block of rows encoded apart from any writer, for
/// [`SegmentWriter::append_encoded`]: the rows transposed into twelve
/// lanes, the lanes encoded and CRC'd back to back, and the block's index
/// entry. Its buffers are reused from block to block. A seal encodes its
/// blocks into a few of these on two threads and writes them in order.
#[derive(Debug, Default)]
pub struct EncodedBlock {
    lanes: [Vec<u64>; ColumnId::ALL.len()],
    bytes: Vec<u8>,
    meta: BlockMeta,
}

impl EncodedBlock {
    /// Encodes `(node index, record)` rows numbered on from `first_seq`
    /// (row `i` gets sequence number `first_seq + i`) as one block,
    /// transposing them into its lanes a lane at a time.
    ///
    /// # Panics
    ///
    /// If `rows` is empty or holds more than [`BLOCK_ROWS`] rows.
    pub fn encode_rows(&mut self, first_seq: u64, rows: &[(u32, CompactRecord)]) {
        assert!(
            (1..=BLOCK_ROWS).contains(&rows.len()),
            "a block holds 1 to {BLOCK_ROWS} rows, not {}",
            rows.len()
        );
        self.lanes.iter_mut().for_each(Vec::clear);
        // The lanes in `ColumnId::ALL` order.
        let [seqs, ts, nodes, trace_id, pkt_len, saddr, daddr, sport, dport, cpu, direction, flags] =
            &mut self.lanes;
        seqs.extend(first_seq..first_seq + rows.len() as u64);
        ts.extend(rows.iter().map(|(_, r)| r.timestamp_ns));
        nodes.extend(rows.iter().map(|&(node, _)| u64::from(node)));
        trace_id.extend(rows.iter().map(|(_, r)| u64::from(r.trace_id)));
        pkt_len.extend(rows.iter().map(|(_, r)| u64::from(r.pkt_len)));
        saddr.extend(rows.iter().map(|(_, r)| u64::from(r.saddr)));
        daddr.extend(rows.iter().map(|(_, r)| u64::from(r.daddr)));
        sport.extend(rows.iter().map(|(_, r)| u64::from(r.sport)));
        dport.extend(rows.iter().map(|(_, r)| u64::from(r.dport)));
        cpu.extend(rows.iter().map(|(_, r)| u64::from(r.cpu)));
        direction.extend(rows.iter().map(|(_, r)| u64::from(r.direction)));
        flags.extend(rows.iter().map(|(_, r)| u64::from(r.flags)));
        self.meta = encode_block(&self.lanes, &mut self.bytes);
    }
}

/// What follows a segment's blocks: the footer `meta` encodes, its CRC
/// and length, and the closing magic.
fn footer_and_trailer(meta: &SegmentMeta) -> Result<Vec<u8>, SegmentError> {
    let mut footer = Vec::with_capacity(256 + 128 * meta.blocks.len());
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
    let footer_len = u32::try_from(footer.len()).map_err(|_| corrupt("footer exceeds 4 GiB"))?;
    let crc = crc32(&footer);
    footer.extend_from_slice(&crc.to_le_bytes());
    footer.extend_from_slice(&footer_len.to_le_bytes());
    footer.extend_from_slice(SEGMENT_MAGIC);
    Ok(footer)
}

/// The decoded lanes of one row block, filled by [`Segment::read_block`].
/// A lane that has not been loaded is empty (blocks hold at least one
/// row). The merge clears one `Block` and reads into it again for every
/// block, reusing its buffers.
#[derive(Debug, Default)]
pub struct Block {
    cols: [Vec<u64>; ColumnId::ALL.len()],
    /// The encoded chunks of the last run of neighbouring columns read,
    /// back to back, each checked against its CRC; all twelve when the
    /// block was read whole.
    run: Vec<u8>,
}

impl Block {
    /// Unloads every lane, keeping the buffers for the next read.
    pub(crate) fn clear(&mut self) {
        self.cols.iter_mut().for_each(Vec::clear);
        self.run.clear();
    }

    /// Decodes every lane not loaded yet from the chunks held in `run`,
    /// which must be the whole of block `input`, already CRC-checked.
    fn decode_held(&mut self, input: &BlockMeta) -> Result<(), SegmentError> {
        let mut start = 0;
        for (id, chunk) in ColumnId::ALL.into_iter().zip(&input.chunks) {
            let end = start + chunk.len as usize;
            let lane = &mut self.cols[id as usize];
            if lane.is_empty() {
                let bytes = self
                    .run
                    .get(start..end)
                    .ok_or_else(|| corrupt("block not held whole"))?;
                id.decode(bytes, input.rows as usize, lane)?;
            }
            start = end;
        }
        Ok(())
    }

    /// Makes room to load the `lanes` of a block of `rows` rows and
    /// `bytes` encoded bytes without growing a buffer.
    pub(crate) fn reserve(&mut self, lanes: &ColumnSet, rows: usize, bytes: usize) {
        for (lane, _) in self.cols.iter_mut().zip(lanes).filter(|(_, &want)| want) {
            lane.reserve(rows.saturating_sub(lane.len()));
        }
        self.run.reserve(bytes.saturating_sub(self.run.len()));
    }

    /// The decoded values of one column; empty if not loaded.
    pub fn col(&self, id: ColumnId) -> &[u64] {
        &self.cols[id as usize]
    }

    /// Rows resident in decoded form (the longest loaded lane).
    pub fn rows(&self) -> usize {
        self.cols.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Materializes row `i`; every record column must be loaded.
    pub fn record(&self, i: usize) -> CompactRecord {
        let v = |id: ColumnId| self.cols[id as usize][i];
        CompactRecord {
            timestamp_ns: v(ColumnId::Ts),
            trace_id: v(ColumnId::TraceId) as u32,
            pkt_len: v(ColumnId::PktLen) as u32,
            saddr: v(ColumnId::Saddr) as u32,
            daddr: v(ColumnId::Daddr) as u32,
            sport: v(ColumnId::Sport) as u16,
            dport: v(ColumnId::Dport) as u16,
            cpu: v(ColumnId::Cpu) as u16,
            direction: v(ColumnId::Direction) as u8,
            flags: v(ColumnId::Flags) as u8,
        }
    }
}

/// An open (read-only) segment: the validated footer plus a file handle
/// for positional chunk reads.
#[derive(Debug)]
pub struct Segment {
    path: PathBuf,
    file: File,
    meta: SegmentMeta,
}

impl Segment {
    /// Opens and validates a segment file: both magics, the footer CRC,
    /// that the chunks tile the data region exactly, and that the block
    /// row counts and ranges agree with the segment's.
    ///
    /// # Errors
    ///
    /// [`SegmentError::UnsupportedVersion`] for another format version,
    /// [`SegmentError::Corrupt`] on any structural violation — never a
    /// panic, because segments are untrusted after a crash.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, SegmentError> {
        let path = path.into();
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let min_len = SEGMENT_MAGIC.len() as u64 + TRAILER_BYTES;
        if file_len < min_len {
            return Err(corrupt(format!("file too short ({file_len} bytes)")));
        }
        let mut head = [0u8; 8];
        file.read_exact(&mut head)?;
        if &head != SEGMENT_MAGIC {
            if head[..6] == SEGMENT_MAGIC[..6] && head[7] == SEGMENT_MAGIC[7] {
                return Err(SegmentError::UnsupportedVersion(head[6]));
            }
            return Err(corrupt("bad header magic"));
        }
        let mut trailer = [0u8; TRAILER_BYTES as usize];
        file.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
        file.read_exact(&mut trailer)?;
        if &trailer[8..16] != SEGMENT_MAGIC {
            return Err(corrupt("bad trailer magic"));
        }
        let mut pos = 0;
        let footer_crc = get_u32_le(&trailer, &mut pos)?;
        let footer_len = u64::from(get_u32_le(&trailer, &mut pos)?);
        let data_end = file_len
            .checked_sub(TRAILER_BYTES + footer_len)
            .ok_or_else(|| corrupt("footer length exceeds file"))?;
        if data_end < SEGMENT_MAGIC.len() as u64 {
            return Err(corrupt("footer overlaps header"));
        }
        let mut footer = vec![0u8; footer_len as usize];
        file.seek(SeekFrom::Start(data_end))?;
        file.read_exact(&mut footer)?;
        if crc32(&footer) != footer_crc {
            return Err(corrupt("footer CRC mismatch"));
        }
        let meta = parse_footer(&footer, file_len, data_end)?;
        Ok(Segment { path, file, meta })
    }

    /// The segment's footer metadata.
    pub fn meta(&self) -> &SegmentMeta {
        &self.meta
    }

    /// The segment's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads, CRC-checks and decodes block `block`'s chunks for every
    /// column in `want` that `into` does not hold yet (so a second call
    /// with a wider set loads only the difference).
    /// Wanted columns that are neighbours in [`ColumnId::ALL`] order are
    /// neighbours in the file (the validated footer tiles chunks back to
    /// back), so each such run is one `read_exact_at`; every chunk is
    /// still checked against its own CRC before it is decoded. Returns
    /// the encoded bytes read.
    ///
    /// # Errors
    ///
    /// I/O failure, CRC mismatch, codec error, or a block index outside
    /// the footer index.
    pub fn read_block(
        &self,
        block: usize,
        want: &ColumnSet,
        into: &mut Block,
    ) -> Result<u64, SegmentError> {
        self.read_chunks(block, want, want, into)
    }

    /// Reads block `block` whole (one `read_exact_at`) for a writer that
    /// [may copy](SegmentWriter::may_copy) it. Every chunk is checked
    /// against its CRC in column order, as [`Segment::read_block`] does,
    /// but only `Seq`, `Ts` and `Node` are decoded: the other chunks are
    /// checked with [`codec::check_varint_col`], which accepts and
    /// rejects exactly as their decoders do, so the block fails here
    /// exactly where and how a full read fails. `into` then holds the
    /// twelve verified chunks, for the writer to copy or, should it
    /// re-cut the block after all, to decode the other lanes from.
    ///
    /// # Errors
    ///
    /// As [`Segment::read_block`] over every column.
    pub(crate) fn read_block_to_copy(
        &self,
        block: usize,
        into: &mut Block,
    ) -> Result<(), SegmentError> {
        self.read_chunks(block, &ALL_COLUMNS, &COPY_DECODED, into)
            .map(drop)
    }

    /// Reads the `want` chunks of block `block` that `into` does not hold
    /// yet, checks each against its CRC, and decodes those in `decode`;
    /// any other is only checked to be what its decoder accepts, and its
    /// lane stays unloaded. Returns the encoded bytes read.
    fn read_chunks(
        &self,
        block: usize,
        want: &ColumnSet,
        decode: &ColumnSet,
        into: &mut Block,
    ) -> Result<u64, SegmentError> {
        let meta = self
            .meta
            .blocks
            .get(block)
            .ok_or_else(|| corrupt(format!("no block {block}")))?;
        let load: ColumnSet = std::array::from_fn(|c| want[c] && into.cols[c].is_empty());
        let mut bytes_read = 0;
        let Block {
            cols,
            run: run_bytes,
        } = into;
        let runs = ColumnId::ALL.chunk_by(|&a, &b| load[a as usize] == load[b as usize]);
        for run in runs.filter(|run| load[run[0] as usize]) {
            let chunks = &meta.chunks[run[0] as usize..=run[run.len() - 1] as usize];
            let run_len: u64 = chunks.iter().map(|c| c.len).sum();
            run_bytes.resize(run_len as usize, 0);
            self.file.read_exact_at(run_bytes, chunks[0].offset)?;
            let mut rest = run_bytes.as_slice();
            for (&id, chunk_meta) in run.iter().zip(chunks) {
                let (chunk, tail) = rest.split_at(chunk_meta.len as usize);
                if crc32(chunk) != chunk_meta.crc {
                    return Err(corrupt(format!("block {block} column {id:?} CRC mismatch")));
                }
                let lane = &mut cols[id as usize];
                let rows = meta.rows as usize;
                if !decode[id as usize] {
                    codec::check_varint_col(chunk, rows)?;
                } else if let Err(e) = id.decode(chunk, rows, lane) {
                    lane.clear();
                    return Err(e.into());
                }
                bytes_read += chunk_meta.len;
                rest = tail;
            }
        }
        Ok(bytes_read)
    }
}

fn parse_footer(footer: &[u8], file_len: u64, data_end: u64) -> Result<SegmentMeta, SegmentError> {
    let mut pos = 0usize;
    let measurement = get_str(footer, &mut pos)?;
    let node_count = get_uvarint(footer, &mut pos)? as usize;
    if node_count > footer.len() {
        // A dictionary cannot hold more entries than the footer has
        // bytes; rejects absurd counts before the allocation below.
        return Err(corrupt(format!("implausible node count {node_count}")));
    }
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        nodes.push(get_str(footer, &mut pos)?);
    }
    // The node column indexes the dictionary; an empty dictionary with
    // rows present would make every row unresolvable.
    if nodes.is_empty() {
        return Err(corrupt("empty node dictionary"));
    }
    let records = get_uvarint(footer, &mut pos)?;
    let min_ts = get_uvarint(footer, &mut pos)?;
    let max_ts = get_uvarint(footer, &mut pos)?;
    let min_seq = get_uvarint(footer, &mut pos)?;
    let max_seq = get_uvarint(footer, &mut pos)?;
    let block_count = get_uvarint(footer, &mut pos)? as usize;
    if block_count == 0 || block_count > footer.len() {
        return Err(corrupt(format!("implausible block count {block_count}")));
    }
    let mut blocks = Vec::with_capacity(block_count);
    let mut offset = SEGMENT_MAGIC.len() as u64;
    let mut rows_sum = 0u64;
    for b in 0..block_count {
        let rows = get_uvarint(footer, &mut pos)?;
        let mut block = BlockMeta {
            rows,
            min_ts: get_uvarint(footer, &mut pos)?,
            max_ts: get_uvarint(footer, &mut pos)?,
            min_seq: get_uvarint(footer, &mut pos)?,
            max_seq: get_uvarint(footer, &mut pos)?,
            chunks: Default::default(),
        };
        if block.min_ts > block.max_ts || block.min_seq > block.max_seq {
            return Err(corrupt(format!(
                "block {b}: inverted time or sequence range"
            )));
        }
        for chunk in &mut block.chunks {
            let len = get_uvarint(footer, &mut pos)?;
            let crc = get_u32_le(footer, &mut pos)?;
            // Both codecs spend at least one byte per value, so this
            // also bounds the decode allocation by the file size.
            if rows == 0 || rows > len {
                return Err(corrupt(format!("block {b}: {rows} rows in {len} bytes")));
            }
            *chunk = ChunkMeta { offset, len, crc };
            offset = offset
                .checked_add(len)
                .filter(|&end| end <= data_end)
                .ok_or_else(|| corrupt(format!("block {b}: chunk outside data region")))?;
        }
        rows_sum = rows_sum
            .checked_add(rows)
            .ok_or_else(|| corrupt("row count overflows"))?;
        blocks.push(block);
    }
    if pos != footer.len() {
        return Err(corrupt("trailing bytes in footer"));
    }
    if offset != data_end {
        return Err(corrupt("chunks do not tile the data region"));
    }
    if rows_sum != records {
        return Err(corrupt(format!(
            "blocks hold {rows_sum} rows, segment declares {records}"
        )));
    }
    if ranges(&blocks) != [min_ts, max_ts, min_seq, max_seq] {
        return Err(corrupt("block ranges disagree with the segment's"));
    }
    Ok(SegmentMeta {
        measurement,
        nodes,
        records,
        min_ts,
        max_ts,
        min_seq,
        max_seq,
        blocks,
        file_bytes: file_len,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn rec(ts: u64, trace_id: u32) -> CompactRecord {
        CompactRecord {
            timestamp_ns: ts,
            trace_id,
            pkt_len: 60,
            sport: 1000,
            dport: 2000,
            flags: 1,
            ..Default::default()
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vnt_seg_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    /// Writes `rows`, numbered on from `first_seq`, as a segment of
    /// `measurement` under the dictionary `nodes`, as a seal does.
    pub(crate) fn write_rows(
        path: impl Into<PathBuf>,
        measurement: &str,
        nodes: &[&str],
        first_seq: u64,
        rows: &[(u32, CompactRecord)],
    ) -> Result<SegmentMeta, SegmentError> {
        let nodes: Vec<String> = nodes.iter().map(|&n| n.to_owned()).collect();
        let mut w = SegmentWriter::create(path)?;
        let mut block = EncodedBlock::default();
        for (piece, seq) in rows
            .chunks(BLOCK_ROWS)
            .zip((first_seq..).step_by(BLOCK_ROWS))
        {
            block.encode_rows(seq, piece);
            w.append_encoded(&block)?;
        }
        w.finish(measurement, &nodes, false)
    }

    /// Applies `patch` to the bytes of chunk `id` of block `block` of the
    /// segment at `path`, in place, and rewrites the footer with that
    /// chunk's CRC recomputed: only the codec then stands between the
    /// patched chunk and a reader.
    pub(crate) fn patch_chunk(
        path: &Path,
        block: usize,
        id: ColumnId,
        patch: impl FnOnce(&mut [u8]),
    ) {
        let mut meta = Segment::open(path).unwrap().meta().clone();
        let mut bytes = std::fs::read(path).unwrap();
        let chunk = &mut meta.blocks[block].chunks[id as usize];
        let at = chunk.offset as usize..(chunk.offset + chunk.len) as usize;
        patch(&mut bytes[at.clone()]);
        chunk.crc = crc32(&bytes[at]);
        let last = &meta.blocks[meta.blocks.len() - 1].chunks[ColumnId::ALL.len() - 1];
        bytes.truncate((last.offset + last.len) as usize);
        bytes.extend(footer_and_trailer(&meta).unwrap());
        std::fs::write(path, bytes).unwrap();
    }

    /// `n` rows numbered from 0 (row `i` holds sequence number `i`).
    fn sample_rows(n: u64) -> Vec<(u32, CompactRecord)> {
        (0..n)
            .map(|i| ((i % 2) as u32, rec(1_000 + i * 37, i as u32)))
            .collect()
    }

    #[test]
    fn write_open_read_round_trip_across_blocks() {
        let path = tmp("round_trip");
        let n = 2 * BLOCK_ROWS as u64 + 500;
        let rows = sample_rows(n);
        let meta = write_rows(&path, "tp_a", &["n0", "n1"], 0, &rows).unwrap();
        assert_eq!(meta.records, n);
        assert_eq!(meta.min_ts, 1_000);
        assert_eq!(meta.max_ts, 1_000 + (n - 1) * 37);
        assert_eq!((meta.min_seq, meta.max_seq), (0, n - 1));
        assert_eq!(meta.file_bytes, std::fs::metadata(&path).unwrap().len());
        let block_rows: Vec<u64> = meta.blocks.iter().map(|b| b.rows).collect();
        assert_eq!(block_rows, [BLOCK_ROWS as u64, BLOCK_ROWS as u64, 500]);
        assert_eq!(meta.blocks[1].min_seq, BLOCK_ROWS as u64);
        assert_eq!(meta.blocks[1].min_ts, 1_000 + BLOCK_ROWS as u64 * 37);

        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.meta(), &meta);
        let mut at = 0usize;
        for (b, bm) in meta.blocks.iter().enumerate() {
            let mut blk = Block::default();
            // A narrow load reads only what was asked; widening it reads
            // only the difference.
            let mut only_ts = [false; ColumnId::ALL.len()];
            only_ts[ColumnId::Ts as usize] = true;
            let first = seg.read_block(b, &only_ts, &mut blk).unwrap();
            assert_eq!(first, bm.chunks[ColumnId::Ts as usize].len);
            assert!(blk.col(ColumnId::Seq).is_empty());
            let rest = seg.read_block(b, &ALL_COLUMNS, &mut blk).unwrap();
            assert_eq!(first + rest, bm.encoded_bytes());
            assert_eq!(blk.rows() as u64, bm.rows);
            for i in 0..blk.rows() {
                let (node, r) = &rows[at + i];
                assert_eq!(blk.col(ColumnId::Seq)[i], (at + i) as u64);
                assert_eq!(blk.col(ColumnId::Node)[i], u64::from(*node));
                assert_eq!(blk.record(i), *r);
            }
            at += blk.rows();
        }
        assert_eq!(at as u64, n);
        assert!(seg
            .read_block(meta.blocks.len(), &ALL_COLUMNS, &mut Block::default())
            .is_err());
        // Columnar encoding beats the 32 B/record raw form by a wide
        // margin on this regular data.
        assert!(meta.file_bytes < n * 32 / 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_footer_rejected_without_panic() {
        let path = tmp("corrupt");
        let rows = sample_rows(64);
        write_rows(&path, "m", &["n"], 0, &rows).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip every byte of the footer + trailer region, one at a time:
        // each corruption must yield Err, never a panic or silent accept.
        let tail_start = clean.len().saturating_sub(96);
        for i in tail_start..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0xff;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                Segment::open(&path).is_err(),
                "byte {i} flip must be detected"
            );
        }
        // Truncations anywhere must also fail cleanly.
        for keep in [0, 7, 8, 20, clean.len() - 1] {
            std::fs::write(&path, &clean[..keep]).unwrap();
            assert!(Segment::open(&path).is_err(), "truncation to {keep}");
        }
        // And a flipped chunk byte is caught at read time by its CRC.
        let mut bad = clean.clone();
        bad[10] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let seg = Segment::open(&path).expect("footer is intact");
        assert!(seg
            .read_block(0, &ALL_COLUMNS, &mut Block::default())
            .is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn previous_format_version_is_a_typed_error() {
        let path = tmp("v1");
        write_rows(&path, "m", &["n"], 0, &sample_rows(8)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let end = bytes.len();
        bytes[..8].copy_from_slice(b"VNTSEG1\n");
        bytes[end - 8..].copy_from_slice(b"VNTSEG1\n");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Segment::open(&path),
            Err(SegmentError::UnsupportedVersion(b'1'))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_segments_are_refused() {
        let path = tmp("empty");
        let err = write_rows(&path, "m", &["n"], 0, &[]).unwrap_err();
        assert!(matches!(err, SegmentError::Corrupt(_)));
        let _ = std::fs::remove_file(&path);
    }

    /// An encoded block goes only where the writer would have cut one:
    /// after full blocks, never after an open block or a ragged one,
    /// whose rows it would put out of order or leave a short block
    /// inside the segment.
    #[test]
    fn an_encoded_block_follows_only_full_blocks() {
        let path = tmp("encoded");
        let rows = sample_rows(BLOCK_ROWS as u64 + 10);
        let mut block = EncodedBlock::default();
        block.encode_rows(0, &rows[..BLOCK_ROWS]);
        let mut w = SegmentWriter::create(&path).unwrap();
        w.append_encoded(&block).unwrap();
        w.append_encoded(&block).unwrap();
        w.append(&vec![vec![1u64]; ColumnId::ALL.len()]).unwrap();
        assert!(w.append_encoded(&block).is_err(), "after an open block");
        let mut w = SegmentWriter::create(&path).unwrap();
        block.encode_rows(0, &rows[BLOCK_ROWS..]);
        w.append_encoded(&block).unwrap();
        assert!(w.append_encoded(&block).is_err(), "after a ragged block");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_rejects_missing_and_ragged_lanes() {
        let path = tmp("lanes");
        let mut w = SegmentWriter::create(&path).unwrap();
        assert!(w.append(&[vec![1], vec![2]]).is_err(), "twelve lanes");
        let mut lanes = vec![vec![1u64, 2]; ColumnId::ALL.len()];
        lanes[3].pop();
        assert!(w.append(&lanes).is_err(), "ragged lane");
        let _ = std::fs::remove_file(&path);
    }
}
