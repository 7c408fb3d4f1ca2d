//! Background compaction: merging small time-adjacent segments, one
//! deterministic round at a time.
//!
//! Sealing produces one segment per measurement per seal, so a long
//! trace run accumulates many small files, each ending in a short
//! ragged block; queries then pay one footer and one partial block per
//! segment. The compactor merges runs of seq-adjacent segments of one
//! measurement into a single larger file, re-cutting the rows into full
//! blocks and unioning the node dictionaries.
//!
//! ## Rounds
//!
//! Merges run on a worker thread, off the record path, but *when* they
//! are planned and committed is a function of the input alone: both
//! happen only at the store's seal points (see [`crate::store`]).
//!
//! * **Planned** right after a seal, against the manifest that seal
//!   committed: every eligible disjoint window of every measurement
//!   (`plan_windows`), in measurement-name then sequence order, output
//!   file ids handed out in that order. The whole list is one *round*,
//!   given to one worker ([`Compactor::start`]) that runs
//!   [`merge_segments`] over it while ingest continues.
//! * **Joined and committed** at the next seal point, before it seals
//!   ([`Compactor::finish`]): the store blocks until the worker is done
//!   and commits the outputs one manifest swap each, in plan order. No
//!   commit ever depends on how far the worker happened to get, so two
//!   runs over the same batches leave byte-identical directories.
//! * `flush` joins and commits but starts no round, so a flushed
//!   directory is quiescent; `compact_now` repeats start → finish until
//!   the plan comes back empty.
//!
//! ## Which windows
//!
//! A window is `compact_fanin` seq-adjacent segments of one measurement
//! that together hold at most `compact_max_rows` rows and whose **oldest
//! segment holds no more rows than the rest of the window together**.
//! The oldest is the one to compare because a merge's output takes its
//! place: seal outputs of one table are of similar size and merge as
//! they come, while a merged segment sits oldest in the windows after
//! it and waits until newer segments hold as many rows as it does. So a
//! row is rewritten only when its segment at least doubles, or when an
//! older segment is merged in front of it: at most `log2(T / s) + k`
//! times for a row sealed into `s` rows behind `k` older segments of a
//! `T`-row table. At fan-in 2 a strictly shrinking run of segments never
//! merges (each is larger than the next), so there the segment count is
//! bounded only by the length of that run.
//! `tests::rounds_rewrite_each_row_a_logarithmic_number_of_times` derives
//! the bounds and checks them over a round simulator.
//!
//! ## Invariants
//!
//! * Input segments are immutable and stay readable until the merged
//!   output is **committed** by a manifest swap — readers see the inputs
//!   for as long as a round is in flight, and a crash mid-round leaves
//!   only unreferenced `*.tmp` files (or a renamed, unreferenced output),
//!   garbage-collected at the next open, where the old segments win and
//!   the next seal plans the uncommitted windows again.
//! * Inputs for one job cover disjoint, adjacent sequence ranges of one
//!   measurement, and the jobs of a round share no input; the merge is a
//!   concatenation in `min_seq` order, so row order (and therefore query
//!   results) is unchanged.
//! * One failing job fails neither the round's other jobs nor their
//!   commits: its inputs stay referenced, its temporary file is removed,
//!   and its error is returned by the seal point that joined the round.
//!   A commit whose manifest swap fails changes nothing in memory: its
//!   inputs stay live and its renamed output waits, unreferenced, for
//!   the next open to collect it.
//! * The merge streams block by block through the same reader queries
//!   use: one input block and the writer's one open output block are
//!   resident, whatever the size of the inputs or the output.
//! * Every input block is read once, and every chunk of it CRC-checked
//!   and checked canonical in full; every node index is checked against
//!   its dictionary and mapped into the union. A block is decoded only
//!   where the decoded values are used. One that may be copied (it is
//!   full and the output has no open block) has only `Seq`, `Ts` and
//!   `Node` decoded, for its index entry and the mapping; its other
//!   chunks go through `codec::check_varint_col`, which accepts and
//!   rejects exactly as their decoders do, with the same error. If the
//!   mapping changed none of its node indices, the writer writes the
//!   chunks that read verified, with their CRCs
//!   (`SegmentWriter::append_block`, which alone decides); otherwise it
//!   decodes the other lanes from the chunks already read and re-cuts
//!   the block. Re-encoding a copied block would write the same bytes,
//!   since the decoders accept only canonical chunks, so the output does
//!   not depend on which blocks were copied. Every other block is read
//!   and decoded in full and re-cut.

use std::ops::Range;
use std::path::PathBuf;
use std::thread;

use crate::segment::{
    dict_index, Block, Segment, SegmentError, SegmentMeta, SegmentWriter, ALL_COLUMNS,
};

/// One measurement's windows for a round: `rows[i]` is the row count of
/// its `i`-th segment in sequence order, and each window is a run of
/// `fanin` (at least 2) adjacent positions holding at most `max_rows`
/// rows, whose oldest segment holds no more rows than the rest of the
/// run. Scans oldest first; a window that qualifies is taken whole and
/// the scan goes on past it, one that does not moves the scan one
/// segment on.
pub(crate) fn plan_windows(rows: &[u64], fanin: usize, max_rows: u64) -> Vec<Range<usize>> {
    let fanin = fanin.max(2);
    let mut windows = Vec::new();
    let mut at = 0;
    while at + fanin <= rows.len() {
        let window = at..at + fanin;
        let total: u64 = rows[window.clone()].iter().sum();
        if total <= max_rows && rows[at] <= total - rows[at] {
            windows.push(window);
            at += fanin;
        } else {
            at += 1;
        }
    }
    windows
}

/// One planned merge: which files go in, where the output goes.
#[derive(Debug, Clone)]
pub struct CompactionJob {
    /// The measurement being compacted.
    pub measurement: String,
    /// Input segment file names (manifest-relative), in `min_seq` order.
    pub input_files: Vec<String>,
    /// Absolute input paths, parallel to `input_files`.
    pub inputs: Vec<PathBuf>,
    /// Output file name the segment will commit as.
    pub output_file: String,
    /// Absolute path of the temporary output (`<output_file>.tmp`).
    pub output_tmp: PathBuf,
    /// Whether to fsync the output before reporting completion.
    pub fsync: bool,
}

/// A finished merge, ready to commit (or to discard on error).
#[derive(Debug)]
pub struct FinishedCompaction {
    /// The job that ran.
    pub job: CompactionJob,
    /// The merged segment's metadata, or the failure.
    pub result: Result<SegmentMeta, SegmentError>,
}

/// Merges `job.inputs` into `job.output_tmp`, block by block.
///
/// # Errors
///
/// Any [`SegmentError`] from reading inputs or writing the output; on
/// error the temporary file is removed.
pub fn merge_segments(job: &CompactionJob) -> Result<SegmentMeta, SegmentError> {
    let run = || -> Result<SegmentMeta, SegmentError> {
        let inputs: Vec<Segment> = job
            .inputs
            .iter()
            .map(Segment::open)
            .collect::<Result<_, _>>()?;
        if inputs.is_empty() {
            return Err(SegmentError::Corrupt("merge of zero segments".into()));
        }
        for pair in inputs.windows(2) {
            if pair[0].meta().max_seq >= pair[1].meta().min_seq {
                return Err(SegmentError::Corrupt(
                    "merge inputs out of sequence order".into(),
                ));
            }
        }
        for s in &inputs {
            if s.meta().measurement != job.measurement {
                return Err(SegmentError::Corrupt(format!(
                    "segment {} belongs to measurement {}, job wants {}",
                    s.path().display(),
                    s.meta().measurement,
                    job.measurement
                )));
            }
        }
        // Union the node dictionaries (first-seen order across inputs)
        // and build one index-remap table per input.
        let mut nodes: Vec<String> = Vec::new();
        let mut remaps: Vec<Vec<u64>> = Vec::with_capacity(inputs.len());
        for s in &inputs {
            let remap = s
                .meta()
                .nodes
                .iter()
                .map(|name| u64::from(dict_index(&mut nodes, name)))
                .collect();
            remaps.push(remap);
        }
        let mut w = SegmentWriter::create(&job.output_tmp)?;
        let mut blk = Block::default();
        for (s, remap) in inputs.iter().zip(&remaps) {
            for (b, input) in s.meta().blocks.iter().enumerate() {
                blk.clear();
                if w.may_copy(input) {
                    s.read_block_to_copy(b, &mut blk)?;
                } else {
                    s.read_block(b, &ALL_COLUMNS, &mut blk)?;
                }
                w.append_block(&mut blk, input, remap)?;
            }
        }
        w.finish(&job.measurement, &nodes, job.fsync)
    };
    let result = run();
    if result.is_err() {
        let _ = std::fs::remove_file(&job.output_tmp);
    }
    result
}

/// The jobs of a round and the worker running them.
type Round = (
    Vec<CompactionJob>,
    thread::JoinHandle<Vec<Result<SegmentMeta, SegmentError>>>,
);

/// Runs one round of merges at a time on a worker thread; the default
/// has no round in flight.
#[derive(Debug, Default)]
pub struct Compactor {
    round: Option<Round>,
}

impl Compactor {
    /// Starts a round: one worker runs `jobs` in order. The jobs touch
    /// only immutable input files and their own temporary outputs, so
    /// the store keeps serving reads and ingest concurrently. The store
    /// [finishes](Self::finish) a round before it starts the next.
    ///
    /// # Errors
    ///
    /// The I/O error if the thread cannot be started; no job has run.
    pub fn start(&mut self, jobs: Vec<CompactionJob>) -> std::io::Result<()> {
        debug_assert!(self.round.is_none(), "the previous round was not joined");
        let worker_jobs = jobs.clone();
        let handle = thread::Builder::new()
            .name("vnt-compact".into())
            .spawn(move || worker_jobs.iter().map(merge_segments).collect())?;
        self.round = Some((jobs, handle));
        Ok(())
    }

    /// Blocks until the round in flight is done and returns its merges
    /// in plan order, each ready to commit or failed on its own; empty
    /// when no round is in flight.
    pub fn finish(&mut self) -> Vec<FinishedCompaction> {
        let Some((jobs, handle)) = self.round.take() else {
            return Vec::new();
        };
        let results = handle.join().unwrap_or_else(|_| {
            for job in &jobs {
                let _ = std::fs::remove_file(&job.output_tmp);
            }
            let panicked = || SegmentError::Corrupt("compaction worker panicked".into());
            jobs.iter().map(|_| Err(panicked())).collect()
        });
        jobs.into_iter()
            .zip(results)
            .map(|(job, result)| FinishedCompaction { job, result })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CompactRecord;
    use crate::segment::tests::write_rows;
    use crate::segment::ColumnId;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::path::Path;

    /// `n` rows of `node` stamped as sequence numbers `base_seq..`.
    fn rows(base_seq: u64, n: u64, node: u32) -> Vec<(u32, CompactRecord)> {
        (0..n)
            .map(|i| {
                (
                    node,
                    CompactRecord {
                        timestamp_ns: (base_seq + i) * 100,
                        trace_id: (base_seq + i) as u32,
                        pkt_len: 60,
                        flags: 1,
                        ..Default::default()
                    },
                )
            })
            .collect()
    }

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vnt_compact_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// One whole column of a segment, block after block.
    fn column(seg: &Segment, id: ColumnId) -> Vec<u64> {
        let mut out = Vec::new();
        for b in 0..seg.meta().blocks.len() {
            let mut blk = Block::default();
            seg.read_block(b, &ALL_COLUMNS, &mut blk).unwrap();
            out.extend_from_slice(blk.col(id));
        }
        out
    }

    fn job_for(d: &Path, inputs: &[&str]) -> CompactionJob {
        CompactionJob {
            measurement: "m".into(),
            input_files: inputs.iter().map(|s| (*s).to_owned()).collect(),
            inputs: inputs.iter().map(|s| d.join(s)).collect(),
            output_file: "out.col".into(),
            output_tmp: d.join("out.col.tmp"),
            fsync: false,
        }
    }

    #[test]
    fn merge_concatenates_and_unions_dictionaries() {
        let d = dir("merge");
        let two_nodes = |base| [rows(base, 50, 0), rows(base + 50, 50, 1)].concat();
        write_rows(d.join("s1.col"), "m", &["a", "b"], 0, &two_nodes(0)).unwrap();
        write_rows(d.join("s2.col"), "m", &["b", "c"], 100, &two_nodes(100)).unwrap();

        let job = job_for(&d, &["s1.col", "s2.col"]);
        let meta = merge_segments(&job).unwrap();
        assert_eq!(meta.records, 200);
        assert_eq!(meta.nodes, vec!["a", "b", "c"]);
        assert_eq!(meta.min_seq, 0);
        assert_eq!(meta.max_seq, 199);

        let merged = Segment::open(&job.output_tmp).unwrap();
        let seqs = column(&merged, ColumnId::Seq);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq order preserved");
        let nodes_col = column(&merged, ColumnId::Node);
        // s2's node 0 was "b", which remaps to merged index 1.
        assert_eq!(nodes_col[100], 1);
        assert_eq!(nodes_col[150], 2);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn merge_recuts_ragged_blocks_into_full_blocks_and_one_tail() {
        use crate::segment::BLOCK_ROWS;
        let d = dir("recut");
        // Five seals' worth of segments that each end mid-block.
        let per_input = BLOCK_ROWS as u64 * 3 / 8;
        let names: Vec<String> = (0..5).map(|i| format!("s{i}.col")).collect();
        for (i, name) in names.iter().enumerate() {
            let input = rows(i as u64 * per_input, per_input, 0);
            let meta = write_rows(d.join(name), "m", &["n"], i as u64 * per_input, &input).unwrap();
            assert_eq!(meta.blocks.len(), 1);
        }
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let job = job_for(&d, &refs);
        let meta = merge_segments(&job).unwrap();
        let total = 5 * per_input;
        let block_rows: Vec<u64> = meta.blocks.iter().map(|b| b.rows).collect();
        assert_eq!(block_rows, [BLOCK_ROWS as u64, total - BLOCK_ROWS as u64]);
        assert_eq!(meta.blocks[1].min_seq, BLOCK_ROWS as u64);
        let merged = Segment::open(&job.output_tmp).unwrap();
        assert_eq!(merged.meta(), &meta);
        assert_eq!(
            column(&merged, ColumnId::Seq),
            (0..total).collect::<Vec<u64>>()
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    /// The merge copies a full block only where re-encoding it would
    /// write the same bytes, so its output is the file a writer fed every
    /// input block's decoded, remapped lanes writes. The inputs give it
    /// every case: aligned full blocks under a dictionary that maps to
    /// itself (copied), full blocks behind a ragged tail, a tail that
    /// realigns the output, full blocks under a reordered dictionary, and
    /// a longer dictionary that still maps to itself.
    #[test]
    fn merge_writes_what_re_encoding_every_block_writes() {
        use crate::segment::BLOCK_ROWS;
        let d = dir("copy");
        let block = BLOCK_ROWS as u64;
        let inputs: [(&[&str], u64); 6] = [
            (&["a", "b"], 2 * block),
            (&["a", "b"], block + 300),
            (&["a", "b"], 2 * block),
            (&["a", "b"], block - 300),
            (&["b", "a"], 2 * block),
            (&["a", "b", "c"], block),
        ];
        let mut names = Vec::new();
        let mut seq = 0;
        for (i, (nodes, n)) in inputs.into_iter().enumerate() {
            let mut input = rows(seq, n, 0);
            for (k, row) in input.iter_mut().enumerate() {
                row.0 = (k % nodes.len()) as u32;
            }
            let name = format!("s{i}.col");
            write_rows(d.join(&name), "m", nodes, seq, &input).unwrap();
            names.push(name);
            seq += n;
        }
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let job = job_for(&d, &refs);
        let meta = merge_segments(&job).unwrap();
        assert_eq!(meta.nodes, ["a", "b", "c"]);

        let oracle = d.join("oracle.col");
        let mut w = SegmentWriter::create(&oracle).unwrap();
        for name in &names {
            let seg = Segment::open(d.join(name)).unwrap();
            let dict = &seg.meta().nodes;
            for b in 0..seg.meta().blocks.len() {
                let mut blk = Block::default();
                seg.read_block(b, &ALL_COLUMNS, &mut blk).unwrap();
                let mut lanes: Vec<Vec<u64>> = ColumnId::ALL.map(|c| blk.col(c).to_vec()).into();
                for v in &mut lanes[ColumnId::Node as usize] {
                    let name = &dict[*v as usize];
                    *v = meta.nodes.iter().position(|n| n == name).unwrap() as u64;
                }
                w.append(&lanes).unwrap();
            }
        }
        assert_eq!(w.finish("m", &meta.nodes, false).unwrap(), meta);
        assert!(std::fs::read(&job.output_tmp).unwrap() == std::fs::read(&oracle).unwrap());
        let _ = std::fs::remove_dir_all(&d);
    }

    /// Two inputs of two full blocks each under the dictionary `["n"]`,
    /// in `d`: every block the merge reads may be copied.
    fn two_aligned_inputs(d: &Path) -> CompactionJob {
        use crate::segment::BLOCK_ROWS;
        let n = 2 * BLOCK_ROWS as u64;
        for (i, base) in [0, n].into_iter().enumerate() {
            write_rows(
                d.join(format!("s{i}.col")),
                "m",
                &["n"],
                base,
                &rows(base, n, 0),
            )
            .unwrap();
        }
        job_for(d, &["s0.col", "s1.col"])
    }

    /// The merge decodes only `Seq`, `Ts` and `Node` of a block it copies
    /// and checks the rest, so a chunk the decoders refuse still fails
    /// the merge, with the error a full read of the block returns. Each
    /// of the nine lanes it does not decode gets a value spelled one byte
    /// too long (a redundant zero byte, inside the chunk's second word),
    /// under a recomputed CRC, in the second block of the second input.
    #[test]
    fn a_copied_block_with_a_non_canonical_chunk_fails_the_merge() {
        use crate::codec::CodecError;
        use crate::segment::tests::patch_chunk;
        for id in &ColumnId::ALL[3..] {
            let d = dir(&format!("noncanonical_{id:?}"));
            let job = two_aligned_inputs(&d);
            patch_chunk(&job.inputs[1], 1, *id, |chunk| {
                chunk[13] |= 0x80;
                chunk[14] = 0;
            });
            let seg = Segment::open(&job.inputs[1]).unwrap();
            let read = seg.read_block(1, &ALL_COLUMNS, &mut Block::default());
            let read = read.expect_err("a full read refuses the chunk");
            assert!(matches!(
                read,
                SegmentError::Codec(CodecError::NonCanonical)
            ));
            let merged = merge_segments(&job).expect_err("the merge refuses the chunk");
            assert_eq!(merged.to_string(), read.to_string(), "{id:?}");
            assert!(!job.output_tmp.exists(), "tmp removed on failure");
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    /// A node index outside its segment's dictionary, under a recomputed
    /// CRC, fails a merge that would copy its block, as it fails one that
    /// decodes every block.
    #[test]
    fn a_copied_block_with_a_node_outside_the_dictionary_fails_the_merge() {
        use crate::segment::tests::patch_chunk;
        let d = dir("node_outside");
        let job = two_aligned_inputs(&d);
        patch_chunk(&job.inputs[1], 1, ColumnId::Node, |chunk| chunk[13] = 1);
        let err = merge_segments(&job).expect_err("index 1 of a one-name dictionary");
        assert!(
            matches!(&err, SegmentError::Corrupt(m) if m == "node index outside dictionary"),
            "{err}"
        );
        assert!(!job.output_tmp.exists(), "tmp removed on failure");
        let _ = std::fs::remove_dir_all(&d);
    }

    /// A full block behind an empty writer is read to be copied, with
    /// only `Seq`, `Ts` and `Node` decoded; when its remap then changes
    /// an index the writer re-cuts it after all, decoding the other
    /// lanes from the chunks the read holds. The output's CRC-32 is the
    /// one the merge wrote when it decoded every block in full.
    #[test]
    fn a_block_whose_remap_changes_an_index_is_re_cut_from_its_chunks() {
        use crate::codec::crc32;
        use crate::segment::BLOCK_ROWS;
        let d = dir("remap_recut");
        let block = BLOCK_ROWS as u64;
        let mut input = rows(block, block, 0);
        for (k, row) in input.iter_mut().enumerate() {
            row.0 = (k % 2) as u32;
        }
        write_rows(d.join("s0.col"), "m", &["a"], 0, &rows(0, block, 0)).unwrap();
        write_rows(d.join("s1.col"), "m", &["b", "a"], block, &input).unwrap();
        let job = job_for(&d, &["s0.col", "s1.col"]);

        let seg = Segment::open(&job.inputs[1]).unwrap();
        let mut blk = Block::default();
        seg.read_block_to_copy(0, &mut blk).unwrap();
        assert_eq!(blk.col(ColumnId::Node).len(), BLOCK_ROWS);
        assert!(
            blk.col(ColumnId::PktLen).is_empty(),
            "only three lanes decoded"
        );

        let meta = merge_segments(&job).unwrap();
        assert_eq!(meta.nodes, ["a", "b"]);
        assert_eq!(meta.blocks.len(), 2);
        let merged = std::fs::read(&job.output_tmp).unwrap();
        assert_eq!(crc32(&merged), 0xf76b_d029);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn merge_rejects_disorder_and_cleans_up_tmp() {
        let d = dir("disorder");
        write_rows(d.join("s1.col"), "m", &["a"], 100, &rows(100, 10, 0)).unwrap();
        write_rows(d.join("s2.col"), "m", &["a"], 0, &rows(0, 10, 0)).unwrap();
        let job = job_for(&d, &["s1.col", "s2.col"]);
        assert!(merge_segments(&job).is_err());
        assert!(!job.output_tmp.exists(), "tmp removed on failure");
        let _ = std::fs::remove_dir_all(&d);
    }

    /// `merge_segments` is the reference: a round's outputs are the bytes
    /// a direct call on each job writes, reported in plan order, and a
    /// job that fails leaves the others' outputs and no file of its own.
    #[test]
    fn round_outputs_match_merging_each_job_directly() {
        let d = dir("round");
        for (i, base) in [0u64, 1000, 2000, 3000, 4000].iter().enumerate() {
            let path = d.join(format!("s{i}.col"));
            write_rows(path, "m", &["n"], *base, &rows(*base, 100, 0)).unwrap();
        }
        let named = |out: &str, inputs: &[&str]| CompactionJob {
            output_file: out.into(),
            output_tmp: d.join(format!("{out}.tmp")),
            ..job_for(&d, inputs)
        };
        let jobs = vec![
            named("r0.col", &["s0.col", "s1.col", "s2.col"]),
            named("r1.col", &["s4.col", "s3.col"]), // out of order: fails
            named("r2.col", &["s3.col", "s4.col"]),
        ];
        let mut c = Compactor::default();
        assert!(c.finish().is_empty(), "no round in flight");
        c.start(jobs.clone()).unwrap();
        let finished = c.finish();
        assert!(c.finish().is_empty(), "the round was taken");
        let outputs: Vec<&str> = finished
            .iter()
            .map(|f| f.job.output_file.as_str())
            .collect();
        assert_eq!(outputs, ["r0.col", "r1.col", "r2.col"], "plan order");
        assert!(finished[1].result.is_err());
        assert!(!jobs[1].output_tmp.exists(), "tmp removed on failure");
        for (f, job) in [(&finished[0], &jobs[0]), (&finished[2], &jobs[2])] {
            let direct = CompactionJob {
                output_tmp: d.join("direct.tmp"),
                ..job.clone()
            };
            assert_eq!(
                f.result.as_ref().unwrap(),
                &merge_segments(&direct).unwrap()
            );
            assert_eq!(
                std::fs::read(&job.output_tmp).unwrap(),
                std::fs::read(&direct.output_tmp).unwrap()
            );
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn a_window_waits_until_the_rest_holds_as_many_rows_as_its_oldest() {
        let any = u64::MAX;
        // Seal outputs of one size merge as they come.
        assert_eq!(plan_windows(&[100; 9], 4, any), [0..4, 4..8]);
        // A merged segment waits for newer ones to catch up with it ...
        assert!(plan_windows(&[400, 100, 100, 100], 4, any).is_empty());
        assert_eq!(plan_windows(&[400, 100, 100, 100, 100], 4, any), vec![1..5]);
        // ... and joins them once they hold as many rows as it does.
        assert_eq!(plan_windows(&[300, 100, 100, 100], 4, any), vec![0..4]);
        assert_eq!(plan_windows(&[400, 400, 100, 100], 4, any), vec![0..4]);
        // The row cap still applies, and a fan-in below 2 means 2.
        assert!(plan_windows(&[100; 4], 4, 399).is_empty());
        assert_eq!(plan_windows(&[1, 1, 1], 0, any), vec![0..2]);
    }

    /// One table's rounds over row counts, as the store runs them: each
    /// seal point commits the windows planned at the one before, seals,
    /// and plans against what it has committed.
    #[derive(Default)]
    struct Rounds {
        fanin: usize,
        /// Live segments, oldest first: rows, and the seals they hold.
        segments: Vec<(u64, Range<usize>)>,
        planned: Vec<Range<usize>>,
        /// Per seal: its rows, how many segments were older than it when
        /// it was sealed, and how many times its rows were rewritten.
        seals: Vec<(u64, usize, usize)>,
        /// The most segments a plan that found no window has seen.
        most_stuck: usize,
    }

    impl Rounds {
        fn seal(&mut self, rows: u64) {
            self.commit();
            let k = self.seals.len();
            self.seals.push((rows, self.segments.len(), 0));
            self.segments.push((rows, k..k + 1));
            let counts: Vec<u64> = self.segments.iter().map(|s| s.0).collect();
            self.planned = plan_windows(&counts, self.fanin, u64::MAX);
            if self.planned.is_empty() {
                self.most_stuck = self.most_stuck.max(self.segments.len());
            }
        }

        /// Commits the windows in flight, as the next seal point or
        /// `flush` does.
        fn commit(&mut self) {
            for window in std::mem::take(&mut self.planned).into_iter().rev() {
                let at = window.start;
                let merged: Vec<(u64, Range<usize>)> = self.segments.drain(window).collect();
                let seals = merged[0].1.start..merged[merged.len() - 1].1.end;
                for seal in &mut self.seals[seals.clone()] {
                    seal.2 += 1;
                }
                let rows = merged.iter().map(|s| s.0).sum();
                self.segments.insert(at, (rows, seals));
            }
        }
    }

    /// A standard normal draw (Box–Muller).
    fn normal(rng: &mut TestRng) -> f64 {
        let unit = |bits: u64| ((bits >> 11) + 1) as f64 / (1u64 << 53) as f64;
        let (u1, u2) = (unit(rng.next_u64()), unit(rng.next_u64()));
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    const SHAPES: [&str; 7] = [
        "equal",
        "±10 %",
        "alternating 1000/10",
        "lognormal σ=1",
        "lognormal σ=2",
        "growing 1 % a seal",
        "bursty",
    ];

    /// The row counts of `n` seals of one of [`SHAPES`], drawn from `seed`.
    fn seal_rows(shape: usize, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = TestRng::from_seed(seed);
        (0..n)
            .map(|i| match shape {
                0 => 1_000,
                1 => 900 + rng.next_u64() % 201,
                2 => [1_000, 10][i % 2],
                3 | 4 => {
                    let sigma = (shape - 2) as f64;
                    (1_000.0 * (sigma * normal(&mut rng)).exp()).max(1.0) as u64
                }
                5 => (100.0 * 1.01f64.powi(i as i32)) as u64,
                _ if rng.index(20) == 0 => 20_000,
                _ => 50 + rng.next_u64() % 101,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Rounds over the [`SHAPES`] a table's seal outputs take, at
        /// fan-in 2, 3, 4 and 8, planned at a seal and committed at the
        /// next. Two bounds follow from the rule (the oldest segment of a
        /// window holds no more rows than the rest) and hold for every
        /// shape; `T` is the table's rows and `s_min` its smallest seal.
        ///
        /// * **Rewrites per row.** A merge that rewrites a row either has
        ///   the row's segment as its oldest input, so the output holds at
        ///   least twice that segment's rows, or has an older input, whose
        ///   place the output takes, so one fewer segment of the table is
        ///   older than the row. A segment never holds more than `T` rows
        ///   and seals only add newer segments, so a row sealed into `s`
        ///   rows behind `k` older segments is rewritten at most
        ///   `⌊log2(T / s)⌋ + k` times. Merging any `f` adjacent segments
        ///   breaks this on equal seals: at fan-in 4, within 64 seals.
        /// * **Live segments.** A plan that finds a window removes at
        ///   least `f − 1` segments at the next seal point, which adds
        ///   one, so the count grows only past a plan that found none and
        ///   never exceeds one more than the most segments such a plan has
        ///   seen. At fan-in `f ≥ 3`, in a table with no window each of
        ///   the first `n − f + 1` segments holds more rows than the next
        ///   two together; from the newest back, rows then grow at least
        ///   like Fibonacci numbers (`F(m) ≥ 2^((m − 2) / 2)`) while staying
        ///   under `T`, so `n ≤ 2·log2(T / s_min) + f − 1` and a table never
        ///   holds more than `2·log2(T / s_min) + f` segments. At fan-in 2
        ///   a table with no window is merely strictly shrinking, which the
        ///   rule does not bound ([`shrinking_seals_never_merge_at_fan_in_two`]).
        #[test]
        fn rounds_rewrite_each_row_a_logarithmic_number_of_times(
            seals in 1usize..600,
            seed in any::<u64>(),
        ) {
            for (shape, name) in SHAPES.iter().enumerate() {
                let sizes = seal_rows(shape, seals, seed);
                for fanin in [2, 3, 4, 8] {
                    let mut rounds = Rounds { fanin, ..Rounds::default() };
                    let (mut total, mut smallest) = (0u64, u64::MAX);
                    for &rows in &sizes {
                        rounds.seal(rows);
                        total += rows;
                        smallest = smallest.min(rows);
                        let live = rounds.segments.len();
                        prop_assert!(live <= rounds.most_stuck + 1, "{name}, fan-in {fanin}");
                        if fanin >= 3 {
                            let log = (total as f64 / smallest as f64).log2();
                            prop_assert!(
                                live as f64 <= 2.0 * log + fanin as f64,
                                "{name}, fan-in {fanin}: {live} segments over {total} rows"
                            );
                        }
                    }
                    rounds.commit();
                    for (k, &(rows, older, rewrites)) in rounds.seals.iter().enumerate() {
                        let bound = (total / rows).ilog2() as usize + older;
                        prop_assert!(
                            rewrites <= bound,
                            "{name}, fan-in {fanin}: seal {k} rewritten {rewrites} times, bound {bound}"
                        );
                    }
                }
            }
        }
    }

    /// The known limit of the rule at fan-in 2: seals that shrink every
    /// time never merge, because each window's older segment is the
    /// larger. At fan-in 3 the same seals merge, within the bound above.
    #[test]
    fn shrinking_seals_never_merge_at_fan_in_two() {
        let sizes: Vec<u64> = (0..200).map(|i| 1_000 - i).collect();
        let total: u64 = sizes.iter().sum();
        for fanin in [2, 3] {
            let mut rounds = Rounds {
                fanin,
                ..Rounds::default()
            };
            for &rows in &sizes {
                rounds.seal(rows);
            }
            rounds.commit();
            let live = rounds.segments.len();
            if fanin == 2 {
                assert_eq!(live, sizes.len());
            } else {
                assert!(live as f64 <= 2.0 * (total as f64 / 801.0).log2() + 3.0);
            }
        }
    }
}
