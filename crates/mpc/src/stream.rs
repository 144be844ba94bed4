//! Executor-driven ingestion of binary chunk streams.
//!
//! The binary chunk format (`wcc_graph::io`, magic `WCCS`) frames a batch
//! schedule as independently decodable payloads precisely so that a cluster
//! can decode them in parallel: the sequential part of ingestion is only the
//! framing scan ([`wcc_graph::io::read_op_chunk_frames`]), after which each
//! payload is a pure function of its bytes. This module fans that decode out
//! through an [`Executor`] — one work unit per chunk, results reassembled in
//! chunk order, the first malformed chunk (in *chunk index* order, never in
//! completion order) reported as the error. Both properties follow from
//! [`Executor::map_indexed`]'s index-ordered fan-in, so the decode obeys the
//! workspace determinism contract: bit-identical output and error selection
//! for every thread count.

use crate::executor::Executor;

use wcc_graph::io::{decode_op_chunk, read_op_chunk_frames, EdgeOp, IoError};

/// Decodes framed chunk payloads into op batches in parallel, one work unit
/// per chunk, via `exec`. Output order matches frame order; on failure the
/// error for the lowest-indexed malformed chunk is returned regardless of the
/// thread count. `version` is the stream's format version as returned by
/// [`wcc_graph::io::read_op_chunk_frames`]; version-1 payloads decode to
/// all-insert ops.
///
/// # Errors
///
/// Returns the first (by chunk index) [`IoError`] produced by
/// [`decode_op_chunk`].
pub fn decode_op_chunks(
    version: u32,
    frames: &[Vec<u8>],
    exec: &Executor,
) -> Result<Vec<Vec<EdgeOp>>, IoError> {
    exec.map_indexed(frames.len(), |i| decode_op_chunk(version, i, &frames[i]))
        .into_iter()
        .collect()
}

/// Reads a whole binary chunk stream (format version 1 or 2) with
/// parallel per-chunk decode: sequential framing, then [`decode_op_chunks`]
/// through `exec`.
///
/// # Errors
///
/// See [`wcc_graph::io::read_op_chunk_frames`] and [`decode_op_chunks`].
pub fn read_op_chunks_parallel<R: std::io::Read>(
    reader: R,
    exec: &Executor,
) -> Result<Vec<Vec<EdgeOp>>, IoError> {
    let (version, frames) = read_op_chunk_frames(reader)?;
    decode_op_chunks(version, &frames, exec)
}

/// File-path convenience wrapper around [`read_op_chunks_parallel`].
///
/// # Errors
///
/// See [`read_op_chunks_parallel`].
pub fn read_op_chunks_file_parallel(
    path: &std::path::Path,
    exec: &Executor,
) -> Result<Vec<Vec<EdgeOp>>, IoError> {
    read_op_chunks_parallel(
        std::io::BufReader::new(std::fs::File::open(path).map_err(IoError::Io)?),
        exec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcc_graph::io::{
        write_op_chunks, CHUNK_BYTES_PER_OP, CHUNK_FORMAT_VERSION, CHUNK_FORMAT_VERSION_V2,
        CHUNK_MAGIC,
    };

    fn sample_chunks() -> Vec<Vec<(u64, u64)>> {
        (0..20u64)
            .map(|c| (0..(c % 5) * 30).map(|i| (c * 1000 + i, i)).collect())
            .collect()
    }

    /// A version-1 stream (16-byte untagged records) for `chunks`; nothing
    /// writes version 1 any more, the readers still accept it.
    fn v1_stream(chunks: &[Vec<(u64, u64)>]) -> Vec<u8> {
        let mut buf = CHUNK_MAGIC.to_vec();
        buf.extend_from_slice(&CHUNK_FORMAT_VERSION.to_le_bytes());
        for chunk in chunks {
            buf.extend_from_slice(&(16 * chunk.len() as u64).to_le_bytes());
            for &(u, v) in chunk {
                buf.extend_from_slice(&u.to_le_bytes());
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        buf
    }

    #[test]
    fn parallel_op_decode_matches_sequential_for_both_versions() {
        // v2 stream with mixed ops.
        let ops: Vec<Vec<EdgeOp>> = (0..12u64)
            .map(|c| {
                (0..(c % 4) * 10)
                    .map(|i| {
                        if i % 3 == 0 {
                            EdgeOp::delete(c, i)
                        } else {
                            EdgeOp::insert(c * 100 + i, i)
                        }
                    })
                    .collect()
            })
            .collect();
        let mut v2 = Vec::new();
        write_op_chunks(&ops, &mut v2).unwrap();
        // v1 stream: the same reader decodes it to all-insert ops.
        let chunks = sample_chunks();
        let v1 = v1_stream(&chunks);
        let expect: Vec<Vec<EdgeOp>> = chunks.iter().map(|c| EdgeOp::inserts(c)).collect();
        assert_eq!(
            wcc_graph::io::read_op_chunks(std::io::Cursor::new(&v1)).unwrap(),
            expect
        );
        for threads in [1usize, 2, 8] {
            let exec = Executor::threaded(threads);
            let got = read_op_chunks_parallel(std::io::Cursor::new(&v2), &exec).unwrap();
            assert_eq!(got, ops, "threads={threads}");
            let got = read_op_chunks_parallel(std::io::Cursor::new(&v1), &exec).unwrap();
            assert_eq!(got, expect, "threads={threads} (v1 stream)");
        }
    }

    #[test]
    fn decode_error_selection_is_deterministic_across_thread_counts() {
        // v1 frames 3 and 7 are a byte short; the error must always name
        // chunk 3.
        let chunks: Vec<Vec<(u64, u64)>> = (0..10u64)
            .map(|c| (0..4).map(|i| (c, i)).collect())
            .collect();
        let (version, mut frames) =
            read_op_chunk_frames(std::io::Cursor::new(v1_stream(&chunks))).unwrap();
        assert_eq!(version, CHUNK_FORMAT_VERSION);
        frames[3].pop();
        frames[7].pop();
        for threads in [1usize, 2, 8] {
            let exec = Executor::threaded(threads);
            let err = decode_op_chunks(version, &frames, &exec).unwrap_err();
            assert!(
                matches!(err, IoError::Corrupt { chunk: 3, .. }),
                "threads={threads}: got {err}"
            );
        }
    }

    #[test]
    fn op_decode_error_selection_is_deterministic_across_thread_counts() {
        // Build valid v2 frames, then corrupt the op tags of frames 4 and 9.
        let ops: Vec<Vec<EdgeOp>> = (0..12u64)
            .map(|c| (0..5).map(|i| EdgeOp::insert(c, i)).collect())
            .collect();
        let mut buf = Vec::new();
        write_op_chunks(&ops, &mut buf).unwrap();
        let (version, mut frames) = read_op_chunk_frames(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(version, CHUNK_FORMAT_VERSION_V2);
        frames[4][2 * CHUNK_BYTES_PER_OP] = 0xFF;
        frames[9][0] = 0xFF;
        for threads in [1usize, 2, 8] {
            let exec = Executor::threaded(threads);
            let err = decode_op_chunks(version, &frames, &exec).unwrap_err();
            assert!(
                matches!(err, IoError::Corrupt { chunk: 4, .. }),
                "threads={threads}: got {err}"
            );
        }
    }

    #[test]
    fn empty_frame_list_decodes_to_nothing() {
        let exec = Executor::threaded(4);
        for version in [CHUNK_FORMAT_VERSION, CHUNK_FORMAT_VERSION_V2] {
            assert!(decode_op_chunks(version, &[], &exec).unwrap().is_empty());
        }
    }
}
