//! Edge-list serialization: plain text and length-prefixed binary chunks.
//!
//! Two dependency-free interchange formats:
//!
//! **Plain text** — so real graphs (SNAP-style edge lists, exports from
//! other tools) can be fed to the algorithms and experiment inputs can be
//! checked into a repository:
//!
//! * one edge per line: two whitespace-separated vertex ids;
//! * lines starting with `#` or `%` are comments;
//! * vertex ids need not be contiguous — they are remapped to `0..n` on load
//!   (the mapping is returned).
//!
//! **Binary chunks** — the streaming ingestion format: a batch schedule is a
//! sequence of op chunks, each decodable independently (so a simulated
//! cluster can fan the decode out chunk-by-chunk — see
//! `wcc_mpc::stream::decode_op_chunks`). The stream is *turnstile*: every
//! record carries a 1-byte op tag ahead of the endpoints, so a chunk can mix
//! edge insertions and deletions. Everything is little-endian:
//!
//! ```text
//! file   := magic "WCCS" | version=2 u32 | chunk*
//! chunk  := payload_len u64 | payload          (payload_len in bytes)
//! payload:= (op u8 | src u64 | dst u64)*       (payload_len / 17 records)
//! op     := 0 (insert) | 1 (delete)            (anything else is Corrupt)
//! ```
//!
//! **Version 1** is the same framing without the tag byte (16-byte
//! `src u64 | dst u64` records, every one an insertion); nothing writes it,
//! the readers accept it, so archived insert-only schedules keep replaying.
//! There is one reader family ([`read_op_chunk_frames`], [`decode_op_chunk`],
//! [`read_op_chunks`]) and one writer family ([`write_op_chunks`],
//! [`OpChunkWriter`], [`pack_op_list`]).
//!
//! Vertex ids are raw `u64`s (not remapped); a clean EOF is only legal at a
//! chunk boundary. Malformed input — wrong magic, a payload length that is
//! not a multiple of the record size, an op tag outside `{0, 1}`, a stream
//! that ends mid-header or mid-payload — returns an [`IoError`] instead of
//! panicking, and a corrupt header cannot trigger an over-allocation
//! (payloads are read through a bounded reader, never pre-allocated at the
//! advertised length).

use std::io::{BufRead, BufWriter, Read, Write};

use crate::graph::{Graph, GraphBuilder};
use crate::hash::IdMap;

/// Magic bytes opening a binary chunk stream.
pub const CHUNK_MAGIC: [u8; 4] = *b"WCCS";

/// The legacy insert-only format version (no op tag). Decode-only: the
/// readers accept it, no writer emits it.
pub const CHUNK_FORMAT_VERSION: u32 = 1;

/// The format version the writers emit: every record carries a 1-byte op
/// tag. The readers accept versions 1 and 2.
pub const CHUNK_FORMAT_VERSION_V2: u32 = 2;

/// Bytes of one version-1 record: two little-endian `u64` endpoints.
pub const CHUNK_BYTES_PER_EDGE: usize = 16;

/// Bytes of one version-2 record: op tag + two little-endian `u64` endpoints.
pub const CHUNK_BYTES_PER_OP: usize = 17;

/// Version-2 op tag for an edge insertion.
pub const OP_TAG_INSERT: u8 = 0;

/// Version-2 op tag for an edge deletion.
pub const OP_TAG_DELETE: u8 = 1;

/// The kind of a turnstile stream operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Insert one copy of the edge.
    Insert,
    /// Delete one previously inserted copy of the edge.
    Delete,
}

/// One record of a version-2 (turnstile) chunk stream: a signed edge update
/// on raw (un-remapped) vertex ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeOp {
    /// Insert or delete.
    pub kind: OpKind,
    /// First endpoint, raw id.
    pub u: u64,
    /// Second endpoint, raw id.
    pub v: u64,
}

impl EdgeOp {
    /// An insertion of edge `{u, v}`.
    pub fn insert(u: u64, v: u64) -> Self {
        EdgeOp {
            kind: OpKind::Insert,
            u,
            v,
        }
    }

    /// A deletion of edge `{u, v}`.
    pub fn delete(u: u64, v: u64) -> Self {
        EdgeOp {
            kind: OpKind::Delete,
            u,
            v,
        }
    }

    /// The wire tag of this op's kind.
    pub fn tag(&self) -> u8 {
        match self.kind {
            OpKind::Insert => OP_TAG_INSERT,
            OpKind::Delete => OP_TAG_DELETE,
        }
    }

    /// An insert-only batch: one insertion per edge, in order.
    pub fn inserts(edges: &[(u64, u64)]) -> Vec<EdgeOp> {
        edges.iter().map(|&(u, v)| EdgeOp::insert(u, v)).collect()
    }
}

/// Errors returned by the edge-list readers (text and binary).
#[derive(Debug)]
pub enum IoError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A line that is neither a comment nor two integers.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A binary chunk stream that does not start with [`CHUNK_MAGIC`].
    BadMagic,
    /// A binary chunk stream with a version this reader does not understand.
    UnsupportedVersion {
        /// The version found in the stream.
        version: u32,
    },
    /// A binary chunk stream that ended in the middle of the file header, a
    /// chunk header or a chunk payload. Chunk `0` with `expected_bytes == 8`
    /// and no chunks read yet means the *file* header itself was short.
    Truncated {
        /// 0-based index of the chunk being read.
        chunk: usize,
        /// Bytes the current header/payload required.
        expected_bytes: usize,
        /// Bytes actually available.
        got_bytes: usize,
    },
    /// A binary chunk whose header or payload is structurally invalid (e.g.
    /// a payload length that is not a multiple of [`CHUNK_BYTES_PER_EDGE`]).
    Corrupt {
        /// 0-based index of the offending chunk.
        chunk: usize,
        /// Human-readable description of the problem.
        reason: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, content } => {
                write!(f, "could not parse edge on line {line}: {content:?}")
            }
            IoError::BadMagic => write!(f, "not a WCCS binary chunk stream (bad magic)"),
            IoError::UnsupportedVersion { version } => {
                write!(f, "unsupported chunk format version {version}")
            }
            IoError::Truncated {
                chunk,
                expected_bytes,
                got_bytes,
            } => write!(
                f,
                "chunk stream truncated in chunk {chunk}: needed {expected_bytes} bytes, \
                 got {got_bytes}"
            ),
            IoError::Corrupt { chunk, reason } => {
                write!(f, "corrupt chunk {chunk}: {reason}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// The result of loading an edge list: the graph plus the mapping from new
/// vertex ids (`0..n`) back to the ids that appeared in the file.
#[derive(Debug, Clone)]
pub struct LoadedGraph {
    /// The loaded graph on contiguous vertex ids.
    pub graph: Graph,
    /// `original_ids[v]` is the id vertex `v` had in the input.
    pub original_ids: Vec<u64>,
}

/// Reads an edge list from any [`BufRead`] source.
///
/// # Errors
///
/// Returns [`IoError::Parse`] on a malformed line and [`IoError::Io`] on read
/// failures.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<LoadedGraph, IoError> {
    read_edge_list_sized(reader, 0)
}

/// Like [`read_edge_list`] but with a size hint (the input's length in
/// bytes, if known) used to pre-size the interner and the edge list: a data
/// line is at least ~8 bytes ("`u v\n`" with multi-digit ids), so the hint
/// bounds the allocation growth without overshooting much. A hint of `0`
/// means "unknown".
///
/// # Errors
///
/// See [`read_edge_list`].
pub fn read_edge_list_sized<R: BufRead>(
    mut reader: R,
    size_hint_bytes: u64,
) -> Result<LoadedGraph, IoError> {
    // One reusable line buffer: `BufRead::lines()` would allocate a fresh
    // `String` per line, which dominates ingestion on large edge lists.
    let approx_edges = (size_hint_bytes / 8) as usize;
    // Vertex-side structures get a much smaller hint: real edge lists have
    // far fewer distinct vertices than edges, and `original_ids` survives
    // inside the returned `LoadedGraph`, so overshooting there would pin
    // unused capacity for the graph's whole lifetime.
    let approx_vertices = approx_edges / 8;
    let mut id_map: IdMap<u64, usize> =
        IdMap::with_capacity_and_hasher(approx_vertices.min(1 << 22), Default::default());
    let mut original_ids: Vec<u64> = Vec::with_capacity(approx_vertices.min(1 << 22));
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(approx_edges.min(1 << 24));
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |s: Option<&str>| -> Option<u64> { s.and_then(|x| x.parse().ok()) };
        match (parse(parts.next()), parse(parts.next())) {
            (Some(a), Some(b)) => {
                let mut intern = |raw: u64| -> usize {
                    *id_map.entry(raw).or_insert_with(|| {
                        original_ids.push(raw);
                        original_ids.len() - 1
                    })
                };
                let u = intern(a);
                let v = intern(b);
                edges.push((u, v));
            }
            _ => {
                return Err(IoError::Parse {
                    line: lineno,
                    content: trimmed.to_string(),
                })
            }
        }
    }
    let mut builder = GraphBuilder::with_capacity(original_ids.len(), edges.len());
    builder.add_edges(edges).expect("interned ids are in range");
    Ok(LoadedGraph {
        graph: builder.build(),
        original_ids,
    })
}

/// Reads an edge list from a file path, pre-sizing buffers from the file's
/// length.
///
/// # Errors
///
/// See [`read_edge_list`].
pub fn read_edge_list_file(path: &std::path::Path) -> Result<LoadedGraph, IoError> {
    let file = std::fs::File::open(path)?;
    let size = file.metadata().map(|m| m.len()).unwrap_or(0);
    read_edge_list_sized(std::io::BufReader::new(file), size)
}

/// Reads into `buf` until it is full or the reader hits EOF; returns the
/// number of bytes actually read. (Unlike [`Read::read_exact`], a short read
/// reports *how much* arrived, which the chunk reader turns into a precise
/// [`IoError::Truncated`].)
fn read_up_to<R: Read>(reader: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            // Same convention as `Read::read_exact`: a spurious EINTR is not
            // the end of the stream.
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Reads the *framing* of a chunk stream: validates the file header and
/// splits the stream into per-chunk payload byte buffers without decoding any
/// record. Accepts format versions 1 and 2 and returns the version alongside
/// the payloads, so callers can hand each `(version, payload)` pair to
/// [`decode_op_chunk`] — in parallel if they like (this scan is the only
/// sequential part of ingestion; `wcc_mpc::stream` fans the decode out).
///
/// # Errors
///
/// [`IoError::BadMagic`] / [`IoError::UnsupportedVersion`] for a bad file
/// header, [`IoError::Truncated`] when the stream ends mid-header or
/// mid-payload, [`IoError::Corrupt`] for a payload length that is not a whole
/// number of the version's records ([`CHUNK_BYTES_PER_EDGE`] for version 1,
/// [`CHUNK_BYTES_PER_OP`] for version 2), and [`IoError::Io`] for underlying
/// read failures.
pub fn read_op_chunk_frames<R: Read>(mut reader: R) -> Result<(u32, Vec<Vec<u8>>), IoError> {
    let mut header = [0u8; 8];
    let got = read_up_to(&mut reader, &mut header)?;
    if got < header.len() {
        return Err(IoError::Truncated {
            chunk: 0,
            expected_bytes: header.len(),
            got_bytes: got,
        });
    }
    if header[..4] != CHUNK_MAGIC {
        return Err(IoError::BadMagic);
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let record_bytes = match version {
        CHUNK_FORMAT_VERSION => CHUNK_BYTES_PER_EDGE,
        CHUNK_FORMAT_VERSION_V2 => CHUNK_BYTES_PER_OP,
        _ => return Err(IoError::UnsupportedVersion { version }),
    };

    let mut frames: Vec<Vec<u8>> = Vec::new();
    loop {
        let mut len_buf = [0u8; 8];
        let got = read_up_to(&mut reader, &mut len_buf)?;
        if got == 0 {
            break; // clean EOF at a chunk boundary
        }
        if got < len_buf.len() {
            return Err(IoError::Truncated {
                chunk: frames.len(),
                expected_bytes: len_buf.len(),
                got_bytes: got,
            });
        }
        let payload_len = u64::from_le_bytes(len_buf);
        if !payload_len.is_multiple_of(record_bytes as u64) {
            return Err(IoError::Corrupt {
                chunk: frames.len(),
                reason: format!("payload length {payload_len} is not a multiple of {record_bytes}"),
            });
        }
        // Read through a bounded reader instead of pre-allocating
        // `payload_len` bytes: a corrupt header advertising an absurd length
        // then fails with `Truncated` rather than an allocation blow-up.
        let mut payload = Vec::with_capacity((payload_len as usize).min(1 << 20));
        let read = (&mut reader).take(payload_len).read_to_end(&mut payload)?;
        if (read as u64) < payload_len {
            return Err(IoError::Truncated {
                chunk: frames.len(),
                expected_bytes: payload_len as usize,
                got_bytes: read,
            });
        }
        frames.push(payload);
    }
    Ok((version, frames))
}

/// Decodes one chunk payload (as framed by [`read_op_chunk_frames`]) into its
/// op list. Pure function of `(version, bytes)` — safe to fan out over chunks
/// in parallel. A version-2 payload is 17-byte records whose op tag must be
/// [`OP_TAG_INSERT`] or [`OP_TAG_DELETE`]; a version-1 payload is 16-byte
/// untagged records, each decoded as an insertion. `chunk` is the chunk's
/// index, used only for error reporting.
///
/// # Errors
///
/// [`IoError::Corrupt`] if the payload is not a whole number of records, the
/// version is not 1 or 2, or a record carries an unknown op tag.
pub fn decode_op_chunk(version: u32, chunk: usize, payload: &[u8]) -> Result<Vec<EdgeOp>, IoError> {
    match version {
        CHUNK_FORMAT_VERSION => {
            if !payload.len().is_multiple_of(CHUNK_BYTES_PER_EDGE) {
                return Err(IoError::Corrupt {
                    chunk,
                    reason: format!(
                        "payload of {} bytes is not a multiple of {CHUNK_BYTES_PER_EDGE}",
                        payload.len()
                    ),
                });
            }
            let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
            Ok(payload
                .chunks_exact(CHUNK_BYTES_PER_EDGE)
                .map(|bytes| EdgeOp::insert(word(&bytes[..8]), word(&bytes[8..])))
                .collect())
        }
        CHUNK_FORMAT_VERSION_V2 => {
            if !payload.len().is_multiple_of(CHUNK_BYTES_PER_OP) {
                return Err(IoError::Corrupt {
                    chunk,
                    reason: format!(
                        "payload of {} bytes is not a multiple of {CHUNK_BYTES_PER_OP}",
                        payload.len()
                    ),
                });
            }
            let mut ops = Vec::with_capacity(payload.len() / CHUNK_BYTES_PER_OP);
            for (record, bytes) in payload.chunks_exact(CHUNK_BYTES_PER_OP).enumerate() {
                let kind = match bytes[0] {
                    OP_TAG_INSERT => OpKind::Insert,
                    OP_TAG_DELETE => OpKind::Delete,
                    tag => {
                        return Err(IoError::Corrupt {
                            chunk,
                            reason: format!("unknown op tag {tag} in record {record}"),
                        })
                    }
                };
                let u = u64::from_le_bytes(bytes[1..9].try_into().expect("8 bytes"));
                let v = u64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes"));
                ops.push(EdgeOp { kind, u, v });
            }
            Ok(ops)
        }
        other => Err(IoError::Corrupt {
            chunk,
            reason: format!("cannot decode ops for format version {other}"),
        }),
    }
}

/// Writes a sequence of op batches as a binary chunk stream (see the module
/// docs for the exact layout). One chunk per batch; vertex ids are written
/// raw, without remapping.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_op_chunks<W: Write, C: AsRef<[EdgeOp]>>(
    chunks: &[C],
    writer: W,
) -> std::io::Result<()> {
    let mut out = OpChunkWriter::new(writer)?;
    for chunk in chunks {
        out.write_chunk(chunk.as_ref())?;
    }
    out.finish().map(|_| ())
}

/// Writes a binary chunk stream to a file path.
///
/// # Errors
///
/// See [`write_op_chunks`].
pub fn write_op_chunks_file<C: AsRef<[EdgeOp]>>(
    chunks: &[C],
    path: &std::path::Path,
) -> std::io::Result<()> {
    write_op_chunks(chunks, std::fs::File::create(path)?)
}

/// Incremental writer for the binary chunk stream: the file header goes out
/// at construction and each [`OpChunkWriter::write_chunk`] call appends one
/// chunk, so a producer can emit an arbitrarily long schedule without ever
/// materialising it — the streaming `wcc pack` holds one batch of ops at a
/// time regardless of input size. Byte-for-byte identical output to
/// [`write_op_chunks`] fed the same batches.
#[derive(Debug)]
pub struct OpChunkWriter<W: Write> {
    out: BufWriter<W>,
    chunks_written: usize,
    ops_written: u64,
}

impl<W: Write> OpChunkWriter<W> {
    /// Starts a chunk stream: writes the magic + version header.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn new(writer: W) -> std::io::Result<Self> {
        let mut out = BufWriter::new(writer);
        out.write_all(&CHUNK_MAGIC)?;
        out.write_all(&CHUNK_FORMAT_VERSION_V2.to_le_bytes())?;
        Ok(OpChunkWriter {
            out,
            chunks_written: 0,
            ops_written: 0,
        })
    }

    /// Appends one chunk (one batch of raw-id ops, written verbatim).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn write_chunk(&mut self, ops: &[EdgeOp]) -> std::io::Result<()> {
        let payload_len = (ops.len() as u64) * CHUNK_BYTES_PER_OP as u64;
        self.out.write_all(&payload_len.to_le_bytes())?;
        for op in ops {
            self.out.write_all(&[op.tag()])?;
            self.out.write_all(&op.u.to_le_bytes())?;
            self.out.write_all(&op.v.to_le_bytes())?;
        }
        self.chunks_written += 1;
        self.ops_written += ops.len() as u64;
        Ok(())
    }

    /// Chunks appended so far.
    pub fn chunks_written(&self) -> usize {
        self.chunks_written
    }

    /// Ops appended so far.
    pub fn ops_written(&self) -> u64 {
        self.ops_written
    }

    /// Flushes and returns `(chunks, ops)` written.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the final flush.
    pub fn finish(mut self) -> std::io::Result<(usize, u64)> {
        self.out.flush()?;
        Ok((self.chunks_written, self.ops_written))
    }
}

/// What a streaming [`pack_op_list`] run produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackSummary {
    /// Chunks written (one per `batch_size` ops, last one possibly short).
    pub chunks: usize,
    /// Ops written across all chunks.
    pub edges: u64,
}

/// Streams a text edge or op list into the binary chunk format with bounded
/// memory: lines are parsed through one reusable buffer, raw ids pass
/// through verbatim (no interning, no graph build), and at most one
/// `batch_size` batch of ops is resident at a time — packing a 10⁸-edge
/// input holds a few megabytes, not the edge list. The output is
/// byte-identical to materialising the whole op list and calling
/// [`write_op_chunks`] on its `batch_size`-sized chunks. Line grammar (a
/// plain edge list is an all-insert op list):
///
/// * `u v` or `+ u v` — insert edge `{u, v}`;
/// * `- u v` — delete edge `{u, v}`;
/// * `#`/`%` comments and blank lines are skipped.
///
/// # Errors
///
/// [`IoError::Parse`] (with the 1-based line number) on a malformed line,
/// [`IoError::Io`] on read/write failures.
///
/// # Panics
///
/// Panics if `batch_size` is zero.
pub fn pack_op_list<R: BufRead, W: Write>(
    mut reader: R,
    writer: W,
    batch_size: usize,
) -> Result<PackSummary, IoError> {
    assert!(batch_size > 0, "batch_size must be at least 1");
    let mut out = OpChunkWriter::new(writer)?;
    let mut batch: Vec<EdgeOp> = Vec::with_capacity(batch_size.min(1 << 20));
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace().peekable();
        let kind = match parts.peek() {
            Some(&"+") => {
                parts.next();
                OpKind::Insert
            }
            Some(&"-") => {
                parts.next();
                OpKind::Delete
            }
            _ => OpKind::Insert,
        };
        let parse = |s: Option<&str>| -> Option<u64> { s.and_then(|x| x.parse().ok()) };
        match (parse(parts.next()), parse(parts.next())) {
            (Some(u), Some(v)) => {
                batch.push(EdgeOp { kind, u, v });
                if batch.len() == batch_size {
                    out.write_chunk(&batch)?;
                    batch.clear();
                }
            }
            _ => {
                return Err(IoError::Parse {
                    line: lineno,
                    content: trimmed.to_string(),
                })
            }
        }
    }
    if !batch.is_empty() {
        out.write_chunk(&batch)?;
    }
    let (chunks, ops) = out.finish()?;
    Ok(PackSummary { chunks, edges: ops })
}

/// Reads a whole chunk stream sequentially: [`read_op_chunk_frames`] followed
/// by [`decode_op_chunk`] on every frame, in order. Accepts format versions 1
/// (decoded as all-insert ops) and 2. (The parallel variant lives in
/// `wcc_mpc::stream`, which fans the decode out through an `Executor`.)
///
/// # Errors
///
/// See [`read_op_chunk_frames`] and [`decode_op_chunk`].
pub fn read_op_chunks<R: Read>(reader: R) -> Result<Vec<Vec<EdgeOp>>, IoError> {
    let (version, frames) = read_op_chunk_frames(reader)?;
    frames
        .iter()
        .enumerate()
        .map(|(i, frame)| decode_op_chunk(version, i, frame))
        .collect()
}

/// Reads a chunk stream from a file path.
///
/// # Errors
///
/// See [`read_op_chunks`].
pub fn read_op_chunks_file(path: &std::path::Path) -> Result<Vec<Vec<EdgeOp>>, IoError> {
    read_op_chunks(std::io::BufReader::new(std::fs::File::open(path)?))
}

/// Writes a graph as an edge list (one `u v` pair per line, with a comment
/// header).
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> std::io::Result<()> {
    let mut out = BufWriter::new(writer);
    writeln!(
        out,
        "# undirected multigraph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edge_iter() {
        writeln!(out, "{u} {v}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::connected_components;
    use crate::generators;

    #[test]
    fn round_trip_preserves_structure() {
        let g = generators::ring_of_cliques(4, 5);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let loaded = read_edge_list(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(loaded.graph.num_vertices(), g.num_vertices());
        assert_eq!(loaded.graph.num_edges(), g.num_edges());
        assert_eq!(
            connected_components(&loaded.graph).num_components(),
            connected_components(&g).num_components()
        );
    }

    #[test]
    fn comments_blank_lines_and_sparse_ids_are_handled() {
        let text = "# a comment\n\n% another comment\n10 20\n20 30\n  40\t10 \n";
        let loaded = read_edge_list(std::io::Cursor::new(text)).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 4);
        assert_eq!(loaded.graph.num_edges(), 3);
        assert_eq!(loaded.original_ids, vec![10, 20, 30, 40]);
        assert_eq!(connected_components(&loaded.graph).num_components(), 1);
    }

    #[test]
    fn sized_reader_matches_unsized_reader() {
        let g = generators::ring_of_cliques(3, 4);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let plain = read_edge_list(std::io::Cursor::new(buf.clone())).unwrap();
        let sized =
            read_edge_list_sized(std::io::Cursor::new(buf.clone()), buf.len() as u64).unwrap();
        assert_eq!(plain.original_ids, sized.original_ids);
        assert_eq!(plain.graph.num_vertices(), sized.graph.num_vertices());
        assert_eq!(plain.graph.num_edges(), sized.graph.num_edges());
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let text = "1 2\nnot an edge\n";
        let err = read_edge_list(std::io::Cursor::new(text)).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected a parse error, got {other}"),
        }
    }

    #[test]
    fn self_loops_and_duplicates_survive_round_trip() {
        let g = crate::graph::Graph::from_edges_unchecked(3, vec![(0, 0), (0, 1), (0, 1)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let loaded = read_edge_list(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(loaded.graph.num_edges(), 3);
        assert!(loaded.graph.has_self_loops());
    }

    // --- read_edge_list error paths -------------------------------------

    #[test]
    fn empty_input_yields_the_empty_graph() {
        let loaded = read_edge_list(std::io::Cursor::new("")).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 0);
        assert_eq!(loaded.graph.num_edges(), 0);
        assert!(loaded.original_ids.is_empty());
        // Comment-only input is just as empty.
        let loaded = read_edge_list(std::io::Cursor::new("# nothing\n% here\n\n")).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 0);
    }

    #[test]
    fn single_token_lines_are_parse_errors() {
        let err = read_edge_list(std::io::Cursor::new("1 2\n3\n")).unwrap_err();
        match err {
            IoError::Parse { line, content } => {
                assert_eq!(line, 2);
                assert_eq!(content, "3");
            }
            other => panic!("expected a parse error, got {other}"),
        }
    }

    #[test]
    fn overflowing_vertex_ids_are_parse_errors_not_panics() {
        // u64::MAX is 18446744073709551615; one more must fail cleanly.
        let text = "18446744073709551616 1\n";
        let err = read_edge_list(std::io::Cursor::new(text)).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }), "got {err}");
        // u64::MAX itself is accepted and remapped.
        let ok = read_edge_list(std::io::Cursor::new("18446744073709551615 0\n")).unwrap();
        assert_eq!(ok.original_ids, vec![u64::MAX, 0]);
    }

    #[test]
    fn negative_and_non_numeric_ids_are_parse_errors() {
        for bad in ["-1 2\n", "1 -2\n", "a b\n", "1.5 2\n", "0x10 3\n"] {
            let err = read_edge_list(std::io::Cursor::new(bad)).unwrap_err();
            assert!(
                matches!(err, IoError::Parse { line: 1, .. }),
                "input {bad:?} gave {err}"
            );
        }
    }

    #[test]
    fn underlying_read_failures_surface_as_io_errors() {
        struct FailingReader;
        impl std::io::Read for FailingReader {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let err = read_edge_list(std::io::BufReader::new(FailingReader)).unwrap_err();
        assert!(matches!(err, IoError::Io(_)), "got {err}");
    }

    // --- binary chunk format --------------------------------------------

    /// Version-1 bytes for an insert-only schedule. No writer emits version 1
    /// any more (the readers still accept it), so the tests assemble it here.
    fn encode_v1(chunks: &[Vec<(u64, u64)>]) -> Vec<u8> {
        let mut buf = CHUNK_MAGIC.to_vec();
        buf.extend_from_slice(&CHUNK_FORMAT_VERSION.to_le_bytes());
        for chunk in chunks {
            buf.extend_from_slice(&((chunk.len() * CHUNK_BYTES_PER_EDGE) as u64).to_le_bytes());
            for &(u, v) in chunk {
                buf.extend_from_slice(&u.to_le_bytes());
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        buf
    }

    /// One insert-only schedule in both formats, as `(record bytes, stream)`:
    /// the framing checks below must hold for either.
    fn both_versions(chunks: &[Vec<(u64, u64)>]) -> [(usize, Vec<u8>); 2] {
        let ops: Vec<Vec<EdgeOp>> = chunks.iter().map(|c| EdgeOp::inserts(c)).collect();
        let mut v2 = Vec::new();
        write_op_chunks(&ops, &mut v2).unwrap();
        [
            (CHUNK_BYTES_PER_EDGE, encode_v1(chunks)),
            (CHUNK_BYTES_PER_OP, v2),
        ]
    }

    #[test]
    fn op_chunk_round_trip_preserves_batches_exactly() {
        let chunks: Vec<Vec<EdgeOp>> = vec![
            vec![EdgeOp::insert(0, 1), EdgeOp::delete(1, 2)],
            vec![],
            vec![
                EdgeOp::insert(u64::MAX, 0),
                EdgeOp::delete(7, 7),
                EdgeOp::insert(7, 7),
            ],
        ];
        let mut buf = Vec::new();
        write_op_chunks(&chunks, &mut buf).unwrap();
        assert_eq!(buf.len(), 8 + 3 * 8 + 5 * CHUNK_BYTES_PER_OP);
        let back = read_op_chunks(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back, chunks);
    }

    #[test]
    fn empty_chunk_stream_round_trips() {
        let chunks: Vec<Vec<EdgeOp>> = Vec::new();
        let mut buf = Vec::new();
        write_op_chunks(&chunks, &mut buf).unwrap();
        assert_eq!(buf.len(), 8); // header only
        assert_eq!(buf[4..8], CHUNK_FORMAT_VERSION_V2.to_le_bytes());
        assert!(read_op_chunks(std::io::Cursor::new(buf))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn v1_streams_decode_through_the_op_reader_as_inserts() {
        let chunks: Vec<Vec<(u64, u64)>> =
            vec![vec![(1, 2), (3, 4)], vec![], vec![(u64::MAX, 0), (7, 7)]];
        let buf = encode_v1(&chunks);
        assert_eq!(buf.len(), 8 + 3 * 8 + 4 * CHUNK_BYTES_PER_EDGE);
        let (version, frames) = read_op_chunk_frames(std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(version, CHUNK_FORMAT_VERSION);
        assert_eq!(frames.len(), chunks.len());
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(
                decode_op_chunk(version, i, frame).unwrap(),
                EdgeOp::inserts(&chunks[i])
            );
        }
        let expect: Vec<Vec<EdgeOp>> = chunks.iter().map(|c| EdgeOp::inserts(c)).collect();
        assert_eq!(read_op_chunks(std::io::Cursor::new(buf)).unwrap(), expect);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let err =
            read_op_chunks(std::io::Cursor::new(b"NOPE\x01\x00\x00\x00".to_vec())).unwrap_err();
        assert!(matches!(err, IoError::BadMagic), "got {err}");

        for bad in [0u32, 3, 99] {
            let mut versioned = CHUNK_MAGIC.to_vec();
            versioned.extend_from_slice(&bad.to_le_bytes());
            let err = read_op_chunks(std::io::Cursor::new(versioned)).unwrap_err();
            assert!(
                matches!(err, IoError::UnsupportedVersion { version } if version == bad),
                "got {err}"
            );
        }
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let chunks: Vec<Vec<(u64, u64)>> = vec![vec![(1, 2), (3, 4)], vec![(5, 6)]];
        for (record, buf) in both_versions(&chunks) {
            // Every proper prefix that is not a chunk boundary must error; the
            // boundaries themselves (header end, after chunk 0, after chunk 1)
            // are clean EOFs.
            let boundaries = [8, 8 + 8 + 2 * record, buf.len()];
            for cut in 0..buf.len() {
                let result = read_op_chunks(std::io::Cursor::new(buf[..cut].to_vec()));
                if boundaries.contains(&cut) {
                    assert!(
                        result.is_ok(),
                        "record={record}: cut at {cut} should be a clean boundary"
                    );
                } else {
                    assert!(
                        matches!(result, Err(IoError::Truncated { .. })),
                        "record={record}: cut at {cut} should be Truncated"
                    );
                }
            }
        }
    }

    #[test]
    fn non_edge_aligned_payload_length_is_corrupt() {
        let mut buf = CHUNK_MAGIC.to_vec();
        buf.extend_from_slice(&CHUNK_FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&15u64.to_le_bytes()); // not a multiple of 16
        buf.extend_from_slice(&[0u8; 15]);
        let err = read_op_chunks(std::io::Cursor::new(buf)).unwrap_err();
        assert!(
            matches!(err, IoError::Corrupt { chunk: 0, .. }),
            "got {err}"
        );
        // A mis-sized payload handed straight to the decoder also errors.
        assert!(matches!(
            decode_op_chunk(CHUNK_FORMAT_VERSION, 3, &[0u8; 15]),
            Err(IoError::Corrupt { chunk: 3, .. })
        ));
    }

    #[test]
    fn v2_payload_lengths_are_checked_against_the_op_record_size() {
        let mut buf = CHUNK_MAGIC.to_vec();
        buf.extend_from_slice(&CHUNK_FORMAT_VERSION_V2.to_le_bytes());
        buf.extend_from_slice(&16u64.to_le_bytes()); // multiple of 16, not 17
        buf.extend_from_slice(&[0u8; 16]);
        let err = read_op_chunks(std::io::Cursor::new(buf)).unwrap_err();
        assert!(
            matches!(err, IoError::Corrupt { chunk: 0, .. }),
            "got {err}"
        );
    }

    #[test]
    fn absurd_advertised_length_fails_without_allocating_it() {
        for (record, stream) in both_versions(&[]) {
            // Advertise ~2^60 bytes (a whole number of records), supply none.
            let mut buf = stream;
            buf.extend_from_slice(&((record as u64) << 56).to_le_bytes());
            let err = read_op_chunks(std::io::Cursor::new(buf)).unwrap_err();
            assert!(
                matches!(
                    err,
                    IoError::Truncated {
                        chunk: 0,
                        got_bytes: 0,
                        ..
                    }
                ),
                "record={record}: got {err}"
            );
        }
    }

    #[test]
    fn unknown_op_tags_are_corrupt() {
        let chunks = vec![vec![EdgeOp::insert(1, 2), EdgeOp::delete(3, 4)]];
        let mut buf = Vec::new();
        write_op_chunks(&chunks, &mut buf).unwrap();
        // Corrupt the second record's tag: header(8) + chunk len(8) + one record.
        let tag_offset = 8 + 8 + CHUNK_BYTES_PER_OP;
        buf[tag_offset] = 2;
        let err = read_op_chunks(std::io::Cursor::new(buf)).unwrap_err();
        match err {
            IoError::Corrupt { chunk, reason } => {
                assert_eq!(chunk, 0);
                assert!(reason.contains("op tag 2"), "reason: {reason}");
                assert!(reason.contains("record 1"), "reason: {reason}");
            }
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn op_chunk_writer_matches_the_batch_writer_byte_for_byte() {
        let chunks: Vec<Vec<EdgeOp>> = vec![
            vec![EdgeOp::insert(0, 1)],
            vec![],
            vec![EdgeOp::delete(0, 1), EdgeOp::insert(9, 9)],
        ];
        let mut batched = Vec::new();
        write_op_chunks(&chunks, &mut batched).unwrap();
        let mut streamed = Vec::new();
        let mut writer = OpChunkWriter::new(&mut streamed).unwrap();
        for chunk in &chunks {
            writer.write_chunk(chunk).unwrap();
        }
        assert_eq!(writer.finish().unwrap(), (3, 3));
        assert_eq!(streamed, batched);
    }

    #[test]
    fn streaming_pack_matches_materialise_then_chunk() {
        // A text edge list with comments, sparse raw ids and a ragged tail.
        let text = "# header\n5 6\n6 7\n% mid comment\n7 5\n100 5\n\n5 100\n42 42\n9 100\n";
        let batch_size = 3;

        // Reference: materialise every edge (raw ids, file order), chunk.
        let raw = EdgeOp::inserts(&[
            (5, 6),
            (6, 7),
            (7, 5),
            (100, 5),
            (5, 100),
            (42, 42),
            (9, 100),
        ]);
        let reference_chunks: Vec<&[EdgeOp]> = raw.chunks(batch_size).collect();
        let mut reference = Vec::new();
        write_op_chunks(&reference_chunks, &mut reference).unwrap();

        let mut streamed = Vec::new();
        let summary = pack_op_list(std::io::Cursor::new(text), &mut streamed, batch_size).unwrap();
        assert_eq!(streamed, reference);
        assert_eq!(
            summary,
            PackSummary {
                chunks: 3,
                edges: 7
            }
        );

        // The packed stream decodes back to the same op sequence.
        let decoded: Vec<EdgeOp> = read_op_chunks(std::io::Cursor::new(streamed))
            .unwrap()
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(decoded, raw);
    }

    #[test]
    fn streaming_pack_of_empty_input_writes_a_header_only_stream() {
        let mut out = Vec::new();
        let summary = pack_op_list(std::io::Cursor::new("# only comments\n"), &mut out, 4).unwrap();
        assert_eq!(
            summary,
            PackSummary {
                chunks: 0,
                edges: 0
            }
        );
        assert!(read_op_chunks(std::io::Cursor::new(out))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn pack_op_list_grammar_and_batching() {
        let text = "# ops\n5 6\n+ 6 7\n- 5 6\n% comment\n7 8\n- 6 7\n";
        let mut buf = Vec::new();
        let summary = pack_op_list(std::io::Cursor::new(text), &mut buf, 2).unwrap();
        assert_eq!(
            summary,
            PackSummary {
                chunks: 3,
                edges: 5
            }
        );
        let back = read_op_chunks(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(
            back,
            vec![
                vec![EdgeOp::insert(5, 6), EdgeOp::insert(6, 7)],
                vec![EdgeOp::delete(5, 6), EdgeOp::insert(7, 8)],
                vec![EdgeOp::delete(6, 7)],
            ]
        );
    }

    #[test]
    fn pack_op_list_rejects_malformed_lines() {
        // (input, 1-based line of the error, offending content). "-1" is not
        // the `-` token, and not a u64 either.
        for (bad, want_line, want_content) in [
            ("1 2\nbroken\n", 2, "broken"),
            ("- 1\n", 1, "- 1"),
            ("+ a b\n", 1, "+ a b"),
            ("# ok\n\n  -1 2 \n", 3, "-1 2"),
        ] {
            let mut out = Vec::new();
            match pack_op_list(std::io::Cursor::new(bad), &mut out, 4) {
                Err(IoError::Parse { line, content }) => {
                    assert_eq!((line, content.as_str()), (want_line, want_content));
                }
                other => panic!("input {bad:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn op_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("wcc_io_ops_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ops.wccs");
        let chunks: Vec<Vec<EdgeOp>> = vec![vec![EdgeOp::insert(1, 2)], vec![EdgeOp::delete(1, 2)]];
        write_op_chunks_file(&chunks, &path).unwrap();
        assert_eq!(read_op_chunks_file(&path).unwrap(), chunks);
        std::fs::remove_dir_all(&dir).ok();
    }
}
