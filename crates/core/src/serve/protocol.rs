//! The length-prefixed binary wire protocol of `wcc serve`.
//!
//! Everything is little-endian, mirroring the `WCCS` chunk format. A frame
//! is a `u32` byte length (counting everything *after* the length field)
//! followed by a one-byte tag and the tag's fixed payload:
//!
//! ```text
//! request  := len:u32 tag:u8 payload
//!   tag 1  SAME_COMPONENT  u:u64 v:u64
//!   tag 2  COMPONENT_OF    v:u64
//!   tag 3  COMPONENT_SIZE  c:u64
//!   tag 4  STATS
//!   tag 5  PING
//!   tag 6  SHUTDOWN
//!
//! response := len:u32 status:u8 payload
//!   status 1  SAME       epoch:u64 same:u8
//!   status 2  COMPONENT  epoch:u64 component:u64
//!   status 3  SIZE       epoch:u64 size:u64
//!   status 4  STATS      epoch:u64 vertices:u64 edges:u64 components:u64
//!                        batches:u64 recomputes:u64 queries:u64
//!                        not_found:u64 connections:u64
//!                        buckets:u16 count:u64 × buckets
//!   status 5  PONG       epoch:u64
//!   status 6  SHUTTING_DOWN
//!   status 16 NOT_FOUND  epoch:u64
//!   status 17 BAD_REQUEST
//! ```
//!
//! Every data-carrying response is stamped with the **epoch** of the
//! snapshot that answered it — the number of ingested batches at publish
//! time. That single field is what makes the service *testable*: a client
//! (the differential suite, the `wcc serve` test in `crates/bench/tests/cli.rs`)
//! can compare each answer against ground truth computed for exactly that
//! prefix of the stream, so a torn read — an answer matching no epoch —
//! cannot hide.
//!
//! `NOT_FOUND` is an answer, not an error: the queried vertex has not
//! appeared in the stream as of the stamped epoch. `BAD_REQUEST` covers
//! undecodable frames on an otherwise healthy connection; framing-level
//! corruption (an oversized or zero length prefix) tears the connection
//! down instead, since byte alignment is already lost.
//!
//! Clients may pipeline: the server answers frames in order and flushes its
//! write buffer whenever it is about to block on the socket, so a client
//! that writes a window of requests and then reads a window of responses
//! never deadlocks (each response is ≤ ~450 bytes; a stats reply is the
//! largest at `9·8 + 2 + 48·8 = 458` bytes, far below any kernel buffer).

use std::io::{self, Read};

/// Hard cap on the byte length of a frame (requests are ≤ 17 bytes and the
/// largest response under 512 — anything bigger is framing corruption).
pub const MAX_FRAME_LEN: u32 = 1 << 16;

/// A client → server message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Are `u` and `v` in the same component?
    SameComponent {
        /// First raw vertex id.
        u: u64,
        /// Second raw vertex id.
        v: u64,
    },
    /// The component id of `v` (the raw id of its component's oldest
    /// member).
    ComponentOf {
        /// Raw vertex id.
        v: u64,
    },
    /// The size of the component containing `c` (any member id works).
    ComponentSize {
        /// Raw vertex id of any member.
        c: u64,
    },
    /// Server counters, snapshot metadata and the latency histogram.
    Stats,
    /// Liveness probe; the reply carries the current epoch (used by clients
    /// to wait for ingestion progress).
    Ping,
    /// Ask the server process to shut down (the serve loop polls for this).
    Shutdown,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::SameComponent`].
    Same {
        /// Epoch of the answering snapshot.
        epoch: u64,
        /// Whether the two vertices share a component.
        same: bool,
    },
    /// Answer to [`Request::ComponentOf`].
    Component {
        /// Epoch of the answering snapshot.
        epoch: u64,
        /// The component id.
        component: u64,
    },
    /// Answer to [`Request::ComponentSize`].
    Size {
        /// Epoch of the answering snapshot.
        epoch: u64,
        /// Members in the component.
        size: u64,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsReply),
    /// Answer to [`Request::Ping`].
    Pong {
        /// Current published epoch.
        epoch: u64,
    },
    /// Sent for [`Request::Shutdown`] and to connections the server closes
    /// while stopping.
    ShuttingDown,
    /// A queried vertex has not appeared in the stream as of `epoch`.
    NotFound {
        /// Epoch of the answering snapshot.
        epoch: u64,
    },
    /// The request frame decoded to no known request.
    BadRequest,
}

/// The payload of [`Response::Stats`]: snapshot metadata plus server
/// counters, including the raw buckets of the server-side latency histogram
/// (mergeable into any [`wcc_mpc::LogHistogram`] via `absorb_counts`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Current published epoch.
    pub epoch: u64,
    /// Vertices in the current snapshot.
    pub vertices: u64,
    /// Accumulated edges in the current snapshot.
    pub edges: u64,
    /// Components in the current snapshot.
    pub components: u64,
    /// Batches ingested when the snapshot was built.
    pub batches: u64,
    /// Slow-path recomputes performed.
    pub recomputes: u64,
    /// Lookup queries answered so far (same/of/size; control frames not
    /// counted).
    pub queries: u64,
    /// Lookups that answered `NOT_FOUND`.
    pub not_found: u64,
    /// Connections accepted so far.
    pub connections: u64,
    /// Power-of-two latency buckets (nanoseconds), server-side per-query
    /// service time.
    pub latency_buckets: Vec<u64>,
}

/// A malformed frame or payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The length prefix is zero or beyond [`MAX_FRAME_LEN`].
    BadFrameLen(u32),
    /// The tag/status byte is not part of the protocol.
    UnknownTag(u8),
    /// The payload does not have the exact length its tag requires.
    WrongPayloadLen {
        /// The offending tag/status byte.
        tag: u8,
        /// Bytes present after the tag.
        got: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadFrameLen(len) => {
                write!(f, "frame length {len} outside 1..={MAX_FRAME_LEN}")
            }
            ProtocolError::UnknownTag(tag) => write!(f, "unknown frame tag {tag}"),
            ProtocolError::WrongPayloadLen { tag, got } => {
                write!(f, "tag {tag} with wrong payload length {got}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<ProtocolError> for io::Error {
    fn from(err: ProtocolError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, err)
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(payload: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(payload[at..at + 8].try_into().expect("length checked"))
}

fn get_u16(payload: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(payload[at..at + 2].try_into().expect("length checked"))
}

/// Writes the length prefix for a frame body appended after `start`.
fn finish_frame(out: &mut [u8], start: usize) {
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

impl Request {
    /// Appends the full frame (length prefix included) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        match *self {
            Request::SameComponent { u, v } => {
                out.push(1);
                put_u64(out, u);
                put_u64(out, v);
            }
            Request::ComponentOf { v } => {
                out.push(2);
                put_u64(out, v);
            }
            Request::ComponentSize { c } => {
                out.push(3);
                put_u64(out, c);
            }
            Request::Stats => out.push(4),
            Request::Ping => out.push(5),
            Request::Shutdown => out.push(6),
        }
        finish_frame(out, start);
    }

    /// Decodes a frame body (everything after the length prefix).
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on an unknown tag or a payload whose length does
    /// not match the tag.
    pub fn decode(frame: &[u8]) -> Result<Request, ProtocolError> {
        let (&tag, payload) = frame.split_first().ok_or(ProtocolError::BadFrameLen(0))?;
        let expect = |want: usize| -> Result<(), ProtocolError> {
            if payload.len() == want {
                Ok(())
            } else {
                Err(ProtocolError::WrongPayloadLen {
                    tag,
                    got: payload.len(),
                })
            }
        };
        match tag {
            1 => {
                expect(16)?;
                Ok(Request::SameComponent {
                    u: get_u64(payload, 0),
                    v: get_u64(payload, 8),
                })
            }
            2 => {
                expect(8)?;
                Ok(Request::ComponentOf {
                    v: get_u64(payload, 0),
                })
            }
            3 => {
                expect(8)?;
                Ok(Request::ComponentSize {
                    c: get_u64(payload, 0),
                })
            }
            4 => {
                expect(0)?;
                Ok(Request::Stats)
            }
            5 => {
                expect(0)?;
                Ok(Request::Ping)
            }
            6 => {
                expect(0)?;
                Ok(Request::Shutdown)
            }
            other => Err(ProtocolError::UnknownTag(other)),
        }
    }
}

impl Response {
    /// Appends the full frame (length prefix included) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        match self {
            Response::Same { epoch, same } => {
                out.push(1);
                put_u64(out, *epoch);
                out.push(u8::from(*same));
            }
            Response::Component { epoch, component } => {
                out.push(2);
                put_u64(out, *epoch);
                put_u64(out, *component);
            }
            Response::Size { epoch, size } => {
                out.push(3);
                put_u64(out, *epoch);
                put_u64(out, *size);
            }
            Response::Stats(stats) => {
                out.push(4);
                for v in [
                    stats.epoch,
                    stats.vertices,
                    stats.edges,
                    stats.components,
                    stats.batches,
                    stats.recomputes,
                    stats.queries,
                    stats.not_found,
                    stats.connections,
                ] {
                    put_u64(out, v);
                }
                let buckets = stats.latency_buckets.len().min(u16::MAX as usize);
                out.extend_from_slice(&(buckets as u16).to_le_bytes());
                for &count in &stats.latency_buckets[..buckets] {
                    put_u64(out, count);
                }
            }
            Response::Pong { epoch } => {
                out.push(5);
                put_u64(out, *epoch);
            }
            Response::ShuttingDown => out.push(6),
            Response::NotFound { epoch } => {
                out.push(16);
                put_u64(out, *epoch);
            }
            Response::BadRequest => out.push(17),
        }
        finish_frame(out, start);
    }

    /// Decodes a frame body (everything after the length prefix).
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on an unknown status byte or a payload whose length
    /// does not match it.
    pub fn decode(frame: &[u8]) -> Result<Response, ProtocolError> {
        let (&tag, payload) = frame.split_first().ok_or(ProtocolError::BadFrameLen(0))?;
        let expect = |want: usize| -> Result<(), ProtocolError> {
            if payload.len() == want {
                Ok(())
            } else {
                Err(ProtocolError::WrongPayloadLen {
                    tag,
                    got: payload.len(),
                })
            }
        };
        match tag {
            1 => {
                expect(9)?;
                Ok(Response::Same {
                    epoch: get_u64(payload, 0),
                    same: payload[8] != 0,
                })
            }
            2 => {
                expect(16)?;
                Ok(Response::Component {
                    epoch: get_u64(payload, 0),
                    component: get_u64(payload, 8),
                })
            }
            3 => {
                expect(16)?;
                Ok(Response::Size {
                    epoch: get_u64(payload, 0),
                    size: get_u64(payload, 8),
                })
            }
            4 => {
                if payload.len() < 74 {
                    return Err(ProtocolError::WrongPayloadLen {
                        tag,
                        got: payload.len(),
                    });
                }
                let buckets = get_u16(payload, 72) as usize;
                expect(74 + 8 * buckets)?;
                Ok(Response::Stats(StatsReply {
                    epoch: get_u64(payload, 0),
                    vertices: get_u64(payload, 8),
                    edges: get_u64(payload, 16),
                    components: get_u64(payload, 24),
                    batches: get_u64(payload, 32),
                    recomputes: get_u64(payload, 40),
                    queries: get_u64(payload, 48),
                    not_found: get_u64(payload, 56),
                    connections: get_u64(payload, 64),
                    latency_buckets: (0..buckets).map(|i| get_u64(payload, 74 + 8 * i)).collect(),
                }))
            }
            5 => {
                expect(8)?;
                Ok(Response::Pong {
                    epoch: get_u64(payload, 0),
                })
            }
            6 => {
                expect(0)?;
                Ok(Response::ShuttingDown)
            }
            16 => {
                expect(8)?;
                Ok(Response::NotFound {
                    epoch: get_u64(payload, 0),
                })
            }
            17 => {
                expect(0)?;
                Ok(Response::BadRequest)
            }
            other => Err(ProtocolError::UnknownTag(other)),
        }
    }
}

/// Reads one frame body into `buf` (cleared first). Returns `Ok(None)` on a
/// clean end-of-stream at a frame boundary; end-of-stream *inside* a frame
/// is an [`io::ErrorKind::UnexpectedEof`] error, and a length prefix outside
/// `1..=`[`MAX_FRAME_LEN`] is [`io::ErrorKind::InvalidData`] (byte alignment
/// is lost, the connection must be torn down).
///
/// # Errors
///
/// Propagates any I/O error from the reader (`Interrupted` is retried).
pub fn read_frame<R: Read>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<Option<()>> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < header.len() {
        match reader.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame header",
                ))
            }
            Ok(k) => got += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(ProtocolError::BadFrameLen(len).into());
    }
    buf.clear();
    buf.resize(len as usize, 0);
    let mut got = 0usize;
    while got < buf.len() {
        match reader.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame body",
                ))
            }
            Ok(k) => got += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut wire = Vec::new();
        req.encode(&mut wire);
        let mut cursor = io::Cursor::new(&wire);
        let mut buf = Vec::new();
        assert_eq!(read_frame(&mut cursor, &mut buf).unwrap(), Some(()));
        assert_eq!(Request::decode(&buf).unwrap(), req);
        assert_eq!(cursor.position() as usize, wire.len());
    }

    fn roundtrip_response(resp: Response) {
        let mut wire = Vec::new();
        resp.encode(&mut wire);
        let mut cursor = io::Cursor::new(&wire);
        let mut buf = Vec::new();
        assert_eq!(read_frame(&mut cursor, &mut buf).unwrap(), Some(()));
        assert_eq!(Response::decode(&buf).unwrap(), resp);
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip_request(Request::SameComponent { u: 7, v: u64::MAX });
        roundtrip_request(Request::ComponentOf { v: 0 });
        roundtrip_request(Request::ComponentSize { c: 123_456_789 });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Shutdown);

        roundtrip_response(Response::Same {
            epoch: 9,
            same: true,
        });
        roundtrip_response(Response::Same {
            epoch: 9,
            same: false,
        });
        roundtrip_response(Response::Component {
            epoch: 1,
            component: 42,
        });
        roundtrip_response(Response::Size {
            epoch: 2,
            size: 1000,
        });
        roundtrip_response(Response::Pong { epoch: u64::MAX });
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::NotFound { epoch: 5 });
        roundtrip_response(Response::BadRequest);
        roundtrip_response(Response::Stats(StatsReply {
            epoch: 3,
            vertices: 100,
            edges: 400,
            components: 2,
            batches: 3,
            recomputes: 1,
            queries: 123_456,
            not_found: 7,
            connections: 4,
            latency_buckets: (0..48).map(|i| i * i).collect(),
        }));
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let mut wire = Vec::new();
        let reqs = [
            Request::Ping,
            Request::SameComponent { u: 1, v: 2 },
            Request::ComponentSize { c: 3 },
        ];
        for r in &reqs {
            r.encode(&mut wire);
        }
        let mut cursor = io::Cursor::new(&wire);
        let mut buf = Vec::new();
        for r in &reqs {
            assert_eq!(read_frame(&mut cursor, &mut buf).unwrap(), Some(()));
            assert_eq!(Request::decode(&buf).unwrap(), *r);
        }
        assert_eq!(read_frame(&mut cursor, &mut buf).unwrap(), None);
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Unknown tag.
        assert_eq!(Request::decode(&[99]), Err(ProtocolError::UnknownTag(99)));
        assert_eq!(Response::decode(&[99]), Err(ProtocolError::UnknownTag(99)));
        // Wrong payload size.
        assert_eq!(
            Request::decode(&[1, 0, 0]),
            Err(ProtocolError::WrongPayloadLen { tag: 1, got: 2 })
        );
        assert_eq!(
            Response::decode(&[5]),
            Err(ProtocolError::WrongPayloadLen { tag: 5, got: 0 })
        );
        // Empty body.
        assert_eq!(Request::decode(&[]), Err(ProtocolError::BadFrameLen(0)));

        // Zero and oversized length prefixes kill the stream.
        let mut cursor = io::Cursor::new(vec![0u8; 4]);
        let mut buf = Vec::new();
        let err = read_frame(&mut cursor, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut oversized = ((MAX_FRAME_LEN + 1).to_le_bytes()).to_vec();
        oversized.push(1);
        let err = read_frame(&mut io::Cursor::new(oversized), &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // EOF inside a frame is an error, not a clean close.
        let mut truncated = Vec::new();
        Request::SameComponent { u: 1, v: 2 }.encode(&mut truncated);
        truncated.truncate(truncated.len() - 3);
        let err = read_frame(&mut io::Cursor::new(truncated), &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = read_frame(&mut io::Cursor::new(vec![5u8, 0]), &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
