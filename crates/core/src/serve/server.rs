//! The TCP front-end of the component-query service.
//!
//! One [`Server`] owns a listener thread plus one thread per accepted
//! connection; the ingest loop stays wherever the caller runs it (the `wcc
//! serve` CLI keeps it on the main thread) and feeds the server nothing but
//! published [`ComponentSnapshot`]s. That split is the whole point: the
//! engine's union–find fast path never takes a lock a reader could hold,
//! and readers never wait on a Theorem-4 recompute — they keep answering
//! from the last published epoch until the next one lands.
//!
//! Connection handling is deliberately boring blocking I/O: a `BufReader`
//! per connection decodes length-prefixed request frames, answers are
//! written through a `BufWriter` and flushed exactly when the reader is
//! about to block (no more buffered requests) — which is what makes
//! pipelined clients fast (one flush per window, not per request) and
//! ping-pong clients correct (every request gets its answer before the
//! server sleeps). Shutdown needs no timeouts either: [`Server::shutdown`]
//! closes every live socket, which pops the handlers out of their blocking
//! reads.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use serde::Serialize;
use wcc_mpc::{HistogramSummary, LogHistogram, HISTOGRAM_BUCKETS};

use super::protocol::{read_frame, Request, Response, StatsReply};
use super::snapshot::{ComponentSnapshot, SnapshotCell, SnapshotReader};

/// A running component-query server: an acceptor thread, per-connection
/// handler threads, and the [`SnapshotCell`] they all read from.
///
/// Dropping a `Server` without calling [`Server::shutdown`] performs the
/// same teardown best-effort.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

/// State shared between the owner, the acceptor and every handler thread.
#[derive(Debug)]
struct Shared {
    cell: SnapshotCell,
    stop: AtomicBool,
    shutdown_requested: AtomicBool,
    queries: AtomicU64,
    not_found: AtomicU64,
    connections: AtomicU64,
    latency: LogHistogram,
    conns: Mutex<Vec<ConnSlot>>,
}

#[derive(Debug)]
struct ConnSlot {
    /// A clone of the handler's socket, kept so shutdown can close it out
    /// from under a blocking read (`None` if the clone failed — the handler
    /// then exits when its client disconnects).
    stream: Option<TcpStream>,
    handle: JoinHandle<()>,
}

/// Point-in-time server counters, shaped for the `wcc serve --json` record.
#[derive(Debug, Clone, Serialize)]
pub struct ServerTelemetry {
    /// Current published epoch.
    pub epoch: u64,
    /// Lookup queries answered (same/of/size; control frames not counted).
    pub queries: u64,
    /// Lookups answered `NOT_FOUND`.
    pub not_found: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Server-side per-query service time, nanoseconds.
    pub latency_ns: HistogramSummary,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// accepting connections. The published snapshot starts empty at
    /// epoch 0; queries answer `NOT_FOUND` until the first
    /// [`Server::publish`].
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from binding the listener.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cell: SnapshotCell::new(),
            stop: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            queries: AtomicU64::new(0),
            not_found: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            latency: LogHistogram::new(),
            conns: Mutex::new(Vec::new()),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::spawn(move || accept_loop(listener, acceptor_shared));
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Publishes a snapshot to all readers; returns its epoch. Called by
    /// the ingest loop after each applied batch.
    pub fn publish(&self, snapshot: ComponentSnapshot) -> u64 {
        self.shared.cell.publish(snapshot)
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }

    /// `true` once any client has sent a `SHUTDOWN` request. The serve loop
    /// polls this to decide when to tear the process down.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::Acquire)
    }

    /// Current counters and latency summary.
    pub fn telemetry(&self) -> ServerTelemetry {
        ServerTelemetry {
            epoch: self.shared.cell.epoch(),
            queries: self.shared.queries.load(Ordering::Relaxed),
            not_found: self.shared.not_found.load(Ordering::Relaxed),
            connections: self.shared.connections.load(Ordering::Relaxed),
            latency_ns: self.shared.latency.summary(),
        }
    }

    /// Stops accepting, closes every live connection and joins all server
    /// threads.
    ///
    /// # Errors
    ///
    /// Currently infallible (`io::Result` reserved for future teardown
    /// steps); socket close errors on dead connections are ignored.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.teardown();
        Ok(())
    }

    fn teardown(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Wake the acceptor out of `accept` with a throwaway connection; it
        // sees `stop` and exits. If the connect fails the listener is
        // already dead and the acceptor has exited on the error path.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let slots: Vec<ConnSlot> = {
            let mut conns = self.shared.conns.lock().expect("connection list poisoned");
            conns.drain(..).collect()
        };
        for slot in slots {
            if let Some(stream) = &slot.stream {
                let _ = stream.shutdown(Shutdown::Both);
            }
            let _ = slot.handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.teardown();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            // Transient accept errors (aborted handshakes, fd pressure):
            // keep serving the clients we have.
            Err(_) => continue,
        };
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let shutdown_handle = stream.try_clone().ok();
        let handler_shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            let _ = handle_connection(stream, &handler_shared);
        });
        let mut conns = shared.conns.lock().expect("connection list poisoned");
        // Reap finished handlers so a long-lived server with churning
        // clients doesn't accumulate slots.
        conns.retain(|slot| !slot.handle.is_finished());
        conns.push(ConnSlot {
            stream: shutdown_handle,
            handle,
        });
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    // Responses are flushed in application-controlled windows; Nagle would
    // only add latency on top.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    let mut writer = BufWriter::with_capacity(1 << 16, stream);
    let mut snapshots = SnapshotReader::new(&shared.cell);
    let mut frame = Vec::with_capacity(32);
    let mut out = Vec::with_capacity(512);
    loop {
        if shared.stop.load(Ordering::Acquire) {
            out.clear();
            Response::ShuttingDown.encode(&mut out);
            let _ = writer.write_all(&out);
            break;
        }
        if read_frame(&mut reader, &mut frame)?.is_none() {
            break; // clean client close
        }
        let started = Instant::now();
        let response = match Request::decode(&frame) {
            Ok(request) => respond(request, &mut snapshots, shared),
            Err(_) => Response::BadRequest,
        };
        let is_lookup = matches!(
            response,
            Response::Same { .. }
                | Response::Component { .. }
                | Response::Size { .. }
                | Response::NotFound { .. }
        );
        out.clear();
        response.encode(&mut out);
        writer.write_all(&out)?;
        if is_lookup {
            shared.queries.fetch_add(1, Ordering::Relaxed);
            shared
                .latency
                .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        let closing = matches!(response, Response::ShuttingDown);
        // The pipelining contract: flush exactly when the next read would
        // block (no buffered requests left) or the connection is ending.
        if closing || reader.buffer().is_empty() {
            writer.flush()?;
        }
        if closing {
            break;
        }
    }
    writer.flush().ok();
    Ok(())
}

fn respond(request: Request, snapshots: &mut SnapshotReader, shared: &Shared) -> Response {
    match request {
        Request::SameComponent { u, v } => {
            let snap = snapshots.current(&shared.cell);
            match snap.same_component(u, v) {
                Some(same) => Response::Same {
                    epoch: snap.epoch(),
                    same,
                },
                None => not_found(snap.epoch(), shared),
            }
        }
        Request::ComponentOf { v } => {
            let snap = snapshots.current(&shared.cell);
            match snap.component_of(v) {
                Some(component) => Response::Component {
                    epoch: snap.epoch(),
                    component,
                },
                None => not_found(snap.epoch(), shared),
            }
        }
        Request::ComponentSize { c } => {
            let snap = snapshots.current(&shared.cell);
            match snap.component_size(c) {
                Some(size) => Response::Size {
                    epoch: snap.epoch(),
                    size,
                },
                None => not_found(snap.epoch(), shared),
            }
        }
        Request::Stats => {
            let snap = snapshots.current(&shared.cell);
            Response::Stats(StatsReply {
                epoch: snap.epoch(),
                vertices: snap.num_vertices() as u64,
                edges: snap.num_edges(),
                components: snap.num_components() as u64,
                batches: snap.batches(),
                recomputes: snap.recomputes(),
                queries: shared.queries.load(Ordering::Relaxed),
                not_found: shared.not_found.load(Ordering::Relaxed),
                connections: shared.connections.load(Ordering::Relaxed),
                latency_buckets: shared.latency.counts()[..HISTOGRAM_BUCKETS].to_vec(),
            })
        }
        Request::Ping => Response::Pong {
            epoch: shared.cell.epoch(),
        },
        Request::Shutdown => {
            shared.shutdown_requested.store(true, Ordering::Release);
            Response::ShuttingDown
        }
    }
}

fn not_found(epoch: u64, shared: &Shared) -> Response {
    shared.not_found.fetch_add(1, Ordering::Relaxed);
    Response::NotFound { epoch }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{IncrementalComponents, StreamParams};
    use wcc_graph::io::EdgeOp;

    /// A minimal blocking client: writes one request, reads one response.
    struct Client {
        reader: BufReader<TcpStream>,
        writer: BufWriter<TcpStream>,
        frame: Vec<u8>,
        out: Vec<u8>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            Client {
                reader: BufReader::new(stream.try_clone().unwrap()),
                writer: BufWriter::new(stream),
                frame: Vec::new(),
                out: Vec::new(),
            }
        }

        fn send(&mut self, request: Request) {
            self.out.clear();
            request.encode(&mut self.out);
            self.writer.write_all(&self.out).unwrap();
            self.writer.flush().unwrap();
        }

        fn recv(&mut self) -> Response {
            read_frame(&mut self.reader, &mut self.frame)
                .unwrap()
                .expect("server closed mid-conversation");
            Response::decode(&self.frame).unwrap()
        }

        fn call(&mut self, request: Request) -> Response {
            self.send(request);
            self.recv()
        }
    }

    #[test]
    fn serves_snapshots_over_tcp_end_to_end() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr());

        // Epoch 0: nothing published, everything misses.
        assert_eq!(client.call(Request::Ping), Response::Pong { epoch: 0 });
        assert_eq!(
            client.call(Request::SameComponent { u: 0, v: 1 }),
            Response::NotFound { epoch: 0 }
        );

        // Ingest a triangle plus an isolated-ish pair, publish epoch 1.
        let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), 7);
        engine
            .apply_ops_batch(&EdgeOp::inserts(&[(0, 1), (1, 2), (2, 0), (10, 11)]))
            .unwrap();
        server.publish(engine.snapshot(1));

        assert_eq!(
            client.call(Request::SameComponent { u: 0, v: 2 }),
            Response::Same {
                epoch: 1,
                same: true
            }
        );
        assert_eq!(
            client.call(Request::SameComponent { u: 0, v: 10 }),
            Response::Same {
                epoch: 1,
                same: false
            }
        );
        assert_eq!(
            client.call(Request::ComponentOf { v: 11 }),
            Response::Component {
                epoch: 1,
                component: 10
            }
        );
        assert_eq!(
            client.call(Request::ComponentSize { c: 2 }),
            Response::Size { epoch: 1, size: 3 }
        );

        // A second client sees the same epoch; stats add up.
        let mut other = Client::connect(server.local_addr());
        match other.call(Request::Stats) {
            Response::Stats(stats) => {
                assert_eq!(stats.epoch, 1);
                assert_eq!(stats.vertices, 5);
                assert_eq!(stats.components, 2);
                // Five lookups so far: the epoch-0 NotFound probe plus the
                // four epoch-1 queries (Ping and Stats are not lookups).
                assert_eq!(stats.queries, 5);
                assert_eq!(stats.not_found, 1);
                assert_eq!(stats.connections, 2);
                assert_eq!(stats.latency_buckets.len(), HISTOGRAM_BUCKETS);
                let recorded: u64 = stats.latency_buckets.iter().sum();
                assert_eq!(recorded, 5);
            }
            other => panic!("expected stats, got {other:?}"),
        }

        // Pipelined window: three requests in one flush, answers in order.
        client.send(Request::Ping);
        client.send(Request::ComponentOf { v: 0 });
        client.send(Request::SameComponent { u: 10, v: 11 });
        assert_eq!(client.recv(), Response::Pong { epoch: 1 });
        assert!(matches!(
            client.recv(),
            Response::Component { epoch: 1, .. }
        ));
        assert_eq!(
            client.recv(),
            Response::Same {
                epoch: 1,
                same: true
            }
        );

        // Shutdown request: acknowledged, flag raised, connection closed.
        assert!(!server.shutdown_requested());
        assert_eq!(other.call(Request::Shutdown), Response::ShuttingDown);
        assert!(server.shutdown_requested());

        let telemetry = server.telemetry();
        assert_eq!(telemetry.queries, 7);
        assert_eq!(telemetry.not_found, 1);
        assert!(telemetry.latency_ns.count >= 7);
        server.shutdown().unwrap();
    }

    #[test]
    fn shutdown_closes_idle_connections() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let mut idle = Client::connect(addr);
        assert_eq!(idle.call(Request::Ping), Response::Pong { epoch: 0 });
        // The client now sits idle; shutdown must not hang on it.
        server.shutdown().unwrap();
        // The socket is closed from the server side: the next read reports
        // end-of-stream (possibly after a ShuttingDown notice).
        loop {
            match read_frame(&mut idle.reader, &mut idle.frame) {
                Ok(Some(())) => {
                    assert_eq!(
                        Response::decode(&idle.frame).unwrap(),
                        Response::ShuttingDown
                    );
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    #[test]
    fn bad_frames_answer_bad_request_and_keep_the_connection() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr());
        // A well-framed but unknown tag.
        client.out.clear();
        client.out.extend_from_slice(&1u32.to_le_bytes());
        client.out.push(200);
        let bytes = client.out.clone();
        client.writer.write_all(&bytes).unwrap();
        client.writer.flush().unwrap();
        assert_eq!(client.recv(), Response::BadRequest);
        // The connection still works.
        assert_eq!(client.call(Request::Ping), Response::Pong { epoch: 0 });
        server.shutdown().unwrap();
    }
}
