//! The query client of `serve_live`: one thread, one connection. The open
//! loop sends bursts on a fixed schedule and times every response from the
//! moment its burst was *due* — so a stall's cost to later requests is
//! counted, not omitted — and says how late the generator itself ran. Every
//! answer is checked against the truth table of the epoch it is stamped with.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wcc_core::serve::{read_frame, Request, Response};

use crate::harness::Checks;
use crate::truth::TruthTable;

/// Queries per open-loop burst.
pub const BURST: usize = 32;
/// Queries in flight per closed-loop round trip.
pub const WINDOW: usize = 64;
/// A burst sent later than this after its due time counts as late.
const LATE: Duration = Duration::from_millis(1);

/// The id universe queries draw from: bootstrap vertices, vertices that
/// arrive during the run (absent before their batch — `NotFound` is then the
/// right answer) and ids that never appear.
#[derive(Debug, Clone, Copy)]
pub struct IdPool {
    pub bootstrap: u64,
    pub arrival_base: u64,
    pub arrivals: u64,
}

/// Draws the 8:1:1 `SameComponent`/`ComponentOf`/`ComponentSize` mix with
/// 5 % never-inserted ids.
pub struct QueryGen {
    rng: ChaCha8Rng,
    pool: IdPool,
}

impl QueryGen {
    pub fn new(seed: u64, pool: IdPool) -> Self {
        QueryGen {
            rng: ChaCha8Rng::seed_from_u64(seed),
            pool,
        }
    }

    fn id(&mut self) -> u64 {
        match self.rng.gen_range(0..100u32) {
            0..=4 => (1 << 50) + self.rng.gen_range(0..1u64 << 20),
            5..=14 if self.pool.arrivals > 0 => {
                self.pool.arrival_base + self.rng.gen_range(0..self.pool.arrivals)
            }
            _ => self.rng.gen_range(0..self.pool.bootstrap),
        }
    }

    pub fn next(&mut self) -> Request {
        match self.rng.gen_range(0..10u32) {
            0 => Request::ComponentOf { v: self.id() },
            1 => Request::ComponentSize { c: self.id() },
            _ => Request::SameComponent {
                u: self.id(),
                v: self.id(),
            },
        }
    }
}

/// The epoch a lookup response is stamped with (`None` for anything that is
/// not a lookup answer — which the client never expects).
fn epoch_of(response: &Response) -> Option<u64> {
    match response {
        Response::Same { epoch, .. }
        | Response::Component { epoch, .. }
        | Response::Size { epoch, .. }
        | Response::NotFound { epoch } => Some(*epoch),
        _ => None,
    }
}

/// Whether `response` is exactly what `table` says `request` must get.
fn answer_is_right(table: &TruthTable, request: &Request, response: &Response) -> bool {
    match (request, response) {
        (Request::SameComponent { u, v }, Response::Same { same, .. }) => {
            table.same_component(*u, *v) == Some(*same)
        }
        (Request::SameComponent { u, v }, Response::NotFound { .. }) => {
            table.same_component(*u, *v).is_none()
        }
        (Request::ComponentOf { v }, Response::Component { component, .. }) => {
            table.component_of(*v) == Some(*component)
        }
        (Request::ComponentOf { v }, Response::NotFound { .. }) => table.component_of(*v).is_none(),
        (Request::ComponentSize { c }, Response::Size { size, .. }) => {
            table.component_size(*c) == Some(*size)
        }
        (Request::ComponentSize { c }, Response::NotFound { .. }) => {
            table.component_size(*c).is_none()
        }
        _ => false,
    }
}

/// What the client measured.
#[derive(Debug, Default)]
pub struct ClientReport {
    /// Open loop: response arrival − burst due time, ns (saturating), in
    /// send order — sample `i` belongs to burst `i / BURST`.
    pub latency_ns: Vec<u32>,
    /// Open loop: first arrival, in ns since the episode start, of a response
    /// stamped with an epoch ≥ `first_epoch + i`.
    pub visible_at_ns: Vec<Option<u64>>,
    /// Distinct epochs some response was stamped with exactly.
    pub epochs_seen_exactly: usize,
    pub bursts: usize,
    pub late_bursts: usize,
    pub max_lag_ns: u64,
    /// Closed loop: responses counted per window of `closed_window`.
    pub closed_counts: Vec<u64>,
    pub checks: Checks,
}

/// One pipelined connection to the server.
pub struct Client<'a> {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    gen: QueryGen,
    /// `tables[e - first_epoch]` is the truth at epoch `e`.
    tables: &'a [TruthTable],
    first_epoch: u64,
    requests: Vec<Request>,
    out: Vec<u8>,
    frame: Vec<u8>,
    max_epoch_seen: u64,
    seen_exactly: Vec<bool>,
    pub report: ClientReport,
}

impl<'a> Client<'a> {
    /// # Errors
    ///
    /// Any I/O error connecting.
    pub fn connect(
        addr: SocketAddr,
        gen: QueryGen,
        tables: &'a [TruthTable],
        first_epoch: u64,
    ) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            gen,
            tables,
            first_epoch,
            requests: Vec::with_capacity(WINDOW),
            out: Vec::with_capacity(WINDOW * 24),
            frame: Vec::with_capacity(64),
            max_epoch_seen: first_epoch,
            seen_exactly: vec![false; tables.len()],
            report: ClientReport {
                visible_at_ns: vec![None; tables.len()],
                ..ClientReport::default()
            },
        })
    }

    /// Sends `count` fresh queries in one write, then reads and checks their
    /// answers, calling `on_response(arrival)` for each.
    fn round_trip(
        &mut self,
        count: usize,
        origin: Instant,
        mut on_response: impl FnMut(Instant),
    ) -> Result<(), String> {
        self.requests.clear();
        self.out.clear();
        for _ in 0..count {
            let request = self.gen.next();
            request.encode(&mut self.out);
            self.requests.push(request);
        }
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("client write: {e}"))?;
        for i in 0..count {
            read_frame(&mut self.reader, &mut self.frame)
                .map_err(|e| format!("client read: {e}"))?
                .ok_or("server closed the connection")?;
            let arrival = Instant::now();
            let response =
                Response::decode(&self.frame).map_err(|e| format!("client decode: {e}"))?;
            on_response(arrival);
            let table = epoch_of(&response)
                .and_then(|e| e.checked_sub(self.first_epoch).map(|i| (e, i as usize)))
                .and_then(|(e, i)| self.tables.get(i).map(|t| (e, i, t)));
            match table {
                Some((epoch, index, table)) => {
                    self.report
                        .checks
                        .record(answer_is_right(table, &self.requests[i], &response));
                    self.seen_exactly[index] = true;
                    if epoch > self.max_epoch_seen || self.report.visible_at_ns[index].is_none() {
                        let at = u64::try_from((arrival - origin).as_nanos()).unwrap_or(u64::MAX);
                        let from = (self.max_epoch_seen - self.first_epoch) as usize;
                        for slot in &mut self.report.visible_at_ns[from..=index] {
                            slot.get_or_insert(at);
                        }
                        self.max_epoch_seen = self.max_epoch_seen.max(epoch);
                    }
                }
                // Not a lookup answer, or an epoch the schedule never had.
                None => self.report.checks.record(false),
            }
        }
        Ok(())
    }

    /// Open loop: a burst of [`BURST`] queries every `period`, from `origin`
    /// until `until`, regardless of how the server keeps up.
    pub fn open_loop(
        &mut self,
        origin: Instant,
        period: Duration,
        until: Instant,
    ) -> Result<(), String> {
        let mut burst = 0u32;
        loop {
            let due = origin + period * burst;
            if due >= until {
                break;
            }
            wait_until(due);
            let lag = Instant::now().saturating_duration_since(due);
            self.report.bursts += 1;
            self.report.late_bursts += usize::from(lag > LATE);
            self.report.max_lag_ns = self
                .report
                .max_lag_ns
                .max(u64::try_from(lag.as_nanos()).unwrap_or(u64::MAX));
            let mut latencies = [0u32; BURST];
            let mut k = 0;
            self.round_trip(BURST, origin, |arrival| {
                let ns = arrival.saturating_duration_since(due).as_nanos();
                latencies[k] = u32::try_from(ns).unwrap_or(u32::MAX);
                k += 1;
            })?;
            self.report.latency_ns.extend_from_slice(&latencies);
            burst += 1;
        }
        Ok(())
    }

    /// Closed loop: [`WINDOW`] queries in flight, the next window sent as
    /// soon as the previous one is answered, until `until`. Counts responses
    /// per `window`.
    pub fn closed_loop(&mut self, window: Duration, until: Instant) -> Result<(), String> {
        let origin = Instant::now();
        while Instant::now() < until {
            let mut last = origin;
            self.round_trip(WINDOW, origin, |arrival| last = arrival)?;
            let slot = ((last - origin).as_nanos() / window.as_nanos()) as usize;
            if self.report.closed_counts.len() <= slot {
                self.report.closed_counts.resize(slot + 1, 0);
            }
            self.report.closed_counts[slot] += WINDOW as u64;
        }
        Ok(())
    }

    pub fn finish(mut self) -> ClientReport {
        self.report.epochs_seen_exactly = self.seen_exactly.iter().filter(|&&s| s).count();
        self.report
    }
}

/// Sleeps until a millisecond before `due`, then spins: a sleeping CPU's
/// wake-up overshoots by more than the latencies being measured and leaves
/// its caches cold. The gap between query bursts is shorter than that, so the
/// client never sleeps; the ingest thread sleeps through most of its period.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(1);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}
