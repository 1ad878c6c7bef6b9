//! The TCP front-end: acceptor, per-connection reader/writer threads, and
//! the admission pipeline (frame → decode → mode/k check → parse →
//! `try_submit`).
//!
//! Every connection gets two threads. The *reader* decodes frames and runs
//! admission control; accepted requests go through
//! [`QueryService::try_submit`] (never the blocking `submit` — a full
//! execution queue must become an explicit `RetryAfter` wire error, not a
//! stalled connection). The *writer* drains a per-connection channel in
//! submission order, waiting on each [`Ticket`] and encoding the response,
//! so responses arrive in request order per connection while the execution
//! pool reorders freely across connections.
//!
//! Rejections happen at the cheapest possible layer: frame errors before
//! decode, a bad mode or `k` before query parsing, queue admission before
//! execution, and deadline shedding inside the service before the executor
//! runs. The bounded execution queue is the only admission backpressure;
//! the `client_id` a frame carries is an opaque label the server does not
//! read.
//!
//! The server keeps a registry of live connections so that shutdown can
//! unblock their readers; a connection leaves it when its reader and
//! writer finish, so closed connections hold no socket.

use crate::protocol::{
    decode_request, decode_write, encode_answers, encode_error, encode_request, encode_write_ok,
    read_frame, write_frame, ErrorCode, WireAnswer, WireError, WireRequest, WireWriteOp, OP_WRITE,
};
use specqp_service::{
    ExecMode, QueryService, Request, ServiceError, ServiceStats, Ticket, WriteBatch,
};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tunables. There are none: the struct has no fields, and stays
/// because the benchmark harness binds with `ServerConfig::default()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerConfig {}

/// Monotone counters for the server-side rejection layers (the service
/// counts its own queue/deadline sheds — see
/// [`QueryService::lifetime_stats`]).
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    protocol_errors: AtomicU64,
}

/// Snapshot of the server's rejection counters plus the underlying
/// service's lifetime stats — everything a load driver needs to report
/// accepted/shed behavior under load.
#[derive(Clone, Debug)]
pub struct ServerStats {
    /// Connections accepted since start.
    pub connections: u64,
    /// Always 0: the server has no per-client quota. The benchmark
    /// harness reads the field, so it stays.
    pub quota_rejected: u64,
    /// Frames that failed to decode or validate (`Protocol` sent).
    pub protocol_errors: u64,
    /// The shared service's cumulative counters (submitted, completed,
    /// queue-full rejections, deadline sheds, per-mode latency).
    pub service: ServiceStats,
}

#[derive(Debug)]
struct Shared {
    service: Arc<QueryService>,
    counters: Counters,
    stopping: AtomicBool,
    /// Write halves of live connections by connection number, kept so
    /// shutdown can unblock their reader threads. A connection leaves when
    /// its threads finish.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// A running Spec-QP wire server bound to a local TCP address.
///
/// The server borrows the service through an `Arc` and never shuts it down:
/// the caller owns the service lifecycle (several servers — or a server and
/// in-process batch drivers — can share one warm engine).
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop.
    pub fn bind(
        service: Arc<QueryService>,
        addr: impl ToSocketAddrs,
        _config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            counters: Counters::default(),
            stopping: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("specqp-acceptor".into())
                .spawn(move || accept_loop(listener, shared))
                .expect("spawn acceptor")
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }

    /// The bound address (resolves ephemeral ports for clients/tests).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current rejection counters plus the service's lifetime stats.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.shared.counters.connections.load(Ordering::Relaxed),
            quota_rejected: 0,
            protocol_errors: self.shared.counters.protocol_errors.load(Ordering::Relaxed),
            service: self.shared.service.lifetime_stats(),
        }
    }

    /// Stops accepting, unblocks every connection and joins the acceptor.
    /// Idempotent; also runs on drop. In-flight requests already admitted
    /// to the service still execute (their connections close, so responses
    /// are discarded — the service-side drain contract is tested at the
    /// service layer).
    pub fn shutdown(&self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.acceptor.lock().expect("acceptor poisoned").take() {
            let _ = handle.join();
        }
        for (_, conn) in self
            .shared
            .conns
            .lock()
            .expect("conn list poisoned")
            .drain()
        {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn = shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .expect("conn list poisoned")
                .insert(conn, clone);
        }
        let spawned = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("specqp-conn".into())
                .spawn(move || {
                    handle_connection(stream, Arc::clone(&shared));
                    deregister(&shared, conn);
                })
        };
        if spawned.is_err() {
            deregister(&shared, conn);
        }
    }
}

/// Drops connection `conn` from the registry, closing its write half.
fn deregister(shared: &Shared, conn: u64) {
    shared
        .conns
        .lock()
        .expect("conn list poisoned")
        .remove(&conn);
}

/// What the reader hands the writer, in submission order.
enum Outgoing {
    /// A pre-encoded frame (rejections) — written immediately.
    Ready(Vec<u8>),
    /// An admitted request: the writer waits on the ticket, then encodes.
    Pending(u64, Ticket),
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<Outgoing>();
    let writer = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("specqp-conn-writer".into())
            .spawn(move || writer_loop(write_half, rx, shared))
            .expect("spawn connection writer")
    };
    reader_loop(stream, &shared, &tx);
    // Reader done (EOF, error or shutdown): close the channel so the writer
    // finishes the backlog and exits.
    drop(tx);
    let _ = writer.join();
}

fn reader_loop(stream: TcpStream, shared: &Shared, tx: &mpsc::Sender<Outgoing>) {
    let mut reader = BufReader::new(stream);
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let payload = match read_frame(&mut reader) {
            Ok(p) => p,
            Err(WireError::Eof) | Err(WireError::Io(_)) => return,
            Err(e @ WireError::TooLarge(_)) | Err(e @ WireError::Malformed(_)) => {
                // The stream is still framed (oversized payloads are
                // drained); report and keep serving the connection.
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let frame = encode_error(0, ErrorCode::Protocol, 0, &e.to_string());
                if tx.send(Outgoing::Ready(frame)).is_err() {
                    return;
                }
                continue;
            }
        };
        let out = admit(shared, &payload);
        if tx.send(out).is_err() {
            return;
        }
    }
}

/// Converts a retry-hint [`Duration`] to whole wire milliseconds, rounding
/// **up** and clamping to `[1, u32::MAX]`.
///
/// `as_millis()` truncates: a 1.4 ms back-off would go out as 1 ms, and a
/// compliant client retrying after exactly the advertised wait would
/// arrive too early and be bounced again (each bounce re-advertising
/// a truncated hint). Ceiling the conversion makes the hint an upper bound
/// on the remaining wait, so honouring it always succeeds.
fn retry_after_ms(wait: Duration) -> u32 {
    wait.as_nanos()
        .div_ceil(1_000_000)
        .clamp(1, u128::from(u32::MAX)) as u32
}

/// The admission pipeline for one decoded frame: each rejection layer is
/// strictly cheaper than the next stage it guards.
///
/// The opcode byte routes before any decoding happens — `WRITE` frames take
/// the synchronous commit path (writes are cheap interning + publication,
/// not queued execution), everything else is treated as a query request so
/// unknown opcodes surface as the decoder's typed `Protocol` error.
fn admit(shared: &Shared, payload: &[u8]) -> Outgoing {
    if payload.first() == Some(&OP_WRITE) {
        return admit_write(shared, payload);
    }
    let reject = |id: u64, code: ErrorCode, retry_ms: u32, msg: &str| {
        Outgoing::Ready(encode_error(id, code, retry_ms, msg))
    };
    let wire = match decode_request(payload) {
        Ok(w) => w,
        Err(e) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return reject(0, ErrorCode::Protocol, 0, &e.to_string());
        }
    };
    let id = wire.request_id;
    let Some(mode) = ExecMode::from_index(wire.mode as usize) else {
        shared
            .counters
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
        return reject(
            id,
            ErrorCode::Protocol,
            0,
            &format!("unknown mode byte {}", wire.mode),
        );
    };
    if wire.k == 0 {
        shared
            .counters
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
        return reject(id, ErrorCode::Protocol, 0, "k must be >= 1");
    }
    // Pin the current graph version for parsing: term ids are append-only
    // across commits, so a query parsed against the newest dictionary
    // resolves identically on any version pinned later by the executor.
    let graph = shared.service.engine().graph();
    let query = match sparql::parse_query(&wire.query, graph.dictionary()) {
        Ok(q) => q,
        Err(e) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return reject(
                id,
                ErrorCode::Protocol,
                0,
                &format!("query parse error: {e}"),
            );
        }
    };
    let mut request = Request::new(query, wire.k as usize).with_mode(mode);
    if wire.deadline_ms > 0 {
        request = request.with_deadline_in(Duration::from_millis(u64::from(wire.deadline_ms)));
    }
    match shared.service.try_submit(request) {
        Ok(ticket) => Outgoing::Pending(id, ticket),
        Err(ServiceError::QueueFull { retry_after }) => {
            let ms = retry_after_ms(retry_after);
            reject(id, ErrorCode::RetryAfter, ms, "execution queue full")
        }
        Err(ServiceError::ShuttingDown) => {
            reject(id, ErrorCode::ShuttingDown, 0, "service is shutting down")
        }
        Err(e) => reject(id, ErrorCode::Internal, 0, &e.to_string()),
    }
}

/// Admission for a `WRITE` frame: decode, then commit through
/// [`QueryService::apply_writes`]. Commits are synchronous — by the time
/// `WRITE_OK` reaches the client, the new epoch is published and every
/// *later* query on any connection sees it (already-pinned queries keep
/// their version; see the service docs on epoch-pinned reads).
fn admit_write(shared: &Shared, payload: &[u8]) -> Outgoing {
    let reject = |id: u64, code: ErrorCode, retry_ms: u32, msg: &str| {
        Outgoing::Ready(encode_error(id, code, retry_ms, msg))
    };
    let wire = match decode_write(payload) {
        Ok(w) => w,
        Err(e) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return reject(0, ErrorCode::Protocol, 0, &e.to_string());
        }
    };
    let id = wire.request_id;
    let mut batch = WriteBatch::new();
    for op in &wire.ops {
        match op {
            WireWriteOp::Assert { s, p, o, score } => {
                batch.assert(s, p, o, *score);
            }
            WireWriteOp::Retract { s, p, o } => {
                batch.retract(s, p, o);
            }
        }
    }
    match shared.service.apply_writes(&batch) {
        Ok(epoch) => Outgoing::Ready(encode_write_ok(id, epoch.value())),
        Err(ServiceError::ShuttingDown) => {
            reject(id, ErrorCode::ShuttingDown, 0, "service is shutting down")
        }
        Err(e @ ServiceError::ReadOnly) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            reject(id, ErrorCode::Protocol, 0, &e.to_string())
        }
        Err(ServiceError::Protocol(msg)) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            reject(id, ErrorCode::Protocol, 0, &msg)
        }
        Err(e) => reject(id, ErrorCode::Internal, 0, &e.to_string()),
    }
}

fn writer_loop(stream: TcpStream, rx: mpsc::Receiver<Outgoing>, shared: Arc<Shared>) {
    let mut writer = BufWriter::new(stream);
    for out in rx {
        let frame = match out {
            Outgoing::Ready(frame) => frame,
            Outgoing::Pending(id, ticket) => {
                let response = ticket.wait();
                encode_response_frame(id, response, &shared)
            }
        };
        if write_frame(&mut writer, &frame).is_err() {
            return;
        }
    }
    let _ = writer.flush();
}

/// Encodes an executed (or shed) service response as a wire frame.
fn encode_response_frame(id: u64, response: specqp_service::Response, shared: &Shared) -> Vec<u8> {
    match response.outcome {
        Ok(outcome) => {
            let graph = shared.service.engine().graph();
            let dict = graph.dictionary();
            let answers: Vec<WireAnswer> = outcome
                .answers
                .iter()
                .map(|a| WireAnswer {
                    score: a.score.value(),
                    bindings: a
                        .binding
                        .iter()
                        .map(|(var, term)| (var.0, dict.name_or_unknown(term).to_string()))
                        .collect(),
                })
                .collect();
            let frame = encode_answers(id, &answers);
            if frame.len() > crate::protocol::MAX_FRAME {
                encode_error(id, ErrorCode::Internal, 0, "response exceeds frame ceiling")
            } else {
                frame
            }
        }
        Err(ServiceError::DeadlineExceeded) => encode_error(
            id,
            ErrorCode::DeadlineExceeded,
            0,
            "deadline expired while queued",
        ),
        Err(ServiceError::ShuttingDown) => {
            encode_error(id, ErrorCode::ShuttingDown, 0, "service is shutting down")
        }
        Err(e) => encode_error(id, ErrorCode::Internal, 0, &e.to_string()),
    }
}

/// Convenience for tests and benchmark drivers: encodes a [`WireRequest`]
/// as a ready-to-send frame payload.
pub fn request_frame(req: &WireRequest) -> Vec<u8> {
    encode_request(req)
}

#[cfg(test)]
mod tests {
    use super::{retry_after_ms, Server, ServerConfig};
    use crate::SpecQpClient;
    use kgstore::KnowledgeGraphBuilder;
    use relax::RelaxationRegistry;
    use specqp_service::{ExecMode, QueryService, ServiceConfig};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn closed_connections_leave_the_registry() {
        let mut b = KnowledgeGraphBuilder::new();
        b.add("shakira", "rdf:type", "singer", 100.0);
        let service = Arc::new(QueryService::new(
            Arc::new(b.build()),
            Arc::new(RelaxationRegistry::new()),
            ServiceConfig::with_threads(1),
        ));
        let server = Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
        for _ in 0..20 {
            let mut client = SpecQpClient::connect(server.local_addr()).unwrap();
            client
                .roundtrip(
                    "SELECT ?s WHERE { ?s <rdf:type> <singer> }",
                    ExecMode::SpecQp,
                    1,
                    0,
                    0,
                )
                .unwrap();
        }
        let open = || server.shared.conns.lock().unwrap().len();
        let deadline = Instant::now() + Duration::from_secs(10);
        while open() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(open(), 0, "closed connections still registered");
        assert_eq!(server.stats().connections, 20);
        server.shutdown();
    }

    #[test]
    fn retry_after_rounds_fractional_millis_up() {
        // The truncation bug this pins: 1.4 ms must advertise 2 ms, not 1.
        assert_eq!(retry_after_ms(Duration::from_micros(1_400)), 2);
        assert_eq!(retry_after_ms(Duration::from_nanos(1_000_001)), 2);
        assert_eq!(retry_after_ms(Duration::from_micros(2_999)), 3);
    }

    #[test]
    fn retry_after_exact_millis_pass_through() {
        assert_eq!(retry_after_ms(Duration::from_millis(1)), 1);
        assert_eq!(retry_after_ms(Duration::from_millis(250)), 250);
        assert_eq!(retry_after_ms(Duration::from_secs(2)), 2_000);
    }

    #[test]
    fn retry_after_never_advertises_zero() {
        // A zero hint would mean "retry immediately" — guaranteed bounce.
        assert_eq!(retry_after_ms(Duration::ZERO), 1);
        assert_eq!(retry_after_ms(Duration::from_nanos(1)), 1);
        assert_eq!(retry_after_ms(Duration::from_micros(999)), 1);
    }

    #[test]
    fn retry_after_saturates_at_u32_max() {
        assert_eq!(retry_after_ms(Duration::from_secs(u64::MAX / 2)), u32::MAX);
        let exactly_max = Duration::from_millis(u64::from(u32::MAX));
        assert_eq!(retry_after_ms(exactly_max), u32::MAX);
    }
}
