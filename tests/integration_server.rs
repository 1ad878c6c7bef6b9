//! Loopback TCP integration suite for the wire front-end: frame
//! round-trips, protocol-error handling, queue-full shedding with
//! `RetryAfter`, deadline shedding, and response ordering — the overload
//! behaviors the admission-control layer promises.

use kgstore::KnowledgeGraphBuilder;
use relax::RelaxationRegistry;
use specqp_server::{
    request_frame, ErrorCode, Server, ServerConfig, SpecQpClient, WireRequest, WireResponse,
    OP_QUERY,
};
use specqp_service::{ExecMode, LiveGraph, QueryService, ServiceConfig, WriteBatch};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SINGERS: &str = "SELECT ?s WHERE { ?s <rdf:type> <singer> }";
/// A two-pattern merge join — around a millisecond per execution on the
/// 2000-entity graph, the hammer for wedging a single-worker service.
const SLOW_JOIN: &str = "SELECT ?s WHERE { ?s <rdf:type> <singer> . ?s <rdf:type> <artist> }";

fn sized_service(entities: usize, threads: usize, queue_depth: usize) -> Arc<QueryService> {
    let mut b = KnowledgeGraphBuilder::new();
    for i in 0..entities {
        b.add(
            &format!("singer{i}"),
            "rdf:type",
            "singer",
            100.0 / (i + 1) as f64,
        );
        // Ranked against `singer`'s order, so a rank join of the two
        // (SLOW_JOIN) cannot stop before it has read both lists through.
        b.add(
            &format!("singer{i}"),
            "rdf:type",
            "artist",
            90.0 * (i + 1) as f64 / entities as f64,
        );
    }
    let config = ServiceConfig::with_threads(threads).with_queue_depth(queue_depth);
    Arc::new(QueryService::new(
        Arc::new(b.build()),
        Arc::new(RelaxationRegistry::new()),
        config,
    ))
}

fn test_service(threads: usize, queue_depth: usize) -> Arc<QueryService> {
    sized_service(30, threads, queue_depth)
}

fn expect_answers(reply: WireResponse) -> Vec<specqp_server::WireAnswer> {
    match reply {
        WireResponse::Answers { answers, .. } => answers,
        other => panic!("expected answers, got {other:?}"),
    }
}

/// Frame round-trip: a well-formed query over loopback returns the ranked
/// answer set with resolved term names and bit-exact scores.
#[test]
fn loopback_roundtrip_returns_ranked_answers() {
    let service = test_service(2, 8);
    let server =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SpecQpClient::connect(server.local_addr()).unwrap();

    let answers = expect_answers(
        client
            .roundtrip(SINGERS, ExecMode::SpecQp, 5, 0, 1)
            .unwrap(),
    );
    assert_eq!(answers.len(), 5);
    // Rank order, top entity first, names resolved through the dictionary.
    assert_eq!(answers[0].bindings[0].1, "singer0");
    for w in answers.windows(2) {
        assert!(w[0].score >= w[1].score, "answers must be rank-ordered");
    }
    // The wire answers match an in-process run bit-for-bit.
    let graph = service.engine().graph();
    let direct = service.engine().run_specqp(
        &sparql::parse_query(SINGERS, graph.dictionary()).unwrap(),
        5,
    );
    for (wire, local) in answers.iter().zip(&direct.answers) {
        assert_eq!(wire.score.to_bits(), local.score.value().to_bits());
    }
    server.shutdown();
}

/// Responses come back in request order per connection, and request ids
/// correlate.
#[test]
fn pipelined_requests_answer_in_order() {
    let service = test_service(3, 16);
    let server = Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SpecQpClient::connect(server.local_addr()).unwrap();

    let ids: Vec<u64> = (1..=10)
        .map(|k| client.send(SINGERS, ExecMode::SpecQp, k, 0, 1).unwrap())
        .collect();
    for (i, id) in ids.iter().enumerate() {
        let reply = client.recv().unwrap();
        assert_eq!(reply.request_id(), *id, "response {i} out of order");
        assert_eq!(
            expect_answers(reply).len(),
            i + 1,
            "k grew with each request"
        );
    }
    server.shutdown();
}

/// Malformed frames are a typed `Protocol` error, not a dropped connection:
/// the same connection keeps serving valid requests afterwards.
#[test]
fn malformed_frame_gets_protocol_error_and_connection_survives() {
    let service = test_service(2, 8);
    let server = Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SpecQpClient::connect(server.local_addr()).unwrap();

    // Unknown opcode.
    client.send_raw(&[0x7f, 1, 2, 3]).unwrap();
    match client.recv().unwrap() {
        WireResponse::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    // Truncated query payload.
    client.send_raw(&[OP_QUERY, 0, 0]).unwrap();
    match client.recv().unwrap() {
        WireResponse::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    // Unparseable query text, unknown mode byte and k = 0 are all Protocol.
    // Two modes exist, so byte 2 names none: only tests run the oracle.
    let errors = server.stats().protocol_errors;
    client
        .send_raw(&request_frame(&WireRequest {
            request_id: 9,
            client_id: 1,
            mode: 2,
            k: 5,
            deadline_ms: 0,
            query: SINGERS.to_string(),
        }))
        .unwrap();
    match client.recv().unwrap() {
        WireResponse::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::Protocol);
            assert!(message.contains("mode byte 2"), "{message}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert_eq!(server.stats().protocol_errors, errors + 1);
    client
        .send("THIS IS NOT SPARQL", ExecMode::SpecQp, 5, 0, 1)
        .unwrap();
    match client.recv().unwrap() {
        WireResponse::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::Protocol);
            assert!(
                message.contains("parse"),
                "message names the cause: {message}"
            );
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    client.send(SINGERS, ExecMode::SpecQp, 0, 0, 1).unwrap();
    match client.recv().unwrap() {
        WireResponse::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    // The connection still works.
    let answers = expect_answers(
        client
            .roundtrip(SINGERS, ExecMode::TriniT, 3, 0, 1)
            .unwrap(),
    );
    assert_eq!(answers.len(), 3);
    server.shutdown();
}

/// A hostile `k` is a request for everything, not an allocation: `u32::MAX`
/// over a 30-answer query comes back as those 30 answers, and the same
/// connection keeps serving.
#[test]
fn huge_k_is_answered_not_aborted() {
    let service = test_service(2, 8);
    let server = Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SpecQpClient::connect(server.local_addr()).unwrap();

    for mode in ExecMode::ALL {
        let answers = expect_answers(client.roundtrip(SINGERS, mode, u32::MAX, 0, 1).unwrap());
        assert_eq!(answers.len(), 30, "{mode:?}: the whole answer set");
    }
    let answers = expect_answers(
        client
            .roundtrip(SINGERS, ExecMode::SpecQp, 3, 0, 1)
            .unwrap(),
    );
    assert_eq!(answers.len(), 3);
    server.shutdown();
}

/// An error message longer than a frame is cut, not fatal: a query whose
/// parse error quotes ~300 KB of escaped control characters still gets a
/// `Protocol` reply, and the connection keeps serving.
#[test]
fn oversized_error_message_is_cut_and_connection_survives() {
    let service = test_service(2, 8);
    let server = Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SpecQpClient::connect(server.local_addr()).unwrap();
    // A dropped reply would otherwise block the test forever.
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let hostile = format!("\"{}\"", "\u{1}".repeat(60_000));
    client.send(&hostile, ExecMode::SpecQp, 5, 0, 1).unwrap();
    match client.recv().unwrap() {
        WireResponse::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    let answers = expect_answers(
        client
            .roundtrip(SINGERS, ExecMode::SpecQp, 3, 0, 1)
            .unwrap(),
    );
    assert_eq!(answers.len(), 3);
    server.shutdown();
}

/// Deadline shedding over the wire: a request whose deadline budget is
/// already unmeetable comes back `DeadlineExceeded` without executing.
#[test]
fn expired_deadline_is_shed_over_the_wire() {
    // One slow worker and a deep queue: put ~10ms of join work ahead of a
    // request whose 1ms budget is unmeetable.
    let service = sized_service(2000, 1, 32);
    let server =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SpecQpClient::connect(server.local_addr()).unwrap();

    let mut sheds = 0;
    for round in 0..10 {
        for _ in 0..8 {
            client.send(SLOW_JOIN, ExecMode::SpecQp, 10, 0, 1).unwrap();
        }
        let id = client.send(SINGERS, ExecMode::SpecQp, 10, 1, 1).unwrap();
        for _ in 0..8 {
            client.recv().unwrap();
        }
        match client.recv().unwrap() {
            WireResponse::Error {
                request_id,
                code: ErrorCode::DeadlineExceeded,
                ..
            } => {
                assert_eq!(request_id, id);
                sheds += 1;
                break;
            }
            WireResponse::Answers { .. } => { /* queue drained too fast; retry */ }
            other => panic!("round {round}: unexpected reply {other:?}"),
        }
    }
    assert!(
        sheds > 0,
        "a 1ms deadline behind ~10ms of queued joins must shed"
    );
    let stats = service.lifetime_stats();
    assert!(stats.shed_deadline >= 1, "shed is counted, not executed");
    server.shutdown();
}

/// Hammering a tiny queue from the wire: overloaded requests come back
/// `RetryAfter` *quickly* (no unbounded waits), and accepted ones all
/// complete.
///
/// The burst is TriniT's rank join of two anti-correlated 2000-entity
/// lists, which reads both to the end — milliseconds each, against the
/// microseconds the connection's reader
/// needs to decode and submit a frame already in its socket buffer. A cheap
/// query let the one worker keep pace with the reader now and then, and
/// then nothing was shed (1 run in ~240); this worker would have to finish
/// a join inside every one of 59 gaps between two frames.
#[test]
fn queue_saturation_sheds_with_retry_after() {
    let service = sized_service(2000, 1, 1);
    let server =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SpecQpClient::connect(server.local_addr()).unwrap();

    let t0 = Instant::now();
    let mut accepted = 0u32;
    let mut shed = 0u32;
    for _ in 0..60 {
        client.send(SLOW_JOIN, ExecMode::TriniT, 10, 0, 1).unwrap();
    }
    for _ in 0..60 {
        match client.recv().unwrap() {
            WireResponse::Answers { .. } => accepted += 1,
            WireResponse::Error {
                code: ErrorCode::RetryAfter,
                retry_after_ms,
                ..
            } => {
                assert!(retry_after_ms >= 1);
                shed += 1;
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    let elapsed = t0.elapsed();
    assert!(accepted >= 1, "some requests execute");
    assert!(shed >= 1, "a 1-deep queue under a 60-burst must shed");
    // Shedding is the point: the burst must resolve promptly instead of
    // queueing unboundedly behind a single worker.
    assert!(
        elapsed < Duration::from_secs(30),
        "no unbounded waits: {elapsed:?}"
    );
    let stats = service.lifetime_stats();
    assert_eq!(stats.submitted, u64::from(accepted));
    assert!(stats.rejected_queue_full >= u64::from(shed));
    server.shutdown();
}

/// Several concurrent connections share one service; every connection gets
/// its own in-order responses and the lifetime stats add up.
#[test]
fn concurrent_connections_share_the_service() {
    let service = test_service(3, 64);
    let server =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = SpecQpClient::connect(addr).unwrap();
                let mut got = 0;
                for _ in 0..25 {
                    match client
                        .roundtrip(SINGERS, ExecMode::SpecQp, 5, 0, c)
                        .unwrap()
                    {
                        WireResponse::Answers { answers, .. } => {
                            assert_eq!(answers.len(), 5);
                            got += 1;
                        }
                        WireResponse::Error { code, .. } => {
                            panic!("closed-loop client {c} rejected: {code:?}")
                        }
                        other => panic!("unexpected reply: {other:?}"),
                    }
                }
                got
            })
        })
        .collect();
    let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 100);
    let stats = server.stats();
    assert_eq!(stats.service.completed, 100);
    assert!(stats.connections >= 4);
    server.shutdown();
}

/// Live writes over the wire: `WRITE` commits a new epoch synchronously,
/// `WRITE_OK` carries the epoch value, later queries on the same connection
/// see the committed (and masked) triples, and a read-only server rejects
/// writes with a typed `Protocol` error instead of dropping the connection.
#[test]
fn wire_writes_commit_and_read_only_rejects() {
    // A service over an immutable graph refuses writes but keeps serving.
    let service = test_service(2, 8);
    let server =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SpecQpClient::connect(server.local_addr()).unwrap();
    let mut batch = WriteBatch::new();
    batch.assert("nope", "rdf:type", "singer", 1.0);
    client.send_writes(batch, 1).unwrap();
    match client.recv().unwrap() {
        WireResponse::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::Protocol);
            assert!(message.contains("read-only"), "names the cause: {message}");
        }
        other => panic!("expected read-only rejection, got {other:?}"),
    }
    expect_answers(
        client
            .roundtrip(SINGERS, ExecMode::SpecQp, 2, 0, 1)
            .unwrap(),
    );
    server.shutdown();

    // A live service commits the batch atomically under one epoch.
    let mut b = KnowledgeGraphBuilder::new();
    b.add("shakira", "rdf:type", "singer", 100.0);
    let live = Arc::new(LiveGraph::new(b.build()));
    let service = Arc::new(QueryService::live(
        Arc::clone(&live),
        Arc::new(RelaxationRegistry::new()),
        ServiceConfig::with_threads(2),
    ));
    let server =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SpecQpClient::connect(server.local_addr()).unwrap();

    let before = expect_answers(
        client
            .roundtrip(SINGERS, ExecMode::SpecQp, 10, 0, 1)
            .unwrap(),
    );
    assert_eq!(before.len(), 1);
    assert_eq!(before[0].bindings[0].1, "shakira");

    let mut batch = WriteBatch::new();
    batch
        .assert("beyonce", "rdf:type", "singer", 120.0)
        .retract("shakira", "rdf:type", "singer");
    let epoch = client.apply_writes(batch, 1).unwrap();
    assert!(epoch >= 1, "commit bumps the epoch");
    assert_eq!(
        epoch,
        live.epoch().value(),
        "WRITE_OK carries the new epoch"
    );

    // Queries admitted after WRITE_OK pin the committed version: the new
    // triple is visible, the retracted one is masked.
    let after = expect_answers(
        client
            .roundtrip(SINGERS, ExecMode::SpecQp, 10, 0, 1)
            .unwrap(),
    );
    assert_eq!(after.len(), 1);
    assert_eq!(after[0].bindings[0].1, "beyonce");
    server.shutdown();
}

/// A `WRITE` whose score is not finite is refused whole before it commits:
/// a protocol error naming the bad op, no epoch bump, and the connection
/// keeps answering queries over the unchanged graph.
#[test]
fn wire_write_with_infinite_score_is_refused_and_connection_survives() {
    let mut b = KnowledgeGraphBuilder::new();
    b.add("shakira", "rdf:type", "singer", 100.0);
    let live = Arc::new(LiveGraph::new(b.build()));
    let service = Arc::new(QueryService::live(
        Arc::clone(&live),
        Arc::new(RelaxationRegistry::new()),
        ServiceConfig::with_threads(2),
    ));
    let server =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = SpecQpClient::connect(server.local_addr()).unwrap();

    let epoch = live.epoch();
    let mut batch = WriteBatch::new();
    batch.assert("beyonce", "rdf:type", "singer", 120.0).assert(
        "x",
        "rdf:type",
        "singer",
        f64::INFINITY,
    );
    client.send_writes(batch, 1).unwrap();
    match client.recv().unwrap() {
        WireResponse::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::Protocol);
            assert!(message.contains("op 1"), "names the bad op: {message}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert_eq!(live.epoch(), epoch, "nothing was committed");

    let answers = expect_answers(
        client
            .roundtrip(SINGERS, ExecMode::SpecQp, 10, 0, 1)
            .unwrap(),
    );
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].bindings[0].1, "shakira");
    server.shutdown();
}

/// Shutdown closes the listener and unblocks connected clients instead of
/// hanging them.
#[test]
fn shutdown_refuses_new_connections_and_unblocks_clients() {
    let service = test_service(2, 8);
    let server = Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = SpecQpClient::connect(addr).unwrap();
    expect_answers(
        client
            .roundtrip(SINGERS, ExecMode::SpecQp, 2, 0, 1)
            .unwrap(),
    );

    server.shutdown();
    // A blocked reader on an existing connection is released.
    assert!(client.recv().is_err(), "shutdown unblocks pending reads");
    // New connections are refused once the acceptor is gone (a races-free
    // guarantee needs a few attempts on loopback).
    let mut served_after_shutdown = false;
    for _ in 0..5 {
        if let Ok(mut c) = SpecQpClient::connect(addr) {
            if c.roundtrip(SINGERS, ExecMode::SpecQp, 2, 0, 1).is_ok() {
                served_after_shutdown = true;
            }
        }
    }
    assert!(!served_after_shutdown, "no queries served after shutdown");
    // Idempotent.
    server.shutdown();
}
