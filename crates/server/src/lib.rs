//! # specqp_server — the wire front-end for the Spec-QP query service
//!
//! Serving is where speculative planning earns its keep, and serving
//! means open-loop arrival: clients connect over TCP, requests arrive
//! whether or not the engine is ready, and the server's job under overload
//! is to *reject explicitly* rather than queue unboundedly. This crate is
//! that front door:
//!
//! * [`protocol`] — the length-prefixed binary codec (pure bytes ⇄ structs),
//! * [`Server`] — acceptor + per-connection reader/writer threads feeding
//!   [`QueryService::try_submit`](specqp_service::QueryService::try_submit),
//! * [`SpecQpClient`] — a minimal blocking client for tests and benches.
//!
//! Rejection layers, cheapest first: unreadable frames → `Protocol`;
//! full execution queue → `RetryAfter(ms)`; deadline expired while queued
//! → `DeadlineExceeded` (shed inside the service, never executed).
//!
//! ```
//! use std::sync::Arc;
//! use kgstore::KnowledgeGraphBuilder;
//! use relax::RelaxationRegistry;
//! use specqp_server::{Server, ServerConfig, SpecQpClient, WireResponse};
//! use specqp_service::{ExecMode, QueryService, ServiceConfig};
//!
//! let mut b = KnowledgeGraphBuilder::new();
//! b.add("shakira", "rdf:type", "singer", 100.0);
//! b.add("adele", "rdf:type", "singer", 90.0);
//! let service = Arc::new(QueryService::new(
//!     Arc::new(b.build()),
//!     Arc::new(RelaxationRegistry::new()),
//!     ServiceConfig::with_threads(2),
//! ));
//!
//! let server = Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = SpecQpClient::connect(server.local_addr()).unwrap();
//! let reply = client
//!     .roundtrip("SELECT ?s WHERE { ?s <rdf:type> <singer> }", ExecMode::SpecQp, 5, 0, 1)
//!     .unwrap();
//! match reply {
//!     WireResponse::Answers { answers, .. } => assert_eq!(answers.len(), 2),
//!     other => panic!("unexpected reply: {other:?}"),
//! }
//! server.shutdown();
//! ```

pub mod client;
pub mod protocol;
mod server;

pub use client::SpecQpClient;
pub use protocol::{
    ErrorCode, WireAnswer, WireError, WireRequest, WireResponse, WireWrite, WireWriteOp, MAX_FRAME,
    OP_ANSWERS, OP_ERROR, OP_QUERY, OP_WRITE, OP_WRITE_OK,
};
pub use server::{request_frame, Server, ServerConfig, ServerStats};
