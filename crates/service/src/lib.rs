//! The live submission service: what the MLPerf organization would run
//! *during* a round instead of after it.
//!
//! The batch pipeline (`mlperf-submission`) reviews a round's bundles
//! after the deadline. This crate keeps the round **open**: a
//! long-running [`ServiceCore`] accepts bundles from many submitters
//! concurrently, reviews each on arrival (on the connection's own
//! thread, so uploads review side by side without a nested fan-out),
//! persists accepted uploads incrementally through
//! [`mlperf_submission::store::OpenRoundWriter`], and serves
//! incrementally-maintained leaderboards that stay queryable under
//! heavy read traffic mid-round — cached per accepted bundle, so reads
//! between acceptances are a string clone.
//!
//! Closing the round drains the same [`StreamingReview`] the batch
//! pipeline uses, so the published
//! [`mlperf_submission::RoundOutcome`] is *identical* to batch ingest
//! of the same bundles — the service changes when review happens,
//! never what it decides. The `round_pipeline storm` driver and the
//! `live_round` integration test assert exactly that equivalence under
//! racing clients.
//!
//! Transport is a deliberately minimal hand-rolled HTTP/1.1 layer
//! ([`http`]) over [`std::net::TcpListener`] — zero new dependencies —
//! with a matching blocking client ([`client`]). `GET /metrics`
//! exposes the whole telemetry registry (including live ingest
//! throughput) in Prometheus text format.
//!
//! [`StreamingReview`]: mlperf_submission::StreamingReview

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod state;

pub use client::{http_get, http_post, http_request, HttpResponse};
pub use http::{HttpServer, ServerHandle};
pub use state::{RoundStatus, ServiceCore, ServiceError, SubmitReceipt};
