//! The live ≡ batch contract in the Tier-1 command: `cargo test -q` at
//! the root runs `mlperf-service`'s integration suite — racing
//! submitters and readers over real TCP publish exactly the outcome of
//! batch ingest, and malformed requests get a structured 4xx. One
//! source, compiled into both packages, so the two cannot drift apart.

#[path = "../crates/service/tests/live_round.rs"]
mod live_round;
