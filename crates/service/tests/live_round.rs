//! Integration tests for the live submission service: racing
//! submitters against leaderboard readers must change nothing about
//! the published outcome, and the HTTP layer must answer malformed
//! requests with structured errors instead of dying.

use mlperf_distsim::Round;
use mlperf_service::{http_get, http_post, http_request, HttpServer, ServiceCore, ServiceError};
use mlperf_submission::synthetic_stress_round;
use mlperf_submission::{round_references, run_round, RoundArchive, RoundSubmissions};
use mlperf_telemetry::Telemetry;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

fn temp_archive_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mlperf-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn new_core(tag: &str) -> (Arc<ServiceCore>, std::path::PathBuf) {
    let dir = temp_archive_dir(tag);
    let archive = RoundArchive::create(&dir).expect("create archive");
    (Arc::new(ServiceCore::new(archive, Telemetry::recording())), dir)
}

/// Eight clients race 48 bundles (one damaged) into an open round
/// while readers hammer the leaderboard and status endpoints; the
/// closed round's outcome must be identical to batch ingest of the
/// same bundles in index order, and the archive written along the way
/// must re-ingest to the same outcome with zero faults.
#[test]
fn racing_submitters_match_batch_ingest_exactly() {
    const CLIENTS: usize = 8;
    let round = Round::V06;
    let (core, dir) = new_core("race");
    let mut submissions = synthetic_stress_round(round, 48, 7);
    // One rule-breaking bundle, so the equivalence also covers
    // quarantine. (A review-level violation, not log damage: the store
    // validates log text on read, and this bundle must round-trip
    // through the archive for the re-ingest half of the test.)
    submissions.bundles[5].run_sets[0].dataset = "bootleg-dataset".to_string();
    let bundles = submissions.bundles.clone();

    core.open_round(round, round_references(round)).expect("open round");

    let total = bundles.len();
    let stop = AtomicBool::new(false);
    let reads = AtomicUsize::new(0);
    let receipts: Vec<(u64, usize)> = thread::scope(|scope| {
        let mut submitters = Vec::new();
        for client in 0..CLIENTS {
            let core = &core;
            let bundles = &bundles;
            submitters.push(scope.spawn(move || {
                let mut got = Vec::new();
                for (position, bundle) in bundles.iter().enumerate().skip(client).step_by(CLIENTS) {
                    let receipt = core.submit_bundle(round, bundle).expect("submit");
                    assert_eq!(receipt.org, bundle.org);
                    got.push((receipt.index, position));
                }
                got
            }));
        }
        for _ in 0..2 {
            let core = &core;
            let stop = &stop;
            let reads = &reads;
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let board = core.leaderboard(round).expect("leaderboard mid-round");
                    assert!(board.starts_with(&format!("== round {round} (open)")));
                    let status = core.round_status(round).expect("status mid-round");
                    assert!(status.open);
                    assert!(status.bundles <= total);
                    reads.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let receipts: Vec<(u64, usize)> =
            submitters.into_iter().flat_map(|s| s.join().expect("submitter")).collect();
        stop.store(true, Ordering::SeqCst);
        receipts
    });
    assert!(reads.load(Ordering::SeqCst) > 0, "readers never got a look in");
    assert_eq!(receipts.len(), bundles.len());

    // Batch ingest of the same bundles in service index order.
    let mut ordered = receipts;
    ordered.sort_unstable();
    let batch = RoundSubmissions {
        round,
        references: round_references(round),
        bundles: ordered.iter().map(|&(_, position)| bundles[position].clone()).collect(),
    };
    let spill = dir.join(".service").join(round.label());
    assert_eq!(std::fs::read_dir(&spill).expect("spill directory").count(), bundles.len());
    let outcome = core.close_round(round).expect("close round");
    assert_eq!(outcome, run_round(&batch), "live outcome diverged from batch ingest");
    // Regression: closing used to leave one dead report file per
    // bundle behind, beside the `outcome.json` that holds them all.
    assert!(!spill.exists(), "close removes the spilled reports it published");
    assert!(!outcome.quarantined.is_empty(), "the damaged bundle must quarantine");
    assert_eq!(outcome.reports.len(), bundles.len());

    // Closed means closed, idempotently.
    assert_eq!(core.close_round(round), Err(ServiceError::RoundClosed(round)));
    assert_eq!(core.submit_bundle(round, &bundles[0]), Err(ServiceError::RoundClosed(round)),);
    let status = core.round_status(round).expect("status after close");
    assert!(!status.open);
    assert_eq!(status.bundles, bundles.len());
    let board = core.leaderboard(round).expect("board after close");
    assert!(board.starts_with(&format!("== round {round} (closed)")));

    // The incrementally-written archive re-ingests to the same outcome.
    let archive = RoundArchive::open(&dir).expect("reopen archive");
    assert_eq!(archive.rounds().expect("rounds"), vec![round]);
    let ingest = archive.read_round(round).expect("read round");
    assert_eq!(ingest.faults, Vec::new());
    assert_eq!(run_round(&ingest.submissions), outcome);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full HTTP surface over real TCP: open, submit, query, metrics,
/// close — with conflict errors where the state machine demands them.
#[test]
fn http_round_trip_over_real_tcp() {
    let round = Round::V05;
    let (core, dir) = new_core("http");
    let server = HttpServer::bind(Arc::clone(&core), "127.0.0.1:0").expect("bind");
    let handle = server.serve_background().expect("serve");
    let addr = handle.addr().to_string();

    let opened = http_post(&addr, "/rounds/v0.5/open", None).expect("open");
    assert_eq!(opened.status, 200, "{}", opened.body);
    let again = http_post(&addr, "/rounds/v0.5/open", None).expect("reopen");
    assert_eq!(again.status, 409, "{}", again.body);

    let submissions = synthetic_stress_round(round, 6, 11);
    for (i, bundle) in submissions.bundles.iter().enumerate() {
        let body = serde_json::to_string(bundle).expect("serialize bundle");
        let reply = http_post(&addr, "/rounds/v0.5/bundles", Some(&body)).expect("submit");
        assert_eq!(reply.status, 200, "{}", reply.body);
        let receipt: serde_json::Value = serde_json::from_str(&reply.body).expect("receipt");
        assert_eq!(receipt["index"], serde_json::json!(i as u64));
        assert_eq!(receipt["org"], serde_json::json!(bundle.org.clone()));
        assert_eq!(receipt["clean"], serde_json::json!(true));
    }

    let status = http_get(&addr, "/rounds/v0.5/status").expect("status");
    assert_eq!(status.status, 200);
    let status: serde_json::Value = serde_json::from_str(&status.body).expect("status json");
    assert_eq!(status["open"], serde_json::json!(true));
    assert_eq!(status["bundles"], serde_json::json!(6u64));

    let board = http_get(&addr, "/rounds/v0.5/leaderboard").expect("board");
    assert_eq!(board.status, 200);
    assert!(board.body.starts_with("== round v0.5 (open): 6 bundles reviewed"));

    let metrics = http_get(&addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.content_type.contains("version=0.0.4"));
    assert!(metrics.body.contains("service_bundles_submitted_total 6"), "{}", metrics.body);

    let closed = http_post(&addr, "/rounds/v0.5/close", None).expect("close");
    assert_eq!(closed.status, 200, "{}", closed.body);
    let closed: serde_json::Value = serde_json::from_str(&closed.body).expect("close json");
    assert_eq!(closed["bundles"], serde_json::json!(6u64));

    let body = serde_json::to_string(&submissions.bundles[0]).expect("serialize bundle");
    let late = http_post(&addr, "/rounds/v0.5/bundles", Some(&body)).expect("late submit");
    assert_eq!(late.status, 409, "{}", late.body);
    let board = http_get(&addr, "/rounds/v0.5/leaderboard").expect("board after close");
    assert!(board.body.starts_with("== round v0.5 (closed)"));

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed traffic — unknown methods, bad paths, invalid JSON,
/// truncated bodies, dead connections — gets structured 4xx replies
/// and never kills the server.
#[test]
fn malformed_requests_get_4xx_and_the_server_survives() {
    let (core, dir) = new_core("malformed");
    core.open_round(Round::V07, round_references(Round::V07)).expect("open");
    let server = HttpServer::bind(Arc::clone(&core), "127.0.0.1:0").expect("bind");
    let handle = server.serve_background().expect("serve");
    let addr = handle.addr().to_string();

    let brew = http_request(&addr, "BREW", "/metrics", None).expect("bad method");
    assert_eq!(brew.status, 400);
    assert!(brew.body.contains("BREW"), "{}", brew.body);

    assert_eq!(http_get(&addr, "/no/such/route").expect("bad path").status, 404);
    assert_eq!(http_get(&addr, "/rounds/v9.9/status").expect("bad round").status, 404);
    assert_eq!(http_get(&addr, "/rounds/v0.5/status").expect("unopened round").status, 404);
    assert_eq!(http_post(&addr, "/metrics", None).expect("post metrics").status, 405);
    assert_eq!(http_request(&addr, "DELETE", "/healthz", None).expect("delete").status, 405);

    let garbage = http_post(&addr, "/rounds/v0.7/bundles", Some("not json")).expect("garbage");
    assert_eq!(garbage.status, 400);
    assert!(garbage.body.contains("invalid submission bundle"), "{}", garbage.body);

    // A body shorter than its content-length, then a half-close: the
    // server must answer 400, not hang or panic.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"POST /rounds/v0.7/bundles HTTP/1.1\r\ncontent-length: 1000\r\n\r\n{\"org\":")
        .expect("write truncated");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert!(reply.contains("truncated body"), "{reply}");

    // A connection that says nothing at all.
    drop(TcpStream::connect(&addr).expect("connect and hang up"));

    // And something that is not HTTP at all.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(b"\x00\x01\x02\x03 nonsense").expect("write nonsense");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

    // After all that abuse the server still answers.
    let health = http_get(&addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes `bytes` to a fresh connection, half-closes it, and returns
/// the whole reply.
fn raw_exchange(addr: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("write request bytes");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read reply");
    String::from_utf8(reply).expect("the server replies in UTF-8")
}

/// Asserts that `reply` is a structured refusal: a 4xx status line, a
/// JSON content type, and a body that is one JSON object naming the
/// error.
fn assert_structured_4xx(reply: &str, sent: &[u8]) {
    let sent = String::from_utf8_lossy(sent);
    let (head, body) = reply.split_once("\r\n\r\n").unwrap_or_else(|| {
        panic!("no complete reply to {sent:?}: {reply:?}");
    });
    let status: u16 = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("no status line in the reply to {sent:?}: {head:?}"));
    assert!((400..500).contains(&status), "{sent:?} got {status}: {body}");
    assert!(head.contains("content-type: application/json"), "{sent:?} got {head:?}");
    let parsed: serde_json::Value = serde_json::from_str(body)
        .unwrap_or_else(|e| panic!("reply body to {sent:?} is not JSON ({e}): {body:?}"));
    assert!(parsed["error"].as_str().is_some(), "{sent:?} got {body:?}");
}

/// The head parser against hostile sockets (ROADMAP 5(d)): arbitrary
/// bytes, every truncation of a well-formed request, and
/// `content-length` values that are oversized, overflowing or not
/// numbers at all each get a structured 4xx JSON body — never a
/// dropped connection, a 5xx or a hang — and the server still answers
/// afterwards.
#[test]
fn hostile_heads_get_structured_4xx_and_the_server_survives() {
    let (core, dir) = new_core("hostile-heads");
    core.open_round(Round::V07, round_references(Round::V07)).expect("open");
    let server = HttpServer::bind(Arc::clone(&core), "127.0.0.1:0").expect("bind");
    let handle = server.serve_background().expect("serve");
    let addr = handle.addr().to_string();

    // Arbitrary bytes, seeded: bare, and ahead of a blank line so the
    // request-line and header parsers see them too.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for case in 0..48 {
        let len = (next() % 400) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| (next() >> 24) as u8).collect();
        match case % 3 {
            0 => {}
            1 => bytes.extend_from_slice(b"\r\n\r\n"),
            _ => {
                let mut framed = b"POST /rounds/v0.7/bundles HTTP/1.1\r\n".to_vec();
                framed.append(&mut bytes);
                framed.extend_from_slice(b"\r\n\r\n");
                bytes = framed;
            }
        }
        assert_structured_4xx(&raw_exchange(&addr, &bytes), &bytes);
    }

    // Every truncation of a well-formed submit, head and body, and the
    // whole of it (whose body is no bundle).
    let request: &[u8] =
        b"POST /rounds/v0.7/bundles HTTP/1.1\r\nhost: x\r\ncontent-length: 11\r\n\r\n{\"org\":\"x\"}";
    for cut in 0..=request.len() {
        assert_structured_4xx(&raw_exchange(&addr, &request[..cut]), &request[..cut]);
    }

    // Lengths no body can have.
    for length in [
        "abc",
        "",
        " ",
        "-1",
        "1e3",
        "0x10",
        "12 34",
        "+5",
        "8388609",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999",
    ] {
        let request =
            format!("POST /rounds/v0.7/bundles HTTP/1.1\r\ncontent-length: {length}\r\n\r\n");
        assert_structured_4xx(&raw_exchange(&addr, request.as_bytes()), request.as_bytes());
    }

    let health = http_get(&addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
