//! The live-service workload: real TCP against `HttpServer` over a
//! fresh `ServiceCore` and archive, two generator connections, one
//! v0.6 round of stress bundles.
//!
//! A *job* is one `POST /rounds/v0.6/bundles` timed from the moment it
//! was due until its receipt is complete. Submitters are independent
//! users, so the latency phases are open loops (Poisson arrivals at
//! 100, 200 and 400 operations per second); a closed-loop phase before
//! them measures sustained throughput. Of the bundles, a seeded tenth
//! have their log lines re-spaced into valid but non-canonical JSON —
//! the canonical-line scanner of the default path refuses those and the
//! serde path, the alternative, parses them — and a fiftieth lose their `run_stop` line
//! and must come back quarantined. One operation in sixteen reads the
//! leaderboard and one in sixteen the round status.

use crate::httpc::{render_request, Client, Reply};
use crate::loadgen::{run_closed_loop, run_open_loop, OpRecord};
use crate::schema::SUBMIT_LIMIT_MS;
use crate::stats::{self, poisson_schedule, Rng};
use crate::trace::Tracer;
use crate::{env, Outcome, RunOptions};
use mlperf_distsim::Round;
use mlperf_service::{HttpServer, ServerHandle, ServiceCore};
use mlperf_submission::{
    round_references, run_round, synthetic_stress_round, RoundArchive, RoundSubmissions,
    StreamingReview, SubmissionBundle,
};
use mlperf_telemetry::Telemetry;
use serde_json::Value;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const ROUND: Round = Round::V06;
/// Generator connections: at most the sandbox's two cores.
const CONNECTIONS: usize = 2;
/// The open-loop rates, operations per second, with each phase's share
/// of the run's seconds. The closed-loop phase takes the rest.
const RATES: [(&str, f64, f64); 3] =
    [("r100", 100.0, 0.15), ("r200", 200.0, 0.45), ("r400", 400.0, 0.15)];
const CLOSED_SHARE: f64 = 0.25;

/// How a bundle's logs were written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Canonical rendered lines: the fast scanner accepts them.
    Canonical,
    /// Valid JSON with extra spaces: only the serde fallback parses it.
    Respaced,
    /// `run_stop` missing: review must quarantine the bundle.
    Truncated,
}

/// Generates `n` stress bundles from `seed` and rewrites a seeded tenth
/// as [`Kind::Respaced`] and a fiftieth as [`Kind::Truncated`].
pub fn generate_bundles(n: usize, seed: u64) -> (Vec<SubmissionBundle>, Vec<Kind>) {
    let mut rng = Rng::new(seed);
    let mut bundles = synthetic_stress_round(ROUND, n, rng.next_u64() >> 16).bundles;
    let kinds: Vec<Kind> = (0..n)
        .map(|_| match rng.below(50) {
            0 => Kind::Truncated,
            1..=5 => Kind::Respaced,
            _ => Kind::Canonical,
        })
        .collect();
    for (bundle, kind) in bundles.iter_mut().zip(&kinds) {
        for log in bundle.run_sets.iter_mut().flat_map(|rs| rs.logs.iter_mut()) {
            match kind {
                Kind::Canonical => {}
                Kind::Respaced => *log = log.replace(":::MLLOG {\"key\":", ":::MLLOG { \"key\" :"),
                Kind::Truncated => {
                    let kept = log.trim_end().rsplit_once('\n').map_or("", |(head, _)| head);
                    *log = format!("{kept}\n");
                }
            }
        }
    }
    (bundles, kinds)
}

/// A running service over a fresh archive with [`ROUND`] open. Stops
/// when dropped.
pub(crate) struct Server {
    pub(crate) core: Arc<ServiceCore>,
    handle: ServerHandle,
}

impl Server {
    pub(crate) fn start(dir: &Path) -> Result<Server, String> {
        let archive = RoundArchive::create(dir).map_err(|e| e.to_string())?;
        let core = Arc::new(ServiceCore::new(archive, Telemetry::disabled()));
        core.open_round(ROUND, round_references(ROUND)).map_err(|e| e.to_string())?;
        let server =
            HttpServer::bind(Arc::clone(&core), "127.0.0.1:0").map_err(|e| e.to_string())?;
        let handle = server.serve_background().map_err(|e| e.to_string())?;
        Ok(Server { core, handle })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }
}

fn submit_path() -> String {
    format!("/rounds/{}/bundles", ROUND.label())
}

/// One operation of the traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Submit(usize),
    Board,
    Status,
}

/// Everything one run sends, rendered during set-up so the generator
/// never times its own serialization.
struct Traffic {
    server: Server,
    bundles: Vec<SubmissionBundle>,
    kinds: Vec<Kind>,
    submit_requests: Vec<Vec<u8>>,
    board_request: Vec<u8>,
    status_request: Vec<u8>,
    ops: Vec<Op>,
}

fn set_up_once(options: &RunOptions, dir: &Path) -> Result<Traffic, String> {
    let mut rng = Rng::new(options.seed ^ 0x5e41_11fe);
    let (bundles, kinds) = generate_bundles(options.size.live_bundles, options.seed);
    let server = Server::start(dir)?;
    let addr = server.addr();
    let path = submit_path();
    let submit_requests = bundles
        .iter()
        .map(|b| {
            let body = serde_json::to_string(b).map_err(|e| e.to_string())?;
            Ok(render_request(addr, "POST", &path, body.as_bytes()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    // 14 submits, 1 board read, 1 status read in every 16 operations,
    // in seeded order.
    let mut ops = Vec::with_capacity(bundles.len() * 16 / 14 + 16);
    let mut next_bundle = 0;
    while next_bundle < bundles.len() {
        let mut block = [Op::Board; 16];
        block[1] = Op::Status;
        for slot in &mut block[2..] {
            *slot = Op::Submit(0);
        }
        rng.shuffle(&mut block);
        for op in block {
            match op {
                Op::Submit(_) if next_bundle < bundles.len() => {
                    ops.push(Op::Submit(next_bundle));
                    next_bundle += 1;
                }
                Op::Submit(_) => {}
                other => ops.push(other),
            }
        }
    }
    Ok(Traffic {
        board_request: render_request(
            addr,
            "GET",
            &format!("/rounds/{}/leaderboard", ROUND.label()),
            b"",
        ),
        status_request: render_request(
            addr,
            "GET",
            &format!("/rounds/{}/status", ROUND.label()),
            b"",
        ),
        server,
        bundles,
        kinds,
        submit_requests,
        ops,
    })
}

type Record = OpRecord<Option<Reply>>;

/// One phase of the run: its records, when it began, and where its
/// first operation sits in the run's operation sequence.
struct Phase {
    name: &'static str,
    origin: Instant,
    base: usize,
    records: Vec<Record>,
}

impl Phase {
    /// Each record with the operation it ran.
    fn with_ops<'a>(&'a self, ops: &'a [Op]) -> impl Iterator<Item = (Op, &'a Record)> {
        self.records.iter().map(move |record| (ops[self.base + record.index], record))
    }
}

/// Runs the workload.
pub fn run(options: &RunOptions, scratch: &Path, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut traffic = None;
    for repeat in 0..options.size.setup_repeats {
        // The previous repeat's server stops before the next starts.
        drop(traffic.take());
        let start = Instant::now();
        match set_up_once(options, &scratch.join(format!("live-{repeat}"))) {
            Ok(t) => {
                setups.push(start.elapsed().as_secs_f64());
                traffic = Some(t);
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("set-up failed: {e}"));
                return out;
            }
        }
    }
    let traffic = traffic.expect("at least one set-up ran");
    out.set("setup_s", stats::median(&setups));

    let addr = traffic.server.addr();
    let send = |client: &mut Client, index: usize| -> Option<Reply> {
        let request = match traffic.ops[index] {
            Op::Submit(bundle) => &traffic.submit_requests[bundle],
            Op::Board => &traffic.board_request,
            Op::Status => &traffic.status_request,
        };
        client.send(request).ok()
    };

    // The open-loop schedules come first: what they need is reserved,
    // the closed loop may use the rest.
    let mut rng = Rng::new(options.seed ^ 0x0a11_0ca7);
    let mut schedules: Vec<Vec<f64>> = RATES
        .iter()
        .map(|(_, rate, share)| poisson_schedule(*rate, share * options.seconds, &mut rng))
        .collect();
    let reserved: usize = schedules.iter().map(Vec::len).sum();
    let closed_budget = traffic.ops.len().saturating_sub(reserved);
    let mut clients: Vec<Client> = (0..CONNECTIONS).map(|_| Client::new(addr)).collect();

    // Phase A: closed loop, throughput.
    let mut phases: Vec<Phase> = Vec::new();
    let origin = Instant::now();
    let (records, back) =
        run_closed_loop(CLOSED_SHARE * options.seconds, closed_budget, clients, send);
    clients = back;
    let closed_wall = records.iter().map(|r| r.end).fold(0.0, f64::max);
    let mut offset = records.len();
    phases.push(Phase { name: "closed", origin, base: 0, records });

    // Phase B: open loops.
    for ((name, _, _), schedule) in RATES.iter().zip(&mut schedules) {
        schedule.truncate(traffic.ops.len() - offset);
        let origin = Instant::now();
        let base = offset;
        let (records, back) = run_open_loop(schedule, clients, |c, i| send(c, base + i));
        clients = back;
        offset += records.len();
        phases.push(Phase { name, origin, base, records });
    }
    let connections: u64 = clients.iter().map(Client::connections_opened).sum();
    drop(clients);
    // Read before the output checks below re-review the whole round in
    // this process: that memory is the benchmark's, not the service's.
    out.set("peak_rss_mb", env::peak_rss_mb());

    // Output checks on every reply, and the receipt order.
    let mut receipts: Vec<(u64, usize)> = Vec::new();
    let mut non2xx = 0u64;
    for phase in &phases {
        for (op, record) in phase.with_ops(&traffic.ops) {
            out.attempted += 1;
            match check_reply(op, record.result.as_ref(), &traffic.kinds) {
                Ok(Some(receipt)) => receipts.push(receipt),
                Ok(None) => {}
                Err(why) => {
                    non2xx += u64::from(record.result.as_ref().is_none_or(|r| r.status / 100 != 2));
                    out.fail(format!("{} operation {}: {why}", phase.name, record.index));
                }
            }
        }
    }

    // Close the round and hold the outcome against batch review of the
    // same bundles in receipt order.
    out.attempted += 1;
    receipts.sort_unstable();
    let in_order = RoundSubmissions {
        round: ROUND,
        references: round_references(ROUND),
        bundles: receipts.iter().map(|&(_, b)| traffic.bundles[b].clone()).collect(),
    };
    match traffic.server.core.close_round(ROUND) {
        Err(e) => out.fail(format!("close_round failed: {e}")),
        Ok(outcome) if outcome != run_round(&in_order) => out.fail(
            "the closed round's outcome differs from batch review of the same bundles".into(),
        ),
        Ok(_) => {}
    }

    // Latencies.
    let submits = |phase: &str, kind: Option<Kind>| -> Vec<f64> {
        let phase = phases.iter().find(|p| p.name == phase).expect("a run phase");
        phase
            .with_ops(&traffic.ops)
            .filter(|(op, _)| match op {
                Op::Submit(b) => kind.is_none_or(|k| traffic.kinds[*b] == k),
                _ => false,
            })
            .map(|(_, record)| record.latency_ms())
            .collect()
    };
    let accepted_closed = submits("closed", None).len();
    if !tracer.enabled() {
        let default = submits("r200", Some(Kind::Canonical));
        if default.is_empty() || closed_wall == 0.0 {
            out.fail("a phase completed no submits".into());
            return out;
        }
        out.set("job_p50_ms", stats::median(&default));
        out.set("jobs_per_s", accepted_closed as f64 / closed_wall);
        return out;
    }

    // The layer table.
    for phase in &phases {
        for (op, record) in phase.with_ops(&traffic.ops) {
            let name = match op {
                Op::Submit(_) => "service.submit",
                Op::Board => "service.leaderboard",
                Op::Status => "service.status",
            };
            let id = (phase.base + record.index) as u64;
            tracer.record(name, id, phase.origin, record.due, record.end);
        }
    }
    out.set("service.connections_opened", connections as f64);
    out.set("service.non2xx", non2xx as f64);
    let mut slo_rate = 0.0;
    let mut late = (0usize, 0usize);
    let mut backlog_peak = 0;
    for ((name, rate, _), Phase { records, .. }) in RATES.iter().zip(&phases[1..]) {
        let tail = stats::tail(&submits(name, None)).1;
        out.set(format!("service.p99_over_limit.{name}"), tail / SUBMIT_LIMIT_MS);
        let draining = records.last().is_none_or(|r| r.backlog <= CONNECTIONS);
        if tail <= SUBMIT_LIMIT_MS && draining {
            slo_rate = f64::max(slo_rate, *rate);
        }
        late.0 += records.iter().filter(|r| r.lateness_ms() > 1.0).count();
        late.1 += records.len();
        backlog_peak = backlog_peak.max(records.iter().map(|r| r.backlog).max().unwrap_or(0));
    }
    out.set("service.slo_rate_per_s", slo_rate);
    out.set("service.backlog_peak", backlog_peak as f64);
    out.set("gen.late_ops_pct", late.0 as f64 / late.1.max(1) as f64 * 100.0);
    let board_ms: Vec<f64> = phases
        .iter()
        .flat_map(|phase| phase.with_ops(&traffic.ops))
        .filter(|(op, _)| *op == Op::Board)
        .map(|(_, record)| record.latency_ms())
        .collect();
    if !board_ms.is_empty() {
        out.set("service.board_p90_over_limit", stats::tail(&board_ms).1 / SUBMIT_LIMIT_MS);
    }
    // Files and bytes the service persisted for the round's bundles.
    let mut written = (0u64, 0u64);
    let round_dir = traffic.server.core.archive().root().join(ROUND.label());
    env::for_each_file(&round_dir, &mut |path, len| {
        let name = path.file_name().and_then(|name| name.to_str());
        if !matches!(name, Some("round.json" | "outcome.json")) {
            written.0 += 1;
            written.1 += len;
        }
    });
    let persisted = receipts.len().max(1) as f64;
    out.set("store.files_written_per_bundle", written.0 as f64 / persisted);
    out.set("store.bytes_written_per_bundle", written.1 as f64 / persisted);

    // Where a job's time goes: the same bundles, single-threaded,
    // through the public pieces a submit is made of.
    let loaded =
        [Kind::Canonical, Kind::Respaced].map(|k| stats::median(&submits("r200", Some(k))));
    let bodies = |kind: Kind| -> Vec<&[u8]> {
        let of_kind = traffic.kinds.iter().enumerate().filter(|(_, k)| **k == kind);
        of_kind.take(200).map(|(i, _)| body_of(&traffic.submit_requests[i])).collect()
    };
    let pieces = [Kind::Canonical, Kind::Respaced]
        .map(|kind| decompose(&bodies(kind), &scratch.join(format!("pieces-{kind:?}"))));
    match pieces {
        [Ok(default), Ok(alternative)] => {
            let pair_us = (loaded[0] + loaded[1]) * 1e3;
            let mut attributed = 0.0;
            for (name, a, b) in [
                ("share.wire.deserialize", default.deserialize_us, alternative.deserialize_us),
                ("share.review.bundle", default.review_us, alternative.review_us),
                ("share.store.write_bundle", default.write_bundle_us, alternative.write_bundle_us),
                (
                    "share.round.push_reviewed",
                    default.push_reviewed_us,
                    alternative.push_reviewed_us,
                ),
                ("share.service.http", default.http_overhead_us(), alternative.http_overhead_us()),
            ] {
                let share = (a + b) / pair_us * 100.0;
                out.set(name, share);
                attributed += share;
            }
            // Lock waits and queueing under load, and whatever of
            // `submit_bundle` is none of the pieces above.
            out.set("trace.unattributed_pct", 100.0 - attributed);
            out.set("trace.job_ms", loaded[0]);
            // The generator records its spans after the fact, so the
            // untraced job is this same measurement.
            out.set("trace.untraced_job_ms", loaded[0]);
            out.set("trace.alt_job_ms", loaded[1]);
            out.set("trace.job_tail_ms", stats::tail(&submits("r200", None)).1);
            out.set("trace.overhead_pct", 0.0);
        }
        [Err(e), _] | [_, Err(e)] => out.fail(format!("decomposition failed: {e}")),
    }
    out
}

/// The body of a request rendered by [`render_request`].
fn body_of(request: &[u8]) -> &[u8] {
    let head_end = request.windows(4).position(|w| w == b"\r\n\r\n").expect("a rendered request");
    &request[head_end + 4..]
}

/// Checks one reply against what the generator sent; a submit yields
/// its `(receipt index, bundle)` pair.
fn check_reply(
    op: Op,
    reply: Option<&Reply>,
    kinds: &[Kind],
) -> Result<Option<(u64, usize)>, String> {
    let reply = reply.ok_or("no reply")?;
    if reply.status / 100 != 2 {
        return Err(format!("status {}", reply.status));
    }
    let Op::Submit(bundle) = op else { return Ok(None) };
    let receipt: Value = serde_json::from_str(&String::from_utf8_lossy(&reply.body))
        .map_err(|e| format!("receipt is not JSON: {e}"))?;
    let index = receipt["index"].as_u64().ok_or("receipt has no index")?;
    let clean = receipt["clean"].as_bool().ok_or("receipt has no clean flag")?;
    let expected = kinds[bundle] != Kind::Truncated;
    if clean != expected {
        return Err(format!("{:?} bundle came back clean={clean}", kinds[bundle]));
    }
    Ok(Some((index, bundle)))
}

/// Median microseconds of each piece of one submit, measured
/// single-threaded on an idle process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decomposition {
    /// `serde_json::from_str::<SubmissionBundle>` on the request body.
    pub deserialize_us: f64,
    /// `StreamingReview::review_bundle`.
    pub review_us: f64,
    /// `OpenRoundWriter::write_bundle`.
    pub write_bundle_us: f64,
    /// `StreamingReview::push_reviewed` (with the service's spill).
    pub push_reviewed_us: f64,
    /// `ServiceCore::submit_bundle`, all of the above under its locks.
    pub submit_core_us: f64,
    /// One submit over one HTTP connection, reply included.
    pub http_submit_us: f64,
}

impl Decomposition {
    /// What HTTP adds: a submit over the wire minus parsing its body
    /// and minus `submit_bundle`.
    pub fn http_overhead_us(&self) -> f64 {
        self.http_submit_us - self.deserialize_us - self.submit_core_us
    }
}

/// Replays `bodies` (serialized bundles) through the public pieces a
/// live submit is made of, each piece over its own fresh archive under
/// `dir`.
///
/// # Errors
///
/// When a body does not parse, an archive cannot be written, or the
/// service refuses a bundle.
pub fn decompose(bodies: &[&[u8]], dir: &Path) -> Result<Decomposition, String> {
    if bodies.is_empty() {
        return Err("no bundles to decompose".into());
    }
    let us = |start: Instant| start.elapsed().as_secs_f64() * 1e6;
    let mut deserialize = Vec::new();
    let mut bundles = Vec::new();
    for body in bodies {
        let text = String::from_utf8_lossy(body);
        let start = Instant::now();
        let bundle: SubmissionBundle = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        deserialize.push(us(start));
        bundles.push(bundle);
    }

    let references = round_references(ROUND);
    let archive = RoundArchive::create(dir.join("pieces")).map_err(|e| e.to_string())?;
    let writer = archive.open_round(ROUND, references.clone()).map_err(|e| e.to_string())?;
    let spill = archive.root().join(".service").join(ROUND.label());
    let mut review = StreamingReview::new(ROUND, references).with_spill(spill);
    let (mut reviews, mut writes, mut pushes) = (Vec::new(), Vec::new(), Vec::new());
    for (index, bundle) in bundles.iter().enumerate() {
        let start = Instant::now();
        let reviewed = review.review_bundle(bundle);
        reviews.push(us(start));
        let start = Instant::now();
        writer.write_bundle(index as u64, bundle).map_err(|e| e.to_string())?;
        writes.push(us(start));
        let start = Instant::now();
        review.push_reviewed(index as u64, index, reviewed);
        pushes.push(us(start));
    }

    let core_archive = RoundArchive::create(dir.join("core")).map_err(|e| e.to_string())?;
    let core = ServiceCore::new(core_archive, Telemetry::disabled());
    core.open_round(ROUND, round_references(ROUND)).map_err(|e| e.to_string())?;
    let mut cores = Vec::new();
    for bundle in &bundles {
        let start = Instant::now();
        core.submit_bundle(ROUND, bundle).map_err(|e| e.to_string())?;
        cores.push(us(start));
    }

    let server = Server::start(&dir.join("http"))?;
    let mut client = Client::new(server.addr());
    let path = submit_path();
    let mut https = Vec::new();
    for body in bodies {
        let request = render_request(server.addr(), "POST", &path, body);
        let start = Instant::now();
        let reply = client.send(&request).map_err(|e| e.to_string())?;
        https.push(us(start));
        if reply.status != 200 {
            return Err(format!("submit answered {}", reply.status));
        }
    }
    Ok(Decomposition {
        deserialize_us: stats::median(&deserialize),
        review_us: stats::median(&reviews),
        write_bundle_us: stats::median(&writes),
        push_reviewed_us: stats::median(&pushes),
        submit_core_us: stats::median(&cores),
        http_submit_us: stats::median(&https),
    })
}
