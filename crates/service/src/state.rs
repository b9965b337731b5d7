//! The transport-agnostic service core: open rounds, concurrent
//! submission, cached leaderboards, close-and-publish.
//!
//! One [`ServiceCore`] owns a [`RoundArchive`] and a map of round
//! slots. An *open* round couples three pieces:
//!
//! - an [`OpenRoundWriter`] persisting accepted uploads incrementally
//!   (`round.json` only lands at close, so a crashed service leaves a
//!   recognizably incomplete round behind);
//! - a [`StreamingReview`] holding every per-bundle result — report,
//!   accepted and scenario entries — in memory from arrival until close,
//!   exactly as batch ingest does;
//! - a rendered-leaderboard cache keyed by a version counter that
//!   bumps once per accepted bundle, so heavy read traffic between
//!   acceptances is a clone of a cached `String`, not a re-rank.
//!
//! Concurrency: submissions take a read lock for the heavy
//! parse-and-review stage (many uploads review in parallel, each on
//! its caller's thread) and a short write lock to assign the submission
//! index, persist the bundle, and publish the reviewed result. Closing
//! publishes a [`RoundOutcome`] that is — by the `StreamingReview`
//! feed-key contract — identical to batch ingest of the same bundles in
//! index order, hands it to the caller, and flips the slot to the
//! round's final status and board, all under the write lock: a reader
//! sees the open round with every bundle or the closed one, never a
//! round half closed. Open and closed boards alike are
//! [`render_boards`] of a [`RoundOutcome`], the batch report's text.

use mlperf_distsim::Round;
use mlperf_submission::leaderboard::render_boards;
use mlperf_submission::round::ReviewedBundle;
use mlperf_submission::store::OpenRoundWriter;
use mlperf_submission::{
    BenchmarkReference, RoundArchive, RoundOutcome, StoreError, StreamingReview, SubmissionBundle,
};
use mlperf_telemetry::{render_prometheus, Counter, Telemetry};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// What went wrong with a service request. Transport layers map these
/// onto their own error surface (HTTP: 404 / 409 / 500).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// No round with this label has been opened.
    UnknownRound(Round),
    /// The round exists but is closed; submissions and close are
    /// rejected.
    RoundClosed(Round),
    /// An open or closed round already occupies this label, in this
    /// process or as a directory in the archive, published or still
    /// filling.
    RoundAlreadyOpen(Round),
    /// The archive could not persist a bundle or the round manifest.
    Store(StoreError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownRound(round) => write!(f, "round {round} is not open"),
            ServiceError::RoundClosed(round) => write!(f, "round {round} is closed"),
            ServiceError::RoundAlreadyOpen(round) => write!(f, "round {round} is already open"),
            ServiceError::Store(e) => write!(f, "archive error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What a submitter gets back: where their bundle landed and what
/// review decided, immediately — review runs on arrival, not at close.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitReceipt {
    /// The round submitted into.
    pub round: Round,
    /// The submission index assigned (arrival order).
    pub index: u64,
    /// The submitting organization, echoed back.
    pub org: String,
    /// Whether review raised no diagnostics.
    pub clean: bool,
    /// Accepted time-to-train entries this bundle contributed.
    pub accepted_entries: usize,
    /// Published scenario entries this bundle contributed.
    pub scenario_entries: usize,
    /// Every diagnostic, rendered `benchmark: fault`.
    pub diagnostics: Vec<String>,
}

/// A point-in-time view of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStatus {
    /// The round described.
    pub round: Round,
    /// Whether the round still accepts submissions.
    pub open: bool,
    /// Bundles reviewed so far.
    pub bundles: usize,
    /// Accepted time-to-train entries so far.
    pub accepted_entries: usize,
    /// Published scenario entries so far.
    pub scenario_entries: usize,
    /// Bundles quarantined so far.
    pub quarantined: usize,
    /// Bumps once per accepted bundle; a stable version between two
    /// reads means the leaderboard cannot have changed.
    pub leaderboard_version: u64,
}

/// Mutable state of an open round, behind the slot's `RwLock`.
#[derive(Debug)]
struct OpenState {
    /// `None` once close has taken it; by then the round map holds the
    /// closed slot, so a caller that finds `None` looks the round up
    /// again.
    review: Option<StreamingReview>,
    /// Next submission index to assign.
    next: u64,
    accepted_entries: usize,
    scenario_entries: usize,
}

/// One open round: writer + review behind a read/write lock, plus the
/// lock-light rendered-leaderboard cache.
#[derive(Debug)]
struct OpenRound {
    writer: OpenRoundWriter,
    state: RwLock<OpenState>,
    /// Bumped once per accepted bundle; the cache key.
    version: AtomicU64,
    /// Last rendered leaderboard and the version it was rendered at.
    cache: Mutex<Option<(u64, String)>>,
}

/// A round that has been closed and published: its final status and
/// board. The outcome itself went to `close_round`'s caller and to
/// `outcome.json`.
#[derive(Debug)]
struct ClosedRound {
    status: RoundStatus,
    board: String,
}

#[derive(Debug, Clone)]
enum Slot {
    Open(Arc<OpenRound>),
    Closed(Arc<ClosedRound>),
}

/// The live submission service, transport-agnostic: everything the
/// HTTP layer exposes is a method here, so tests (and any future
/// transport) drive the identical code paths.
#[derive(Debug)]
pub struct ServiceCore {
    archive: RoundArchive,
    telemetry: Telemetry,
    rounds: Mutex<BTreeMap<Round, Slot>>,
    // The `service.*` counters, resolved once so a request never looks
    // a metric up by name.
    rounds_opened: Counter,
    bundles_submitted: Counter,
    entries_accepted: Counter,
    bundles_quarantined: Counter,
    leaderboard_cache_hits: Counter,
    leaderboard_cache_misses: Counter,
    rounds_closed: Counter,
}

impl ServiceCore {
    /// A service over `archive`, instrumented into `telemetry`
    /// (`service.*` counters, plus everything review and the store
    /// already emit).
    pub fn new(archive: RoundArchive, telemetry: Telemetry) -> Self {
        ServiceCore {
            rounds_opened: telemetry.counter("service.rounds_opened"),
            bundles_submitted: telemetry.counter("service.bundles_submitted"),
            entries_accepted: telemetry.counter("service.entries_accepted"),
            bundles_quarantined: telemetry.counter("service.bundles_quarantined"),
            leaderboard_cache_hits: telemetry.counter("service.leaderboard_cache_hits"),
            leaderboard_cache_misses: telemetry.counter("service.leaderboard_cache_misses"),
            rounds_closed: telemetry.counter("service.rounds_closed"),
            archive,
            telemetry,
            rounds: Mutex::new(BTreeMap::new()),
        }
    }

    /// The archive rounds persist into.
    pub fn archive(&self) -> &RoundArchive {
        &self.archive
    }

    /// Opens `round` for submissions.
    ///
    /// # Errors
    ///
    /// [`ServiceError::RoundAlreadyOpen`] when the label is taken: open
    /// or closed in this process, or a directory in the archive,
    /// published or still filling (say, from before a restart).
    /// [`ServiceError::Store`] when the round directory cannot be
    /// created.
    pub fn open_round(
        &self,
        round: Round,
        references: Vec<BenchmarkReference>,
    ) -> Result<(), ServiceError> {
        let mut rounds = self.rounds.lock().expect("round map poisoned");
        if rounds.contains_key(&round) {
            return Err(ServiceError::RoundAlreadyOpen(round));
        }
        let writer = self.archive.open_round(round, references.clone()).map_err(|e| match e {
            StoreError::RoundExists { .. } => ServiceError::RoundAlreadyOpen(round),
            e => ServiceError::Store(e),
        })?;
        let review = StreamingReview::traced(round, references, &self.telemetry, None);
        let open = OpenRound {
            writer,
            state: RwLock::new(OpenState {
                review: Some(review),
                next: 0,
                accepted_entries: 0,
                scenario_entries: 0,
            }),
            version: AtomicU64::new(0),
            cache: Mutex::new(None),
        };
        rounds.insert(round, Slot::Open(Arc::new(open)));
        self.rounds_opened.incr();
        Ok(())
    }

    /// The slot for `round`, cloned out of the map so callers never
    /// hold the map lock across review or rendering.
    fn slot(&self, round: Round) -> Result<Slot, ServiceError> {
        self.rounds
            .lock()
            .expect("round map poisoned")
            .get(&round)
            .cloned()
            .ok_or(ServiceError::UnknownRound(round))
    }

    fn open_slot(&self, round: Round) -> Result<Arc<OpenRound>, ServiceError> {
        match self.slot(round)? {
            Slot::Open(open) => Ok(open),
            Slot::Closed(_) => Err(ServiceError::RoundClosed(round)),
        }
    }

    /// Submits one bundle into an open round: reviewed on arrival
    /// (on the calling thread, concurrently with other submissions),
    /// persisted to the archive, and published into the round's
    /// incremental results. The receipt carries review's
    /// verdict immediately.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownRound`] / [`ServiceError::RoundClosed`]
    /// for bad targets, [`ServiceError::Store`] when the bundle cannot
    /// be persisted (the round stays open; the bundle is not
    /// published).
    pub fn submit_bundle(
        &self,
        round: Round,
        bundle: &SubmissionBundle,
    ) -> Result<SubmitReceipt, ServiceError> {
        let open = self.open_slot(round)?;
        // Heavy stage under the read lock: many submissions parse and
        // review in parallel.
        let reviewed: ReviewedBundle = {
            let state = open.state.read().expect("round state poisoned");
            let Some(review) = &state.review else {
                return Err(ServiceError::RoundClosed(round));
            };
            review.review_bundle(bundle)
        };
        let receipt = SubmitReceipt {
            round,
            index: 0, // assigned below
            org: reviewed.org().to_string(),
            clean: reviewed.is_clean(),
            accepted_entries: reviewed.accepted_entries().len(),
            scenario_entries: reviewed.scenario_entries().len(),
            diagnostics: reviewed.diagnostic_lines(),
        };
        let receipt = {
            // Short write lock: index assignment, persistence, publish.
            // Persisting inside the lock means a closing round can
            // never finalize with this bundle on disk but missing from
            // the outcome.
            let mut guard = open.state.write().expect("round state poisoned");
            let state = &mut *guard;
            let Some(review) = &mut state.review else {
                return Err(ServiceError::RoundClosed(round));
            };
            let index = state.next;
            open.writer.write_bundle(index, bundle).map_err(ServiceError::Store)?;
            state.next += 1;
            review.push_reviewed(index, index as usize, reviewed);
            state.accepted_entries += receipt.accepted_entries;
            state.scenario_entries += receipt.scenario_entries;
            SubmitReceipt { index, ..receipt }
        };
        // Invalidate cached leaderboards only when the board could
        // actually have changed.
        if receipt.accepted_entries > 0 || receipt.scenario_entries > 0 {
            open.version.fetch_add(1, Ordering::SeqCst);
        }
        self.bundles_submitted.incr();
        self.entries_accepted.add(receipt.accepted_entries as u64);
        if !receipt.clean {
            self.bundles_quarantined.incr();
        }
        Ok(receipt)
    }

    /// The round's rendered leaderboards — training boards in Table-1
    /// order, then scenario boards — headed by a status line. Reads are
    /// lock-light: between accepted bundles this is one atomic load, a
    /// cache-mutex lock, and a `String` clone.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownRound`] when the round was never opened.
    pub fn leaderboard(&self, round: Round) -> Result<String, ServiceError> {
        match self.slot(round)? {
            Slot::Closed(closed) => Ok(closed.board.clone()),
            Slot::Open(open) => {
                let version = open.version.load(Ordering::SeqCst);
                if let Some((cached_version, text)) =
                    open.cache.lock().expect("board cache poisoned").as_ref()
                {
                    if *cached_version == version {
                        self.leaderboard_cache_hits.incr();
                        return Ok(text.clone());
                    }
                }
                self.leaderboard_cache_misses.incr();
                let (view, bundles, quarantined) = {
                    let state = open.state.read().expect("round state poisoned");
                    let Some(review) = &state.review else {
                        drop(state);
                        return self.leaderboard(round);
                    };
                    let (accepted, scenarios) = review.entries_so_far();
                    let view = RoundOutcome {
                        round,
                        accepted,
                        scenarios,
                        quarantined: Vec::new(),
                        reports: Vec::new(),
                    };
                    (view, review.bundles_reviewed(), review.quarantined_so_far())
                };
                let text = board_text(&view, true, bundles, quarantined);
                // Cache under the version read *before* the snapshot: a
                // concurrent acceptance can only make the stored
                // version stale, never mask a newer board.
                *open.cache.lock().expect("board cache poisoned") = Some((version, text.clone()));
                Ok(text)
            }
        }
    }

    /// A point-in-time status of `round`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownRound`] when the round was never opened.
    pub fn round_status(&self, round: Round) -> Result<RoundStatus, ServiceError> {
        match self.slot(round)? {
            Slot::Closed(closed) => Ok(closed.status.clone()),
            Slot::Open(open) => {
                let state = open.state.read().expect("round state poisoned");
                let Some(review) = &state.review else {
                    drop(state);
                    return self.round_status(round);
                };
                Ok(RoundStatus {
                    round,
                    open: true,
                    bundles: review.bundles_reviewed(),
                    accepted_entries: state.accepted_entries,
                    scenario_entries: state.scenario_entries,
                    quarantined: review.quarantined_so_far(),
                    leaderboard_version: open.version.load(Ordering::SeqCst),
                })
            }
        }
    }

    /// Rounds the service knows about, with their open/closed state.
    pub fn rounds(&self) -> Vec<(Round, bool)> {
        self.rounds
            .lock()
            .expect("round map poisoned")
            .iter()
            .map(|(round, slot)| (*round, matches!(slot, Slot::Open(_))))
            .collect()
    }

    /// Closes `round`: no further submissions are accepted, the
    /// archive round is finalized (`round.json` lands, then
    /// `outcome.json`), and the published [`RoundOutcome`] — identical
    /// to batch ingest of the same bundles — replaces the open slot.
    /// Everything up to the slot swap happens under the round's write
    /// lock, so no reader sees a round that is neither open with all
    /// its bundles nor closed.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownRound`] / [`ServiceError::RoundClosed`]
    /// for bad targets. [`ServiceError::Store`] when `round.json`
    /// cannot be written: the round stays open with every bundle, and
    /// closing may be retried. Also [`ServiceError::Store`] when
    /// `outcome.json` cannot be written: the round is closed and
    /// published by then, and only that derived summary is missing.
    pub fn close_round(&self, round: Round) -> Result<RoundOutcome, ServiceError> {
        let open = self.open_slot(round)?;
        let outcome = {
            let mut state = open.state.write().expect("round state poisoned");
            if state.review.is_none() {
                return Err(ServiceError::RoundClosed(round));
            }
            open.writer.finalize().map_err(ServiceError::Store)?;
            let outcome = state.review.take().expect("checked above").finish();
            let status = RoundStatus {
                round,
                open: false,
                bundles: outcome.reports.len(),
                accepted_entries: outcome.accepted.len(),
                scenario_entries: outcome.scenarios.len(),
                quarantined: outcome.quarantined.len(),
                leaderboard_version: open.version.load(Ordering::SeqCst),
            };
            let board = board_text(&outcome, false, status.bundles, status.quarantined);
            self.rounds
                .lock()
                .expect("round map poisoned")
                .insert(round, Slot::Closed(Arc::new(ClosedRound { status, board })));
            outcome
        };
        self.rounds_closed.incr();
        self.archive.write_outcome(&outcome).map_err(ServiceError::Store)?;
        Ok(outcome)
    }

    /// The Prometheus exposition of the service's registry: `service_*`
    /// counters, review/store instrumentation, reporter time-series
    /// (live ingest throughput as `*_per_sec` gauges), and worker-pool
    /// gauges. Scrape-safe: only idempotent gauge sets happen here, so
    /// polling `/metrics` never inflates a counter. Rendered from the
    /// registry alone, so a scrape costs the same however many spans
    /// the service has recorded.
    pub(crate) fn metrics_text(&self) -> String {
        let stats = mlperf_pool::pool_stats();
        self.telemetry.gauge("pool.workers_busy").set(stats.workers_busy);
        self.telemetry.gauge("pool.workers_busy_hwm").set(stats.workers_busy_peak);
        self.telemetry.gauge("pool.queue_depth").set(stats.queue_depth);
        self.telemetry.gauge("pool.fanout_width_hwm").set(stats.fanout_width_peak);
        render_prometheus(&self.telemetry.metrics_snapshot())
    }

    /// The service's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

/// A round's board as the service serves it: a status header over the
/// batch [`render_boards`] text of `outcome`.
fn board_text(outcome: &RoundOutcome, open: bool, bundles: usize, quarantined: usize) -> String {
    format!(
        "== round {} ({}): {bundles} bundles reviewed, {quarantined} quarantined ==\n\n{}",
        outcome.round,
        if open { "open" } else { "closed" },
        render_boards(outcome),
    )
}
