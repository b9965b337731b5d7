//! Running a whole round: concurrent ingest with quarantine.
//!
//! The bundle is the unit of work. [`crate::review::review_bundle`]
//! parses one bundle's `:::MLLOG` logs and reviews it against the round
//! references, on whichever thread calls it; [`StreamingReview`] maps
//! it over a chunk of bundles on the scoped worker pool and publishes
//! the results in feed-key order. A round in memory ([`run_round`]) is
//! one chunk and a live upload is a chunk of one reviewed inline; an
//! archive replay maps a chunk of bundle directories, each pool task
//! reading its bundle and parsing each log once for both the store's
//! fault check and the same review — so the three cannot disagree. The
//! paper's run-count rule (5 runs for vision, 10 otherwise) keeps a
//! bundle under a hundred or so logs, which is why logs within a bundle
//! are not fanned out.

use crate::bundle::{BenchmarkReference, SubmissionBundle};
use crate::review::{emit_rejection_events, parse_logs, review_logs, ParsedLog, ReviewReport};
use mlperf_core::aggregate::ScenarioSummary;
use mlperf_core::rules::{Division, Scenario};
use mlperf_core::suite::BenchmarkId;
use mlperf_distsim::Round;
use mlperf_telemetry::{arg, Counter, SpanId, SpanScope, Telemetry};
use serde_json::{json, Map};
use std::path::PathBuf;

/// Everything a round ingests: the round label, the per-benchmark
/// references review validates against, and the submitted bundles.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSubmissions {
    /// Which round this is.
    pub round: Round,
    /// Review references, one per benchmark in the round.
    pub references: Vec<BenchmarkReference>,
    /// The submitted bundles.
    pub bundles: Vec<SubmissionBundle>,
}

/// One run set that survived review, flattened for publication.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceptedEntry {
    /// Submitting organization.
    pub org: String,
    /// System name.
    pub system: String,
    /// Accelerator chips in the system.
    pub chips: usize,
    /// The bundle's division.
    pub division: Division,
    /// Which benchmark.
    pub benchmark: BenchmarkId,
    /// Aggregated time-to-train in minutes.
    pub minutes: f64,
    /// Timed runs behind the score.
    pub runs: usize,
}

/// One loadgen scenario measurement that survived review, flattened
/// for publication: the inference-side counterpart of
/// [`AcceptedEntry`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioEntry {
    /// Submitting organization.
    pub org: String,
    /// System name.
    pub system: String,
    /// Accelerator chips in the system.
    pub chips: usize,
    /// The bundle's division.
    pub division: Division,
    /// Which benchmark served the queries.
    pub benchmark: BenchmarkId,
    /// The reviewed scenario measurement (latency percentiles, QPS).
    pub summary: ScenarioSummary,
}

impl ScenarioEntry {
    /// The scenario this entry was measured under.
    pub fn scenario(&self) -> Scenario {
        self.summary.scenario
    }
}

/// The published outcome of a round. `PartialEq` so the archive
/// round-trip property — write a round to disk, re-ingest, re-review —
/// can assert outcome identity.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// Which round this is.
    pub round: Round,
    /// Every run set that passed review, in bundle order.
    pub accepted: Vec<AcceptedEntry>,
    /// Every loadgen scenario measurement that passed review, in
    /// bundle order.
    pub scenarios: Vec<ScenarioEntry>,
    /// Reports of bundles with at least one diagnostic. A quarantined
    /// bundle's *clean* run sets still score — review isolates faults
    /// at run-set granularity.
    pub quarantined: Vec<ReviewReport>,
    /// All review reports, in bundle order.
    pub reports: Vec<ReviewReport>,
}

impl RoundOutcome {
    /// Accepted entries for one benchmark and division.
    pub(crate) fn entries_for(
        &self,
        benchmark: BenchmarkId,
        division: Division,
    ) -> impl Iterator<Item = &AcceptedEntry> {
        self.accepted.iter().filter(move |e| e.benchmark == benchmark && e.division == division)
    }

    /// Scenario entries for one benchmark, division, and scenario.
    pub fn scenarios_for(
        &self,
        benchmark: BenchmarkId,
        division: Division,
        scenario: Scenario,
    ) -> impl Iterator<Item = &ScenarioEntry> {
        self.scenarios.iter().filter(move |e| {
            e.benchmark == benchmark && e.division == division && e.scenario() == scenario
        })
    }
}

/// Runs review over every bundle and publishes the outcome. Bundles
/// are reviewed on a scoped worker pool; ingest is fault-tolerant
/// throughout — parse failures, compliance violations, and even panics
/// inside parsing or review become quarantined reports. A bad bundle
/// can never abort the round.
pub fn run_round(submissions: &RoundSubmissions) -> RoundOutcome {
    run_round_with(submissions, &Telemetry::disabled())
}

/// [`run_round`] with instrumentation: an `ingest`-layer `run_round`
/// span over the [`StreamingReview`] spans, metrics and counters of one
/// chunk holding every bundle. A disabled handle makes this exactly
/// [`run_round`].
pub fn run_round_with(submissions: &RoundSubmissions, telemetry: &Telemetry) -> RoundOutcome {
    let bundles = &submissions.bundles;
    let mut scope = telemetry.timeline_scope();
    let round_span = scope.start_with("ingest", "run_round", || {
        Map::from([
            arg("round", json!(submissions.round.label())),
            arg("bundles", json!(bundles.len())),
        ])
    });
    let mut review = StreamingReview::traced(
        submissions.round,
        submissions.references.clone(),
        telemetry,
        scope.current(),
    );
    let chunk: Vec<(u64, usize, &SubmissionBundle)> =
        bundles.iter().enumerate().map(|(i, bundle)| (i as u64, i, bundle)).collect();
    review.add_bundles(&chunk);
    let outcome = review.finish();
    let (accepted, quarantined) = (outcome.accepted.len(), outcome.quarantined.len());
    scope.end_with(round_span, || {
        Map::from([arg("accepted", json!(accepted)), arg("quarantined", json!(quarantined))])
    });
    outcome
}

/// The accepted entries one reviewed bundle contributes, in the
/// bundle's own run-set order.
fn accepted_entries(bundle: &SubmissionBundle, report: &ReviewReport) -> Vec<AcceptedEntry> {
    report
        .benchmarks
        .iter()
        .filter_map(|review| {
            review.minutes.map(|minutes| AcceptedEntry {
                org: bundle.org.clone(),
                system: bundle.system.system_name.clone(),
                chips: bundle.system.accelerators,
                division: bundle.division,
                benchmark: review.benchmark,
                minutes,
                runs: review.runs,
            })
        })
        .collect()
}

/// The scenario entries one reviewed bundle contributes, in the
/// bundle's own run-set and log order. Like time-to-train scores,
/// scenario measurements publish only from benchmark reviews with no
/// diagnostics — a quarantined run set's latencies never reach the
/// leaderboard.
fn scenario_entries(bundle: &SubmissionBundle, report: &ReviewReport) -> Vec<ScenarioEntry> {
    report
        .benchmarks
        .iter()
        .filter(|review| review.diagnostics.is_empty())
        .flat_map(|review| {
            review.scenarios.iter().map(|summary| ScenarioEntry {
                org: bundle.org.clone(),
                system: bundle.system.system_name.clone(),
                chips: bundle.system.accelerators,
                division: bundle.division,
                benchmark: review.benchmark,
                summary: *summary,
            })
        })
        .collect()
}

/// One instant event per quarantine diagnostic, naming the org, the
/// benchmark, and the fault — the quarantine decision shows up as a
/// tick on the round's trace lane.
fn emit_quarantine_events(scope: &mut SpanScope<'_>, report: &ReviewReport) {
    for (benchmark, diagnostic) in report.diagnostics() {
        scope.event_with("ingest", "quarantine", || {
            Map::from([
                arg("org", json!(report.org)),
                arg("benchmark", json!(benchmark.to_string())),
                arg("fault", json!(diagnostic.to_string())),
            ])
        });
    }
}

/// One bundle's review results, produced by
/// [`StreamingReview::review_bundle`] and handed back via
/// [`StreamingReview::push_reviewed`]. Splitting review (read-only,
/// heavy) from publication (mutating, cheap) is what lets a live
/// service review many uploads concurrently under a shared read lock.
#[derive(Debug, Clone)]
pub struct ReviewedBundle {
    entries: Vec<AcceptedEntry>,
    scenarios: Vec<ScenarioEntry>,
    report: ReviewReport,
}

impl ReviewedBundle {
    /// Whether review raised no diagnostics.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }

    /// The submitting organization.
    pub fn org(&self) -> &str {
        &self.report.org
    }

    /// Accepted time-to-train entries this bundle contributes.
    pub fn accepted_entries(&self) -> &[AcceptedEntry] {
        &self.entries
    }

    /// Published scenario entries this bundle contributes.
    pub fn scenario_entries(&self) -> &[ScenarioEntry] {
        &self.scenarios
    }

    /// Every diagnostic, rendered `benchmark: fault`.
    pub fn diagnostic_lines(&self) -> Vec<String> {
        self.report.diagnostics().map(|(benchmark, d)| format!("{benchmark}: {d}")).collect()
    }
}

/// Incremental round review: bundles are fed one at a time
/// ([`StreamingReview::add_bundle`], reviewed on the calling thread) or
/// a chunk at a time ([`StreamingReview::add_bundles`], reviewed on the
/// scoped worker pool), their log text droppable as soon as the call
/// returns, and [`StreamingReview::finish`] publishes the
/// [`RoundOutcome`] with bundles ordered by their `(index, arrival)`
/// feed keys. Only the per-bundle results — report, accepted and
/// scenario entries — stay resident, from arrival until `finish`, so a
/// many-thousand-bundle round never holds more than one chunk's logs in
/// memory. [`run_round`] is one chunk through this type, and the live
/// service holds one per open round.
#[derive(Debug)]
pub struct StreamingReview {
    round: Round,
    references: Vec<BenchmarkReference>,
    telemetry: Telemetry,
    logs_parsed: Counter,
    bundles_reviewed: Counter,
    /// Parent span for per-bundle spans and quarantine events.
    parent: Option<SpanId>,
    /// Per-bundle results keyed by the caller's `(index, arrival)`
    /// ordering key.
    results: Vec<((u64, usize), ReviewedBundle)>,
}

impl StreamingReview {
    /// An uninstrumented streaming review of one round.
    pub fn new(round: Round, references: Vec<BenchmarkReference>) -> Self {
        StreamingReview::traced(round, references, &Telemetry::disabled(), None)
    }

    /// [`StreamingReview::new`] with instrumentation: a `review_bundle`
    /// span per bundle on the reviewing thread's track, parented under
    /// `parent`, with the bundle's `parse_log` spans and its quarantine
    /// and rejection events beneath it (an archive replay parses as it
    /// reads, so there the `parse_log` spans sit under a `read_bundle`
    /// span that precedes the bundle's), plus the `ingest.*` counters,
    /// whose handles are resolved here once. Every bundle is recorded.
    pub fn traced(
        round: Round,
        references: Vec<BenchmarkReference>,
        telemetry: &Telemetry,
        parent: Option<SpanId>,
    ) -> Self {
        StreamingReview {
            round,
            references,
            telemetry: telemetry.clone(),
            logs_parsed: telemetry.counter("ingest.logs_parsed"),
            bundles_reviewed: telemetry.counter("ingest.bundles_reviewed"),
            parent,
            results: Vec::new(),
        }
    }

    /// Returns `self` unchanged: reports stay resident until
    /// [`StreamingReview::finish`]. Kept only because the benchmark's
    /// submit decomposition calls it; it goes with ROADMAP item 1(d).
    #[doc(hidden)]
    pub fn with_spill(self, _dir: impl Into<PathBuf>) -> Self {
        self
    }

    /// Parses and reviews one bundle now, on the calling thread.
    /// `index` is the bundle's manifest submission-order position and
    /// `arrival` its ingest order; together they decide where the
    /// bundle's results land in the finished outcome, so feeding order
    /// never changes it.
    pub fn add_bundle(&mut self, index: u64, arrival: usize, bundle: &SubmissionBundle) {
        self.add_bundles(&[(index, arrival, bundle)]);
    }

    /// Reviews a chunk of `(index, arrival, bundle)` on the scoped
    /// worker pool — one bundle per claim, a chunk of one inline — and
    /// publishes the results in chunk order.
    pub fn add_bundles(&mut self, chunk: &[(u64, usize, &SubmissionBundle)]) {
        let reviewed = self.fan_out(chunk, |scope, (_, arrival, bundle)| {
            self.review_on(scope, *arrival, bundle, |scope| parse_logs(bundle, scope))
        });
        for ((index, arrival, _), reviewed) in chunk.iter().zip(reviewed) {
            self.push_reviewed(*index, *arrival, reviewed);
        }
    }

    /// Maps `f` over `items` on the scoped worker pool, each worker on a
    /// span scope of its own under this review's parent span, and
    /// returns the results in item order. With instrumentation, an
    /// `ingest.review_bundle.workers` gauge carries the pool size and an
    /// `ingest.review_bundle.items_per_worker` sketch shows how evenly
    /// the atomic cursor spread the items.
    pub(crate) fn fan_out<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(&mut SpanScope<'_>, &T) -> R + Sync,
    ) -> Vec<R> {
        let telemetry = &self.telemetry;
        telemetry
            .gauge("ingest.review_bundle.workers")
            .set(mlperf_pool::workers_for(items.len()) as u64);
        let per_worker = telemetry.sketch("ingest.review_bundle.items_per_worker");
        mlperf_pool::parallel_map_workers(
            items,
            || telemetry.timeline_scope_under(self.parent),
            |scope, _, item| f(scope, item),
            |_, claimed| per_worker.observe(claimed as f64),
        )
    }

    /// The read-only half of [`StreamingReview::add_bundle`]: parses
    /// and reviews `bundle` on the calling thread without touching the
    /// accumulated results, so many callers may review concurrently
    /// (e.g. under a shared read lock) and serialize only the cheap
    /// [`StreamingReview::push_reviewed`].
    pub fn review_bundle(&self, bundle: &SubmissionBundle) -> ReviewedBundle {
        let mut scope = self.telemetry.timeline_scope_under(self.parent);
        let arrival = self.results.len();
        self.review_on(&mut scope, arrival, bundle, |scope| parse_logs(bundle, scope))
    }

    /// One bundle through review on `scope`: a `review_bundle` span
    /// around `parse` — which parses the bundle's logs beneath it, or
    /// hands over logs the archive parsed as it read them — and the
    /// review of those logs, with this review's quarantine and rejection
    /// events beneath it and the `ingest.*` counters bumped.
    pub(crate) fn review_on(
        &self,
        scope: &mut SpanScope<'_>,
        arrival: usize,
        bundle: &SubmissionBundle,
        parse: impl FnOnce(&mut SpanScope<'_>) -> Vec<Vec<ParsedLog>>,
    ) -> ReviewedBundle {
        let span = scope.start_with("ingest", "review_bundle", || {
            Map::from([arg("org", json!(bundle.org)), arg("arrival", json!(arrival))])
        });
        let parsed = parse(scope);
        let report = review_logs(bundle, &self.references, &parsed);
        let logs: usize = bundle.run_sets.iter().map(|rs| rs.logs.len()).sum();
        self.logs_parsed.add(logs as u64);
        self.bundles_reviewed.incr();

        let entries = accepted_entries(bundle, &report);
        let scenarios = scenario_entries(bundle, &report);
        if !report.is_clean() {
            emit_quarantine_events(scope, &report);
            emit_rejection_events(scope, &report);
        }
        scope.end(span);
        ReviewedBundle { entries, scenarios, report }
    }

    /// Publishes one reviewed bundle under its `(index, arrival)` feed
    /// key — the mutating half of [`StreamingReview::add_bundle`].
    /// Cheap: one push rather than a full review.
    pub fn push_reviewed(&mut self, index: u64, arrival: usize, reviewed: ReviewedBundle) {
        self.results.push(((index, arrival), reviewed));
        // Give an installed reporter a chance to close a window: bundle
        // arrival is the streaming path's natural heartbeat.
        self.telemetry.pulse();
    }

    /// Bundles reviewed so far.
    pub fn bundles_reviewed(&self) -> usize {
        self.results.len()
    }

    /// The round under review.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Accepted and scenario entries so far, ordered by feed key — the
    /// mid-round view a live leaderboard renders from.
    pub fn entries_so_far(&self) -> (Vec<AcceptedEntry>, Vec<ScenarioEntry>) {
        let mut keyed: Vec<&((u64, usize), ReviewedBundle)> = self.results.iter().collect();
        keyed.sort_by_key(|(key, _)| *key);
        let (mut accepted, mut scenarios) = (Vec::new(), Vec::new());
        for (_, reviewed) in keyed {
            accepted.extend_from_slice(&reviewed.entries);
            scenarios.extend_from_slice(&reviewed.scenarios);
        }
        (accepted, scenarios)
    }

    /// Bundles quarantined so far.
    pub fn quarantined_so_far(&self) -> usize {
        self.results.iter().filter(|(_, reviewed)| !reviewed.is_clean()).count()
    }

    /// Publishes the outcome: results are ordered by their feed keys.
    pub fn finish(mut self) -> RoundOutcome {
        self.results.sort_by_key(|(order, _)| *order);
        let mut accepted = Vec::new();
        let mut scenarios = Vec::new();
        let mut quarantined = Vec::new();
        let mut reports = Vec::with_capacity(self.results.len());
        for (_, ReviewedBundle { entries, scenarios: scenario_entries, report }) in self.results {
            accepted.extend(entries);
            scenarios.extend(scenario_entries);
            if !report.is_clean() {
                quarantined.push(report.clone());
            }
            reports.push(report);
        }
        self.telemetry.counter("ingest.quarantined").add(quarantined.len() as u64);
        RoundOutcome { round: self.round, accepted, scenarios, quarantined, reports }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::review::review_bundle;
    use crate::synthetic::{synthetic_round, Fault, SyntheticRoundSpec};
    use mlperf_core::mllog::MlLogger;

    #[test]
    fn round_reports_preserve_bundle_order() {
        let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V05, 3));
        let outcome = run_round(&subs);
        assert_eq!(outcome.reports.len(), subs.bundles.len());
        for (bundle, report) in subs.bundles.iter().zip(&outcome.reports) {
            assert_eq!(bundle.org, report.org);
        }
    }

    #[test]
    fn fault_free_round_quarantines_nothing() {
        let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V05, 4));
        let outcome = run_round(&subs);
        assert!(outcome.quarantined.is_empty(), "{:?}", outcome.quarantined);
        assert!(!outcome.accepted.is_empty());
    }

    #[test]
    fn garbage_bundle_is_quarantined_without_aborting() {
        let spec = SyntheticRoundSpec::new(Round::V05, 5)
            .with_fault(Fault::GarbageLine { org: "Borealis".into() });
        let outcome = run_round(&synthetic_round(&spec));
        assert_eq!(outcome.quarantined.len(), 1);
        assert_eq!(outcome.quarantined[0].org, "Borealis");
        // The other vendors' entries still published.
        assert!(outcome.accepted.iter().any(|e| e.org == "Aurora"));
        assert!(outcome.accepted.iter().any(|e| e.org == "Cumulus"));
    }

    #[test]
    fn instrumented_round_traces_every_bundle_and_log() {
        let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V05, 3));
        let telemetry = Telemetry::recording();
        let outcome = run_round_with(&subs, &telemetry);
        assert_eq!(outcome, run_round(&subs), "instrumentation must not change the outcome");

        let snapshot = telemetry.snapshot();
        let total_logs: usize =
            subs.bundles.iter().flat_map(|b| &b.run_sets).map(|rs| rs.logs.len()).sum();
        let named =
            |name: &str| -> Vec<_> { snapshot.spans.iter().filter(|s| s.name == name).collect() };
        let [run] = named("run_round")[..] else { panic!("one run_round span") };
        assert_eq!(run.parent, None);

        // One span per bundle under the round span, each on the track
        // of the worker that claimed it; one span per log under its
        // bundle's span, on the same track.
        let bundles = named("review_bundle");
        assert_eq!(bundles.len(), subs.bundles.len(), "one span per reviewed bundle");
        assert!(bundles.iter().all(|s| s.parent == Some(run.id) && s.track != run.track));
        let logs = named("parse_log");
        assert_eq!(logs.len(), total_logs, "one span per parsed log");
        for (arrival, bundle) in subs.bundles.iter().enumerate() {
            let span = bundles.iter().find(|s| s.args.get("arrival") == Some(&json!(arrival)));
            let span = span.expect("a span for every arrival");
            assert_eq!(span.args.get("org"), Some(&json!(bundle.org)));
            let beneath = logs.iter().filter(|l| l.parent == Some(span.id)).collect::<Vec<_>>();
            let expected: usize = bundle.run_sets.iter().map(|rs| rs.logs.len()).sum();
            assert_eq!(beneath.len(), expected, "a bundle's logs parse beneath its span");
            assert!(beneath.iter().all(|l| l.track == span.track));
        }

        // Pool utilization: gauge with the pool size, sketch whose
        // observations (bundles claimed per worker) sum to the chunk.
        let gauge =
            snapshot.gauges.iter().find(|g| g.name == "ingest.review_bundle.workers").unwrap();
        assert!(gauge.value >= 1);
        let per_worker = snapshot
            .sketches
            .iter()
            .find(|s| s.name == "ingest.review_bundle.items_per_worker")
            .unwrap();
        assert_eq!(per_worker.sum as usize, subs.bundles.len());
        assert_eq!(per_worker.count, gauge.value);

        let counter = |name: &str| {
            snapshot.counters.iter().find(|c| c.name == name).map(|c| c.value).unwrap_or(0)
        };
        assert_eq!(counter("ingest.logs_parsed") as usize, total_logs);
        assert_eq!(counter("ingest.bundles_reviewed") as usize, subs.bundles.len());
        assert_eq!(counter("ingest.quarantined"), 0);
    }

    #[test]
    fn quarantine_decisions_emit_instant_events() {
        let subs = synthetic_round(
            &SyntheticRoundSpec::new(Round::V05, 9)
                .with_fault(Fault::MissingRunStop { org: "Borealis".into() }),
        );
        let telemetry = Telemetry::recording();
        let outcome = run_round_with(&subs, &telemetry);
        assert_eq!(outcome.quarantined.len(), 1);

        let snapshot = telemetry.snapshot();
        let events: Vec<_> = snapshot.events_in("ingest").collect();
        let expected: usize = outcome.quarantined.iter().map(|r| r.diagnostics().count()).sum();
        assert_eq!(events.len(), expected, "one event per quarantine diagnostic");
        let bundle = snapshot
            .spans
            .iter()
            .find(|s| s.name == "review_bundle" && s.args.get("org") == Some(&json!("Borealis")))
            .unwrap();
        for event in &events {
            assert_eq!(event.name, "quarantine");
            assert_eq!(event.parent, Some(bundle.id), "events nest under their bundle's span");
            assert!(bundle.start_us <= event.ts_us && event.ts_us <= bundle.end_us);
            assert_eq!(event.args.get("org"), Some(&json!("Borealis")));
            let fault = event.args.get("fault").and_then(|f| f.as_str()).unwrap();
            assert!(!fault.is_empty(), "the event names its fault");
        }
        let quarantined =
            snapshot.counters.iter().find(|c| c.name == "ingest.quarantined").unwrap().value;
        assert_eq!(quarantined, 1);

        // A clean round emits no quarantine events at all.
        let clean = Telemetry::recording();
        run_round_with(&synthetic_round(&SyntheticRoundSpec::new(Round::V05, 9)), &clean);
        assert!(clean.snapshot().events.is_empty());
    }

    #[test]
    fn streaming_review_is_feed_order_independent() {
        let subs = synthetic_round(
            &SyntheticRoundSpec::new(Round::V06, 12)
                .with_fault(Fault::GarbageLine { org: "Aurora".into() }),
        );
        let batch = run_round(&subs);
        let mut review = StreamingReview::new(subs.round, subs.references.clone());
        // Feed bundles in reverse: the (index, arrival) keys restore
        // submission order at finish.
        for (i, bundle) in subs.bundles.iter().enumerate().rev() {
            review.add_bundle(i as u64, subs.bundles.len() - 1 - i, bundle);
        }
        assert_eq!(review.bundles_reviewed(), subs.bundles.len());
        assert_eq!(review.finish(), batch);
    }

    #[test]
    fn every_bundle_is_traced_whether_pooled_or_one_at_a_time() {
        let subs = synthetic_round(
            &SyntheticRoundSpec::new(Round::V05, 6)
                .with_fault(Fault::MissingRunStop { org: "Borealis".into() }),
        );
        let outcome = run_round(&subs);
        let diagnostics: usize = outcome.quarantined.iter().map(|r| r.diagnostics().count()).sum();
        assert!(diagnostics > 0);
        let total_logs: usize =
            subs.bundles.iter().flat_map(|b| &b.run_sets).map(|rs| rs.logs.len()).sum();

        let chunked = Telemetry::recording();
        assert_eq!(run_round_with(&subs, &chunked), outcome, "tracing changes no outcome");
        let one_by_one = Telemetry::recording();
        let mut review =
            StreamingReview::traced(subs.round, subs.references.clone(), &one_by_one, None);
        for (i, bundle) in subs.bundles.iter().enumerate() {
            review.add_bundle(i as u64, i, bundle);
        }
        assert_eq!(review.finish(), outcome);

        for telemetry in [chunked, one_by_one] {
            let snapshot = telemetry.snapshot();
            let mut arrivals: Vec<usize> = snapshot
                .spans
                .iter()
                .filter(|s| s.name == "review_bundle")
                .map(|s| s.args["arrival"].as_u64().unwrap() as usize)
                .collect();
            arrivals.sort_unstable();
            assert_eq!(arrivals, (0..subs.bundles.len()).collect::<Vec<_>>());
            let parse_spans = snapshot.spans.iter().filter(|s| s.name == "parse_log").count();
            assert_eq!(parse_spans, total_logs, "one parse_log span per log");
            let counter = |name: &str| {
                snapshot.counters.iter().find(|c| c.name == name).map(|c| c.value).unwrap_or(0)
            };
            assert_eq!(counter("ingest.logs_parsed") as usize, total_logs);
            assert_eq!(counter("ingest.bundles_reviewed") as usize, subs.bundles.len());
            assert_eq!(counter("ingest.quarantined"), 1);
            assert_eq!(snapshot.events_in("ingest").count(), diagnostics);
            assert_eq!(snapshot.evicted, 0);
        }
    }

    #[test]
    fn split_review_and_push_match_add_bundle() {
        let subs = synthetic_round(
            &SyntheticRoundSpec::new(Round::V05, 9)
                .with_fault(Fault::MissingRunStop { org: "Borealis".into() }),
        );
        let batch = run_round(&subs);
        let mut review = StreamingReview::new(subs.round, subs.references.clone());
        for (i, bundle) in subs.bundles.iter().enumerate() {
            let reviewed = review.review_bundle(bundle);
            assert_eq!(reviewed.org(), bundle.org);
            review.push_reviewed(i as u64, i, reviewed);
        }
        // The mid-round views agree with the final published outcome.
        let (accepted, scenarios) = review.entries_so_far();
        assert_eq!(review.quarantined_so_far(), 1, "the mid-round quarantine count");
        let outcome = review.finish();
        assert_eq!(outcome, batch);
        assert_eq!(accepted, outcome.accepted);
        assert_eq!(scenarios, outcome.scenarios);
        assert_eq!(outcome.quarantined.len(), 1);
    }

    #[test]
    fn concurrent_round_matches_serial_review() {
        // Pooled ingest must be observationally identical to reviewing
        // each bundle serially.
        let subs = synthetic_round(
            &SyntheticRoundSpec::new(Round::V06, 8)
                .with_fault(Fault::GarbageLine { org: "Aurora".into() }),
        );
        let outcome = run_round(&subs);
        let serial: Vec<ReviewReport> =
            subs.bundles.iter().map(|b| review_bundle(b, &subs.references)).collect();
        assert_eq!(outcome.reports, serial);
    }

    /// A hand-rendered loadgen scenario log for the v0.5 ResNet-50
    /// reference (quality target 0.749), mirroring what
    /// `mlperf-loadgen` emits.
    fn scenario_log(scenario: &str, slo_satisfied: bool) -> String {
        use mlperf_core::mllog::keys;
        let mut logger = MlLogger::new();
        logger.log(keys::SUBMISSION_BENCHMARK, json!("resnet"));
        logger.log(keys::SEED, json!(17));
        logger.log(keys::QUALITY_TARGET, json!(0.749));
        logger.log(keys::INIT_START, json!(null));
        logger.set_time_ms(5);
        logger.log(keys::RUN_START, json!(null));
        logger.log(keys::LOADGEN_SCENARIO, json!(scenario));
        logger.set_time_ms(2005);
        logger.log(keys::LOADGEN_QUERY_COUNT, json!(256));
        logger.log(keys::LOADGEN_DURATION_MS, json!(2000));
        logger.log(keys::LOADGEN_LATENCY_P50_MS, json!(1.5));
        logger.log(keys::LOADGEN_LATENCY_P90_MS, json!(2.5));
        logger.log(keys::LOADGEN_LATENCY_P99_MS, json!(4.0));
        logger.log(keys::LOADGEN_QPS, json!(128.0));
        logger.log(keys::LOADGEN_SLO_MS, json!(10.0));
        logger.log(keys::LOADGEN_SLO_SATISFIED, json!(slo_satisfied));
        logger.set_time_ms(2006);
        logger.log(keys::RUN_STOP, json!({"status": "success"}));
        logger.render()
    }

    /// A loadgen-only bundle matching the round's ResNet reference,
    /// with an SLO knob for the server scenario.
    fn loadgen_bundle(
        org: &str,
        reference: &BenchmarkReference,
        slo_satisfied: bool,
    ) -> SubmissionBundle {
        use mlperf_core::report::SystemDescription;
        use mlperf_core::rules::{Category, SystemType};
        SubmissionBundle {
            org: org.to_string(),
            system: SystemDescription {
                submitter: org.to_string(),
                system_name: format!("{org}-serving"),
                accelerators: 4,
                accelerator_model: "ServeChip".into(),
                host_processors: 1,
                software: "loadgen".into(),
            },
            division: Division::Closed,
            category: Category::Available,
            system_type: SystemType::OnPremise,
            run_sets: vec![crate::bundle::RunSet {
                benchmark: BenchmarkId::ImageClassification,
                dataset: reference.dataset.clone(),
                hyperparameters: reference.hyperparameters.clone(),
                signature: reference.signature.clone(),
                logs: vec![
                    scenario_log("single_stream", true),
                    scenario_log("server", slo_satisfied),
                    scenario_log("offline", true),
                ],
            }],
        }
    }

    #[test]
    fn loadgen_bundles_publish_scenario_entries_on_both_paths() {
        let references = crate::synthetic::round_references(Round::V05);
        let reference =
            BenchmarkReference::find(&references, BenchmarkId::ImageClassification).unwrap();
        let subs = RoundSubmissions {
            round: Round::V05,
            references: references.clone(),
            bundles: vec![
                loadgen_bundle("ServeCo", reference, true),
                // An SLO violation: quarantined, so none of its
                // scenario measurements may publish.
                loadgen_bundle("LagCo", reference, false),
            ],
        };
        let outcome = run_round(&subs);
        assert!(outcome.accepted.is_empty(), "loadgen sets carry no time-to-train score");
        assert_eq!(outcome.quarantined.len(), 1);
        assert_eq!(outcome.quarantined[0].org, "LagCo");
        assert_eq!(outcome.scenarios.len(), 3, "only the clean bundle publishes");
        assert!(outcome.scenarios.iter().all(|e| e.org == "ServeCo"));
        let scenarios: Vec<Scenario> = outcome.scenarios.iter().map(|e| e.scenario()).collect();
        assert_eq!(scenarios, Scenario::ALL.to_vec());
        let server = outcome
            .scenarios_for(BenchmarkId::ImageClassification, Division::Closed, Scenario::Server)
            .collect::<Vec<_>>();
        assert_eq!(server.len(), 1);
        assert_eq!(server[0].summary.qps, 128.0);
        assert_eq!(server[0].summary.slo_satisfied, Some(true));

        // The streaming path publishes the identical outcome.
        let mut review = StreamingReview::new(subs.round, subs.references.clone());
        for (i, bundle) in subs.bundles.iter().enumerate().rev() {
            review.add_bundle(i as u64, subs.bundles.len() - 1 - i, bundle);
        }
        assert_eq!(review.finish(), outcome);
    }

    #[test]
    fn foreign_model_fault_emits_equivalence_rejection_event() {
        let subs = synthetic_round(
            &SyntheticRoundSpec::new(Round::V05, 21)
                .with_fault(Fault::ForeignModel { org: "Aurora".into() }),
        );
        let telemetry = Telemetry::recording();
        let outcome = run_round_with(&subs, &telemetry);
        assert!(outcome.quarantined.iter().any(|r| r.org == "Aurora"));

        let snapshot = telemetry.snapshot();
        let events: Vec<_> = snapshot.events_in("review").collect();
        assert!(!events.is_empty(), "review rejections surface as instant events");
        assert!(events.iter().all(|e| e.name == "equivalence_rejection"));
        for event in &events {
            assert_eq!(event.args.get("org"), Some(&json!("Aurora")));
            assert!(event.args.get("cause").and_then(|c| c.as_str()).is_some());
        }

        // Streaming ingest emits the same review events.
        let streaming = Telemetry::recording();
        let mut review =
            StreamingReview::traced(subs.round, subs.references.clone(), &streaming, None);
        for (i, bundle) in subs.bundles.iter().enumerate() {
            review.add_bundle(i as u64, i, bundle);
        }
        assert_eq!(review.finish(), outcome);
        let streamed = streaming.snapshot();
        assert_eq!(streamed.events_in("review").count(), events.len());
    }
}
