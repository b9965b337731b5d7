//! The disk-backed round archive: persistent storage for an N-round
//! submission history.
//!
//! Layout (one directory tree per archive):
//!
//! ```text
//! <archive>/
//!   archive.json                     — archive marker + schema version
//!   <round>/                         — e.g. `v0.5/`
//!     round.json                     — round label + review references
//!     <org>/<system>/                — one directory per bundle
//!       bundle.json                  — bundle manifest (schema, order
//!                                      index, metadata, log paths)
//!       <benchmark>/run_<N>.log      — real `:::MLLOG` log files
//!     outcome.json                   — published outcome summary
//! ```
//!
//! Bundles are keyed by `<org>/<system>` (not `<org>/<benchmark>`):
//! a submitter enters one bundle *per system* per round — the
//! synthetic fleet fields both a reference-scale and an at-scale
//! system — and each bundle spans many benchmarks.
//!
//! All manifests carry a `schema` field ([`MANIFEST_SCHEMA`]); readers
//! reject newer schemas instead of misreading them. Since schema 2,
//! manifests are written in the canonical single-line sorted-key form
//! of [`crate::manifest`], which readers scan with a zero-copy fast
//! path; schema-1 archives (pretty-printed manifests) still read via
//! the serde fallback, and [`RoundArchive::migrate`] rewrites them in
//! place. Writes are atomic (tmp file + rename) so a crashed writer
//! never leaves a half-written manifest behind. Reads are
//! fault-tolerant in the same spirit as review: a missing manifest,
//! malformed log, or duplicated bundle becomes a [`StoreFault`] naming
//! the offending path, the rest of the round still loads, and nothing
//! panics. Only damage that makes the archive itself unreadable (no
//! marker, unreadable root, corrupt `round.json`) is a fatal
//! [`StoreError`].

use crate::bundle::{BenchmarkReference, RunSet, SubmissionBundle};
use crate::manifest::{self, ArchiveManifest, BundleManifest, RoundManifest, RunSetManifest};
use crate::round::{RoundOutcome, RoundSubmissions, StreamingReview};
use crate::tables::RoundHistory;
use mlperf_core::mllog::MlLogger;
use mlperf_distsim::Round;
use mlperf_telemetry::{arg, Counter, Telemetry};
use serde_json::{json, Map};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};
use std::thread;

/// The manifest schema this build reads and writes. Bumped when the
/// on-disk shape changes; readers refuse *newer* schemas. Schema 2
/// switched manifests from pretty-printed to canonical compact JSON
/// (see [`crate::manifest`]).
pub const MANIFEST_SCHEMA: u64 = 2;

/// Marker string in `archive.json` distinguishing a round archive from
/// an arbitrary directory.
const ARCHIVE_KIND: &str = "mlperf-round-archive";

/// A fatal archive error: the archive itself (not one entry in it)
/// cannot be read or written.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The OS error text.
        error: String,
    },
    /// A manifest the archive cannot function without failed to parse.
    Malformed {
        /// The offending file.
        path: PathBuf,
        /// What went wrong.
        error: String,
    },
    /// A manifest was written by a newer build.
    UnsupportedSchema {
        /// The offending file.
        path: PathBuf,
        /// The schema version found.
        found: u64,
    },
    /// The directory exists but is not a round archive.
    NotAnArchive {
        /// The directory opened.
        path: PathBuf,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            StoreError::Malformed { path, error } => {
                write!(f, "{}: malformed manifest: {error}", path.display())
            }
            StoreError::UnsupportedSchema { path, found } => write!(
                f,
                "{}: schema {found} is newer than supported schema {MANIFEST_SCHEMA}",
                path.display()
            ),
            StoreError::NotAnArchive { path } => {
                write!(f, "{}: not a round archive (no archive.json marker)", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Why one entry of an otherwise-readable round was quarantined.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultReason {
    /// A bundle directory has no `bundle.json`.
    MissingManifest,
    /// A `bundle.json` failed to parse.
    MalformedManifest(String),
    /// A `bundle.json` was written by a newer build.
    UnsupportedSchema(u64),
    /// Two bundle directories declare the same org + system.
    DuplicateBundle,
    /// A bundle lists the same benchmark twice.
    DuplicateBenchmark(String),
    /// A manifest references a log file that does not exist or cannot
    /// be read.
    MissingLog(String),
    /// A log file exists but is not valid `:::MLLOG` text. The fault
    /// text names every malformed line. The run set is still handed to
    /// review, which quarantines it with a parse diagnostic of its own.
    MalformedLog(String),
    /// A log file is intact except for a truncated final line — the
    /// signature of a writer that crashed mid-record, distinct from
    /// ordinary corruption. Handled like [`FaultReason::MalformedLog`]
    /// otherwise.
    TruncatedLog(String),
    /// Two bundle manifests in the round declare the same submission
    /// `index`. Both bundles are kept (ordered deterministically by
    /// arrival), but the collision is reported instead of silently
    /// reordering the round.
    DuplicateIndex(u64),
    /// A manifest references a log path that escapes its bundle
    /// directory.
    EscapingLogPath(String),
    /// A file or directory inside the round could not be read.
    Io(String),
    /// A whole round directory could not be ingested.
    UnreadableRound(String),
}

impl fmt::Display for FaultReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultReason::MissingManifest => write!(f, "bundle directory has no bundle.json"),
            FaultReason::MalformedManifest(e) => write!(f, "malformed bundle.json: {e}"),
            FaultReason::UnsupportedSchema(found) => {
                write!(f, "schema {found} is newer than supported schema {MANIFEST_SCHEMA}")
            }
            FaultReason::DuplicateBundle => {
                write!(f, "another directory already declares this org and system")
            }
            FaultReason::DuplicateBenchmark(b) => {
                write!(f, "benchmark `{b}` appears more than once in the bundle")
            }
            FaultReason::MissingLog(e) => write!(f, "log file unreadable: {e}"),
            FaultReason::MalformedLog(e) => write!(f, "log file is not valid :::MLLOG text: {e}"),
            FaultReason::TruncatedLog(e) => {
                write!(f, "log file ends mid-record (writer crash?): {e}")
            }
            FaultReason::DuplicateIndex(index) => {
                write!(f, "another bundle manifest already declares submission index {index}")
            }
            FaultReason::EscapingLogPath(p) => {
                write!(f, "log path `{p}` escapes the bundle directory")
            }
            FaultReason::Io(e) => write!(f, "unreadable: {e}"),
            FaultReason::UnreadableRound(e) => write!(f, "round could not be ingested: {e}"),
        }
    }
}

/// One quarantined archive entry: the offending path and why. The
/// entry is skipped (or, for malformed logs, passed through for review
/// to flag); ingest of everything else continues.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreFault {
    /// The file or directory at fault.
    pub path: PathBuf,
    /// Why it was quarantined.
    pub reason: FaultReason,
}

impl fmt::Display for StoreFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.reason)
    }
}

/// One round read back from disk: the reconstructed submissions plus
/// every quarantined entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundIngest {
    /// The round's submissions, bundles in original submission order.
    pub submissions: RoundSubmissions,
    /// Entries that could not be fully ingested.
    pub faults: Vec<StoreFault>,
}

/// A full archive replayed through review: the multi-round history and
/// every storage-level fault encountered on the way.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveReplay {
    /// One reviewed outcome per readable round, oldest first.
    pub history: RoundHistory,
    /// Storage faults across all rounds.
    pub faults: Vec<StoreFault>,
}

/// The outcome of one [`RoundArchive::migrate`] pass: how many
/// manifests were rewritten, how many were already current, and every
/// manifest quarantined instead of migrated.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// Manifests rewritten to [`MANIFEST_SCHEMA`] canonical form.
    pub migrated: usize,
    /// Manifests already byte-identical to their canonical rendering —
    /// a second `migrate` run skips everything.
    pub skipped: usize,
    /// Manifests that could not be read or parsed; each is left
    /// untouched on disk and named here.
    pub faults: Vec<StoreFault>,
}

impl fmt::Display for MigrationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "migrated {} manifest(s), {} already current, {} fault(s)",
            self.migrated,
            self.skipped,
            self.faults.len()
        )
    }
}

/// A persistent, disk-backed archive of submission rounds.
#[derive(Debug, Clone)]
pub struct RoundArchive {
    root: PathBuf,
    /// Instrumentation handle; disabled unless installed with
    /// [`RoundArchive::with_telemetry`].
    telemetry: Telemetry,
}

/// Archives are equal when they point at the same root; the telemetry
/// handle is an observer, not part of the archive's identity.
impl PartialEq for RoundArchive {
    fn eq(&self, other: &Self) -> bool {
        self.root == other.root
    }
}

impl RoundArchive {
    /// Creates (or re-opens) an archive at `root`, creating the
    /// directory and the `archive.json` marker as needed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory or marker cannot be
    /// written; [`StoreError::NotAnArchive`] / schema errors when
    /// `root` already holds a foreign or newer-schema marker.
    pub fn create(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_error(&root, &e))?;
        let marker = root.join("archive.json");
        if marker.exists() {
            return RoundArchive::open(root);
        }
        let manifest = ArchiveManifest { schema: MANIFEST_SCHEMA, kind: ARCHIVE_KIND.to_string() };
        write_atomic(&marker, &manifest::canonical(&manifest))?;
        Ok(RoundArchive { root, telemetry: Telemetry::disabled() })
    }

    /// Opens an existing archive.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotAnArchive`] when `root` has no marker,
    /// [`StoreError::Malformed`] / [`StoreError::UnsupportedSchema`]
    /// when the marker is damaged or from a newer build.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        let marker = root.join("archive.json");
        let text = match fs::read_to_string(&marker) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NotAnArchive { path: root });
            }
            Err(e) => return Err(io_error(&marker, &e)),
        };
        let manifest = ArchiveManifest::parse(&text)
            .map_err(|error| StoreError::Malformed { path: marker.clone(), error })?;
        if manifest.kind != ARCHIVE_KIND {
            return Err(StoreError::NotAnArchive { path: root });
        }
        check_schema(&marker, manifest.schema)?;
        Ok(RoundArchive { root, telemetry: Telemetry::disabled() })
    }

    /// Installs an instrumentation handle: archive reads, writes and
    /// replays emit `store`-layer spans and `store.*` byte/fault
    /// counters into it, and [`RoundArchive::replay`] threads it into
    /// each round's ingest.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The archive's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Persists one round — references, bundles, and every log file —
    /// replacing any existing copy of the same round. `round.json` is
    /// written last, so a round directory without it is recognizably
    /// incomplete.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when any file cannot be written.
    pub fn write_round(&self, submissions: &RoundSubmissions) -> Result<(), StoreError> {
        let mut scope = self.telemetry.timeline_scope();
        let span = scope.start_with("store", "write_round", || {
            Map::from([
                arg("round", json!(submissions.round.label())),
                arg("bundles", json!(submissions.bundles.len())),
            ])
        });
        let result = self.write_round_inner(submissions);
        scope.end(span);
        result
    }

    fn write_round_inner(&self, submissions: &RoundSubmissions) -> Result<(), StoreError> {
        let writer = self.open_round(submissions.round, submissions.references.clone())?;
        // Directory names are assigned serially in submission order so
        // slug-collision disambiguation lands on the same names the
        // serial writer chose; the (independent) per-bundle directory
        // writes then fan out across the worker pool.
        let work: Vec<(PathBuf, u64, &SubmissionBundle)> = submissions
            .bundles
            .iter()
            .enumerate()
            .map(|(index, bundle)| (writer.assign_dir(index as u64, bundle), index as u64, bundle))
            .collect();
        let results = mlperf_pool::parallel_map(&work, |(dir, index, bundle)| {
            writer.write_bundle_to(dir, *index, bundle)
        });
        for result in results {
            result?;
        }
        writer.finalize()
    }

    /// Opens a round for incremental writing, replacing any existing
    /// copy of the same round: bundles land one at a time via
    /// [`OpenRoundWriter::write_bundle`] (safe to call from many
    /// threads), and `round.json` only appears once
    /// [`OpenRoundWriter::finalize`] runs — until then the directory is
    /// recognizably an open, incomplete round and
    /// [`RoundArchive::rounds`] skips it. This is the persistence path
    /// behind the live submission service; [`RoundArchive::write_round`]
    /// is the same writer driven to completion in one call.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the round directory cannot be reset.
    pub fn open_round(
        &self,
        round: Round,
        references: Vec<BenchmarkReference>,
    ) -> Result<OpenRoundWriter, StoreError> {
        let round_dir = self.round_dir(round);
        if round_dir.exists() {
            fs::remove_dir_all(&round_dir).map_err(|e| io_error(&round_dir, &e))?;
        }
        fs::create_dir_all(&round_dir).map_err(|e| io_error(&round_dir, &e))?;
        Ok(OpenRoundWriter {
            round_dir,
            round,
            references,
            telemetry: self.telemetry.clone(),
            assigned: Mutex::new(BTreeSet::new()),
        })
    }

    /// [`write_atomic`] plus the `store.bytes_written` counter.
    fn write_file(&self, path: &Path, contents: &str) -> Result<(), StoreError> {
        write_atomic(path, contents)?;
        self.telemetry.counter("store.bytes_written").add(contents.len() as u64);
        Ok(())
    }

    /// Persists a round's published outcome as a human-auditable
    /// summary (`outcome.json`) next to the round's bundles. The
    /// summary is derived data — re-ingesting and re-reviewing the
    /// round reproduces it — so it is not read back.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be written.
    pub fn write_outcome(&self, outcome: &RoundOutcome) -> Result<(), StoreError> {
        let accepted: Vec<serde_json::Value> = outcome
            .accepted
            .iter()
            .map(|e| {
                json!({
                    "org": e.org,
                    "system": e.system,
                    "chips": e.chips,
                    "division": e.division.to_string(),
                    "benchmark": e.benchmark.slug(),
                    "minutes": e.minutes,
                    "runs": e.runs,
                })
            })
            .collect();
        let scenarios: Vec<serde_json::Value> = outcome
            .scenarios
            .iter()
            .map(|e| {
                json!({
                    "org": e.org,
                    "system": e.system,
                    "chips": e.chips,
                    "division": e.division.to_string(),
                    "benchmark": e.benchmark.slug(),
                    "scenario": e.scenario().slug(),
                    "queries": e.summary.queries,
                    "duration_ms": e.summary.duration_ms,
                    "p50_ms": e.summary.p50_ms,
                    "p90_ms": e.summary.p90_ms,
                    "p99_ms": e.summary.p99_ms,
                    "qps": e.summary.qps,
                    "slo_ms": e.summary.slo_ms,
                    "slo_satisfied": e.summary.slo_satisfied,
                })
            })
            .collect();
        let quarantined: Vec<serde_json::Value> = outcome
            .quarantined
            .iter()
            .map(|report| {
                let diagnostics: Vec<serde_json::Value> = report
                    .diagnostics()
                    .map(|(benchmark, d)| json!(format!("{benchmark}: {d}")))
                    .collect();
                json!({
                    "org": report.org,
                    "division": report.division.to_string(),
                    "diagnostics": diagnostics,
                })
            })
            .collect();
        let summary = json!({
            "schema": MANIFEST_SCHEMA,
            "round": outcome.round.to_string(),
            "accepted": accepted,
            "scenarios": scenarios,
            "quarantined": quarantined,
        });
        let text = serde_json::to_string_pretty(&summary).expect("outcome summaries serialize");
        self.write_file(&self.round_dir(outcome.round).join("outcome.json"), &text)
    }

    /// The rounds present in the archive, oldest first. Directories
    /// whose names are not round labels are ignored.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the root cannot be listed.
    pub fn rounds(&self) -> Result<Vec<Round>, StoreError> {
        let mut rounds = Vec::new();
        let entries = fs::read_dir(&self.root).map_err(|e| io_error(&self.root, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_error(&self.root, &e))?;
            // One batched type check per entry (from the directory
            // read itself) instead of a fresh stat per path.
            if !entry.file_type().map(|t| t.is_dir()).unwrap_or(false) {
                continue;
            }
            if let Ok(round) = entry.file_name().to_string_lossy().parse::<Round>() {
                // Only count rounds whose manifest landed (a directory
                // without round.json is an interrupted write).
                if entry.path().join("round.json").is_file() {
                    rounds.push(round);
                }
            }
        }
        rounds.sort();
        Ok(rounds)
    }

    /// Reads one round back from disk. Bundle-level damage — missing
    /// or malformed manifests, unreadable or truncated logs, duplicate
    /// bundles or benchmarks — is quarantined into
    /// [`RoundIngest::faults`] (each naming the offending path) and
    /// never aborts the read.
    ///
    /// # Errors
    ///
    /// Fatal only for round-level damage: an unreadable round
    /// directory or a missing/corrupt/newer-schema `round.json`.
    pub fn read_round(&self, round: Round) -> Result<RoundIngest, StoreError> {
        let mut scope = self.telemetry.timeline_scope();
        let span = scope
            .start_with("store", "read_round", || Map::from([arg("round", json!(round.label()))]));
        // Draining `stream_round` is what makes the materialized read
        // see exactly the bundles and faults streaming review sees.
        let mut stream = self.stream_round(round)?;
        let mut indexed: Vec<StreamedBundle> =
            std::iter::from_fn(|| stream.next_bundle()).collect();
        indexed.sort_by_key(|item| (item.index, item.arrival));
        let bundles: Vec<SubmissionBundle> = indexed.into_iter().map(|item| item.bundle).collect();
        let (references, faults) = stream.finish();
        self.telemetry.counter("store.faults").add(faults.len() as u64);
        let (n_bundles, n_faults) = (bundles.len(), faults.len());
        scope.end_with(span, || {
            Map::from([arg("bundles", json!(n_bundles)), arg("faults", json!(n_faults))])
        });
        Ok(RoundIngest { submissions: RoundSubmissions { round, references, bundles }, faults })
    }

    /// Opens one round for streaming ingest: the round manifest is read
    /// and validated up front (the same fatal errors as
    /// [`RoundArchive::read_round`]), then
    /// [`RoundStream::next_bundle`] yields bundles in directory name
    /// order — bounded memory no matter how many bundles the round
    /// holds. Disk I/O overlaps parse/review: a read-ahead worker
    /// decodes the next batches of [`READ_AHEAD`] bundles while the
    /// caller is busy with the previous one. Bundle-level damage
    /// accumulates as faults on the stream, exactly as the
    /// materialized read reports it.
    ///
    /// # Errors
    ///
    /// Fatal only for round-level damage: an unreadable round directory
    /// or a missing/corrupt/newer-schema `round.json`.
    pub fn stream_round(&self, round: Round) -> Result<RoundStream, StoreError> {
        let bytes_read = self.telemetry.counter("store.bytes_read");
        let round_dir = self.round_dir(round);
        let manifest_path = round_dir.join("round.json");
        let text = fs::read_to_string(&manifest_path).map_err(|e| io_error(&manifest_path, &e))?;
        bytes_read.add(text.len() as u64);
        let manifest = RoundManifest::parse(&text)
            .map_err(|error| StoreError::Malformed { path: manifest_path.clone(), error })?;
        check_schema(&manifest_path, manifest.schema)?;
        if manifest.round != round {
            return Err(StoreError::Malformed {
                path: manifest_path,
                error: format!(
                    "directory is named {round} but round.json declares {}",
                    manifest.round
                ),
            });
        }

        let mut faults = Vec::new();
        let org_dirs = sorted_subdirs(&round_dir, &mut faults);
        Ok(RoundStream {
            round,
            references: manifest.references,
            source: spawn_prefetcher(org_dirs, bytes_read),
            seen: BTreeSet::new(),
            seen_indices: BTreeMap::new(),
            faults,
            arrivals: 0,
        })
    }

    /// Streaming ingest and review of one round: up to [`READ_AHEAD`]
    /// bundles at a time are pulled off the stream, reviewed as one
    /// chunk on the scoped worker pool, and handed back to the
    /// read-ahead worker, which drops them while it decodes the next
    /// chunk — resident memory is a few chunks plus the accumulated
    /// reports, not the whole round.
    /// Produces exactly the [`RoundOutcome`] (and faults) that
    /// [`RoundArchive::read_round`] + [`crate::run_round`] would.
    ///
    /// # Errors
    ///
    /// The same fatal cases as [`RoundArchive::stream_round`].
    pub fn review_round_streaming(
        &self,
        round: Round,
    ) -> Result<(RoundOutcome, Vec<StoreFault>), StoreError> {
        self.review_round_streaming_under(round, None)
    }

    /// [`RoundArchive::review_round_streaming`] with its `stream_round`
    /// span parented under `parent` (how replay nests each round).
    fn review_round_streaming_under(
        &self,
        round: Round,
        parent: Option<mlperf_telemetry::SpanId>,
    ) -> Result<(RoundOutcome, Vec<StoreFault>), StoreError> {
        let mut scope = self.telemetry.timeline_scope_under(parent);
        let span = scope.start_with("store", "stream_round", || {
            Map::from([arg("round", json!(round.label()))])
        });
        let mut stream = self.stream_round(round)?;
        let mut review = StreamingReview::traced(
            round,
            stream.references().to_vec(),
            &self.telemetry,
            scope.current(),
        );
        loop {
            let chunk: Vec<StreamedBundle> =
                std::iter::from_fn(|| stream.next_bundle()).take(READ_AHEAD).collect();
            if chunk.is_empty() {
                break;
            }
            let keyed: Vec<(u64, usize, &SubmissionBundle)> =
                chunk.iter().map(|item| (item.index, item.arrival, &item.bundle)).collect();
            review.add_bundles(&keyed);
            stream.recycle(chunk);
        }
        let bundles = review.bundles_reviewed();
        let outcome = review.finish();
        let (_, faults) = stream.finish();
        self.telemetry.counter("store.faults").add(faults.len() as u64);
        let (accepted, n_faults) = (outcome.accepted.len(), faults.len());
        scope.end_with(span, || {
            Map::from([
                arg("bundles", json!(bundles)),
                arg("accepted", json!(accepted)),
                arg("faults", json!(n_faults)),
            ])
        });
        Ok((outcome, faults))
    }

    fn round_dir(&self, round: Round) -> PathBuf {
        self.root.join(round.label())
    }

    /// Rewrites every manifest in the archive to [`MANIFEST_SCHEMA`]
    /// canonical form — the `1 → 2` migration. Each manifest is
    /// rewritten atomically (tmp + rename) and only when its bytes
    /// differ from the canonical rendering, so a second run is a
    /// no-op. Fault-tolerant per round: an unreadable or malformed
    /// manifest becomes a [`StoreFault`] in the report and is left
    /// untouched, and a round whose `round.json` declares a *newer*
    /// schema is skipped whole — `migrate` never half-migrates a
    /// round. Within a round, bundle manifests are rewritten before
    /// `round.json`, and the `archive.json` marker goes last, so a
    /// crash at any point leaves an archive every reader (schema 1 or
    /// 2) still accepts. Logs and `outcome.json` are never touched.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the archive cannot be listed or a
    /// rewrite fails mid-write; damage to individual manifests is a
    /// fault, not an error.
    pub fn migrate(&self) -> Result<MigrationReport, StoreError> {
        let mut scope = self.telemetry.timeline_scope();
        let span = scope.start("store", "migrate");
        let mut report = MigrationReport { migrated: 0, skipped: 0, faults: Vec::new() };
        for round in self.rounds()? {
            self.migrate_round(round, &mut report)?;
        }
        self.migrate_marker(&mut report)?;
        self.telemetry.counter("store.faults").add(report.faults.len() as u64);
        let (migrated, skipped, faults) = (report.migrated, report.skipped, report.faults.len());
        scope.end_with(span, || {
            Map::from([
                arg("migrated", json!(migrated)),
                arg("skipped", json!(skipped)),
                arg("faults", json!(faults)),
            ])
        });
        Ok(report)
    }

    /// Migrates one round: bundle manifests first, `round.json` last.
    fn migrate_round(&self, round: Round, report: &mut MigrationReport) -> Result<(), StoreError> {
        let round_dir = self.round_dir(round);
        let manifest_path = round_dir.join("round.json");
        let text = match fs::read_to_string(&manifest_path) {
            Ok(text) => text,
            Err(e) => {
                report.faults.push(StoreFault {
                    path: manifest_path,
                    reason: FaultReason::Io(e.to_string()),
                });
                return Ok(());
            }
        };
        let mut round_manifest = match RoundManifest::parse(&text) {
            Ok(manifest) => manifest,
            Err(e) => {
                report.faults.push(StoreFault {
                    path: manifest_path,
                    reason: FaultReason::MalformedManifest(e),
                });
                return Ok(());
            }
        };
        if round_manifest.schema > MANIFEST_SCHEMA {
            // A round from a newer build is refused outright — its
            // bundles are not touched either, so the round is never
            // left half-downgraded.
            report.faults.push(StoreFault {
                path: manifest_path,
                reason: FaultReason::UnsupportedSchema(round_manifest.schema),
            });
            return Ok(());
        }
        let mut list_faults = Vec::new();
        for org_dir in sorted_subdirs(&round_dir, &mut list_faults) {
            for bundle_dir in sorted_subdirs(&org_dir, &mut list_faults) {
                self.migrate_bundle(&bundle_dir, report)?;
            }
        }
        report.faults.extend(list_faults);
        round_manifest.schema = MANIFEST_SCHEMA;
        self.rewrite(&manifest_path, &text, &manifest::canonical(&round_manifest), report)
    }

    /// Migrates one bundle manifest; unreadable or malformed ones are
    /// quarantined and left as they are.
    fn migrate_bundle(&self, dir: &Path, report: &mut MigrationReport) -> Result<(), StoreError> {
        let manifest_path = dir.join("bundle.json");
        let text = match fs::read_to_string(&manifest_path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                report.faults.push(StoreFault {
                    path: dir.to_path_buf(),
                    reason: FaultReason::MissingManifest,
                });
                return Ok(());
            }
            Err(e) => {
                report.faults.push(StoreFault {
                    path: manifest_path,
                    reason: FaultReason::Io(e.to_string()),
                });
                return Ok(());
            }
        };
        let mut bundle_manifest = match BundleManifest::parse(&text) {
            Ok(manifest) => manifest,
            Err(e) => {
                report.faults.push(StoreFault {
                    path: manifest_path,
                    reason: FaultReason::MalformedManifest(e),
                });
                return Ok(());
            }
        };
        if bundle_manifest.schema > MANIFEST_SCHEMA {
            report.faults.push(StoreFault {
                path: manifest_path,
                reason: FaultReason::UnsupportedSchema(bundle_manifest.schema),
            });
            return Ok(());
        }
        bundle_manifest.schema = MANIFEST_SCHEMA;
        self.rewrite(&manifest_path, &text, &manifest::canonical(&bundle_manifest), report)
    }

    /// Migrates the `archive.json` marker — last, so an interrupted
    /// migration leaves the marker at its old (still accepted) schema.
    /// Marker damage is fatal here only in the same way it is for
    /// [`RoundArchive::open`], which already vetted it.
    fn migrate_marker(&self, report: &mut MigrationReport) -> Result<(), StoreError> {
        let marker = self.root.join("archive.json");
        let text = fs::read_to_string(&marker).map_err(|e| io_error(&marker, &e))?;
        let mut archive_manifest = ArchiveManifest::parse(&text)
            .map_err(|error| StoreError::Malformed { path: marker.clone(), error })?;
        if archive_manifest.schema > MANIFEST_SCHEMA {
            return Err(StoreError::UnsupportedSchema {
                path: marker,
                found: archive_manifest.schema,
            });
        }
        archive_manifest.schema = MANIFEST_SCHEMA;
        self.rewrite(&marker, &text, &manifest::canonical(&archive_manifest), report)
    }

    /// Replaces `path` atomically when its bytes are not already the
    /// canonical rendering; counts the manifest either way.
    fn rewrite(
        &self,
        path: &Path,
        old: &str,
        new: &str,
        report: &mut MigrationReport,
    ) -> Result<(), StoreError> {
        if old == new {
            report.skipped += 1;
            return Ok(());
        }
        self.write_file(path, new)?;
        report.migrated += 1;
        Ok(())
    }
}

/// A round held open for incremental, concurrent persistence — the
/// writer half of [`RoundArchive::open_round`]. Directory-name
/// assignment is the only serialized step (a mutex over the set of
/// names already claimed); the file writes themselves run without any
/// lock, so many submitting threads persist bundles in parallel.
#[derive(Debug)]
pub struct OpenRoundWriter {
    round_dir: PathBuf,
    round: Round,
    references: Vec<BenchmarkReference>,
    telemetry: Telemetry,
    /// Bundle directories already claimed, for slug-collision
    /// disambiguation under concurrent writers.
    assigned: Mutex<BTreeSet<PathBuf>>,
}

impl OpenRoundWriter {
    /// The round being written.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The round's directory inside the archive.
    pub fn round_dir(&self) -> &Path {
        &self.round_dir
    }

    /// Claims a directory for bundle `index`: `<org>/<system>` slugs,
    /// disambiguated with `-<index>` when another bundle already took
    /// the name. Indices are unique, so claimed names are too.
    fn assign_dir(&self, index: u64, bundle: &SubmissionBundle) -> PathBuf {
        let org_dir = self.round_dir.join(slug(&bundle.org));
        let mut assigned = self.assigned.lock().expect("writer name set poisoned");
        let mut dir = org_dir.join(slug(&bundle.system.system_name));
        if assigned.contains(&dir) || dir.exists() {
            // Two systems slugged to the same name; disambiguate.
            dir = org_dir.join(format!("{}-{index}", slug(&bundle.system.system_name)));
        }
        assigned.insert(dir.clone());
        dir
    }

    /// Persists one bundle — manifest plus every log file — under a
    /// freshly assigned directory. Thread-safe; bundles may land in any
    /// order because readers sort by the manifest `index`, not by
    /// directory name.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when any file cannot be written.
    pub fn write_bundle(&self, index: u64, bundle: &SubmissionBundle) -> Result<(), StoreError> {
        let dir = self.assign_dir(index, bundle);
        self.write_bundle_to(&dir, index, bundle)
    }

    fn write_bundle_to(
        &self,
        bundle_dir: &Path,
        index: u64,
        bundle: &SubmissionBundle,
    ) -> Result<(), StoreError> {
        fs::create_dir_all(bundle_dir).map_err(|e| io_error(bundle_dir, &e))?;
        let mut run_sets = Vec::new();
        for rs in &bundle.run_sets {
            let bench_dir = bundle_dir.join(rs.benchmark.slug());
            fs::create_dir_all(&bench_dir).map_err(|e| io_error(&bench_dir, &e))?;
            let mut logs = Vec::new();
            for (run, text) in rs.logs.iter().enumerate() {
                let rel = format!("{}/run_{run}.log", rs.benchmark.slug());
                self.write_file(&bundle_dir.join(&rel), text)?;
                logs.push(rel);
            }
            run_sets.push(RunSetManifest {
                benchmark: rs.benchmark,
                dataset: rs.dataset.clone(),
                hyperparameters: rs.hyperparameters.clone(),
                signature: rs.signature.clone(),
                logs,
            });
        }
        let manifest = BundleManifest {
            schema: MANIFEST_SCHEMA,
            index,
            org: bundle.org.clone(),
            system: bundle.system.clone(),
            division: bundle.division,
            category: bundle.category,
            system_type: bundle.system_type,
            run_sets,
        };
        self.write_file(&bundle_dir.join("bundle.json"), &manifest::canonical(&manifest))
    }

    /// Seals the round: writes `round.json`, after which readers treat
    /// the directory as a complete round. Idempotent.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the manifest cannot be written.
    pub fn finalize(&self) -> Result<(), StoreError> {
        let manifest = RoundManifest {
            schema: MANIFEST_SCHEMA,
            round: self.round,
            references: self.references.clone(),
        };
        self.write_file(&self.round_dir.join("round.json"), &manifest::canonical(&manifest))
    }

    /// [`write_atomic`] plus the `store.bytes_written` counter.
    fn write_file(&self, path: &Path, contents: &str) -> Result<(), StoreError> {
        write_atomic(path, contents)?;
        self.telemetry.counter("store.bytes_written").add(contents.len() as u64);
        Ok(())
    }
}

/// Reads one bundle directory; quarantines instead of failing.
fn read_bundle_dir(
    dir: &Path,
    faults: &mut Vec<StoreFault>,
    bytes_read: &Counter,
) -> Option<(u64, SubmissionBundle)> {
    let manifest_path = dir.join("bundle.json");
    let text = match fs::read_to_string(&manifest_path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            faults
                .push(StoreFault { path: dir.to_path_buf(), reason: FaultReason::MissingManifest });
            return None;
        }
        Err(e) => {
            faults.push(StoreFault { path: manifest_path, reason: FaultReason::Io(e.to_string()) });
            return None;
        }
    };
    bytes_read.add(text.len() as u64);
    let manifest = match BundleManifest::parse(&text) {
        Ok(m) => m,
        Err(e) => {
            faults.push(StoreFault {
                path: manifest_path,
                reason: FaultReason::MalformedManifest(e),
            });
            return None;
        }
    };
    if manifest.schema > MANIFEST_SCHEMA {
        faults.push(StoreFault {
            path: manifest_path,
            reason: FaultReason::UnsupportedSchema(manifest.schema),
        });
        return None;
    }

    let mut run_sets = Vec::new();
    let mut benchmarks: BTreeSet<String> = BTreeSet::new();
    for rs in manifest.run_sets {
        if !benchmarks.insert(rs.benchmark.slug().to_string()) {
            faults.push(StoreFault {
                path: manifest_path.clone(),
                reason: FaultReason::DuplicateBenchmark(rs.benchmark.slug().to_string()),
            });
            continue;
        }
        let mut logs = Vec::new();
        for rel in &rs.logs {
            let rel_path = Path::new(rel);
            if rel_path.is_absolute()
                || rel_path.components().any(|c| matches!(c, std::path::Component::ParentDir))
            {
                faults.push(StoreFault {
                    path: manifest_path.clone(),
                    reason: FaultReason::EscapingLogPath(rel.clone()),
                });
                continue;
            }
            let path = dir.join(rel_path);
            match fs::read_to_string(&path) {
                Err(e) => {
                    faults
                        .push(StoreFault { path, reason: FaultReason::MissingLog(e.to_string()) });
                }
                Ok(text) => {
                    bytes_read.add(text.len() as u64);
                    // Flag damaged text here with the precise path;
                    // still hand it to review, which quarantines the
                    // run set with its own parse diagnostic. A lone
                    // truncated final line is classified apart from
                    // general corruption (crashed writer, not rot).
                    // `validate` is the allocation-free accept-only
                    // scan; it re-parses in full only to produce the
                    // structured error for a damaged log.
                    if let Err(e) = MlLogger::validate(&text) {
                        let reason = if e.truncated_tail_only() {
                            FaultReason::TruncatedLog(e.to_string())
                        } else {
                            FaultReason::MalformedLog(e.to_string())
                        };
                        faults.push(StoreFault { path, reason });
                    }
                    logs.push(text);
                }
            }
        }
        run_sets.push(RunSet {
            benchmark: rs.benchmark,
            dataset: rs.dataset,
            hyperparameters: rs.hyperparameters,
            signature: rs.signature,
            logs,
        });
    }

    Some((
        manifest.index,
        SubmissionBundle {
            org: manifest.org,
            system: manifest.system,
            division: manifest.division,
            category: manifest.category,
            system_type: manifest.system_type,
            run_sets,
        },
    ))
}

impl RoundArchive {
    /// Ingests every round in the archive and replays review over each,
    /// producing the cross-round [`RoundHistory`] the Figure 4/5 tables
    /// render from. A round too damaged to ingest becomes an
    /// [`FaultReason::UnreadableRound`] fault; the remaining rounds
    /// still replay.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the archive root cannot be listed.
    pub fn replay(&self) -> Result<ArchiveReplay, StoreError> {
        self.replay_streaming()
    }

    /// The replay itself: each round is reviewed straight off its
    /// [`RoundStream`] ([`RoundArchive::review_round_streaming`]), so
    /// replaying an archive of many-thousand-bundle rounds never
    /// materializes a round.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the archive root cannot be listed.
    pub fn replay_streaming(&self) -> Result<ArchiveReplay, StoreError> {
        let mut scope = self.telemetry.timeline_scope();
        let span = scope.start("store", "replay");
        let parent = scope.current();
        let mut history = RoundHistory::new();
        let mut faults = Vec::new();
        for round in self.rounds()? {
            match self.review_round_streaming_under(round, parent) {
                Err(e) => {
                    self.telemetry.counter("store.faults").incr();
                    faults.push(StoreFault {
                        path: self.round_dir(round),
                        reason: FaultReason::UnreadableRound(e.to_string()),
                    });
                }
                Ok((outcome, mut round_faults)) => {
                    faults.append(&mut round_faults);
                    history.push(outcome);
                }
            }
        }
        let rounds = history.rounds().len();
        scope.end_with(span, || Map::from([arg("rounds", json!(rounds))]));
        Ok(ArchiveReplay { history, faults })
    }
}

/// One bundle yielded by [`RoundStream`]: the manifest's submission
/// `index`, the stream `arrival` position, and the bundle itself.
/// `(index, arrival)` is the bundle's position in materialized order.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedBundle {
    /// Position declared in the bundle manifest (original submission
    /// order).
    pub index: u64,
    /// Position in stream order (directory name order), counting only
    /// bundles that actually loaded.
    pub arrival: usize,
    /// The reconstructed bundle.
    pub bundle: SubmissionBundle,
}

/// How many bundles the read-ahead worker decodes into one batch, and
/// how many the consumer reviews as one chunk. The worker hands over
/// whole batches, one waiting in the channel while it fills the next
/// and the consumer reviews a third, and a reviewed chunk waits at most
/// one directory read to be dropped: about `4 * READ_AHEAD` bundles
/// are resident at most (some 2 MB of log text at the stress rounds'
/// ~9 KB a bundle). Disk I/O overlaps review, the two threads meet
/// once a batch instead of once a bundle (a wake-up between cores costs
/// more than reviewing a bundle does), and a chunk's ~20 µs-a-bundle
/// review is long enough to pay for the ~100 µs it costs to wake the
/// worker pool.
const READ_AHEAD: usize = 64;

/// One step of the read-ahead walk: faults recorded while listing or
/// reading, plus the bundle if the directory loaded.
#[derive(Debug)]
struct PrefetchItem {
    faults: Vec<StoreFault>,
    loaded: Option<(PathBuf, u64, SubmissionBundle)>,
}

/// Where [`RoundStream`] pulls prefetched bundles from: `ready` holds
/// the batch being handed out, refilled from a one-batch channel fed by
/// a reader thread. When no thread could be spawned the whole round is
/// in `ready` from the start and there is no channel.
#[derive(Debug)]
struct PrefetchSource {
    ready: VecDeque<PrefetchItem>,
    /// `None` once the stream is dropped — closing the channel is what
    /// tells the reader thread to stop.
    batches: Option<mpsc::Receiver<Vec<PrefetchItem>>>,
    /// The way back for bundles the consumer is done with (see
    /// [`RoundStream::recycle`]); `None` without a reader thread.
    spent: Option<mpsc::Sender<Vec<StreamedBundle>>>,
    reader: Option<thread::JoinHandle<()>>,
}

impl PrefetchSource {
    fn next(&mut self) -> Option<PrefetchItem> {
        if self.ready.is_empty() {
            self.ready = self.batches.as_ref()?.recv().ok()?.into();
        }
        self.ready.pop_front()
    }
}

/// Starts the read-ahead worker over `org_dirs`. Falls back to reading
/// the whole round eagerly (unbounded memory, same results) in the
/// rare case the OS refuses a thread.
fn spawn_prefetcher(org_dirs: Vec<PathBuf>, bytes_read: Counter) -> PrefetchSource {
    let (sender, receiver) = mpsc::sync_channel(1);
    let (spent, spent_rx) = mpsc::channel::<Vec<StreamedBundle>>();
    let spawned = thread::Builder::new().name("round-read-ahead".to_string()).spawn({
        let org_dirs = org_dirs.clone();
        let bytes_read = bytes_read.clone();
        move || {
            let mut batch = Vec::with_capacity(READ_AHEAD);
            walk_bundle_dirs(org_dirs, &bytes_read, |item| {
                // Bundles this thread allocated come home to be freed.
                while spent_rx.try_recv().is_ok() {}
                batch.push(item);
                batch.len() < READ_AHEAD
                    || sender
                        .send(std::mem::replace(&mut batch, Vec::with_capacity(READ_AHEAD)))
                        .is_ok()
            });
            // The tail batch; a closed channel means nobody wants it.
            let _ = sender.send(batch);
        }
    });
    match spawned {
        Ok(handle) => PrefetchSource {
            ready: VecDeque::new(),
            batches: Some(receiver),
            spent: Some(spent),
            reader: Some(handle),
        },
        Err(_) => {
            let mut ready = VecDeque::new();
            walk_bundle_dirs(org_dirs, &bytes_read, |item| {
                ready.push_back(item);
                true
            });
            PrefetchSource { ready, batches: None, spent: None, reader: None }
        }
    }
}

/// Visits every bundle directory in name order, emitting one
/// [`PrefetchItem`] per directory (listing faults ride with the next
/// item so fault order matches the old serial walk). Stops early when
/// `emit` returns false — how a dropped stream cancels its reader.
fn walk_bundle_dirs(
    org_dirs: Vec<PathBuf>,
    bytes_read: &Counter,
    mut emit: impl FnMut(PrefetchItem) -> bool,
) {
    for org_dir in org_dirs {
        let mut pending = Vec::new();
        let bundle_dirs = sorted_subdirs(&org_dir, &mut pending);
        for dir in bundle_dirs {
            let mut faults = std::mem::take(&mut pending);
            let loaded = read_bundle_dir(&dir, &mut faults, bytes_read)
                .map(|(index, bundle)| (dir, index, bundle));
            if !emit(PrefetchItem { faults, loaded }) {
                return;
            }
        }
        if !pending.is_empty() && !emit(PrefetchItem { faults: pending, loaded: None }) {
            return;
        }
    }
}

/// A round being read one bundle directory at a time — the
/// bounded-memory ingest path behind
/// [`RoundArchive::review_round_streaming`], also drained by the
/// materialized [`RoundArchive::read_round`] so both paths share one
/// reader. A background worker decodes batches of [`READ_AHEAD`]
/// bundles ahead of the consumer so disk I/O overlaps parse/review.
/// Faults accumulate on the stream in the same order the serial walk
/// reported them.
#[derive(Debug)]
pub struct RoundStream {
    round: Round,
    references: Vec<BenchmarkReference>,
    source: PrefetchSource,
    /// (org, system) pairs already yielded, for duplicate detection.
    seen: BTreeSet<(String, String)>,
    /// Manifest `index` values already yielded and the directory that
    /// claimed each first, for collision diagnostics.
    seen_indices: BTreeMap<u64, PathBuf>,
    faults: Vec<StoreFault>,
    arrivals: usize,
}

impl RoundStream {
    /// Which round is streaming.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The round's review references, from `round.json`.
    pub fn references(&self) -> &[BenchmarkReference] {
        &self.references
    }

    /// Faults recorded so far. More may appear as the stream advances;
    /// [`RoundStream::finish`] returns the complete list.
    pub fn faults(&self) -> &[StoreFault] {
        &self.faults
    }

    /// Yields the next bundle, skipping quarantined directories (each
    /// recorded as a fault) until one loads or the round is exhausted.
    /// Only the returned bundle (plus the bounded read-ahead) is
    /// resident; previous ones are whatever the caller kept.
    pub fn next_bundle(&mut self) -> Option<StreamedBundle> {
        loop {
            let item = self.source.next()?;
            self.faults.extend(item.faults);
            let Some((dir, index, bundle)) = item.loaded else {
                continue;
            };
            let key = (bundle.org.clone(), bundle.system.system_name.clone());
            if !self.seen.insert(key) {
                self.faults.push(StoreFault { path: dir, reason: FaultReason::DuplicateBundle });
                continue;
            }
            // An index collision is diagnosed but both bundles are
            // kept: `(index, arrival)` ordering is still deterministic,
            // the round is just no longer silently reordered.
            match self.seen_indices.entry(index) {
                Entry::Vacant(slot) => {
                    slot.insert(dir.clone());
                }
                Entry::Occupied(_) => {
                    self.faults.push(StoreFault {
                        path: dir.clone(),
                        reason: FaultReason::DuplicateIndex(index),
                    });
                }
            }
            let arrival = self.arrivals;
            self.arrivals += 1;
            return Some(StreamedBundle { index, arrival, bundle });
        }
    }

    /// Hands bundles the caller is done with back to the read-ahead
    /// worker to be dropped there. The worker allocated them, and
    /// freeing them on this thread while it allocates the next batch
    /// contends for its allocator arena: on the 11 000-bundle archive
    /// that cost a fifth of a replay and varied from run to run. A
    /// finished (or never started) worker just means dropping here.
    fn recycle(&self, chunk: Vec<StreamedBundle>) {
        if let Some(spent) = &self.source.spent {
            let _ = spent.send(chunk);
        }
    }

    /// Consumes the stream, returning the round references and every
    /// fault recorded (including any from bundles never pulled).
    pub fn finish(mut self) -> (Vec<BenchmarkReference>, Vec<StoreFault>) {
        // Drain remaining directories so the fault list is complete
        // even when the caller stopped early.
        while self.next_bundle().is_some() {}
        (std::mem::take(&mut self.references), std::mem::take(&mut self.faults))
    }
}

impl Drop for RoundStream {
    fn drop(&mut self) {
        // Closing the receiver makes the reader's next send fail, which
        // stops the walk; then reap the thread.
        drop(self.source.batches.take());
        if let Some(handle) = self.source.reader.take() {
            let _ = handle.join();
        }
    }
}

/// Lists a directory's subdirectories in name order, recording an IO
/// fault (instead of failing) when the directory cannot be listed.
fn sorted_subdirs(dir: &Path, faults: &mut Vec<StoreFault>) -> Vec<PathBuf> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            faults.push(StoreFault {
                path: dir.to_path_buf(),
                reason: FaultReason::Io(e.to_string()),
            });
            return Vec::new();
        }
    };
    // The entry's own type field (one batched directory read) instead
    // of a fresh stat per path.
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.file_type().map(|t| t.is_dir()).unwrap_or(false))
        .map(|e| e.path())
        .collect();
    dirs.sort();
    dirs
}

/// Writes `contents` to `path` atomically: write a sibling tmp file,
/// then rename over the destination. Readers never observe a
/// half-written file.
fn write_atomic(path: &Path, contents: &str) -> Result<(), StoreError> {
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".to_string());
    let tmp = path.with_file_name(format!(".{file_name}.tmp"));
    fs::write(&tmp, contents).map_err(|e| io_error(&tmp, &e))?;
    fs::rename(&tmp, path).map_err(|e| io_error(path, &e))
}

fn io_error(path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io { path: path.to_path_buf(), error: e.to_string() }
}

fn check_schema(path: &Path, found: u64) -> Result<(), StoreError> {
    if found > MANIFEST_SCHEMA {
        return Err(StoreError::UnsupportedSchema { path: path.to_path_buf(), found });
    }
    Ok(())
}

/// Filesystem-safe directory name: lowercase alphanumerics with `-`
/// for everything else.
fn slug(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect();
    while out.contains("--") {
        out = out.replace("--", "-");
    }
    let trimmed = out.trim_matches('-').to_string();
    if trimmed.is_empty() {
        "unnamed".to_string()
    } else {
        trimmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{synthetic_round, SyntheticRoundSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("mlperf-store-test-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn slugs_are_filesystem_safe() {
        assert_eq!(slug("Aurora"), "aurora");
        assert_eq!(slug("A900 x16"), "a900-x16");
        assert_eq!(slug("--weird__name--"), "weird-name");
        assert_eq!(slug("///"), "unnamed");
    }

    #[test]
    fn create_then_open_round_trips_the_marker() {
        let root = temp_dir("marker");
        let archive = RoundArchive::create(&root).unwrap();
        assert_eq!(archive.rounds().unwrap(), Vec::<Round>::new());
        let reopened = RoundArchive::open(&root).unwrap();
        assert_eq!(archive, reopened);
        // Creating on top of an existing archive re-opens it.
        RoundArchive::create(&root).unwrap();
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_rejects_non_archives() {
        let root = temp_dir("foreign");
        fs::create_dir_all(&root).unwrap();
        assert!(matches!(RoundArchive::open(&root), Err(StoreError::NotAnArchive { .. })));
        fs::write(root.join("archive.json"), "{\"schema\": 1, \"kind\": \"something-else\"}")
            .unwrap();
        assert!(matches!(RoundArchive::open(&root), Err(StoreError::NotAnArchive { .. })));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn newer_schema_is_refused_not_misread() {
        let root = temp_dir("schema");
        RoundArchive::create(&root).unwrap();
        fs::write(
            root.join("archive.json"),
            format!("{{\"schema\": {}, \"kind\": \"{ARCHIVE_KIND}\"}}", MANIFEST_SCHEMA + 1),
        )
        .unwrap();
        assert!(matches!(
            RoundArchive::open(&root),
            Err(StoreError::UnsupportedSchema { found, .. }) if found == MANIFEST_SCHEMA + 1
        ));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn written_round_reads_back_identically() {
        let root = temp_dir("roundtrip");
        let archive = RoundArchive::create(&root).unwrap();
        let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V05, 21));
        archive.write_round(&subs).unwrap();
        let ingest = archive.read_round(Round::V05).unwrap();
        assert!(ingest.faults.is_empty(), "{:?}", ingest.faults);
        assert_eq!(ingest.submissions, subs);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rewriting_a_round_replaces_it() {
        let root = temp_dir("replace");
        let archive = RoundArchive::create(&root).unwrap();
        archive.write_round(&synthetic_round(&SyntheticRoundSpec::new(Round::V06, 1))).unwrap();
        let newer = synthetic_round(&SyntheticRoundSpec::new(Round::V06, 2));
        archive.write_round(&newer).unwrap();
        assert_eq!(archive.rounds().unwrap(), vec![Round::V06]);
        assert_eq!(archive.read_round(Round::V06).unwrap().submissions, newer);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn instrumented_archive_traces_reads_writes_and_replay() {
        let root = temp_dir("telemetry");
        let telemetry = Telemetry::recording();
        let archive = RoundArchive::create(&root).unwrap().with_telemetry(telemetry.clone());
        let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V05, 9));
        archive.write_round(&subs).unwrap();
        let replay = archive.replay().unwrap();
        assert!(replay.faults.is_empty());
        let ingest = archive.read_round(Round::V05).unwrap();
        assert_eq!(ingest.submissions, subs);

        let snapshot = telemetry.snapshot();
        let find = |name: &str| snapshot.spans.iter().find(|s| s.name == name).unwrap();
        // Replay nests each round's streamed review under itself, and
        // the review nests every bundle under the round.
        let replay_span = find("replay");
        let stream_span = find("stream_round");
        assert_eq!(stream_span.parent, Some(replay_span.id));
        let bundles: Vec<_> = snapshot.spans.iter().filter(|s| s.name == "review_bundle").collect();
        assert_eq!(bundles.len(), subs.bundles.len());
        assert!(bundles.iter().all(|s| s.parent == Some(stream_span.id)));
        // A materialized read is a root span of its own.
        assert_eq!(find("read_round").parent, None);
        assert_eq!(find("read_round").args.get("bundles"), Some(&json!(subs.bundles.len())));
        assert!(find("write_round").args.contains_key("bundles"));

        let counter = |name: &str| {
            snapshot.counters.iter().find(|c| c.name == name).map(|c| c.value).unwrap_or(0)
        };
        assert!(counter("store.bytes_written") > 0);
        // A clean replay reads back every byte that was written, and
        // so does the materialized read after it.
        assert_eq!(counter("store.bytes_read"), 2 * counter("store.bytes_written"));
        assert_eq!(counter("ingest.bundles_reviewed") as usize, subs.bundles.len());
        assert_eq!(counter("store.faults"), 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn faults_are_counted_when_entries_are_quarantined() {
        let root = temp_dir("fault-count");
        let telemetry = Telemetry::recording();
        let archive = RoundArchive::create(&root).unwrap().with_telemetry(telemetry.clone());
        let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V05, 9));
        archive.write_round(&subs).unwrap();
        // Damage one bundle manifest.
        let manifest = find_file(&root, "bundle.json").expect("a bundle manifest on disk");
        fs::write(&manifest, "{ not json").unwrap();
        let ingest = archive.read_round(Round::V05).unwrap();
        assert_eq!(ingest.faults.len(), 1);
        let faults =
            telemetry.snapshot().counters.iter().find(|c| c.name == "store.faults").unwrap().value;
        assert_eq!(faults, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    /// First file named `name` under `dir`, depth-first.
    fn find_file(dir: &Path, name: &str) -> Option<PathBuf> {
        for entry in fs::read_dir(dir).ok()?.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                if let Some(found) = find_file(&path, name) {
                    return Some(found);
                }
            } else if path.file_name().is_some_and(|n| n == name) {
                return Some(path);
            }
        }
        None
    }

    #[test]
    fn replay_builds_a_history_across_rounds() {
        let root = temp_dir("replay");
        let archive = RoundArchive::create(&root).unwrap();
        for round in Round::ALL {
            archive.write_round(&synthetic_round(&SyntheticRoundSpec::new(round, 13))).unwrap();
        }
        let replay = archive.replay().unwrap();
        assert!(replay.faults.is_empty(), "{:?}", replay.faults);
        assert_eq!(replay.history.rounds(), Round::ALL.to_vec());
        // Five original workloads plus the three v0.7 additions,
        // which appear as suffix rows once the v0.7 round lands.
        assert_eq!(replay.history.speedup_table(16).rows.len(), 8);
        fs::remove_dir_all(&root).unwrap();
    }

    /// Recursively copies a bundle directory (manifest plus logs).
    fn copy_dir(src: &Path, dst: &Path) {
        fs::create_dir_all(dst).unwrap();
        for entry in fs::read_dir(src).unwrap().filter_map(Result::ok) {
            let from = entry.path();
            let to = dst.join(entry.file_name());
            if from.is_dir() {
                copy_dir(&from, &to);
            } else {
                fs::copy(&from, &to).unwrap();
            }
        }
    }

    #[test]
    fn index_collisions_are_diagnosed_and_both_bundles_kept() {
        let root = temp_dir("dup-index");
        let archive = RoundArchive::create(&root).unwrap();
        let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V05, 17));
        archive.write_round(&subs).unwrap();
        // Clone one org's directory under a new organization whose
        // manifest keeps the original submission `index`.
        let round_dir = root.join(Round::V05.label());
        let aurora = round_dir.join("aurora");
        assert!(aurora.is_dir());
        copy_dir(&aurora, &round_dir.join("aurora-mirror"));
        let manifest = find_file(&round_dir.join("aurora-mirror"), "bundle.json").unwrap();
        let text = fs::read_to_string(&manifest).unwrap().replace("Aurora", "Aurora-Mirror");
        fs::write(&manifest, text).unwrap();

        let ingest = archive.read_round(Round::V05).unwrap();
        let collisions: Vec<_> = ingest
            .faults
            .iter()
            .filter(|f| matches!(f.reason, FaultReason::DuplicateIndex(_)))
            .collect();
        assert_eq!(collisions.len(), 1, "{:?}", ingest.faults);
        assert!(collisions[0].path.starts_with(&round_dir));
        // The colliding bundle is kept, not dropped or reordered: one
        // extra bundle, in deterministic (index, arrival) order.
        assert_eq!(ingest.submissions.bundles.len(), subs.bundles.len() + 1);
        assert!(ingest.submissions.bundles.iter().any(|b| b.org == "Aurora-Mirror"));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_final_lines_are_classified_distinctly() {
        let root = temp_dir("truncated");
        let archive = RoundArchive::create(&root).unwrap();
        archive.write_round(&synthetic_round(&SyntheticRoundSpec::new(Round::V05, 23))).unwrap();
        // Chop the tail off one log — the crashed-writer signature.
        let log = find_file(&root, "run_0.log").unwrap();
        let text = fs::read_to_string(&log).unwrap();
        fs::write(&log, &text[..text.len() - 20]).unwrap();
        // Splice garbage into the middle of another — ordinary damage.
        let other = find_file(&root, "run_1.log").unwrap();
        let mangled = fs::read_to_string(&other).unwrap().replacen(":::MLLOG", "#:MLLOG", 1);
        fs::write(&other, mangled).unwrap();

        let ingest = archive.read_round(Round::V05).unwrap();
        let reason_for =
            |path: &Path| ingest.faults.iter().find(|f| f.path == path).map(|f| &f.reason).unwrap();
        assert!(
            matches!(reason_for(&log), FaultReason::TruncatedLog(e) if e.contains("truncated")),
            "{:?}",
            reason_for(&log)
        );
        assert!(matches!(reason_for(&other), FaultReason::MalformedLog(_)));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_round_writer_persists_incrementally_from_many_threads() {
        let root = temp_dir("open-round");
        let archive = RoundArchive::create(&root).unwrap();
        let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V05, 13));
        let writer = archive.open_round(Round::V05, subs.references.clone()).unwrap();
        thread::scope(|scope| {
            for (index, bundle) in subs.bundles.iter().enumerate() {
                let writer = &writer;
                scope.spawn(move || writer.write_bundle(index as u64, bundle).unwrap());
            }
        });
        // Until finalize lands round.json the round is recognizably
        // incomplete and invisible to readers.
        assert_eq!(archive.rounds().unwrap(), Vec::<Round>::new());
        writer.finalize().unwrap();
        assert_eq!(archive.rounds().unwrap(), vec![Round::V05]);
        let ingest = archive.read_round(Round::V05).unwrap();
        assert!(ingest.faults.is_empty(), "{:?}", ingest.faults);
        assert_eq!(ingest.submissions, subs, "arrival order never reorders the round");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn dropping_a_stream_early_reaps_the_read_ahead_worker() {
        let root = temp_dir("early-drop");
        let archive = RoundArchive::create(&root).unwrap();
        archive.write_round(&synthetic_round(&SyntheticRoundSpec::new(Round::V05, 11))).unwrap();
        let mut stream = archive.stream_round(Round::V05).unwrap();
        assert!(stream.next_bundle().is_some());
        // Dropping mid-round must cancel and join the reader thread,
        // not hang or leak it.
        drop(stream);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn streaming_review_matches_materialized_review() {
        let root = temp_dir("stream-eq");
        let telemetry = Telemetry::recording();
        let archive = RoundArchive::create(&root).unwrap().with_telemetry(telemetry.clone());
        let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V06, 29));
        archive.write_round(&subs).unwrap();

        let ingest = archive.read_round(Round::V06).unwrap();
        let materialized = crate::round::run_round(&ingest.submissions);
        let (streamed, faults) = archive.review_round_streaming(Round::V06).unwrap();
        assert_eq!(streamed, materialized);
        assert_eq!(faults, ingest.faults);
        assert_eq!(archive.replay_streaming().unwrap(), archive.replay().unwrap());

        let snapshot = telemetry.snapshot();
        assert!(snapshot.spans.iter().any(|s| s.name == "stream_round"));
        fs::remove_dir_all(&root).unwrap();
    }
}
