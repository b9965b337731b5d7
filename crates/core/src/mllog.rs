//! Structured submission logging.
//!
//! §4.1 of the paper: "A training session log file contains a variety
//! of structured information including timestamps for important stages
//! of the workload, quality metric evaluated at prescribed intervals,
//! hyper-parameter choices … These logs form the foundation for
//! subsequent result analysis." The real suite uses the `mlperf-logging`
//! line format — `:::MLLOG {json}` — which this module reproduces.
//!
//! Parsing is the innermost loop of archive ingest (ROADMAP: a round is
//! hundreds of log files, thousands of lines), so [`parse_mllog_line`]
//! runs a zero-copy scanner over the canonical rendered shape and only
//! falls back to the full `serde_json` parser for exotic payloads, and
//! [`LogKey`] interns the standard vocabulary so the common case
//! allocates nothing per line.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::borrow::Borrow;
use std::fmt;
use std::fmt::Write as _;
use std::ops::Deref;

/// Standard log keys (the subset of the mlperf-logging vocabulary the
/// harness emits and the compliance checker requires).
pub mod keys {
    /// Marks the submission system/benchmark header.
    pub const SUBMISSION_BENCHMARK: &str = "submission_benchmark";
    /// The org making the submission.
    pub const SUBMISSION_ORG: &str = "submission_org";
    /// Division (closed/open).
    pub const SUBMISSION_DIVISION: &str = "submission_division";
    /// Untimed initialization started.
    pub const INIT_START: &str = "init_start";
    /// Untimed initialization finished.
    pub const INIT_STOP: &str = "init_stop";
    /// Timed region begins (first touch of training data).
    pub const RUN_START: &str = "run_start";
    /// Timed region ends (quality reached or run abandoned).
    pub const RUN_STOP: &str = "run_stop";
    /// One training epoch begins; value is the epoch number.
    pub const EPOCH_START: &str = "epoch_start";
    /// One training epoch ends.
    pub const EPOCH_STOP: &str = "epoch_stop";
    /// An evaluation result; value is the quality metric.
    pub const EVAL_ACCURACY: &str = "eval_accuracy";
    /// The run's random seed.
    pub const SEED: &str = "seed";
    /// A hyperparameter record; value is `{name, value}`.
    pub const HYPERPARAMETER: &str = "hyperparameter";
    /// The quality threshold in effect.
    pub const QUALITY_TARGET: &str = "quality_target";
    /// Loadgen: which scenario produced this log; value is the
    /// scenario slug (`single_stream` / `server` / `offline`).
    pub const LOADGEN_SCENARIO: &str = "loadgen_scenario";
    /// Loadgen: how many queries the scenario issued.
    pub const LOADGEN_QUERY_COUNT: &str = "loadgen_query_count";
    /// Loadgen: measured duration of the scenario in milliseconds.
    pub const LOADGEN_DURATION_MS: &str = "loadgen_duration_ms";
    /// Loadgen: median (p50) query latency in milliseconds.
    pub const LOADGEN_LATENCY_P50_MS: &str = "loadgen_latency_p50_ms";
    /// Loadgen: 90th-percentile query latency in milliseconds.
    pub const LOADGEN_LATENCY_P90_MS: &str = "loadgen_latency_p90_ms";
    /// Loadgen: 99th-percentile query latency in milliseconds.
    pub const LOADGEN_LATENCY_P99_MS: &str = "loadgen_latency_p99_ms";
    /// Loadgen: achieved queries per second (Server: max sustainable).
    pub const LOADGEN_QPS: &str = "loadgen_qps";
    /// Loadgen: the Server scenario's latency SLO in milliseconds.
    pub const LOADGEN_SLO_MS: &str = "loadgen_slo_ms";
    /// Loadgen: whether the scenario met its latency SLO.
    pub const LOADGEN_SLO_SATISFIED: &str = "loadgen_slo_satisfied";
}

/// Returns the interned static form of a standard key, or `None` for a
/// custom key. A `match` on the string compiles to a length switch plus
/// one memcmp — far cheaper than allocating.
fn intern(s: &str) -> Option<&'static str> {
    Some(match s {
        "submission_benchmark" => keys::SUBMISSION_BENCHMARK,
        "submission_org" => keys::SUBMISSION_ORG,
        "submission_division" => keys::SUBMISSION_DIVISION,
        "init_start" => keys::INIT_START,
        "init_stop" => keys::INIT_STOP,
        "run_start" => keys::RUN_START,
        "run_stop" => keys::RUN_STOP,
        "epoch_start" => keys::EPOCH_START,
        "epoch_stop" => keys::EPOCH_STOP,
        "eval_accuracy" => keys::EVAL_ACCURACY,
        "seed" => keys::SEED,
        "hyperparameter" => keys::HYPERPARAMETER,
        "quality_target" => keys::QUALITY_TARGET,
        "loadgen_scenario" => keys::LOADGEN_SCENARIO,
        "loadgen_query_count" => keys::LOADGEN_QUERY_COUNT,
        "loadgen_duration_ms" => keys::LOADGEN_DURATION_MS,
        "loadgen_latency_p50_ms" => keys::LOADGEN_LATENCY_P50_MS,
        "loadgen_latency_p90_ms" => keys::LOADGEN_LATENCY_P90_MS,
        "loadgen_latency_p99_ms" => keys::LOADGEN_LATENCY_P99_MS,
        "loadgen_qps" => keys::LOADGEN_QPS,
        "loadgen_slo_ms" => keys::LOADGEN_SLO_MS,
        "loadgen_slo_satisfied" => keys::LOADGEN_SLO_SATISFIED,
        _ => return None,
    })
}

/// A log entry's event key: one of the standard [`keys`] interned to a
/// `&'static str` (no allocation), or an owned string for custom keys.
/// Compares, hashes, and renders by content, so `entry.key ==
/// keys::RUN_STOP` and `&entry.key` as a `&str` both keep working.
#[derive(Debug, Clone)]
pub struct LogKey(KeyRepr);

#[derive(Debug, Clone)]
enum KeyRepr {
    Interned(&'static str),
    Owned(Box<str>),
}

impl LogKey {
    /// Builds a key, interning the standard vocabulary.
    pub fn new(s: &str) -> LogKey {
        match intern(s) {
            Some(k) => LogKey(KeyRepr::Interned(k)),
            None => LogKey(KeyRepr::Owned(s.into())),
        }
    }

    /// The key text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            KeyRepr::Interned(s) => s,
            KeyRepr::Owned(s) => s,
        }
    }

    /// True when this key is one of the interned standard [`keys`].
    pub fn is_standard(&self) -> bool {
        matches!(self.0, KeyRepr::Interned(_))
    }
}

impl Deref for LogKey {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for LogKey {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for LogKey {
    fn from(s: &str) -> LogKey {
        LogKey::new(s)
    }
}

impl From<String> for LogKey {
    fn from(s: String) -> LogKey {
        match intern(&s) {
            Some(k) => LogKey(KeyRepr::Interned(k)),
            None => LogKey(KeyRepr::Owned(s.into_boxed_str())),
        }
    }
}

impl PartialEq for LogKey {
    fn eq(&self, other: &LogKey) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for LogKey {}

impl PartialEq<str> for LogKey {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for LogKey {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<LogKey> for str {
    fn eq(&self, other: &LogKey) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<LogKey> for &str {
    fn eq(&self, other: &LogKey) -> bool {
        *self == other.as_str()
    }
}

impl std::hash::Hash for LogKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Display for LogKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for LogKey {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

impl Deserialize for LogKey {
    fn from_value(v: &Value) -> Result<Self, serde::de::Error> {
        match v {
            Value::String(s) => Ok(LogKey::new(s)),
            _ => Err(serde::de::Error::custom("expected string log key")),
        }
    }
}

/// One structured log record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Milliseconds since the logger was created.
    pub time_ms: u64,
    /// The event key (see [`keys`]).
    pub key: LogKey,
    /// The event payload.
    pub value: Value,
}

/// One malformed line in a rendered log.
#[derive(Debug, Clone, PartialEq)]
pub struct LineFault {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Why the line failed to parse.
    pub reason: String,
    /// True when this is the final line of a log that ends mid-line
    /// (no trailing newline) — the signature of a writer that crashed
    /// mid-record, as opposed to ordinary corruption.
    pub truncated: bool,
}

impl fmt::Display for LineFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.truncated {
            write!(f, "line {}: truncated final record ({})", self.line, self.reason)
        } else {
            write!(f, "line {}: {}", self.line, self.reason)
        }
    }
}

/// Parse failure for a whole log: every malformed line with its reason,
/// in line order, so quarantine reports can name all offending lines
/// instead of only the first.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Each malformed line, in line order. Never empty.
    pub faults: Vec<LineFault>,
}

impl ParseError {
    /// True when the only damage is a truncated final line — an
    /// otherwise intact log whose writer crashed mid-record.
    pub fn truncated_tail_only(&self) -> bool {
        matches!(self.faults.as_slice(), [only] if only.truncated)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseError {}

/// An in-memory structured logger that renders to the `:::MLLOG` line
/// format.
#[derive(Debug, Clone, Default)]
pub struct MlLogger {
    entries: Vec<LogEntry>,
    /// Logical time source (milliseconds); advanced by the harness so
    /// log timestamps agree with the harness clock.
    now_ms: u64,
}

impl MlLogger {
    /// Creates an empty logger.
    pub fn new() -> Self {
        MlLogger::default()
    }

    /// Sets the logical timestamp used for subsequent entries.
    pub fn set_time_ms(&mut self, now_ms: u64) {
        self.now_ms = now_ms;
    }

    /// Appends an entry at the current logical time.
    pub fn log(&mut self, key: &str, value: Value) {
        self.entries.push(LogEntry { time_ms: self.now_ms, key: LogKey::new(key), value });
    }

    /// All entries in order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Renders the log in the `:::MLLOG {json}` line format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let json = serde_json::to_string(e).expect("log entries serialize");
            writeln!(out, ":::MLLOG {json}").expect("writing to string cannot fail");
        }
        out
    }

    /// Parses a rendered log back into entries.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming **every** malformed line (not
    /// just the first), with a truncated final line — the crashed-writer
    /// case — classified distinctly.
    pub fn parse(text: &str) -> Result<Vec<LogEntry>, ParseError> {
        let mut out = Vec::new();
        let mut faults = Vec::new();
        let complete_tail = text.ends_with('\n');
        let mut lines = text.lines().enumerate().peekable();
        while let Some((i, line)) = lines.next() {
            match parse_mllog_line(line) {
                Ok(Some(entry)) => out.push(entry),
                Ok(None) => {}
                Err(reason) => {
                    let is_last = lines.peek().is_none();
                    faults.push(LineFault {
                        line: i + 1,
                        reason,
                        truncated: is_last && !complete_tail,
                    });
                }
            }
        }
        if faults.is_empty() {
            Ok(out)
        } else {
            Err(ParseError { faults })
        }
    }

    /// Validates a rendered log without building any entries: the
    /// verdict of [`MlLogger::parse`] at a fraction of its cost.
    /// Archive ingest checks every stored log file this way (review
    /// re-parses the text later, on the worker pool), so the check must
    /// not allocate a `Value` tree per line. Each line is scanned by an
    /// accept-only validator that recognizes canonical rendered output;
    /// the first line it cannot vouch for sends the whole text through
    /// [`MlLogger::parse`], whose structured [`ParseError`] — naming
    /// every malformed line — is returned as-is. Verdict and error are
    /// therefore always identical to the full parse.
    ///
    /// # Errors
    ///
    /// Exactly when [`MlLogger::parse`] fails, with the same
    /// [`ParseError`].
    pub fn validate(text: &str) -> Result<(), ParseError> {
        for line in text.lines() {
            if !line_is_valid(line) {
                return MlLogger::parse(text).map(|_| ());
            }
        }
        Ok(())
    }
}

/// Accept-only per-line check behind [`MlLogger::validate`]: true only
/// when [`parse_mllog_line`] is certain to accept the line. The fast
/// scan covers canonical rendered lines; anything else is decided by
/// the serde parser (discarding the entry it builds — that price is
/// paid only for non-canonical lines).
fn line_is_valid(line: &str) -> bool {
    match line.strip_prefix(":::MLLOG ") {
        Some(body) => validate_body_fast(body) || serde_json::from_str::<LogEntry>(body).is_ok(),
        None => line.trim().is_empty(),
    }
}

/// Splits the canonical rendered body `{"key":"…","time_ms":N,"value":V}`
/// — exactly what [`MlLogger::render`] emits (the vendored
/// `serde_json::Map` is a `BTreeMap`, so fields always render in this
/// order, compactly) — into its key, timestamp and value text. `None`
/// for any deviation: whitespace, an escape or control byte in the key,
/// reordered or duplicate fields, a timestamp that is not a plain digit
/// run fitting `u64`. Both fast paths stand on this one frame scan and
/// differ only in what they do with the value slice; whatever it
/// declines goes to the serde parser, so it only has to be right about
/// bodies it accepts.
///
/// Forced inline: left to the inliner, the shared function costs
/// `validate` about 7 ns of its ~37 ns a line.
#[inline(always)]
fn canonical_frame(body: &str) -> Option<(&str, u64, &str)> {
    let rest = body.strip_prefix("{\"key\":\"")?;
    let key_end = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20)?;
    let (key, rest) = rest.split_at(key_end);
    // The key must end at a quote, not at the escape or control byte
    // the scan also stops on.
    let rest = rest.strip_prefix("\",\"time_ms\":")?;
    let digits = rest.bytes().take_while(|b| b.is_ascii_digit()).count();
    let (num, rest) = rest.split_at(digits);
    // Parsed, not just counted: no digits at all, or 20 digits
    // overflowing u64, are both for serde to judge.
    let time_ms = num.parse::<u64>().ok()?;
    let value = rest.strip_prefix(",\"value\":")?.strip_suffix('}')?;
    Some((key, time_ms, value))
}

/// The accept-only visitor over [`canonical_frame`]: allocation-free,
/// and true only when the serde parser would accept the body too; any
/// deviation — escapes, whitespace, exotic numbers — returns false and
/// the caller consults serde.
fn validate_body_fast(body: &str) -> bool {
    canonical_frame(body).is_some_and(|(_, _, value)| {
        let bytes = value.as_bytes();
        let mut pos = 0;
        skip_value(bytes, &mut pos).is_some() && pos == bytes.len()
    })
}

/// Skips one JSON value in canonical (whitespace-free) form, accepting
/// only constructs the serde parser is guaranteed to accept.
fn skip_value(bytes: &[u8], pos: &mut usize) -> Option<()> {
    match bytes.get(*pos)? {
        b'n' => skip_lit(bytes, pos, "null"),
        b't' => skip_lit(bytes, pos, "true"),
        b'f' => skip_lit(bytes, pos, "false"),
        b'"' => skip_string(bytes, pos),
        b'-' | b'0'..=b'9' => skip_number(bytes, pos),
        b'[' => {
            *pos += 1;
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(());
            }
            loop {
                skip_value(bytes, pos)?;
                match bytes.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(());
                    }
                    _ => return None,
                }
            }
        }
        b'{' => {
            *pos += 1;
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(());
            }
            loop {
                skip_string(bytes, pos)?;
                if bytes.get(*pos)? != &b':' {
                    return None;
                }
                *pos += 1;
                skip_value(bytes, pos)?;
                match bytes.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(());
                    }
                    _ => return None,
                }
            }
        }
        _ => None,
    }
}

/// Consumes `lit` exactly at `pos`.
fn skip_lit(bytes: &[u8], pos: &mut usize, lit: &str) -> Option<()> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(())
    } else {
        None
    }
}

/// Consumes a string literal with no escapes; `\` or a control byte
/// defers to serde.
fn skip_string(bytes: &[u8], pos: &mut usize) -> Option<()> {
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(());
            }
            b'\\' | 0x00..=0x1f => return None,
            _ => *pos += 1,
        }
    }
}

/// Consumes a conservative number: `-?d{1,19}(.d{1,19})?`, which the
/// serde grammar always accepts as a finite number (overflowing
/// integers fall to finite floats at these lengths). Exponents or any
/// further number-charset byte defer to serde.
fn skip_number(bytes: &[u8], pos: &mut usize) -> Option<()> {
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    digit_run(bytes, pos)?;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        digit_run(bytes, pos)?;
    }
    if bytes.get(*pos).is_some_and(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        return None;
    }
    Some(())
}

/// Consumes 1–19 digits (19 digits of fraction or integer can never
/// overflow `f64` to infinity, and the caller re-checks `u64` ranges
/// where they matter).
fn digit_run(bytes: &[u8], pos: &mut usize) -> Option<()> {
    let start = *pos;
    while bytes.get(*pos).is_some_and(|b| b.is_ascii_digit()) {
        *pos += 1;
    }
    (1..=19).contains(&(*pos - start)).then_some(())
}

/// Parses one `:::MLLOG` line into an entry. Blank lines yield
/// `Ok(None)`. This is the innermost unit of log ingest — the round
/// pipeline parses archived log files line by line through it, and the
/// ingest benchmarks time it in isolation.
///
/// The hot path is a zero-copy scanner over the canonical rendered
/// shape; any deviation falls back to [`parse_mllog_line_serde`], so
/// the two always agree (a property `tests/properties.rs` checks).
///
/// # Errors
///
/// Returns a message describing why the line is malformed (the caller
/// adds the line number).
pub fn parse_mllog_line(line: &str) -> Result<Option<LogEntry>, String> {
    if line.trim().is_empty() {
        return Ok(None);
    }
    let body =
        line.strip_prefix(":::MLLOG ").ok_or_else(|| "missing :::MLLOG prefix".to_string())?;
    if let Some(entry) = parse_body_fast(body) {
        return Ok(Some(entry));
    }
    let entry: LogEntry = serde_json::from_str(body).map_err(|e| e.to_string())?;
    Ok(Some(entry))
}

/// The reference parser: the full `serde_json` path that
/// [`parse_mllog_line`]'s zero-copy scanner falls back to. Exposed so
/// differential tests can check the scanner against it on arbitrary
/// rendered logs.
pub fn parse_mllog_line_serde(line: &str) -> Result<Option<LogEntry>, String> {
    if line.trim().is_empty() {
        return Ok(None);
    }
    let body =
        line.strip_prefix(":::MLLOG ").ok_or_else(|| "missing :::MLLOG prefix".to_string())?;
    let entry: LogEntry = serde_json::from_str(body).map_err(|e| e.to_string())?;
    Ok(Some(entry))
}

/// The entry-building visitor over [`canonical_frame`]. Returns `None`
/// for any body the frame scan or [`parse_value_fast`] declines, which
/// the caller routes to the full serde parser.
fn parse_body_fast(body: &str) -> Option<LogEntry> {
    let (key, time_ms, value) = canonical_frame(body)?;
    Some(LogEntry { time_ms, key: LogKey::new(key), value: parse_value_fast(value)? })
}

/// Parses the value slice of a canonical body. Simple scalars are
/// handled inline; everything else (floats, objects, arrays, escaped
/// strings) is delegated to `serde_json::from_str`, which demands the
/// slice be exactly one JSON value — the same judgment the full-body
/// parser would make, so agreement is structural.
fn parse_value_fast(text: &str) -> Option<Value> {
    match text.as_bytes().first()? {
        b'n' | b't' | b'f' => match text {
            "null" => Some(Value::Null),
            "true" => Some(Value::Bool(true)),
            "false" => Some(Value::Bool(false)),
            _ => serde_json::from_str(text).ok(),
        },
        b'0'..=b'9' => {
            let bytes = text.as_bytes();
            if bytes.iter().all(|b| b.is_ascii_digit()) {
                // The vendored number grammar parses a digit run as u64
                // (leading zeros and all), overflowing to float — which
                // the fallback below reproduces.
                match text.parse::<u64>() {
                    Ok(u) => Some(Value::Number(u.into())),
                    Err(_) => serde_json::from_str(text).ok(),
                }
            } else {
                serde_json::from_str(text).ok()
            }
        }
        b'"' => {
            let inner = &text.as_bytes()[1..];
            match inner.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20) {
                // A simple string: no escapes, closing quote ends the slice.
                Some(end) if inner[end] == b'"' && end + 2 == text.len() => {
                    Some(Value::String(text[1..=end].to_string()))
                }
                _ => serde_json::from_str(text).ok(),
            }
        }
        _ => serde_json::from_str(text).ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn log_and_render_roundtrip() {
        let mut logger = MlLogger::new();
        logger.log(keys::RUN_START, json!(null));
        logger.set_time_ms(1500);
        logger.log(keys::EVAL_ACCURACY, json!(0.42));
        logger.log(keys::RUN_STOP, json!({"status": "success"}));
        let text = logger.render();
        assert!(text.lines().all(|l| l.starts_with(":::MLLOG ")));
        let parsed = MlLogger::parse(&text).unwrap();
        assert_eq!(parsed, logger.entries());
        assert_eq!(parsed[1].time_ms, 1500);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MlLogger::parse("hello world").is_err());
        assert!(MlLogger::parse(":::MLLOG not-json").is_err());
    }

    #[test]
    fn parse_skips_blank_lines() {
        let mut logger = MlLogger::new();
        logger.log(keys::SEED, json!(7));
        let text = format!("\n{}\n\n", logger.render());
        assert_eq!(MlLogger::parse(&text).unwrap().len(), 1);
    }

    #[test]
    fn timestamps_monotone_when_time_advances() {
        let mut logger = MlLogger::new();
        for t in [0u64, 10, 20, 30] {
            logger.set_time_ms(t);
            logger.log(keys::EPOCH_START, json!(t));
        }
        let times: Vec<u64> = logger.entries().iter().map(|e| e.time_ms).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn standard_keys_are_interned_and_compare_by_content() {
        let interned = LogKey::new(keys::RUN_STOP);
        assert!(interned.is_standard());
        let custom = LogKey::new("my_custom_key");
        assert!(!custom.is_standard());
        assert_eq!(interned, keys::RUN_STOP);
        assert_eq!(interned.as_str(), "run_stop");
        assert_eq!(LogKey::from("run_stop".to_string()), interned);
        assert_ne!(interned, custom);
        // Deref lets a &LogKey stand in for &str.
        let s: &str = &interned;
        assert_eq!(s, "run_stop");
    }

    #[test]
    fn parse_collects_every_malformed_line() {
        // Satellite regression: one corrupt byte no longer hides the
        // diagnostics for later lines.
        let mut logger = MlLogger::new();
        logger.log(keys::SEED, json!(7));
        let good = logger.render();
        let text = format!("bogus one\n{good}:::MLLOG not-json\n{good}also bad\n");
        let err = MlLogger::parse(&text).unwrap_err();
        assert_eq!(err.faults.len(), 3);
        assert_eq!(
            err.faults.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![1, 3, 5],
            "faults name every offending line: {err}"
        );
        assert!(err.faults.iter().all(|f| !f.truncated));
        assert!(!err.truncated_tail_only());
        let msg = err.to_string();
        assert!(msg.contains("line 1:") && msg.contains("line 3:") && msg.contains("line 5:"));
    }

    #[test]
    fn parse_classifies_truncated_final_line() {
        // Crashed-writer case: the log ends mid-record with no newline.
        let mut logger = MlLogger::new();
        logger.log(keys::RUN_START, json!(null));
        logger.log(keys::SEED, json!(7));
        let rendered = logger.render();
        let cut = rendered.len() - 20;
        let truncated = &rendered[..cut];
        assert!(!truncated.ends_with('\n'));
        let err = MlLogger::parse(truncated).unwrap_err();
        assert!(err.truncated_tail_only(), "single truncated tail fault: {err:?}");
        assert_eq!(err.faults[0].line, 2);
        assert!(err.to_string().contains("truncated final record"));
        // The same damaged line mid-log (a newline follows) is ordinary
        // corruption, not a truncated tail.
        let mid = format!("{truncated}\n{rendered}");
        let err = MlLogger::parse(&mid).unwrap_err();
        assert!(!err.truncated_tail_only());
        assert!(!err.faults[0].truncated);
    }

    #[test]
    fn fast_and_serde_parsers_agree_on_edge_cases() {
        // Exotic payloads the fast path must route to the fallback
        // without changing the verdict.
        let cases = [
            r#":::MLLOG {"key":"seed","time_ms":1,"value":7}"#,
            r#":::MLLOG {"key":"eval_accuracy","time_ms":12,"value":0.53}"#,
            r#":::MLLOG {"key":"run_stop","time_ms":3,"value":{"status":"success"}}"#,
            r#":::MLLOG {"key":"k","time_ms":0,"value":"plain"}"#,
            r#":::MLLOG {"key":"k","time_ms":0,"value":"esc\naped"}"#,
            r#":::MLLOG {"key":"esc","time_ms":0,"value":null}"#,
            r#":::MLLOG { "key": "spaced", "time_ms": 5, "value": true }"#,
            r#":::MLLOG {"time_ms":5,"value":true,"key":"reordered"}"#,
            r#":::MLLOG {"key":"k","time_ms":007,"value":[1,2,3]}"#,
            r#":::MLLOG {"key":"k","time_ms":18446744073709551616,"value":null}"#,
            r#":::MLLOG {"key":"k","time_ms":-1,"value":null}"#,
            r#":::MLLOG {"key":"k","time_ms":1.5,"value":null}"#,
            r#":::MLLOG {"key":"k","time_ms":1,"value":99999999999999999999}"#,
            r#":::MLLOG {"key":"k","time_ms":1,"value":12}trailing"#,
            r#":::MLLOG {"key":"k","time_ms":1,"value":{}}"#,
            r#":::MLLOG {"key":"k","time_ms":1}"#,
            r#":::MLLOG {"key":"k","time_ms":1,"value":"unterminated"#,
        ];
        for line in cases {
            let fast = parse_mllog_line(line);
            let serde = parse_mllog_line_serde(line);
            assert_eq!(fast.is_ok(), serde.is_ok(), "verdicts differ for {line}");
            if let (Ok(a), Ok(b)) = (&fast, &serde) {
                assert_eq!(a, b, "parses differ for {line}");
            }
            // The allocation-free validator must agree with both.
            assert_eq!(
                MlLogger::validate(&format!("{line}\n")).is_ok(),
                MlLogger::parse(&format!("{line}\n")).is_ok(),
                "validate verdict differs for {line}"
            );
        }
    }

    /// `validate` is a pure accept/reject oracle for `parse`: same
    /// verdict on every text, and on rejection the same structured
    /// error, fault lines and all.
    #[test]
    fn validate_agrees_with_parse() {
        let mut logger = MlLogger::new();
        logger.log(keys::SUBMISSION_BENCHMARK, json!("ncf"));
        logger.log(keys::SEED, json!(7));
        logger.set_time_ms(10);
        logger.log(keys::EVAL_ACCURACY, json!(0.62));
        logger.log(keys::RUN_STOP, json!({"status": "success"}));
        logger.log("custom_key", json!([1, 2.5, "s", null, {"nested": true}]));
        let clean = logger.render();
        assert!(MlLogger::validate(&clean).is_ok());

        let texts = [
            clean.clone(),
            format!("\n{clean}\n\n"),
            clean.replace(":::MLLOG {\"key\":\"seed\"", "garbage line"),
            format!("{clean}:::MLLOG {{\"key\":\"k\",\"time_ms\":1,\"value\":"),
            format!("{clean}:::MLLOG {{\"key\":\"k\",\"time_ms\":9e9,\"value\":null}}\n"),
            String::new(),
        ];
        for text in texts {
            let validated = MlLogger::validate(&text);
            let parsed = MlLogger::parse(&text);
            assert_eq!(validated.is_ok(), parsed.is_ok(), "verdicts differ for {text:?}");
            if let (Err(a), Err(b)) = (validated, parsed) {
                assert_eq!(a, b, "errors differ for {text:?}");
            }
        }
    }
}
