//! Archive manifests: the on-disk JSON shapes, their canonical
//! schema-2 rendering, and a zero-copy fast-path parser.
//!
//! From [`crate::store::MANIFEST_SCHEMA`] 2 on, every manifest is
//! written in *canonical* form: single-line, sorted-key, compact JSON —
//! exactly what the vendored `serde_json::to_string` emits, and the
//! same lexical discipline the `:::MLLOG` renderer pioneered. A fixed
//! byte shape makes manifests cheap to read back: the fast-path parser
//! here scans the canonical form directly (no intermediate
//! [`serde_json::Value`] tree, no allocation beyond the output
//! strings), and anything that deviates from the canonical shape —
//! pretty-printed schema-1 manifests, hand-edited files, string
//! escapes, exotic numbers — falls back to the full serde parser,
//! which stays the reference implementation. The contract is
//! one-sided: whenever `parse_fast` accepts a text, the serde path
//! accepts the same text with the identical result (proven by the
//! differential proptest in `tests/properties.rs`); whenever it
//! declines, correctness is untouched because the serde path decides.

use crate::bundle::BenchmarkReference;
use mlperf_core::equivalence::ModelSignature;
use mlperf_core::report::SystemDescription;
use mlperf_core::rules::{Category, Division, SystemType};
use mlperf_core::suite::BenchmarkId;
use mlperf_distsim::Round;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;

/// `archive.json`: marks the directory as an archive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchiveManifest {
    /// Manifest schema version the archive was written at.
    pub schema: u64,
    /// Marker string distinguishing an archive from a plain directory.
    pub kind: String,
}

/// `<round>/round.json`: the round label and review references.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundManifest {
    /// Manifest schema version the round was written at.
    pub schema: u64,
    /// Which round this directory holds.
    pub round: Round,
    /// The review references bundles are validated against.
    pub references: Vec<BenchmarkReference>,
}

/// `<round>/<org>/<system>/bundle.json`: everything about a bundle
/// except the log text, which lives in the referenced `.log` files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BundleManifest {
    /// Manifest schema version the bundle was written at.
    pub schema: u64,
    /// Position in the round's original submission order; readers sort
    /// by it so directory iteration order never reorders bundles.
    pub index: u64,
    /// Submitting organization.
    pub org: String,
    /// The submitted system.
    pub system: SystemDescription,
    /// The bundle's division.
    pub division: Division,
    /// The bundle's category.
    pub category: Category,
    /// The bundle's system type.
    pub system_type: SystemType,
    /// One run set per benchmark entered.
    pub run_sets: Vec<RunSetManifest>,
}

/// One run set inside a bundle manifest; `logs` are paths relative to
/// the bundle directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSetManifest {
    /// Which benchmark the run set entered.
    pub benchmark: BenchmarkId,
    /// Dataset the runs trained on.
    pub dataset: String,
    /// Hyperparameters shared by every run in the set.
    pub hyperparameters: BTreeMap<String, f64>,
    /// The submitted model's equivalence signature.
    pub signature: ModelSignature,
    /// Log file paths, relative to the bundle directory.
    pub logs: Vec<String>,
}

/// Renders a manifest in canonical schema-2 form: single-line,
/// sorted-key, compact JSON. This is the byte shape
/// [`ArchiveManifest::parse_fast`] and friends scan without building a
/// value tree.
pub fn canonical<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("manifests serialize")
}

impl ArchiveManifest {
    /// Parses an `archive.json`: fast path first, serde as fallback
    /// and reference.
    ///
    /// # Errors
    ///
    /// The serde parser's message when the text is not a valid archive
    /// manifest under either parser.
    pub fn parse(text: &str) -> Result<Self, String> {
        match Self::parse_fast(text) {
            Some(manifest) => Ok(manifest),
            None => Self::parse_serde(text),
        }
    }

    /// The zero-copy scan of the canonical rendering; `None` on any
    /// deviation from it (the caller then consults serde).
    pub fn parse_fast(text: &str) -> Option<Self> {
        let mut s = Scan::new(text);
        s.lit("{\"kind\":")?;
        let kind = s.string()?.to_string();
        s.lit(",\"schema\":")?;
        let schema = s.u64_value()?;
        s.lit("}")?;
        s.done()?;
        Some(ArchiveManifest { schema, kind })
    }

    /// The reference parser: full JSON via the serde value tree.
    ///
    /// # Errors
    ///
    /// The serde parser's message for malformed text or a shape
    /// mismatch.
    pub fn parse_serde(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

impl RoundManifest {
    /// Parses a `round.json`: fast path first, serde as fallback and
    /// reference.
    ///
    /// # Errors
    ///
    /// The serde parser's message when the text is not a valid round
    /// manifest under either parser.
    pub fn parse(text: &str) -> Result<Self, String> {
        match Self::parse_fast(text) {
            Some(manifest) => Ok(manifest),
            None => Self::parse_serde(text),
        }
    }

    /// The zero-copy scan of the canonical rendering; `None` on any
    /// deviation from it.
    pub fn parse_fast(text: &str) -> Option<Self> {
        let mut s = Scan::new(text);
        s.lit("{\"references\":")?;
        let references = s.array(Scan::reference)?;
        s.lit(",\"round\":")?;
        let round = s.enum_value::<Round>()?;
        s.lit(",\"schema\":")?;
        let schema = s.u64_value()?;
        s.lit("}")?;
        s.done()?;
        Some(RoundManifest { schema, round, references })
    }

    /// The reference parser: full JSON via the serde value tree.
    ///
    /// # Errors
    ///
    /// The serde parser's message for malformed text or a shape
    /// mismatch.
    pub fn parse_serde(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

impl BundleManifest {
    /// Parses a `bundle.json`: fast path first, serde as fallback and
    /// reference.
    ///
    /// # Errors
    ///
    /// The serde parser's message when the text is not a valid bundle
    /// manifest under either parser.
    pub fn parse(text: &str) -> Result<Self, String> {
        match Self::parse_fast(text) {
            Some(manifest) => Ok(manifest),
            None => Self::parse_serde(text),
        }
    }

    /// The zero-copy scan of the canonical rendering; `None` on any
    /// deviation from it.
    pub fn parse_fast(text: &str) -> Option<Self> {
        let mut s = Scan::new(text);
        s.lit("{\"category\":")?;
        let category = s.enum_value::<Category>()?;
        s.lit(",\"division\":")?;
        let division = s.enum_value::<Division>()?;
        s.lit(",\"index\":")?;
        let index = s.u64_value()?;
        s.lit(",\"org\":")?;
        let org = s.string()?.to_string();
        s.lit(",\"run_sets\":")?;
        let run_sets = s.array(Scan::run_set)?;
        s.lit(",\"schema\":")?;
        let schema = s.u64_value()?;
        s.lit(",\"system\":")?;
        let system = s.system()?;
        s.lit(",\"system_type\":")?;
        let system_type = s.enum_value::<SystemType>()?;
        s.lit("}")?;
        s.done()?;
        Some(BundleManifest {
            schema,
            index,
            org,
            system,
            division,
            category,
            system_type,
            run_sets,
        })
    }

    /// The reference parser: full JSON via the serde value tree.
    ///
    /// # Errors
    ///
    /// The serde parser's message for malformed text or a shape
    /// mismatch.
    pub fn parse_serde(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// A cursor over the canonical manifest bytes. Every method either
/// consumes exactly the canonical rendering of one construct or
/// returns `None` — there is no recovery, because the caller's
/// recovery is the serde parser.
///
/// Strings are the one deliberately narrowed construct: any escape
/// sequence (`\`) or control byte makes the scan decline, so the fast
/// path never needs an unescaping buffer — `"` (0x22) cannot appear
/// inside a multi-byte UTF-8 sequence, so a bare byte scan to the
/// closing quote always lands on a character boundary.
struct Scan<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scan<'a> {
    fn new(text: &'a str) -> Self {
        Scan { bytes: text.as_bytes(), pos: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `token` exactly.
    fn lit(&mut self, token: &str) -> Option<()> {
        let t = token.as_bytes();
        if self.bytes[self.pos..].starts_with(t) {
            self.pos += t.len();
            Some(())
        } else {
            None
        }
    }

    /// Requires the whole input to have been consumed.
    fn done(&self) -> Option<()> {
        (self.pos == self.bytes.len()).then_some(())
    }

    /// A string literal with no escapes; escapes and control bytes
    /// decline to serde (which unescapes properly).
    fn string(&mut self) -> Option<&'a str> {
        self.lit("\"")?;
        let start = self.pos;
        loop {
            match self.peek()? {
                b'"' => break,
                b'\\' | 0x00..=0x1f => return None,
                _ => self.pos += 1,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        self.pos += 1;
        Some(s)
    }

    /// A non-negative integer. Declines when the digit run continues
    /// into float syntax (`.`, `e`, …) — that token is a float and u64
    /// deserialization would reject it.
    fn u64_value(&mut self) -> Option<u64> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start
            || self.peek().is_some_and(|b| matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            return None;
        }
        std::str::from_utf8(&self.bytes[start..self.pos]).ok()?.parse().ok()
    }

    fn usize_value(&mut self) -> Option<usize> {
        usize::try_from(self.u64_value()?).ok()
    }

    /// A number read as `f64`: the same greedy charset the serde
    /// number lexer uses, the same `str::parse::<f64>` semantics, and
    /// the same rejection of non-finite results (JSON has no infinity).
    fn f64_value(&mut self) -> Option<f64> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
            return None;
        }
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let v: f64 = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?.parse().ok()?;
        v.is_finite().then_some(v)
    }

    /// `[...]` with `elem` scanning each element.
    fn array<T>(&mut self, mut elem: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.lit("[")?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(items);
        }
        loop {
            items.push(elem(self)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(items);
                }
                _ => return None,
            }
        }
    }

    /// `{"key":f64,...}` — the hyperparameter map. Duplicate keys keep
    /// the last value, exactly as the serde value tree would.
    fn f64_map(&mut self) -> Option<BTreeMap<String, f64>> {
        self.lit("{")?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(map);
        }
        loop {
            let key = self.string()?.to_string();
            self.lit(":")?;
            let value = self.f64_value()?;
            map.insert(key, value);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(map);
                }
                _ => return None,
            }
        }
    }

    /// A unit-variant enum, decoded through the type's own
    /// `Deserialize` so the accepted names are exactly serde's.
    fn enum_value<T: Deserialize>(&mut self) -> Option<T> {
        let name = self.string()?;
        T::from_value(&Value::String(name.to_string())).ok()
    }

    /// The canonical [`ModelSignature`]: `{"shapes":[[...],...]}`.
    fn signature(&mut self) -> Option<ModelSignature> {
        self.lit("{\"shapes\":")?;
        let shapes = self.array(|s| s.array(Scan::usize_value))?;
        self.lit("}")?;
        Some(ModelSignature::from_shapes(shapes))
    }

    /// The canonical [`BenchmarkReference`], keys in sorted order.
    fn reference(&mut self) -> Option<BenchmarkReference> {
        self.lit("{\"benchmark\":")?;
        let benchmark = self.enum_value::<BenchmarkId>()?;
        self.lit(",\"dataset\":")?;
        let dataset = self.string()?.to_string();
        self.lit(",\"hyperparameters\":")?;
        let hyperparameters = self.f64_map()?;
        self.lit(",\"quality_target\":")?;
        let quality_target = self.f64_value()?;
        self.lit(",\"signature\":")?;
        let signature = self.signature()?;
        self.lit("}")?;
        Some(BenchmarkReference { benchmark, dataset, quality_target, hyperparameters, signature })
    }

    /// The canonical [`SystemDescription`], keys in sorted order.
    fn system(&mut self) -> Option<SystemDescription> {
        self.lit("{\"accelerator_model\":")?;
        let accelerator_model = self.string()?.to_string();
        self.lit(",\"accelerators\":")?;
        let accelerators = self.usize_value()?;
        self.lit(",\"host_processors\":")?;
        let host_processors = self.usize_value()?;
        self.lit(",\"software\":")?;
        let software = self.string()?.to_string();
        self.lit(",\"submitter\":")?;
        let submitter = self.string()?.to_string();
        self.lit(",\"system_name\":")?;
        let system_name = self.string()?.to_string();
        self.lit("}")?;
        Some(SystemDescription {
            submitter,
            system_name,
            accelerators,
            accelerator_model,
            host_processors,
            software,
        })
    }

    /// The canonical [`RunSetManifest`], keys in sorted order.
    fn run_set(&mut self) -> Option<RunSetManifest> {
        self.lit("{\"benchmark\":")?;
        let benchmark = self.enum_value::<BenchmarkId>()?;
        self.lit(",\"dataset\":")?;
        let dataset = self.string()?.to_string();
        self.lit(",\"hyperparameters\":")?;
        let hyperparameters = self.f64_map()?;
        self.lit(",\"logs\":")?;
        let logs = self.array(|s| s.string().map(str::to_string))?;
        self.lit(",\"signature\":")?;
        let signature = self.signature()?;
        self.lit("}")?;
        Some(RunSetManifest { benchmark, dataset, hyperparameters, signature, logs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{synthetic_round, SyntheticRoundSpec};

    fn sample_bundle_manifest() -> BundleManifest {
        let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V05, 3));
        let bundle = &subs.bundles[0];
        BundleManifest {
            schema: 2,
            index: 4,
            org: bundle.org.clone(),
            system: bundle.system.clone(),
            division: bundle.division,
            category: bundle.category,
            system_type: bundle.system_type,
            run_sets: bundle
                .run_sets
                .iter()
                .enumerate()
                .map(|(i, rs)| RunSetManifest {
                    benchmark: rs.benchmark,
                    dataset: rs.dataset.clone(),
                    hyperparameters: rs.hyperparameters.clone(),
                    signature: rs.signature.clone(),
                    logs: vec![format!("{}/run_{i}.log", rs.benchmark.slug())],
                })
                .collect(),
        }
    }

    #[test]
    fn canonical_rendering_round_trips_through_both_parsers() {
        let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V06, 5));
        let archive = ArchiveManifest { schema: 2, kind: "mlperf-round-archive".to_string() };
        let round =
            RoundManifest { schema: 2, round: subs.round, references: subs.references.clone() };
        let bundle = sample_bundle_manifest();

        let text = canonical(&archive);
        assert_eq!(ArchiveManifest::parse_fast(&text), Some(archive.clone()));
        assert_eq!(ArchiveManifest::parse_serde(&text).as_ref(), Ok(&archive));

        let text = canonical(&round);
        assert_eq!(RoundManifest::parse_fast(&text), Some(round.clone()));
        assert_eq!(RoundManifest::parse_serde(&text).as_ref(), Ok(&round));

        let text = canonical(&bundle);
        assert_eq!(BundleManifest::parse_fast(&text), Some(bundle.clone()));
        assert_eq!(BundleManifest::parse_serde(&text).as_ref(), Ok(&bundle));
    }

    #[test]
    fn pretty_rendering_falls_back_to_serde() {
        let bundle = sample_bundle_manifest();
        let text = serde_json::to_string_pretty(&bundle).unwrap();
        assert_eq!(BundleManifest::parse_fast(&text), None, "fast path is canonical-only");
        assert_eq!(BundleManifest::parse(&text).as_ref(), Ok(&bundle));
    }

    #[test]
    fn fast_path_never_accepts_what_serde_rejects() {
        let text = canonical(&sample_bundle_manifest());
        // Damage the text at every byte position; the fast path may
        // only accept texts serde also accepts (with the same result).
        for i in 0..text.len() {
            let mut mangled = text.as_bytes().to_vec();
            mangled[i] = mangled[i].wrapping_add(1);
            let Ok(mangled) = String::from_utf8(mangled) else { continue };
            if let Some(fast) = BundleManifest::parse_fast(&mangled) {
                assert_eq!(
                    BundleManifest::parse_serde(&mangled).as_ref(),
                    Ok(&fast),
                    "fast path diverged on: {mangled}"
                );
            }
        }
    }

    #[test]
    fn escaped_strings_decline_to_serde() {
        let mut bundle = sample_bundle_manifest();
        bundle.org = "quote \" and \\ backslash".to_string();
        let text = canonical(&bundle);
        assert_eq!(BundleManifest::parse_fast(&text), None);
        assert_eq!(BundleManifest::parse(&text).as_ref(), Ok(&bundle));
    }
}
