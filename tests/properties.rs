//! Property-based tests over the core data structures and invariants,
//! spanning every substrate crate.

use mlperf_suite::core::aggregate::olympic_mean;
use mlperf_suite::core::compliance::check_log;
use mlperf_suite::core::equivalence::ModelSignature;
use mlperf_suite::core::metrics::bleu;
use mlperf_suite::core::mllog::{parse_mllog_line, parse_mllog_line_serde, LogEntry, MlLogger};
use mlperf_suite::core::recommend::recommend;
use mlperf_suite::core::report::SystemDescription;
use mlperf_suite::core::rules::{Category, Division, SystemType};
use mlperf_suite::core::suite::{BenchmarkId, SuiteVersion};
use mlperf_suite::distsim::{ConvergenceModel, Round};
use mlperf_suite::gomini::{Board, Player, RandomPlayer};
use mlperf_suite::submission::manifest::{
    canonical, ArchiveManifest, BundleManifest, RoundManifest, RunSetManifest,
};
use mlperf_suite::submission::BenchmarkReference;
use mlperf_suite::tensor::{broadcast_shapes, Precision, TensorRng};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Text a damaged or hostile writer could leave behind, spliced into
/// canonical renderings by [`damaged`]: whitespace, escapes (complete
/// and cut short), structural bytes, and numbers on either side of
/// what `u64` and `f64` hold.
const SPLICES: [&str; 16] = [
    " ",
    "\t",
    "\n",
    "\\n",
    "\\\"",
    "\\u00e9",
    "\\",
    "\"",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "-0",
    "1e999",
    ",",
    "{",
    "}",
];

/// A JSON object (or, while scanning, an array) of a text: its opening
/// and closing bytes and the byte range of each `"name":value` member.
struct Span {
    object: bool,
    open: usize,
    close: usize,
    members: Vec<std::ops::Range<usize>>,
}

/// Every JSON object of a well-formed text.
fn object_members(text: &[u8]) -> Vec<Span> {
    let mut objects = Vec::new();
    // Containers still open; `close` holds the start of the open member.
    let mut stack: Vec<Span> = Vec::new();
    let (mut in_string, mut escaped) = (false, false);
    for (i, &b) in text.iter().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => {
                stack.push(Span { object: b == b'{', open: i, close: i + 1, members: Vec::new() })
            }
            b',' => {
                if let Some(top) = stack.last_mut().filter(|top| top.object) {
                    top.members.push(top.close..i);
                    top.close = i + 1;
                }
            }
            b'}' | b']' => {
                if let Some(mut span) = stack.pop().filter(|span| span.object) {
                    if span.close < i {
                        span.members.push(span.close..i);
                    }
                    objects.push(Span { close: i, ..span });
                }
            }
            _ => {}
        }
    }
    objects
}

/// `text` after the damage `ops` describe, one `(kind, a, b)` each,
/// `a` and `b` reduced modulo whatever they index: a field deleted,
/// duplicated or inserted in one of the text's objects; two bytes
/// swapped; a [`SPLICES`] entry inserted; a digit run replaced by a
/// 20-digit number. Bytes that no longer form UTF-8 become U+FFFD, as
/// they would on the way in from a file.
fn damaged(text: &str, ops: &[(usize, usize, usize)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, a, b) in ops {
        if bytes.is_empty() {
            break;
        }
        match kind % 6 {
            field_op @ 0..=2 => {
                let objects = object_members(&bytes);
                if objects.is_empty() {
                    continue;
                }
                let Span { open, close, members: spans, .. } = &objects[a % objects.len()];
                let mut members: Vec<Vec<u8>> =
                    spans.iter().map(|span| bytes[span.clone()].to_vec()).collect();
                match field_op {
                    0 if !members.is_empty() => drop(members.remove(b % members.len())),
                    1 if !members.is_empty() => {
                        let copy = members[b % members.len()].clone();
                        members.insert(a % (members.len() + 1), copy);
                    }
                    _ => members.insert(b % (members.len() + 1), b"\"extra\":0".to_vec()),
                }
                let mut rebuilt = bytes[..=*open].to_vec();
                rebuilt.extend(members.join(&b","[..]));
                rebuilt.extend(&bytes[*close..]);
                bytes = rebuilt;
            }
            3 => {
                let (p, q) = (a % bytes.len(), b % bytes.len());
                bytes.swap(p, q);
            }
            4 => {
                let at = a % (bytes.len() + 1);
                bytes.splice(at..at, SPLICES[b % SPLICES.len()].bytes());
            }
            _ => {
                let from = a % bytes.len();
                let Some(start) = (from..bytes.len()).find(|&i| bytes[i].is_ascii_digit()) else {
                    continue;
                };
                let end = (start..bytes.len())
                    .find(|&i| !bytes[i].is_ascii_digit())
                    .unwrap_or(bytes.len());
                bytes.splice(start..end, SPLICES[8 + b % 3].bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Arbitrary bytes made text: half drawn from all 256 values, half
/// from the bytes JSON is made of, so that some samples get past the
/// first character of a scanner.
fn hostile_text(raw: &[u16]) -> String {
    const JSONISH: &[u8] = b"{}[]\":,\\ 0123456789.eE+-ntfalsrukyvim_";
    let bytes: Vec<u8> = raw
        .iter()
        .map(|&v| if v < 256 { v as u8 } else { JSONISH[v as usize % JSONISH.len()] })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The mllog fast paths against the serde referee on one text: every
/// line parses to the same entry or the same error, and `validate`
/// gives the full parse's verdict, which is serde's line by line.
fn check_mllog_against_serde(text: &str) -> Result<(), TestCaseError> {
    for line in text.lines() {
        let (fast, serde) = (parse_mllog_line(line), parse_mllog_line_serde(line));
        prop_assert!(fast == serde, "{line:?} reads {fast:?}, serde reads {serde:?}");
    }
    let verdict = MlLogger::validate(text);
    prop_assert_eq!(&verdict, &MlLogger::parse(text).map(|_| ()));
    let serde_accepts = text.lines().all(|line| parse_mllog_line_serde(line).is_ok());
    prop_assert!(verdict.is_ok() == serde_accepts, "validate and serde disagree on {text:?}");
    Ok(())
}

/// The three manifest fast paths against the serde referee on one
/// text: each either declines or reads exactly what serde reads, and
/// `parse` is serde's verdict.
fn check_manifests_against_serde(text: &str) -> Result<(), TestCaseError> {
    macro_rules! check {
        ($manifest:ty) => {
            let serde = <$manifest>::parse_serde(text);
            if let Some(fast) = <$manifest>::parse_fast(text) {
                prop_assert!(
                    serde.as_ref() == Ok(&fast),
                    "{text:?} reads {fast:?}, serde reads {serde:?}"
                );
            }
            prop_assert_eq!(<$manifest>::parse(text), serde);
        };
    }
    check!(ArchiveManifest);
    check!(RoundManifest);
    check!(BundleManifest);
    Ok(())
}

proptest! {
    /// Broadcasting is symmetric and idempotent on the result shape.
    #[test]
    fn broadcast_shapes_symmetric(a in proptest::collection::vec(1usize..5, 0..4),
                                  b in proptest::collection::vec(1usize..5, 0..4)) {
        let ab = broadcast_shapes(&a, &b);
        let ba = broadcast_shapes(&b, &a);
        prop_assert_eq!(ab.clone(), ba);
        if let Some(out) = ab {
            prop_assert_eq!(broadcast_shapes(&out, &a), Some(out.clone()));
            prop_assert_eq!(broadcast_shapes(&out, &b), Some(out));
        }
    }

    /// Elementwise addition with broadcasting commutes.
    #[test]
    fn tensor_add_commutes(seed in 0u64..1000) {
        let mut rng = TensorRng::new(seed);
        let a = rng.normal(&[3, 1, 4], 0.0, 1.0);
        let b = rng.normal(&[2, 4], 0.0, 1.0);
        let ab = &a + &b;
        let ba = &b + &a;
        prop_assert_eq!(ab, ba);
    }

    /// `sum_to` exactly inverts `broadcast_to` for scale factors
    /// (the adjoint property autograd relies on).
    #[test]
    fn sum_to_adjoint_of_broadcast(seed in 0u64..1000, rows in 1usize..6) {
        let mut rng = TensorRng::new(seed);
        let v = rng.normal(&[4], 0.0, 1.0);
        let big = v.broadcast_to(&[rows, 4]);
        let back = big.sum_to(&[4]);
        let expected = v.scale(rows as f32);
        for (x, y) in back.data().iter().zip(expected.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Matmul distributes over addition: (A+B)C = AC + BC.
    #[test]
    fn matmul_distributes(seed in 0u64..500) {
        let mut rng = TensorRng::new(seed);
        let a = rng.normal(&[3, 4], 0.0, 1.0);
        let b = rng.normal(&[3, 4], 0.0, 1.0);
        let c = rng.normal(&[4, 2], 0.0, 1.0);
        let lhs = (&a + &b).matmul(&c);
        let rhs = a.matmul(&c) + b.matmul(&c);
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    /// Quantization is idempotent and never increases magnitude beyond
    /// the format's saturation point.
    #[test]
    fn quantize_idempotent(seed in 0u64..500) {
        let mut rng = TensorRng::new(seed);
        let t = rng.normal(&[16], 0.0, 10.0);
        // Fixed-grid formats are exactly idempotent.
        for p in [Precision::Bf16, Precision::Fp16, Precision::Fp8E4M3] {
            let once = t.quantize(p);
            let twice = once.quantize(p);
            prop_assert_eq!(once, twice);
        }
        // Ternary recomputes its per-tensor scale, so idempotence holds
        // only up to floating-point summation error.
        let once = t.quantize(Precision::Ternary);
        let twice = once.quantize(Precision::Ternary);
        for (a, b) in once.data().iter().zip(twice.data().iter()) {
            prop_assert!((a - b).abs() <= 1e-5 * a.abs().max(1.0));
        }
    }

    /// The olympic mean is permutation-invariant and lies within the
    /// value range.
    #[test]
    fn olympic_mean_bounds(mut times in proptest::collection::vec(0.1f64..1e4, 3..12)) {
        let m = olympic_mean(&times);
        let lo = times.iter().cloned().fold(f64::MAX, f64::min);
        let hi = times.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(m >= lo && m <= hi);
        times.reverse();
        let m2 = olympic_mean(&times);
        prop_assert!((m - m2).abs() < 1e-9);
    }

    /// Adding an extreme outlier to a run set moves the olympic mean by
    /// less than it moves the plain mean (robustness, §3.2.2).
    #[test]
    fn olympic_mean_robust_to_outlier(times in proptest::collection::vec(10.0f64..20.0, 4..10)) {
        let base_olympic = olympic_mean(&times);
        let mut with_outlier = times.clone();
        with_outlier.push(1e6);
        let olympic_shift = (olympic_mean(&with_outlier) - base_olympic).abs();
        let plain: f64 = times.iter().sum::<f64>() / times.len() as f64;
        let plain_out: f64 = with_outlier.iter().sum::<f64>() / with_outlier.len() as f64;
        prop_assert!(olympic_shift < (plain_out - plain).abs());
    }

    /// BLEU is bounded in [0, 100] and exactly 100 on self-comparison.
    #[test]
    fn bleu_bounds(cand in proptest::collection::vec(3usize..20, 4..10),
                   refr in proptest::collection::vec(3usize..20, 4..10)) {
        let score = bleu(std::slice::from_ref(&cand), &[refr]);
        prop_assert!((0.0..=100.0 + 1e-9).contains(&score));
        let own = bleu(std::slice::from_ref(&cand), std::slice::from_ref(&cand));
        prop_assert!((own - 100.0).abs() < 1e-6);
    }

    /// Convergence-model epochs are monotone in batch size and scale
    /// linearly with the target factor.
    #[test]
    fn convergence_monotone(b1 in 1usize..100_000, b2 in 1usize..100_000, f in 1.0f64..2.0) {
        let m = ConvergenceModel::resnet_paper();
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(m.epochs(lo) <= m.epochs(hi));
        let scaled = m.with_target_factor(f);
        prop_assert!((scaled.epochs(b1) / m.epochs(b1) - f).abs() < 1e-9);
    }

    /// Suite membership is complete in every round: each fielded
    /// benchmark has a finite quality target, reference hyperparameters
    /// at any scale-up of its reference batch, and a slug that
    /// round-trips back to the same id (the mllog benchmark name).
    #[test]
    fn every_fielded_benchmark_is_fully_specified(batch in 1usize..4096, vi in 0usize..3) {
        let version = [SuiteVersion::V05, SuiteVersion::V06, SuiteVersion::V07][vi];
        let fielded = BenchmarkId::in_version(version);
        prop_assert!(!fielded.is_empty());
        for id in fielded {
            let target = id.quality_for(version).expect("fielded benchmarks have targets");
            prop_assert!(target.value.is_finite() && target.value > 0.0, "{id} {version}");
            prop_assert!(!target.metric.is_empty(), "{id} {version}");
            let spec = id.spec();
            prop_assert_eq!(spec.id, id);
            let rec = recommend(id, batch);
            prop_assert!(rec.learning_rate > 0.0 && rec.learning_rate.is_finite(), "{id}");
            prop_assert!(rec.warmup_epochs >= 0.0, "{id}");
            prop_assert_eq!(BenchmarkId::from_slug(id.slug()), Some(id));
        }
        // The v0.7 additions are fielded in v0.7 and nowhere earlier.
        for id in [
            BenchmarkId::LanguageModeling,
            BenchmarkId::RecommendationDlrm,
            BenchmarkId::SpeechRecognition,
        ] {
            prop_assert_eq!(id.quality_for(version).is_some(), version == SuiteVersion::V07);
        }
    }

    /// The compliance checker never panics on arbitrary log soups, and
    /// arbitrary entry lists round-trip through the :::MLLOG text
    /// format.
    #[test]
    fn compliance_and_mllog_fuzz(
        entries in proptest::collection::vec(
            (0u64..10_000, "[a-z_]{1,20}", -1e6f64..1e6), 0..40)
    ) {
        let log: Vec<LogEntry> = entries
            .into_iter()
            .map(|(t, key, v)| LogEntry {
                time_ms: t,
                key: key.into(),
                value: serde_json::json!(v),
            })
            .collect();
        let _ = check_log(&log); // must not panic
        let mut logger = MlLogger::new();
        for e in &log {
            logger.set_time_ms(e.time_ms);
            logger.log(&e.key, e.value.clone());
        }
        let parsed = MlLogger::parse(&logger.render()).expect("rendered log parses");
        prop_assert_eq!(parsed, log);
    }

    /// Render → parse → render is bit-exact for arbitrary keys and
    /// heterogeneous values (floats survive via shortest-roundtrip
    /// formatting), so rendered logs are a lossless interchange format.
    #[test]
    fn mllog_render_parse_render_bit_exact(
        entries in proptest::collection::vec(
            (0u64..10_000_000, "[a-z_]{1,20}", -1e6f64..1e6, 0usize..6), 0..24)
    ) {
        let mut logger = MlLogger::new();
        for (t, key, v, kind) in &entries {
            logger.set_time_ms(*t);
            let value = match kind {
                0 => serde_json::json!(v),
                1 => serde_json::json!(*v as i64),
                2 => serde_json::json!(key),
                3 => serde_json::json!(*t % 2 == 0),
                4 => serde_json::json!({"status": key, "value": v}),
                _ => serde_json::json!(null),
            };
            logger.log(key, value);
        }
        let first = logger.render();
        // Differential check: on every rendered line, the zero-copy
        // fast path and the pure-serde reference path agree exactly.
        for line in first.lines() {
            prop_assert_eq!(parse_mllog_line(line), parse_mllog_line_serde(line));
        }
        let parsed = MlLogger::parse(&first).expect("rendered log parses");
        let mut relogger = MlLogger::new();
        for e in parsed {
            relogger.set_time_ms(e.time_ms);
            relogger.log(&e.key, e.value);
        }
        prop_assert_eq!(relogger.render(), first);
    }

    /// The schema-2 differential property: on every rendered manifest
    /// — canonical or legacy pretty, benign or escape-laden strings,
    /// arbitrary floats, plus a truncated-canonical hostile case — the
    /// zero-copy fast path either declines or agrees exactly with the
    /// serde reference parser, and the public `parse` entry point
    /// always matches the serde result.
    #[test]
    fn manifest_fast_path_agrees_with_serde(
        (org, dataset) in ("[a-z0-9 _.-]{0,12}", "[a-z0-9/_-]{0,10}"),
        (hostile, index, accelerators, schema) in
            (0usize..5, 0u64..u64::MAX, 0usize..100_000, 1u64..4),
        hp_keys in proptest::collection::vec("[a-z_]{1,8}", 0..4),
        hp_vals in proptest::collection::vec(-1e9f64..1e9, 4..8),
        (shapes, logs) in (
            proptest::collection::vec(
                proptest::collection::vec(1usize..2048, 0..3), 0..3),
            proptest::collection::vec("[a-z0-9_/.]{1,16}", 0..4)),
        (div, cat, sys, round_i) in (0usize..2, 0usize..3, 0usize..2, 0usize..3),
    ) {
        // Strings that force JSON escaping (so the fast path must
        // decline to the serde parser) ride on a sampled suffix.
        let suffix = ["", "\"", "\\", "line\nbreak", "uni\u{9}code\u{e9}"][hostile];
        let org = format!("{org}{suffix}");
        let hp: std::collections::BTreeMap<String, f64> =
            hp_keys.into_iter().zip(hp_vals.iter().copied()).collect();
        let fielded = BenchmarkId::in_version(SuiteVersion::V07);
        let run_set = RunSetManifest {
            benchmark: fielded[index as usize % fielded.len()],
            dataset: dataset.clone(),
            hyperparameters: hp.clone(),
            signature: ModelSignature::from_shapes(shapes.clone()),
            logs: logs.clone(),
        };
        let bundle = BundleManifest {
            schema,
            index,
            org: org.clone(),
            system: SystemDescription {
                submitter: org.clone(),
                system_name: dataset.clone(),
                accelerators,
                accelerator_model: org.clone(),
                host_processors: accelerators / 8,
                software: dataset.clone(),
            },
            division: [Division::Closed, Division::Open][div],
            category: [Category::Available, Category::Preview, Category::Research][cat],
            system_type: [SystemType::OnPremise, SystemType::Cloud][sys],
            run_sets: vec![run_set.clone()],
        };
        let round = RoundManifest {
            schema,
            round: [Round::V05, Round::V06, Round::V07][round_i],
            references: vec![BenchmarkReference {
                benchmark: run_set.benchmark,
                dataset: dataset.clone(),
                quality_target: hp.values().next().copied().unwrap_or(0.749),
                hyperparameters: hp.clone(),
                signature: ModelSignature::from_shapes(shapes),
            }],
        };
        let archive = ArchiveManifest { schema, kind: org.clone() };

        for text in [canonical(&archive), serde_json::to_string_pretty(&archive).unwrap()] {
            let reference = ArchiveManifest::parse_serde(&text);
            if let Some(fast) = ArchiveManifest::parse_fast(&text) {
                prop_assert_eq!(Ok(&fast), reference.as_ref());
            }
            prop_assert_eq!(ArchiveManifest::parse(&text), reference);
        }
        for text in [canonical(&round), serde_json::to_string_pretty(&round).unwrap()] {
            let reference = RoundManifest::parse_serde(&text);
            if let Some(fast) = RoundManifest::parse_fast(&text) {
                prop_assert_eq!(Ok(&fast), reference.as_ref());
            }
            prop_assert_eq!(RoundManifest::parse(&text), reference);
        }
        for text in [canonical(&bundle), serde_json::to_string_pretty(&bundle).unwrap()] {
            let reference = BundleManifest::parse_serde(&text);
            if let Some(fast) = BundleManifest::parse_fast(&text) {
                prop_assert_eq!(Ok(&fast), reference.as_ref());
            }
            prop_assert_eq!(BundleManifest::parse(&text), reference);
        }
        // Hostile case: a canonical text cut anywhere must never be
        // accepted by the fast path unless serde accepts it too.
        let mut damaged = canonical(&bundle);
        let mut cut = (index as usize) % (damaged.len() + 1);
        while !damaged.is_char_boundary(cut) {
            cut -= 1;
        }
        damaged.truncate(cut);
        if let Some(fast) = BundleManifest::parse_fast(&damaged) {
            prop_assert_eq!(Ok(fast), BundleManifest::parse_serde(&damaged));
        }
    }

    /// Robustness of the log scanners (ROADMAP 5(d), item 8): on
    /// arbitrary bytes made text — bare, behind the `:::MLLOG ` prefix
    /// and inside a canonical frame — and on rendered logs with
    /// structured damage, `parse_mllog_line` and `MlLogger::validate`
    /// never panic and never accept what the serde parser rejects or
    /// reads differently.
    #[test]
    fn mllog_scanners_survive_hostile_text(
        raw in proptest::collection::vec(0u16..512, 0..96),
        entries in proptest::collection::vec(
            (0u64..u64::MAX, "[a-z_]{1,12}", -1e6f64..1e6, 0usize..6), 1..5),
        damage in proptest::collection::vec(
            proptest::collection::vec((0usize..6, 0usize..10_000, 0usize..10_000), 1..4), 8..9),
    ) {
        let hostile = hostile_text(&raw);
        check_mllog_against_serde(&hostile)?;
        check_mllog_against_serde(&format!(":::MLLOG {hostile}"))?;
        check_mllog_against_serde(&format!(
            ":::MLLOG {{\"key\":\"k\",\"time_ms\":7,\"value\":{hostile}}}"
        ))?;
        check_mllog_against_serde(&format!(":::MLLOG {{\"key\":\"{hostile}"))?;

        let mut logger = MlLogger::new();
        for (t, key, v, kind) in &entries {
            logger.set_time_ms(*t);
            let value = match kind {
                0 => serde_json::json!(v),
                1 => serde_json::json!(*v as i64),
                2 => serde_json::json!(key),
                3 => serde_json::json!([*t, v, key]),
                4 => serde_json::json!({"status": key, "value": v}),
                _ => serde_json::json!(null),
            };
            logger.log(key, value);
        }
        let rendered = logger.render();
        check_mllog_against_serde(&rendered)?;
        // The field-level damage has something to work on: one object per line at least.
        prop_assert!(object_members(rendered.as_bytes()).len() >= entries.len());
        for ops in &damage {
            check_mllog_against_serde(&damaged(&rendered, ops))?;
        }
    }

    /// The same for the manifest scanners: no arbitrary text and no
    /// damaged canonical manifest makes `parse_fast` panic, accept what
    /// `parse_serde` rejects, or read a different manifest.
    #[test]
    fn manifest_scanners_survive_hostile_text(
        raw in proptest::collection::vec(0u16..512, 0..96),
        (org, index, accelerators) in ("[a-z0-9 _.-]{0,12}", 0u64..u64::MAX, 0usize..100_000),
        hp in proptest::collection::vec(("[a-z_]{1,8}", -1e9f64..1e9), 0..3),
        shapes in proptest::collection::vec(
            proptest::collection::vec(1usize..2048, 0..3), 0..3),
        damage in proptest::collection::vec(
            proptest::collection::vec((0usize..6, 0usize..10_000, 0usize..10_000), 1..4), 8..9),
    ) {
        check_manifests_against_serde(&hostile_text(&raw))?;

        let hyperparameters: std::collections::BTreeMap<String, f64> = hp.into_iter().collect();
        let fielded = BenchmarkId::in_version(SuiteVersion::V07);
        let benchmark = fielded[index as usize % fielded.len()];
        let signature = ModelSignature::from_shapes(shapes);
        let bundle = BundleManifest {
            schema: 2,
            index,
            org: org.clone(),
            system: SystemDescription {
                submitter: org.clone(),
                system_name: "dgx".to_string(),
                accelerators,
                accelerator_model: "sim-chip".to_string(),
                host_processors: accelerators / 8,
                software: "mlperf-rs 0.1".to_string(),
            },
            division: Division::Closed,
            category: Category::Available,
            system_type: SystemType::OnPremise,
            run_sets: vec![RunSetManifest {
                benchmark,
                dataset: "synthetic".to_string(),
                hyperparameters: hyperparameters.clone(),
                signature: signature.clone(),
                logs: vec![format!("{}/run_0.log", benchmark.slug())],
            }],
        };
        let round = RoundManifest {
            schema: 2,
            round: Round::V07,
            references: vec![BenchmarkReference {
                benchmark,
                dataset: "synthetic".to_string(),
                quality_target: 0.749,
                hyperparameters,
                signature,
            }],
        };
        let archive = ArchiveManifest { schema: 2, kind: org };
        for text in [canonical(&archive), canonical(&round), canonical(&bundle)] {
            check_manifests_against_serde(&text)?;
            for ops in &damage {
                check_manifests_against_serde(&damaged(&text, ops))?;
            }
        }
    }

    /// Go engine invariant: after any sequence of (engine-chosen) legal
    /// moves, no group on the board has zero liberties, and captures
    /// are consistent with the number of empty points.
    #[test]
    fn go_no_zero_liberty_groups(seed in 0u64..200, moves in 1usize..60) {
        let mut board = Board::new(9);
        let mut player = RandomPlayer::new(seed);
        for _ in 0..moves {
            if board.is_over() {
                break;
            }
            let mv = player.select_move(&board);
            prop_assert!(board.play(mv).is_ok());
        }
        for p in 0..board.num_points() {
            if board.stone(p).is_some() {
                prop_assert!(board.liberties(p) > 0, "zero-liberty group survived at {p}");
            }
        }
        // Stones on board + captures == stones played.
        let placed = (0..board.num_points()).filter(|&p| board.stone(p).is_some()).count();
        let (cb, cw) = board.captures();
        // Passes count as moves but place no stones, so this is an
        // inequality rather than an equality.
        let plays = board.moves_played();
        prop_assert!(placed + cb + cw <= plays);
    }

    /// Go: `legal_moves` only returns moves `play` accepts.
    #[test]
    fn go_legal_moves_are_playable(seed in 0u64..100) {
        let mut board = Board::new(5);
        let mut player = RandomPlayer::new(seed);
        for _ in 0..10 {
            if board.is_over() {
                break;
            }
            let mv = player.select_move(&board);
            let _ = board.play(mv);
        }
        for mv in board.legal_moves() {
            let mut trial = board.clone();
            prop_assert!(trial.play(mv).is_ok(), "legal move {mv:?} rejected");
        }
    }

    /// Scoring: black + white area never exceeds the board plus komi.
    #[test]
    fn go_score_bounded(seed in 0u64..100) {
        let mut board = Board::new(9);
        let mut p1 = RandomPlayer::new(seed);
        let mut p2 = RandomPlayer::new(seed + 1);
        for turn in 0..60 {
            if board.is_over() {
                break;
            }
            let mv = if turn % 2 == 0 { p1.select_move(&board) } else { p2.select_move(&board) };
            let _ = board.play(mv);
        }
        let komi = 7.5;
        let s = board.score(komi);
        prop_assert!(s.black + s.white <= 81.0 + komi + 1e-6);
        prop_assert!(s.black >= 0.0 && s.white >= komi - 1e-6);
    }
}
