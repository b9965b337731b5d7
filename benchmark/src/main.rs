//! The benchmark's command line.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!       [--size full|tiny] [--scratch-dir DIR] [--spans-out FILE]
//! bench sweep --out FILE [--label L]
//! bench compare <a.json[#set]> <b.json[#set]>
//! bench schema
//! ```
//!
//! A run prints the environment fingerprint, every metric by name with
//! its unit, and as its last line the JSON object the contract asks
//! for; it exits non-zero when an operation failed or an output check
//! did not hold.

use mlperf_benchmark::env::{self, Scratch};
use mlperf_benchmark::sweep::{sweep, Plan};
use mlperf_benchmark::{compare, run, schema, RunOptions, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// `--flag value` pairs, in order.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.push((name, value.as_str()));
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("--{name}: {value:?} is not a number"))
}

fn size(value: &str) -> Result<Size, String> {
    match value {
        "full" => Ok(Size::full()),
        "tiny" => Ok(Size::tiny()),
        other => Err(format!("--size: {other:?} is neither full nor tiny")),
    }
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let mut options = RunOptions {
        workload: Workload::TrainSeq,
        seed: 1001,
        seconds: schema::RUN_SECONDS as f64,
        trace: false,
        size: Size::full(),
    };
    let mut workload = None;
    let mut scratch_parent = PathBuf::from(".bench_scratch");
    let mut spans_out = None;
    for (name, value) in flags(args)? {
        match name {
            "workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("--workload: {value:?} is none of {names:?}")
                })?);
            }
            "seed" => options.seed = number(name, value)?,
            "seconds" => options.seconds = number(name, value)?,
            "trace" => options.trace = number::<u8>(name, value)? != 0,
            "size" => options.size = size(value)?,
            "scratch-dir" => scratch_parent = PathBuf::from(value),
            "spans-out" => spans_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    if !(options.seconds > 0.0 && options.seconds <= 600.0) {
        return Err(format!("--seconds: {} is outside (0, 600]", options.seconds));
    }

    let pinned = env::pin_allocator();
    // Before any thread exists: see `Scratch::create`.
    let scratch = Scratch::create(&scratch_parent, true).map_err(|e| {
        format!("cannot create a scratch directory under {}: {e}", scratch_parent.display())
    })?;
    println!("fingerprint {}", env::fingerprint(&scratch, pinned));
    println!(
        "workload {} seed {} seconds {} trace {}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    let report = run(&options, scratch.path());
    drop(scratch);

    if let Some(path) = spans_out {
        std::fs::write(&path, report.spans.to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", report.table());
    for failure in &report.failures {
        eprintln!("FAILED: {failure}");
    }
    println!("{}", report.json_line());
    Ok(if report.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn sweep_command(args: &[String]) -> Result<ExitCode, String> {
    let (mut out, mut label) = (None, "");
    for (name, value) in flags(args)? {
        match name {
            "out" => out = Some(PathBuf::from(value)),
            "label" => label = value,
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let out = out.ok_or("--out is required")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    sweep(&Plan::ACCEPTANCE, &exe, label, &out)?;
    Ok(ExitCode::SUCCESS)
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: bench compare <a.json[#set]> <b.json[#set]>".into());
    };
    let (a, b) = (compare::load_set(a)?, compare::load_set(b)?);
    let differing = compare::incomparable(&a, &b);
    if !differing.is_empty() {
        return Err(format!("the two sets were not measured alike: {}", differing.join("; ")));
    }
    let rows = compare::compare_sets(&a, &b);
    print!("{}", compare::render(&rows));
    let inexact = compare::inexact_counts(&a, &b);
    for line in &inexact {
        println!("count differs: {line}");
    }
    let regressed = rows.iter().any(|r| r.verdict == "regressed");
    Ok(if regressed || !inexact.is_empty() { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("schema") => {
            print!("{}", schema::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => compare_command(&args[1..]),
        Some("sweep") => sweep_command(&args[1..]),
        _ => run_command(&args),
    };
    result.unwrap_or_else(|message| {
        eprintln!("bench: {message}");
        ExitCode::from(2)
    })
}
