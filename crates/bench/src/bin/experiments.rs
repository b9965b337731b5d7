//! The one entry point of the reproduction's experiments: runs one
//! (`experiments <name> …`, a table or figure of the paper or a tool),
//! runs several (`check`), or rewrites EXPERIMENTS.md's measured blocks
//! from the saved reports (`render`). Exits non-zero when a claim it
//! evaluated is false. `usage` below is the whole command line.

use mlperf_bench::{experiments_dir, render, Context, CLAIMING, EXPERIMENTS};
use mlperf_telemetry::{write_collapsed, write_trace, Telemetry};
use std::path::PathBuf;
use std::process::ExitCode;

const DOCUMENT: &str = "EXPERIMENTS.md";

fn usage() -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: experiments <name> [count] [--full] [--trace FILE] [--flame FILE]\n\
         \x20      experiments check [names…] [--full] [--trace FILE] [--flame FILE]\n\
         \x20      experiments render [blocks…]\n\
         names: {}; calibrate takes [slug|all] [seed]\n\
         check runs the named experiments (all thirteen if none) with default arguments;\n\
         render takes NAME (an experiment's seed-determined block of {DOCUMENT}) or\n\
         NAME.host (its wall-clock one), and with none every block that has a saved report;\n\
         --trace writes telemetry spans as Chrome trace JSON-lines, --flame as collapsed stacks",
        names.join(" ")
    );
    ExitCode::from(2)
}

fn render_document(blocks: &[String]) -> Result<(), String> {
    let document = std::fs::read_to_string(DOCUMENT).map_err(|e| format!("{DOCUMENT}: {e}"))?;
    let load = |name: &str| {
        let text = std::fs::read_to_string(experiments_dir().join(format!("{name}.json"))).ok()?;
        serde_json::from_str(&text).ok()
    };
    let rendered = render(&document, blocks, load)?;
    std::fs::write(DOCUMENT, rendered).map_err(|e| format!("{DOCUMENT}: {e}"))
}

fn main() -> ExitCode {
    let (mut positional, mut full, mut trace, mut flame) = (Vec::new(), false, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--trace" | "--flame" => {
                let Some(file) = args.next().map(PathBuf::from) else { return usage() };
                *(if arg == "--trace" { &mut trace } else { &mut flame }) = Some(file);
            }
            flag if flag.starts_with("--") => return usage(),
            _ => positional.push(arg),
        }
    }
    let Some((command, rest)) = positional.split_first() else { return usage() };
    let recording = trace.is_some() || flame.is_some();
    let telemetry = if recording { Telemetry::recording() } else { Telemetry::disabled() };
    let mut ok = true;
    if command == "render" {
        if let Err(message) = render_document(rest) {
            eprintln!("experiments render: {message}");
            ok = false;
        }
    } else {
        // What to run, and the positional arguments it gets.
        let all: Vec<String> =
            EXPERIMENTS[..CLAIMING].iter().map(|(name, _)| name.to_string()).collect();
        let (names, args) = match (command.as_str(), rest) {
            ("check", []) => (&all[..], rest),
            ("check", names) => (names, &[][..]),
            _ => (std::slice::from_ref(command), rest),
        };
        for name in names {
            let Some((_, run)) = EXPERIMENTS.iter().find(|(n, _)| n == name) else {
                return usage();
            };
            let report = run(&Context { args, full, telemetry: &telemetry });
            print!("{}", report.printed());
            println!("wrote {}\n", report.save(name).display());
            ok &= report.claims.iter().all(|claim| claim.holds);
        }
    }
    for (path, what) in [(trace, "trace"), (flame, "flamegraph")] {
        let Some(path) = path else { continue };
        let snapshot = telemetry.snapshot();
        let written = if what == "trace" {
            write_trace(&snapshot, &path)
        } else {
            write_collapsed(&snapshot, &path)
        };
        match &written {
            Ok(()) => println!("wrote {what} {}", path.display()),
            Err(e) => eprintln!("error: failed to write {}: {e}", path.display()),
        }
        ok &= written.is_ok();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
