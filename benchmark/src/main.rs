//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of standard output is one
//!     JSON object {correct, attempted, failed, metrics} (what the driver
//!     named in BENCHMARK.json calls)
//! benchmark run [--seed n] [--trace] [--layers] [--smoke] [--out file]
//!     every workload in interleaved slices, one child process per slice;
//!     prints every metric and writes a result file
//! benchmark compare <a.json> <b.json>
//!     two result files, metric by metric; exits 1 if anything regressed
//! benchmark manifest
//!     prints BENCHMARK.json
//! ```

mod json;
mod layers;
mod load;
mod metrics;
mod origin_stub;
mod procfs;
mod reference;
mod runner;
mod stats;
mod suite;
mod trace;
mod workloads;

use runner::RunArgs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use suite::SuiteArgs;
use workloads::{Scale, Workload};

/// Spans written to a detail file; a traced slice records several hundred
/// thousand, and the aggregate metrics already cover all of them.
const SPANS_WRITTEN: usize = 50_000;

/// Command-line options as `--name value` pairs and bare `--flag`s.
struct Options {
    args: std::vec::IntoIter<String>,
}

impl Options {
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self
            .args
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot read `{raw}`"))
    }
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })
}

fn positive_seconds(seconds: f64) -> Result<f64, String> {
    if seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds must be in (0, 3600], got {seconds}"))
    }
}

/// The driver's entry point: one run, one line.
fn single_run(mut options: Options) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut detail: Option<PathBuf> = None;
    while let Some(flag) = options.args.next() {
        match flag.as_str() {
            "--workload" => workload = Some(workload_named(&options.value::<String>(&flag)?)?),
            "--seed" => seed = Some(options.value::<u64>(&flag)?),
            "--seconds" => seconds = Some(positive_seconds(options.value(&flag)?)?),
            "--trace" => {
                trace = Some(match options.value::<u8>(&flag)? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--smoke" => scale = Scale::Smoke,
            "--detail" => detail = Some(options.value(&flag)?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let args = RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    };
    let report = runner::run(&args)?;
    for note in &report.notes {
        eprintln!("{}: {note}", args.workload.name());
    }
    if let Some(path) = detail {
        std::fs::write(&path, report.to_detail(&args, SPANS_WRITTEN).to_pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{}", report.to_line());
    Ok(ExitCode::SUCCESS)
}

fn suite_run(mut options: Options) -> Result<ExitCode, String> {
    let mut args = SuiteArgs {
        seed: 1,
        trace: false,
        layers: false,
        scale: Scale::Full,
        out: None,
    };
    while let Some(flag) = options.args.next() {
        match flag.as_str() {
            "--smoke" => args.scale = Scale::Smoke,
            "--seed" => args.seed = options.value(&flag)?,
            "--trace" => args.trace = true,
            "--layers" => args.layers = true,
            "--out" => args.out = Some(options.value(&flag)?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(if suite::run(&args)? {
        ExitCode::SUCCESS
    } else {
        eprintln!("some operations failed or some outputs did not repeat: see the notes above");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first() {
        Some(first) if !first.starts_with("--") => args.remove(0),
        _ => String::new(),
    };
    let options = Options {
        args: args.into_iter(),
    };
    let outcome = match command.as_str() {
        "" => single_run(options),
        "run" => suite_run(options),
        "compare" => {
            let paths: Vec<String> = options.args.collect();
            match paths.as_slice() {
                [a, b] => suite::compare(Path::new(a), Path::new(b)).map(|regressed| {
                    if regressed {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }),
                _ => Err("usage: benchmark compare <a.json> <b.json>".into()),
            }
        }
        "manifest" => {
            print!("{}", metrics::manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown command `{other}`; commands: run, compare, manifest (or --workload … for one run)"
        )),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}
