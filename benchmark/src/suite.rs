//! `benchmark run`: every workload, in interleaved slices, one child
//! process per slice.
//!
//! A shared box drifts on the scale of minutes. Running the workloads
//! round-robin (A B C D E A B C …) spreads that drift over all of them
//! instead of charging it to whichever ran last, and a fresh process per
//! slice makes set-up time and peak memory belong to one workload. The
//! median over a workload's slices is its result.

use crate::json::Json;
use crate::layers::{self, Budget, Group, LayerStat};
use crate::metrics::{self, Better, END_TO_END};
use crate::procfs;
use crate::stats;
use crate::workloads::{self, Scale, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    pub trace: bool,
    pub layers: bool,
    pub scale: Scale,
    /// The result file; `results/run_<seed>.json` when not given.
    pub out: Option<PathBuf>,
}

impl SuiteArgs {
    /// Untraced slices per workload.
    fn slices(&self) -> usize {
        match self.scale {
            Scale::Full => 3,
            Scale::Smoke => 1,
        }
    }

    fn slice_seconds(&self) -> f64 {
        match self.scale {
            Scale::Full => 6.0,
            Scale::Smoke => 0.5,
        }
    }
}

/// Where slice details, traces and the default result file go.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// First line of a command's standard output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Where and how the numbers were taken.
fn environment(args: &SuiteArgs, load_start: f64, load_end: f64) -> Json {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(first_line_of("rustc", &["-V"]))),
        (
            "git_commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("clients", Json::Num(workloads::client_count() as f64)),
        ("slice_seconds", Json::Num(args.slice_seconds())),
        ("slices", Json::Num(args.slices() as f64)),
        ("smoke", Json::Bool(args.scale == Scale::Smoke)),
        ("loopback", Json::Bool(true)),
        ("loadavg_1m_start", Json::Num(load_start)),
        ("loadavg_1m_end", Json::Num(load_end)),
    ])
}

/// A start above this load means the numbers were taken on a busy box.
fn busy_threshold() -> f64 {
    1.5 * nproc() as f64
}

/// Runs one slice in a child process and returns its detail file's
/// contents.
fn run_child(
    args: &SuiteArgs,
    workload: Workload,
    trace: bool,
    detail: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.slice_seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(detail);
    if args.scale == Scale::Smoke {
        command.arg("--smoke");
    }
    // The child's standard error passes through; its one line of standard
    // output is repeated in the detail file and not needed here.
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {} slice: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!(
            "the {} slice exited with {}",
            workload.name(),
            output.status
        ));
    }
    let text = std::fs::read_to_string(detail)
        .map_err(|e| format!("reading {}: {e}", detail.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", detail.display()))
}

fn metric_value(detail: &Json, name: &str) -> Option<f64> {
    detail.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn count(detail: &Json, key: &str) -> u64 {
    detail.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

/// One workload's slices folded into its entry of the result file.
fn fold_workload(slices: &[Json], traced: Option<&Json>) -> Json {
    let end_to_end = END_TO_END
        .iter()
        .filter_map(|m| {
            let values: Vec<f64> = slices
                .iter()
                .filter_map(|s| metric_value(s, m.name))
                .collect();
            if values.is_empty() {
                return None;
            }
            Some((
                m.name.to_string(),
                Json::obj([
                    ("value", Json::Num(stats::median(&values))),
                    ("unit", Json::str(m.unit)),
                    ("spread", Json::Num(stats::spread(&values))),
                    (
                        "slices",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ))
        })
        .collect();
    let all = slices.iter().chain(traced);
    let fingerprints: Vec<&str> = all
        .clone()
        .filter_map(|s| s.get("fingerprint").and_then(Json::as_str))
        .collect();
    let notes: Vec<Json> = all
        .clone()
        .filter_map(|s| s.get("notes").and_then(Json::as_arr))
        .flatten()
        .cloned()
        .collect();
    let mut entry = vec![
        (
            "attempted".to_string(),
            Json::Num(all.clone().map(|s| count(s, "attempted")).sum::<u64>() as f64),
        ),
        (
            "failed".to_string(),
            Json::Num(all.clone().map(|s| count(s, "failed")).sum::<u64>() as f64),
        ),
        (
            "correct".to_string(),
            Json::Bool(
                all.clone()
                    .all(|s| s.get("correct").and_then(Json::as_bool) == Some(true)),
            ),
        ),
        (
            "latency_samples".to_string(),
            Json::Arr(
                slices
                    .iter()
                    .map(|s| Json::Num(count(s, "samples") as f64))
                    .collect(),
            ),
        ),
        (
            "fingerprints_identical".to_string(),
            Json::Bool(fingerprints.windows(2).all(|pair| pair[0] == pair[1])),
        ),
        (
            "fingerprint".to_string(),
            Json::str(fingerprints.first().copied().unwrap_or("")),
        ),
        ("notes".to_string(), Json::Arr(notes)),
        ("end_to_end".to_string(), Json::Obj(end_to_end)),
    ];
    if let Some(traced) = traced {
        entry.push((
            "per_layer".to_string(),
            traced
                .get("metrics")
                .cloned()
                .unwrap_or(Json::Obj(Vec::new())),
        ));
        entry.push((
            "per_layer_table".to_string(),
            traced
                .get("layers")
                .cloned()
                .unwrap_or(Json::Obj(Vec::new())),
        ));
    }
    Json::Obj(entry)
}

fn layers_json(rows: &[LayerStat]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|row| (row.name.to_string(), row.to_json()))
            .collect(),
    )
}

fn print_workload(workload: Workload, entry: &Json, busy: bool) {
    println!("\n{} — {}", workload.name(), workload.why());
    let warn = if busy { "  [taken on a busy box]" } else { "" };
    let attempted = count(entry, "attempted");
    let failed = count(entry, "failed");
    println!(
        "  {:<44} {:>16} {:<8} {failed} of {attempted} operations failed{warn}",
        "failed_ops_ratio",
        if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        },
        "ratio",
    );
    for m in &END_TO_END {
        let Some(metric) = entry.get("end_to_end").and_then(|e| e.get(m.name)) else {
            continue;
        };
        let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let spread = metric.get("spread").and_then(Json::as_f64).unwrap_or(0.0);
        let slices: Vec<f64> = metric
            .get("slices")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        let (lo, hi) = stats::min_max(&slices);
        println!(
            "  {:<44} {:>16.4} {:<8} slices {lo:.4} … {hi:.4}, spread {:.1} % (bound {:.0} %){warn}",
            m.name,
            value,
            m.unit,
            spread * 100.0,
            m.bound * 100.0,
        );
    }
    if let Some(samples) = entry.get("latency_samples").and_then(Json::as_arr) {
        let per_slice: Vec<usize> = samples
            .iter()
            .filter_map(Json::as_f64)
            .map(|n| n as usize)
            .collect();
        let fewest = per_slice.iter().copied().min().unwrap_or(0);
        let supported = match stats::highest_supported_tail(fewest) {
            Some(p) if p >= 0.90 => "p90 has ten or more samples beyond it".to_string(),
            Some(p) => format!(
                "fewer than ten lie beyond p90 (p{:.0} is the highest percentile with ten): read latency_p90_us as the slowest few passes",
                p * 100.0
            ),
            None => "too few for any percentile: read latency_p90_us as the slowest pass".to_string(),
        };
        println!("  latency samples per window, smallest window of each slice {per_slice:?}; {supported}");
    }
    if entry.get("fingerprints_identical").and_then(Json::as_bool) == Some(false) {
        println!("  SIMULATED STATISTICS DIFFER BETWEEN SLICES");
    }
    for note in entry.get("notes").and_then(Json::as_arr).unwrap_or(&[]) {
        println!("  note: {}", note.as_str().unwrap_or(""));
    }
    if let Some(per_layer) = entry.get("per_layer").and_then(Json::as_obj) {
        println!("  per layer (traced slice):");
        for (name, metric) in per_layer {
            print_layer_row(name, metric);
        }
    }
}

fn print_layer_row(name: &str, metric: &Json) {
    let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
    let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
    let range = match (
        metric.get("min").and_then(Json::as_f64),
        metric.get("max").and_then(Json::as_f64),
    ) {
        (Some(lo), Some(hi)) => format!("{lo:.4} … {hi:.4}  "),
        _ => String::new(),
    };
    let moves = metrics::per_layer(name).map_or("", |m| m.moves);
    println!("    {name:<46} {value:>16.4} {unit:<8} {range}→ {moves}");
}

fn print_layer_table(rows: &[LayerStat]) {
    println!("\nlayer table — one thread, in memory; median of the repeats, then min … max");
    for row in rows {
        print_layer_row(row.name, &row.to_json());
    }
    let request_parts = [
        "proxy.protocol.read_command_ns",
        "proxy.protocol.write_response_ns",
        "proxy.store.get_hit_ns",
        "proxy.ratelimit.acquire_unlimited_ns",
        "cache.shard.access_with_1t_ns",
    ];
    let sum: f64 = rows
        .iter()
        .filter(|r| request_parts.contains(&r.name))
        .map(|r| r.median)
        .sum();
    println!(
        "  a warm request's own parts (parse, header, store get, pacing check, engine access) add up to {sum:.0} ns — under 1 µs of a ~100 µs request; the rest is the connection"
    );
}

pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let out_dir = out_dir();
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let load_start = procfs::loadavg_1m().unwrap_or(0.0);
    let busy = load_start > busy_threshold();
    if busy {
        eprintln!(
            "warning: 1-minute load average {load_start} is above {} (1.5 x nproc); the numbers below were taken on a busy box",
            busy_threshold()
        );
    }

    let mut slices: Vec<Vec<Json>> = vec![Vec::new(); Workload::ALL.len()];
    for slice in 0..args.slices() {
        for (i, workload) in Workload::ALL.into_iter().enumerate() {
            eprintln!(
                "slice {}/{} of {}",
                slice + 1,
                args.slices(),
                workload.name()
            );
            let detail = out_dir.join(format!("slice_{}_{slice}.json", workload.name()));
            slices[i].push(run_child(args, workload, false, &detail)?);
        }
    }
    let mut traced: Vec<Option<Json>> = vec![None; Workload::ALL.len()];
    if args.trace {
        for (i, workload) in Workload::ALL.into_iter().enumerate() {
            eprintln!("traced slice of {}", workload.name());
            let detail = out_dir.join(format!("trace_{}.json", workload.name()));
            traced[i] = Some(run_child(args, workload, true, &detail)?);
        }
    }
    let layer_rows = if args.layers {
        eprintln!("layer table");
        let budget = match args.scale {
            Scale::Full => Budget::FULL,
            Scale::Smoke => Budget::SMOKE,
        };
        layers::run(
            &[Group::Proxy, Group::Grid, Group::Sessions],
            budget,
            args.scale,
        )
    } else {
        Vec::new()
    };
    let load_end = procfs::loadavg_1m().unwrap_or(0.0);

    let entries: Vec<(String, Json)> = Workload::ALL
        .iter()
        .enumerate()
        .map(|(i, w)| {
            (
                w.name().to_string(),
                fold_workload(&slices[i], traced[i].as_ref()),
            )
        })
        .collect();
    println!(
        "seed {}, {} slices of {} s per workload, {} closed-loop clients on loopback (the accept queue never holds more than that many connections: no queueing claim can rest on these numbers)",
        args.seed,
        args.slices(),
        args.slice_seconds(),
        workloads::client_count()
    );
    for (workload, (_, entry)) in Workload::ALL.into_iter().zip(&entries) {
        print_workload(workload, entry, busy);
    }
    if args.layers {
        print_layer_table(&layer_rows);
    }
    let all_correct = entries
        .iter()
        .all(|(_, e)| e.get("correct").and_then(Json::as_bool) == Some(true))
        && entries
            .iter()
            .all(|(_, e)| e.get("fingerprints_identical").and_then(Json::as_bool) == Some(true));

    let mut result = vec![
        ("env".to_string(), environment(args, load_start, load_end)),
        ("workloads".to_string(), Json::Obj(entries)),
    ];
    if args.layers {
        result.push(("layers".to_string(), layers_json(&layer_rows)));
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join(format!("run_{}.json", args.seed)));
    std::fs::write(&out, Json::Obj(result).to_pretty())
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("\nresult file: {}", out.display());
    Ok(all_correct)
}

/// How `b` compares with `a` on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The slices of one side scatter more than the bound allows a change
    /// to be: the comparison cannot tell "unchanged" from "worse".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a`. `worse_by` is the change of the median in the
/// bad direction as a share of `a`'s median.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (base, new) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    if worse_by > bound {
        return (worse_by, Verdict::Regressed);
    }
    if stats::spread(a).max(stats::spread(b)) <= bound {
        return (worse_by, Verdict::Ok);
    }
    // Too scattered to call unchanged — unless every slice of `b` reads
    // better than every slice of `a`.
    let (a_lo, a_hi) = stats::min_max(a);
    let (b_lo, b_hi) = stats::min_max(b);
    let b_wins_everywhere = match better {
        Better::Lower => b_hi < a_lo,
        Better::Higher => b_lo > a_hi,
    };
    let verdict = if b_wins_everywhere {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    };
    (worse_by, verdict)
}

fn slices_of(file: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let values: Vec<f64> = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("slices")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (!values.is_empty()).then_some(values)
}

fn load_result(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `benchmark compare a.json b.json`: one row per workload and end-to-end
/// metric. Returns whether anything regressed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load_result(a_path)?, load_result(b_path)?);
    let mut regressed = false;
    println!(
        "{:<13} {:<18} {:>14} {:>14} {:>18} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "worse by (of a)", "bound"
    );
    for workload in Workload::ALL {
        let name = workload.name();
        let entry = |file: &Json| file.get("workloads").and_then(|w| w.get(name)).cloned();
        let (Some(entry_a), Some(entry_b)) = (entry(&a), entry(&b)) else {
            println!("{name:<13} missing from one of the files");
            continue;
        };
        let ratio = |e: &Json| {
            let attempted = count(e, "attempted");
            if attempted == 0 {
                0.0
            } else {
                count(e, "failed") as f64 / attempted as f64
            }
        };
        let (failed_a, failed_b) = (ratio(&entry_a), ratio(&entry_b));
        // Any increase of failures is a regression; there is no bound.
        let verdict = if failed_b > failed_a {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        regressed |= verdict == Verdict::Regressed;
        println!(
            "{name:<13} {:<18} {failed_a:>14.6} {failed_b:>14.6} {:>18} {:>7}  {}",
            "failed_ops_ratio",
            "-",
            "0",
            verdict.as_str()
        );
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (slices_of(&a, name, m.name), slices_of(&b, name, m.name))
            else {
                continue;
            };
            let (worse_by, verdict) = judge(m.better, m.bound, &sa, &sb);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{name:<13} {:<18} {:>14.4} {:>14.4} {:>+17.2}% {:>6.0}%  {}",
                m.name,
                stats::median(&sa),
                stats::median(&sb),
                worse_by * 100.0,
                m.bound * 100.0,
                verdict.as_str()
            );
        }
        let fingerprint = |e: &Json| {
            e.get("fingerprint")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        if let (Some(fa), Some(fb)) = (fingerprint(&entry_a), fingerprint(&entry_b)) {
            let seeds_match = a.get("env").and_then(|e| e.get("seed"))
                == b.get("env").and_then(|e| e.get("seed"));
            if !fa.is_empty() && seeds_match {
                println!(
                    "{name:<13} simulated statistics {}",
                    if fa == fb { "bit-identical" } else { "DIFFER" }
                );
                regressed |= fa != fb;
            }
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // Lower is better, bound 10 %.
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(Better::Lower, 0.10, &base, &[105.0, 104.0, 106.0]).1,
            Verdict::Ok
        );
        let (worse, verdict) = judge(Better::Lower, 0.10, &base, &[115.0, 114.0, 116.0]);
        assert!((worse - 0.15).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regressed);
        // An improvement is a negative "worse by".
        let (worse, verdict) = judge(Better::Lower, 0.10, &base, &[80.0, 81.0, 79.0]);
        assert!(worse < 0.0);
        assert_eq!(verdict, Verdict::Ok);
        // Slices scattered by more than the bound: unresolved …
        let noisy = [90.0, 100.0, 115.0];
        assert_eq!(
            judge(Better::Lower, 0.10, &base, &noisy).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy, &base).1,
            Verdict::Unresolved
        );
        // … unless every slice of b beats every slice of a.
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy, &[60.0, 70.0, 80.0]).1,
            Verdict::Ok
        );
        // Higher is better: the direction flips.
        assert_eq!(
            judge(Better::Higher, 0.10, &[1000.0; 3], &[850.0; 3]),
            (0.15, Verdict::Regressed)
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &[1000.0; 3], &[1200.0; 3]).1,
            Verdict::Ok
        );
    }

    #[test]
    fn folding_takes_the_median_and_keeps_the_slices() {
        let slice = |throughput: f64, fingerprint: &str| {
            Json::obj([
                ("correct", Json::Bool(true)),
                ("attempted", Json::Num(10.0)),
                ("failed", Json::Num(0.0)),
                ("samples", Json::Num(10.0)),
                ("fingerprint", Json::str(fingerprint)),
                ("notes", Json::Arr(vec![])),
                (
                    "metrics",
                    Json::obj([(
                        metrics::THROUGHPUT,
                        Json::obj([("value", Json::Num(throughput)), ("unit", Json::str("1/s"))]),
                    )]),
                ),
            ])
        };
        let entry = fold_workload(&[slice(21.1, "x"), slice(8.0, "x"), slice(19.4, "x")], None);
        let throughput = entry
            .get("end_to_end")
            .unwrap()
            .get(metrics::THROUGHPUT)
            .unwrap();
        assert_eq!(throughput.get("value").unwrap().as_f64(), Some(19.4));
        assert_eq!(throughput.get("slices").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(count(&entry, "attempted"), 30);
        assert_eq!(
            entry.get("fingerprints_identical").unwrap().as_bool(),
            Some(true)
        );
        assert!(entry
            .get("end_to_end")
            .unwrap()
            .get(metrics::SETUP_S)
            .is_none());
        let mixed = fold_workload(&[slice(1.0, "x"), slice(1.0, "y")], None);
        assert_eq!(
            mixed.get("fingerprints_identical").unwrap().as_bool(),
            Some(false)
        );
        // The file form round-trips through the writer and the parser.
        assert_eq!(Json::parse(&entry.to_pretty()).unwrap(), entry);
    }
}
