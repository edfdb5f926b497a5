//! # sc-bench — experiment harness
//!
//! This crate hosts two binaries and the code they share:
//!
//! * **`figures`** (`src/bin/figures.rs`): `figures <id>` regenerates one
//!   table or figure of the paper's evaluation (`table1`, `fig2` … `fig13`,
//!   `fig_sessions`, `fig_faults`; `figures list` prints the ids) and
//!   prints the corresponding rows; pass `--scale paper` for the full-scale
//!   run (the default `quick` scale finishes in seconds). Results are also
//!   written as JSON under `results/`.
//! * **Rendering**: every figure is one `sc_sim::FigureResult<M>`, and this
//!   module renders each one the same way: [`to_table`],
//!   [`figure_to_json_with_info`] and [`emit_timed`]. The per-metric part,
//!   which is the table columns and the JSON `metrics` object, is one
//!   [`FigureMetrics`] impl for `Metrics` and one for `SessionMetrics`.
//! * **`bench_overload`**: the proxy driven past its admission capacity.
//!
//! Performance is measured by the `benchmark/` crate, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sc_sim::exec::ExecConfig;
use sc_sim::experiments::ExperimentScale;
use sc_sim::{BandwidthModel, FigureResult, Metrics, SessionMetrics};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// How an experiment run was executed: wall-clock time and the number of
/// worker threads the execution layer used. Emitted into every figure's
/// JSON so speedups are tracked alongside the results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunInfo {
    /// End-to-end wall-clock time of the experiment, in seconds.
    pub wall_clock_secs: f64,
    /// Worker threads used by the simulator's execution layer.
    pub threads: usize,
}

impl RunInfo {
    /// An explicit wall-clock time and thread count — use this when the
    /// timed code ran with an explicit `ParallelExecutor` rather than the
    /// environment-configured one.
    pub fn new(elapsed: Duration, threads: usize) -> Self {
        RunInfo {
            wall_clock_secs: elapsed.as_secs_f64(),
            threads,
        }
    }

    /// Captures the elapsed wall-clock time together with the thread count
    /// the environment-configured executor resolves to (`SC_SIM_THREADS`,
    /// default = available parallelism). Only valid for runs that used the
    /// default executors (as the `figures` driver does); pass the real
    /// count via [`RunInfo::new`] otherwise.
    pub fn from_elapsed(elapsed: Duration) -> Self {
        Self::new(elapsed, ExecConfig::from_env().threads)
    }
}

/// `; peak RSS <x> MB` for a `(wall clock: …)` line: the process's peak
/// resident set so far (`VmHWM` in `/proc/self/status`, in MB of 10^6
/// bytes as `benchmark/` reports `peak_rss_mb`), or nothing where that file
/// is missing.
pub fn peak_rss_note() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| vm_hwm_mb(&status))
        .map_or_else(String::new, |mb| format!("; peak RSS {mb:.1} MB"))
}

/// The `VmHWM` field of a `/proc/<pid>/status` text, in MB.
fn vm_hwm_mb(status: &str) -> Option<f64> {
    let kb: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb as f64 * 1024.0 / 1e6)
}

/// Parses the `--scale <paper|quick|test>` command-line option;
/// defaults to [`ExperimentScale::Quick`]. An unknown value, or `--scale`
/// with nothing after it, prints the accepted values and exits with
/// status 2 — a mistyped `--scale papr` must not report quick-scale
/// numbers as if they were the paper's.
pub fn scale_from_args() -> ExperimentScale {
    or_exit(parse_scale(&args()))
}

/// Parses the `--bandwidth <iid|ar1>` command-line option; `default` when
/// it is absent — `fig7`/`fig8` default to [`BandwidthModel::Iid`] (the
/// paper's i.i.d. per-request ratios), `fig13` to AR(1) because drift is
/// its subject. `ar1` selects [`BandwidthModel::Ar1`], the
/// mean-reverting evolution of every path sampled on the simulation clock;
/// the affected figures then emit under a suffixed id (`fig7_ar1`,
/// `fig13_iid`) so both variants can sit side by side under `results/`.
/// Unknown and missing values exit like [`scale_from_args`].
pub fn bandwidth_model_from_args(default: BandwidthModel) -> BandwidthModel {
    or_exit(parse_bandwidth_model(&args(), default))
}

fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2)
    })
}

const SCALES: &str = "paper, quick, test";
const BANDWIDTHS: &str = "iid, ar1";

/// The value following the last `name` in `args`, `None` when `name` does
/// not occur.
fn option_value<'a>(
    args: &'a [String],
    name: &str,
    accepted: &str,
) -> Result<Option<&'a str>, String> {
    let mut value = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == name {
            let next = args
                .next()
                .ok_or_else(|| format!("{name} needs a value (accepted: {accepted})"))?;
            value = Some(next.as_str());
        }
    }
    Ok(value)
}

fn parse_scale(args: &[String]) -> Result<ExperimentScale, String> {
    match option_value(args, "--scale", SCALES)? {
        None | Some("quick") => Ok(ExperimentScale::Quick),
        Some("paper") => Ok(ExperimentScale::Paper),
        Some("test") => Ok(ExperimentScale::Test),
        Some(other) => Err(format!(
            "unknown --scale value `{other}` (accepted: {SCALES})"
        )),
    }
}

fn parse_bandwidth_model(
    args: &[String],
    default: BandwidthModel,
) -> Result<BandwidthModel, String> {
    match option_value(args, "--bandwidth", BANDWIDTHS)? {
        None => Ok(default),
        Some("ar1") => Ok(BandwidthModel::Ar1),
        Some("iid") => Ok(BandwidthModel::Iid),
        Some(other) => Err(format!(
            "unknown --bandwidth value `{other}` (accepted: {BANDWIDTHS})"
        )),
    }
}

/// What a metric type adds to a figure's two renderings: its table columns
/// and the `metrics` object of each JSON point. [`to_table`] and
/// [`figure_to_json_with_info`] write everything else, the same for every
/// figure.
pub trait FigureMetrics {
    /// The metric column headings, after `series` and the x label.
    fn table_header() -> String;
    /// This point's cells under [`table_header`](Self::table_header).
    fn table_cells(&self) -> String;
    /// This point's `metrics` JSON object, on one line.
    fn to_json(&self) -> String;
}

impl FigureMetrics for Metrics {
    fn table_header() -> String {
        format!(
            "{:>10} {:>12} {:>10} {:>14} {:>10}",
            "traffic", "delay(s)", "quality", "value($)", "hit"
        )
    }

    fn table_cells(&self) -> String {
        format!(
            "{:>10.4} {:>12.2} {:>10.4} {:>14.1} {:>10.4}",
            self.traffic_reduction_ratio,
            self.avg_service_delay_secs,
            self.avg_stream_quality,
            self.total_added_value,
            self.hit_ratio
        )
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"requests\": {}, \"traffic_reduction_ratio\": {}, \
             \"avg_service_delay_secs\": {}, \"avg_stream_quality\": {}, \
             \"total_added_value\": {}, \"hit_ratio\": {}, \"immediate_ratio\": {}}}",
            self.requests,
            json_f64(self.traffic_reduction_ratio),
            json_f64(self.avg_service_delay_secs),
            json_f64(self.avg_stream_quality),
            json_f64(self.total_added_value),
            json_f64(self.hit_ratio),
            json_f64(self.immediate_ratio),
        )
    }
}

impl FigureMetrics for SessionMetrics {
    fn table_header() -> String {
        format!(
            "{:>10} {:>10} {:>6} {:>10} {:>12} {:>14}",
            "traffic", "viewers", "peak", "rebuf", "rebuf(s)", "origin(GB)"
        )
    }

    fn table_cells(&self) -> String {
        format!(
            "{:>10.4} {:>10.2} {:>6} {:>10.4} {:>12.2} {:>14.3}",
            self.traffic_reduction_ratio,
            self.avg_concurrent_viewers,
            self.peak_concurrent_viewers,
            self.rebuffer_probability,
            self.avg_rebuffer_secs,
            self.origin_bytes_total / 1e9
        )
    }

    fn to_json(&self) -> String {
        let bins: Vec<String> = self
            .egress_bins_bytes
            .iter()
            .map(|&b| json_f64(b))
            .collect();
        format!(
            "{{\"sessions\": {}, \"viewer_seconds\": {}, \
             \"avg_concurrent_viewers\": {}, \"peak_concurrent_viewers\": {}, \
             \"rebuffer_probability\": {}, \"avg_rebuffer_secs\": {}, \
             \"traffic_reduction_ratio\": {}, \"origin_bytes_total\": {}, \
             \"horizon_secs\": {}, \"outage_secs\": {}, \"masked_stall_secs\": {}, \
             \"egress_bins_bytes\": [{}]}}",
            self.sessions,
            json_f64(self.viewer_seconds),
            json_f64(self.avg_concurrent_viewers),
            self.peak_concurrent_viewers,
            json_f64(self.rebuffer_probability),
            json_f64(self.avg_rebuffer_secs),
            json_f64(self.traffic_reduction_ratio),
            json_f64(self.origin_bytes_total),
            json_f64(self.horizon_secs),
            json_f64(self.outage_secs),
            json_f64(self.masked_stall_secs),
            bins.join(", "),
        )
    }
}

/// Renders a figure as an aligned plain-text table, one row per
/// (series, x) pair, with one column per metric — the same rows the paper
/// plots.
pub fn to_table<M: FigureMetrics>(figure: &FigureResult<M>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {} — {}", figure.id, figure.title);
    let _ = writeln!(
        out,
        "{:<14} {:>10} {}",
        "series",
        figure.x_label,
        M::table_header()
    );
    for series in &figure.series {
        for p in &series.points {
            let _ = writeln!(
                out,
                "{:<14} {:>10.4} {}",
                series.label,
                p.x,
                p.metrics.table_cells()
            );
        }
    }
    out
}

/// Prints a figure as a plain-text table and writes it as JSON under
/// `results/<id>.json` (best effort — failures to write are reported but not
/// fatal), reporting how the experiment ran: the wall-clock time and the
/// environment-configured executor's thread count are printed and embedded
/// in the JSON (`wall_clock_secs` / `threads`), and so is a session
/// figure's scheduling telemetry. The process's peak resident set
/// ([`peak_rss_note`]) is printed only.
pub fn emit_timed<M: FigureMetrics>(figure: &FigureResult<M>, elapsed: Duration) {
    let info = RunInfo::from_elapsed(elapsed);
    println!("{}", to_table(figure));
    let mut runtime = format!(
        "wall clock: {:.3} s on {} thread{}",
        info.wall_clock_secs,
        info.threads,
        if info.threads == 1 { "" } else { "s" }
    );
    if let Some(t) = figure.telemetry {
        let _ = write!(
            runtime,
            "; events scheduled {}, cancelled {}, peak heap {}, re-divisions {}",
            t.events_scheduled, t.events_cancelled, t.peak_heap_len, t.redivisions
        );
    }
    runtime.push_str(&peak_rss_note());
    println!("({runtime})");
    let json = figure_to_json_with_info(figure, Some(info));
    match write_json(Path::new("results"), &figure.id, &json) {
        Ok(path) => println!("(wrote {})", path.display()),
        Err(warning) => eprintln!("warning: {warning}"),
    }
}

/// Writes `json` to `<dir>/<id>.json`, creating `dir` first; the error
/// names the file and says why either step failed.
fn write_json(dir: &Path, id: &str, json: &str) -> Result<PathBuf, String> {
    let path = dir.join(format!("{id}.json"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    Ok(path)
}

/// Serialises a [`FigureResult`] to pretty-printed JSON; when `info` is
/// given, top-level `wall_clock_secs` and `threads` fields are emitted,
/// followed for a session figure by its scheduling telemetry
/// (`events_scheduled`, `events_cancelled`, `peak_heap_len`,
/// `redivisions`).
///
/// Hand-rolled because the build environment has no registry access for
/// `serde`; the schema mirrors the public fields of [`FigureResult`].
/// Non-finite floats (e.g. an infinite average delay at zero bandwidth)
/// are emitted as `null`, matching what `serde_json` does for them.
pub fn figure_to_json_with_info<M: FigureMetrics>(
    figure: &FigureResult<M>,
    info: Option<RunInfo>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"id\": {},", json_string(&figure.id));
    let _ = writeln!(out, "  \"title\": {},", json_string(&figure.title));
    let _ = writeln!(out, "  \"x_label\": {},", json_string(&figure.x_label));
    if let Some(info) = info {
        let _ = writeln!(
            out,
            "  \"wall_clock_secs\": {},",
            json_f64(info.wall_clock_secs)
        );
        let _ = writeln!(out, "  \"threads\": {},", info.threads);
        if let Some(t) = figure.telemetry {
            let _ = writeln!(out, "  \"events_scheduled\": {},", t.events_scheduled);
            let _ = writeln!(out, "  \"events_cancelled\": {},", t.events_cancelled);
            let _ = writeln!(out, "  \"peak_heap_len\": {},", t.peak_heap_len);
            let _ = writeln!(out, "  \"redivisions\": {},", t.redivisions);
        }
    }
    out.push_str("  \"series\": [\n");
    for (si, series) in figure.series.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"label\": {},", json_string(&series.label));
        out.push_str("      \"points\": [\n");
        for (pi, p) in series.points.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"x\": {}, \"metrics\": {}}}",
                json_f64(p.x),
                p.metrics.to_json()
            );
            out.push_str(line_end(pi + 1 < series.points.len()));
        }
        out.push_str("      ]\n    }");
        out.push_str(line_end(si + 1 < figure.series.len()));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The end of a JSON array element's last line: a comma when `more` follow.
fn line_end(more: bool) -> &'static str {
    if more {
        ",\n"
    } else {
        "\n"
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        if !s.contains(['.', 'e', 'E']) {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_sim::{FigureSeries, SessionTelemetry};

    #[test]
    fn default_scale_is_quick() {
        assert_eq!(scale_from_args(), ExperimentScale::Quick);
    }

    #[test]
    fn peak_rss_is_read_from_vm_hwm_in_kb() {
        let status = "VmPeak:\t  250000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(vm_hwm_mb(status), Some(51_200.0 * 1024.0 / 1e6));
        assert_eq!(vm_hwm_mb("VmRSS:\t 40000 kB\n"), None);
        assert_eq!(vm_hwm_mb("VmHWM:\t 51200\n"), None);
    }

    #[test]
    fn default_bandwidth_model_is_iid() {
        assert_eq!(
            bandwidth_model_from_args(BandwidthModel::Iid),
            BandwidthModel::Iid
        );
    }

    fn args_of(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn scale_values_parse_and_mistakes_are_errors() {
        for (line, scale) in [
            ("", ExperimentScale::Quick),
            ("--smoke", ExperimentScale::Quick),
            ("--scale quick", ExperimentScale::Quick),
            ("--scale paper", ExperimentScale::Paper),
            ("--bandwidth ar1 --scale test", ExperimentScale::Test),
            // The last occurrence wins, as it always has.
            ("--scale paper --scale test", ExperimentScale::Test),
        ] {
            assert_eq!(parse_scale(&args_of(line)), Ok(scale), "`{line}`");
        }
        let unknown = parse_scale(&args_of("--scale papr")).unwrap_err();
        assert!(unknown.contains("`papr`") && unknown.contains("paper, quick, test"));
        // One name per scale: `full` is not a second name for `paper`.
        assert!(parse_scale(&args_of("--scale full")).is_err());
        let missing = parse_scale(&args_of("--bandwidth iid --scale")).unwrap_err();
        assert!(missing.contains("--scale needs a value"), "{missing}");
    }

    #[test]
    fn bandwidth_values_parse_and_mistakes_are_errors() {
        let ar1 = BandwidthModel::Ar1;
        for (line, default, model) in [
            ("", BandwidthModel::Iid, BandwidthModel::Iid),
            ("--scale test", ar1, ar1),
            ("--bandwidth ar1", BandwidthModel::Iid, ar1),
            ("--bandwidth iid", ar1, BandwidthModel::Iid),
        ] {
            assert_eq!(
                parse_bandwidth_model(&args_of(line), default),
                Ok(model),
                "`{line}`"
            );
        }
        let unknown = parse_bandwidth_model(&args_of("--bandwidth ar2"), ar1).unwrap_err();
        assert!(unknown.contains("`ar2`") && unknown.contains("iid, ar1"));
        // One name per model: `timevarying` is not a second name for `ar1`.
        assert!(parse_bandwidth_model(&args_of("--bandwidth timevarying"), ar1).is_err());
        assert!(parse_bandwidth_model(&args_of("--bandwidth"), ar1).is_err());
    }

    #[test]
    fn emit_writes_results_file() {
        let mut fig: FigureResult = FigureResult::new("selftest", "emit smoke test", "x");
        fig.series.push(FigureSeries::new("s"));
        emit_timed(&fig, Duration::ZERO);
        let path = std::path::Path::new("results/selftest.json");
        assert!(path.exists());
        let _ = std::fs::remove_file(path);
    }

    /// A results directory that cannot be created — here a path under a
    /// regular file — is reported like a failed file write, not skipped.
    #[test]
    fn an_uncreatable_results_dir_is_reported() {
        let file = std::env::temp_dir().join(format!("sc_bench_not_a_dir_{}", std::process::id()));
        std::fs::write(&file, "").unwrap();
        let warning = write_json(&file.join("results"), "selftest", "{}").unwrap_err();
        let _ = std::fs::remove_file(&file);
        assert!(
            warning.starts_with("could not write ") && warning.contains("selftest.json"),
            "{warning}"
        );
    }

    #[test]
    fn json_includes_runtime_info_when_timed() {
        let mut fig: FigureResult = FigureResult::new("selftest_timed", "timed emit", "x");
        fig.series.push(FigureSeries::new("s"));
        let info = RunInfo {
            wall_clock_secs: 1.5,
            threads: 4,
        };
        let json = figure_to_json_with_info(&fig, Some(info));
        assert!(json.contains("\"wall_clock_secs\": 1.5"));
        assert!(json.contains("\"threads\": 4"));
        // The untimed serialisation stays byte-compatible with the old schema.
        assert!(!figure_to_json_with_info(&fig, None).contains("wall_clock_secs"));

        emit_timed(&fig, Duration::from_millis(10));
        let path = std::path::Path::new("results/selftest_timed.json");
        assert!(path.exists());
        let written = std::fs::read_to_string(path).unwrap();
        assert!(written.contains("\"threads\""));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn session_json_includes_bins_and_info() {
        let mut fig = FigureResult::new("selftest_sessions", "session emit", "x");
        fig.telemetry = Some(SessionTelemetry {
            events_scheduled: 31,
            redivisions: 7,
            ..SessionTelemetry::default()
        });
        let mut s = FigureSeries::new("PB");
        s.push(
            0.05,
            SessionMetrics {
                sessions: 10,
                viewer_seconds: 100.0,
                avg_concurrent_viewers: 2.0,
                peak_concurrent_viewers: 4,
                rebuffer_probability: 0.5,
                avg_rebuffer_secs: 1.25,
                traffic_reduction_ratio: 0.3,
                origin_bytes_total: 1_000.0,
                egress_bins_bytes: vec![600.0, 400.0],
                horizon_secs: 50.0,
                outage_secs: 12.5,
                masked_stall_secs: 3.75,
            },
        );
        fig.series.push(s);
        let json = figure_to_json_with_info(
            &fig,
            Some(RunInfo {
                wall_clock_secs: 2.0,
                threads: 2,
            }),
        );
        assert!(json.contains("\"egress_bins_bytes\": [600.0, 400.0]"));
        assert!(json.contains("\"rebuffer_probability\": 0.5"));
        assert!(json.contains("\"outage_secs\": 12.5"));
        assert!(json.contains("\"masked_stall_secs\": 3.75"));
        assert!(json.contains("\"wall_clock_secs\": 2.0"));
        assert!(json.contains("\"events_scheduled\": 31"));
        assert!(json.contains("\"redivisions\": 7"));

        emit_timed(&fig, Duration::from_millis(5));
        let path = std::path::Path::new("results/selftest_sessions.json");
        assert!(path.exists());
        let written = std::fs::read_to_string(path).unwrap();
        assert!(written.contains("\"sessions\": 10"));
        let _ = std::fs::remove_file(path);
    }

    const INFO: RunInfo = RunInfo {
        wall_clock_secs: 1.5,
        threads: 4,
    };

    /// Every byte of the per-request schema: two series, a label and a
    /// title needing escapes, integral floats, a non-finite metric.
    #[test]
    fn figure_json_bytes_are_pinned() {
        let point = |delay| Metrics {
            requests: 100,
            traffic_reduction_ratio: 0.25,
            avg_service_delay_secs: delay,
            avg_stream_quality: 1.0,
            total_added_value: 0.0,
            hit_ratio: 0.5,
            immediate_ratio: 0.125,
        };
        let mut fig = FigureResult::new("golden", "a \"quoted\" title", "cache size (%)");
        let mut pb = FigureSeries::new("PB\t\\ \u{1}\n");
        pb.push(0.05, point(1.5));
        pb.push(1.0, point(2e-7));
        let mut lru = FigureSeries::new("LRU");
        lru.push(2.0, point(f64::INFINITY));
        fig.series = vec![pb, lru];

        let expected = r#"{
  "id": "golden",
  "title": "a \"quoted\" title",
  "x_label": "cache size (%)",
  "series": [
    {
      "label": "PB\t\\ \u0001\n",
      "points": [
        {"x": 0.05, "metrics": {"requests": 100, "traffic_reduction_ratio": 0.25, "avg_service_delay_secs": 1.5, "avg_stream_quality": 1.0, "total_added_value": 0.0, "hit_ratio": 0.5, "immediate_ratio": 0.125}},
        {"x": 1.0, "metrics": {"requests": 100, "traffic_reduction_ratio": 0.25, "avg_service_delay_secs": 0.0000002, "avg_stream_quality": 1.0, "total_added_value": 0.0, "hit_ratio": 0.5, "immediate_ratio": 0.125}}
      ]
    },
    {
      "label": "LRU",
      "points": [
        {"x": 2.0, "metrics": {"requests": 100, "traffic_reduction_ratio": 0.25, "avg_service_delay_secs": null, "avg_stream_quality": 1.0, "total_added_value": 0.0, "hit_ratio": 0.5, "immediate_ratio": 0.125}}
      ]
    }
  ]
}
"#;
        assert_eq!(figure_to_json_with_info(&fig, None), expected);
        let timed = expected.replace(
            "  \"series\"",
            "  \"wall_clock_secs\": 1.5,\n  \"threads\": 4,\n  \"series\"",
        );
        assert_eq!(figure_to_json_with_info(&fig, Some(INFO)), timed);
    }

    /// Every byte of the session schema: the telemetry lines ride with the
    /// run info, `egress_bins_bytes` is an array, an empty series closes.
    #[test]
    fn session_figure_json_bytes_are_pinned() {
        let mut fig = FigureResult::new("golden_sessions", "sessions", "cache size (%)");
        fig.telemetry = Some(SessionTelemetry {
            events_scheduled: 31,
            events_cancelled: 5,
            peak_heap_len: 9,
            redivisions: 7,
        });
        let mut pb = FigureSeries::new("PB");
        pb.push(
            0.05,
            SessionMetrics {
                sessions: 10,
                viewer_seconds: 100.0,
                avg_concurrent_viewers: 2.0,
                peak_concurrent_viewers: 4,
                rebuffer_probability: 0.5,
                avg_rebuffer_secs: f64::NAN,
                traffic_reduction_ratio: 0.3,
                origin_bytes_total: 1_000.0,
                egress_bins_bytes: vec![600.0, 400.5],
                horizon_secs: 50.0,
                outage_secs: 12.5,
                masked_stall_secs: 3.75,
            },
        );
        fig.series = vec![pb, FigureSeries::new("IB \"whole\"")];

        let expected = r#"{
  "id": "golden_sessions",
  "title": "sessions",
  "x_label": "cache size (%)",
  "series": [
    {
      "label": "PB",
      "points": [
        {"x": 0.05, "metrics": {"sessions": 10, "viewer_seconds": 100.0, "avg_concurrent_viewers": 2.0, "peak_concurrent_viewers": 4, "rebuffer_probability": 0.5, "avg_rebuffer_secs": null, "traffic_reduction_ratio": 0.3, "origin_bytes_total": 1000.0, "horizon_secs": 50.0, "outage_secs": 12.5, "masked_stall_secs": 3.75, "egress_bins_bytes": [600.0, 400.5]}}
      ]
    },
    {
      "label": "IB \"whole\"",
      "points": [
      ]
    }
  ]
}
"#;
        assert_eq!(figure_to_json_with_info(&fig, None), expected);
        let timed = expected.replace(
            "  \"series\"",
            "  \"wall_clock_secs\": 1.5,\n  \"threads\": 4,\n  \"events_scheduled\": 31,\n  \
             \"events_cancelled\": 5,\n  \"peak_heap_len\": 9,\n  \"redivisions\": 7,\n  \"series\"",
        );
        assert_eq!(figure_to_json_with_info(&fig, Some(INFO)), timed);
    }

    /// Every byte of the per-request table: a label wider than its
    /// 14-character column, an x label as wide, a non-finite delay.
    #[test]
    fn figure_table_bytes_are_pinned() {
        let point = |delay| Metrics {
            requests: 100,
            traffic_reduction_ratio: 0.25,
            avg_service_delay_secs: delay,
            avg_stream_quality: 0.875,
            total_added_value: 1234.56,
            hit_ratio: 0.5,
            immediate_ratio: 0.125,
        };
        let mut fig = FigureResult::new("golden", "a title", "cache fraction");
        let mut pb = FigureSeries::new("PB");
        pb.push(0.05, point(1.5));
        pb.push(1.0, point(f64::INFINITY));
        let mut wide = FigureSeries::new("PB(e=0.5) ewma/60s");
        wide.push(0.125, point(f64::NAN));
        fig.series = vec![pb, wide];
        let expected = r#"# golden — a title
series         cache fraction    traffic     delay(s)    quality       value($)        hit
PB                 0.0500     0.2500         1.50     0.8750         1234.6     0.5000
PB                 1.0000     0.2500          inf     0.8750         1234.6     0.5000
PB(e=0.5) ewma/60s     0.1250     0.2500          NaN     0.8750         1234.6     0.5000
"#;
        assert_eq!(to_table(&fig), expected);
    }

    /// Every byte of the session table: a label wider than its column, a
    /// non-finite rebuffer time, an empty series.
    #[test]
    fn session_figure_table_bytes_are_pinned() {
        let mut fig = FigureResult::new("golden_sessions", "sessions", "outages per hour");
        let mut pb = FigureSeries::new("PB mttr=300s");
        let mut wide = FigureSeries::new("LRU mttr=60s wide");
        let point = |rebuffer_secs| SessionMetrics {
            sessions: 10,
            viewer_seconds: 100.0,
            avg_concurrent_viewers: 2.5,
            peak_concurrent_viewers: 40,
            rebuffer_probability: 0.125,
            avg_rebuffer_secs: rebuffer_secs,
            traffic_reduction_ratio: 0.3,
            origin_bytes_total: 2.5e9,
            egress_bins_bytes: vec![1.5e9, 1e9],
            horizon_secs: 50.0,
            outage_secs: 12.5,
            masked_stall_secs: 3.75,
        };
        pb.push(0.0, point(3.25));
        pb.push(6.0, point(f64::NAN));
        wide.push(2.0, point(f64::INFINITY));
        fig.series = vec![pb, wide, FigureSeries::new("IB")];
        let expected = r#"# golden_sessions — sessions
series         outages per hour    traffic    viewers   peak      rebuf     rebuf(s)     origin(GB)
PB mttr=300s       0.0000     0.3000       2.50     40     0.1250         3.25          2.500
PB mttr=300s       6.0000     0.3000       2.50     40     0.1250          NaN          2.500
LRU mttr=60s wide     2.0000     0.3000       2.50     40     0.1250          inf          2.500
"#;
        assert_eq!(to_table(&fig), expected);
    }

    #[test]
    fn run_info_resolves_a_positive_thread_count() {
        let info = RunInfo::from_elapsed(Duration::from_secs(2));
        assert!(info.threads >= 1);
        assert!((info.wall_clock_secs - 2.0).abs() < 1e-9);
    }
}
