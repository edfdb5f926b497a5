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
//! * **`bench_overload`**: the proxy driven past its admission capacity.
//!
//! Performance is measured by the `benchmark/` crate, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sc_sim::exec::ExecConfig;
use sc_sim::experiments::ExperimentScale;
use sc_sim::{BandwidthModel, FigureResult, Metrics, SessionFigureResult, SessionMetrics};
use std::fmt::Write as _;
use std::path::PathBuf;
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

/// Parses the `--scale <paper|full|quick|test>` command-line option;
/// defaults to [`ExperimentScale::Quick`]. An unknown value, or `--scale`
/// with nothing after it, prints the accepted values and exits with
/// status 2 — a mistyped `--scale papr` must not report quick-scale
/// numbers as if they were the paper's.
pub fn scale_from_args() -> ExperimentScale {
    or_exit(parse_scale(&args()))
}

/// Parses the `--bandwidth <iid|ar1>` command-line option; defaults to
/// [`BandwidthModel::Iid`] (the paper's i.i.d. per-request ratios). `ar1`
/// selects [`BandwidthModel::ar1_default`], the mean-reverting evolution of
/// every path sampled on the simulation clock; the affected figures
/// (`fig7`, `fig8`) then emit under a `_ar1`-suffixed id so both variants
/// can sit side by side under `results/`. Unknown and missing values exit
/// like [`scale_from_args`].
pub fn bandwidth_model_from_args() -> BandwidthModel {
    bandwidth_model_from_args_or(BandwidthModel::Iid)
}

/// [`bandwidth_model_from_args`] with an explicit default for when the
/// `--bandwidth` option is absent — `fig13` defaults to AR(1) because
/// drift is its subject, while `fig7`/`fig8` default to the paper's
/// i.i.d. setting.
pub fn bandwidth_model_from_args_or(default: BandwidthModel) -> BandwidthModel {
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

const SCALES: &str = "paper, full, quick, test";
const BANDWIDTHS: &str = "iid, ar1, timevarying";

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
        Some("paper" | "full") => Ok(ExperimentScale::Paper),
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
        Some("ar1" | "timevarying") => Ok(BandwidthModel::ar1_default()),
        Some("iid") => Ok(BandwidthModel::Iid),
        Some(other) => Err(format!(
            "unknown --bandwidth value `{other}` (accepted: {BANDWIDTHS})"
        )),
    }
}

/// Prints a figure as a plain-text table and writes it as JSON under
/// `results/<id>.json` (best effort — failures to write are reported but not
/// fatal), reporting how the experiment ran: the wall-clock time and the
/// environment-configured executor's thread count are printed and embedded
/// in the JSON (`wall_clock_secs` / `threads`).
pub fn emit_timed(figure: &FigureResult, elapsed: Duration) {
    let info = RunInfo::from_elapsed(elapsed);
    print_and_write(
        &figure.id,
        &figure.to_table(),
        &format!("({})", wall_clock_phrase(info)),
        &figure_to_json_with_info(figure, Some(info)),
    );
}

/// Like [`emit_timed`], for session-mode figures: prints the table, the
/// runtime line, and writes `results/<id>.json` with the session-metric
/// schema (including the `egress_bins_bytes` array).
pub fn emit_session_timed(figure: &SessionFigureResult, elapsed: Duration) {
    let info = RunInfo::from_elapsed(elapsed);
    let t = figure.telemetry;
    print_and_write(
        &figure.id,
        &figure.to_table(),
        &format!(
            "({}; events scheduled {}, cancelled {}, peak heap {}, re-divisions {})",
            wall_clock_phrase(info),
            t.events_scheduled,
            t.events_cancelled,
            t.peak_heap_len,
            t.redivisions
        ),
        &session_figure_to_json_with_info(figure, Some(info)),
    );
}

fn wall_clock_phrase(info: RunInfo) -> String {
    format!(
        "wall clock: {:.3} s on {} thread{}",
        info.wall_clock_secs,
        info.threads,
        if info.threads == 1 { "" } else { "s" }
    )
}

fn print_and_write(id: &str, table: &str, runtime_line: &str, json: &str) {
    println!("{table}");
    println!("{runtime_line}");
    let dir = PathBuf::from("results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{id}.json"));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("(wrote {})", path.display());
        }
    }
}

/// Serialises a [`FigureResult`] to pretty-printed JSON; when `info` is
/// given, top-level `wall_clock_secs` and `threads` fields are emitted.
///
/// Hand-rolled because the build environment has no registry access for
/// `serde`; the schema mirrors the public fields of [`FigureResult`].
/// Non-finite floats (e.g. an infinite average delay at zero bandwidth)
/// are emitted as `null`, matching what `serde_json` does for them.
pub fn figure_to_json_with_info(figure: &FigureResult, info: Option<RunInfo>) -> String {
    let series = figure.series.iter();
    figure_json(
        [&figure.id, &figure.title, &figure.x_label],
        &info.map(run_info_lines).unwrap_or_default(),
        series.map(|s| (s.label.as_str(), &s.points[..])),
        |p| (p.x, metrics_to_json(&p.metrics)),
    )
}

/// Serialises a [`SessionFigureResult`] to pretty-printed JSON; same
/// hand-rolled schema conventions as [`figure_to_json_with_info`]. The
/// run-info block also carries the figure's scheduling telemetry
/// (`events_scheduled`, `events_cancelled`, `peak_heap_len`,
/// `redivisions`).
pub fn session_figure_to_json_with_info(
    figure: &SessionFigureResult,
    info: Option<RunInfo>,
) -> String {
    let t = figure.telemetry;
    let info_lines = info.map(|info| {
        format!(
            "{}  \"events_scheduled\": {},\n  \"events_cancelled\": {},\n  \
             \"peak_heap_len\": {},\n  \"redivisions\": {},\n",
            run_info_lines(info),
            t.events_scheduled,
            t.events_cancelled,
            t.peak_heap_len,
            t.redivisions
        )
    });
    let series = figure.series.iter();
    figure_json(
        [&figure.id, &figure.title, &figure.x_label],
        &info_lines.unwrap_or_default(),
        series.map(|s| (s.label.as_str(), &s.points[..])),
        |p| (p.x, session_metrics_to_json(&p.metrics)),
    )
}

fn run_info_lines(info: RunInfo) -> String {
    format!(
        "  \"wall_clock_secs\": {},\n  \"threads\": {},\n",
        json_f64(info.wall_clock_secs),
        info.threads
    )
}

/// The skeleton both figure schemas share: the `[id, title, x_label]`
/// header, the already-formatted run-info lines (empty when untimed), then
/// every series as `(label, points)`, with `point` giving each point's `x`
/// and its metrics as JSON.
fn figure_json<'a, P: 'a>(
    [id, title, x_label]: [&str; 3],
    info_lines: &str,
    series: impl Iterator<Item = (&'a str, &'a [P])>,
    point: impl Fn(&P) -> (f64, String),
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"id\": {},", json_string(id));
    let _ = writeln!(out, "  \"title\": {},", json_string(title));
    let _ = writeln!(out, "  \"x_label\": {},", json_string(x_label));
    out.push_str(info_lines);
    out.push_str("  \"series\": [\n");
    let mut series = series.peekable();
    while let Some((label, points)) = series.next() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"label\": {},", json_string(label));
        out.push_str("      \"points\": [\n");
        for (pi, (x, metrics)) in points.iter().map(&point).enumerate() {
            let _ = write!(
                out,
                "        {{\"x\": {}, \"metrics\": {metrics}}}",
                json_f64(x)
            );
            out.push_str(if pi + 1 < points.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ]\n");
        out.push_str(if series.peek().is_some() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn session_metrics_to_json(m: &SessionMetrics) -> String {
    let bins: Vec<String> = m.egress_bins_bytes.iter().map(|&b| json_f64(b)).collect();
    format!(
        "{{\"sessions\": {}, \"viewer_seconds\": {}, \
         \"avg_concurrent_viewers\": {}, \"peak_concurrent_viewers\": {}, \
         \"rebuffer_probability\": {}, \"avg_rebuffer_secs\": {}, \
         \"traffic_reduction_ratio\": {}, \"origin_bytes_total\": {}, \
         \"horizon_secs\": {}, \"outage_secs\": {}, \"masked_stall_secs\": {}, \
         \"egress_bins_bytes\": [{}]}}",
        m.sessions,
        json_f64(m.viewer_seconds),
        json_f64(m.avg_concurrent_viewers),
        m.peak_concurrent_viewers,
        json_f64(m.rebuffer_probability),
        json_f64(m.avg_rebuffer_secs),
        json_f64(m.traffic_reduction_ratio),
        json_f64(m.origin_bytes_total),
        json_f64(m.horizon_secs),
        json_f64(m.outage_secs),
        json_f64(m.masked_stall_secs),
        bins.join(", "),
    )
}

fn metrics_to_json(m: &Metrics) -> String {
    format!(
        "{{\"requests\": {}, \"traffic_reduction_ratio\": {}, \
         \"avg_service_delay_secs\": {}, \"avg_stream_quality\": {}, \
         \"total_added_value\": {}, \"hit_ratio\": {}, \"immediate_ratio\": {}}}",
        m.requests,
        json_f64(m.traffic_reduction_ratio),
        json_f64(m.avg_service_delay_secs),
        json_f64(m.avg_stream_quality),
        json_f64(m.total_added_value),
        json_f64(m.hit_ratio),
        json_f64(m.immediate_ratio),
    )
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
    use sc_sim::FigureSeries;

    #[test]
    fn default_scale_is_quick() {
        assert_eq!(scale_from_args(), ExperimentScale::Quick);
    }

    #[test]
    fn default_bandwidth_model_is_iid() {
        assert_eq!(bandwidth_model_from_args(), BandwidthModel::Iid);
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
            ("--scale full", ExperimentScale::Paper),
            ("--bandwidth ar1 --scale test", ExperimentScale::Test),
            // The last occurrence wins, as it always has.
            ("--scale paper --scale test", ExperimentScale::Test),
        ] {
            assert_eq!(parse_scale(&args_of(line)), Ok(scale), "`{line}`");
        }
        let unknown = parse_scale(&args_of("--scale papr")).unwrap_err();
        assert!(unknown.contains("`papr`") && unknown.contains("paper, full, quick, test"));
        let missing = parse_scale(&args_of("--bandwidth iid --scale")).unwrap_err();
        assert!(missing.contains("--scale needs a value"), "{missing}");
    }

    #[test]
    fn bandwidth_values_parse_and_mistakes_are_errors() {
        let ar1 = BandwidthModel::ar1_default();
        for (line, default, model) in [
            ("", BandwidthModel::Iid, BandwidthModel::Iid),
            ("--scale test", ar1, ar1),
            ("--bandwidth ar1", BandwidthModel::Iid, ar1),
            ("--bandwidth timevarying", BandwidthModel::Iid, ar1),
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
        assert!(parse_bandwidth_model(&args_of("--bandwidth"), ar1).is_err());
    }

    #[test]
    fn emit_writes_results_file() {
        let mut fig = FigureResult::new("selftest", "emit smoke test", "x");
        fig.series.push(FigureSeries::new("s"));
        emit_timed(&fig, Duration::ZERO);
        let path = std::path::Path::new("results/selftest.json");
        assert!(path.exists());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn json_includes_runtime_info_when_timed() {
        let mut fig = FigureResult::new("selftest_timed", "timed emit", "x");
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
        use sc_sim::SessionFigureSeries;
        let mut fig = SessionFigureResult::new("selftest_sessions", "session emit", "x");
        fig.telemetry.events_scheduled = 31;
        fig.telemetry.redivisions = 7;
        let mut s = SessionFigureSeries::new("PB");
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
        let json = session_figure_to_json_with_info(
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

        emit_session_timed(&fig, Duration::from_millis(5));
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
        use sc_sim::{SessionFigureSeries, SessionTelemetry};
        let mut fig = SessionFigureResult::new("golden_sessions", "sessions", "cache size (%)");
        fig.telemetry = SessionTelemetry {
            events_scheduled: 31,
            events_cancelled: 5,
            peak_heap_len: 9,
            redivisions: 7,
        };
        let mut pb = SessionFigureSeries::new("PB");
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
        fig.series = vec![pb, SessionFigureSeries::new("IB \"whole\"")];

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
        assert_eq!(session_figure_to_json_with_info(&fig, None), expected);
        let timed = expected.replace(
            "  \"series\"",
            "  \"wall_clock_secs\": 1.5,\n  \"threads\": 4,\n  \"events_scheduled\": 31,\n  \
             \"events_cancelled\": 5,\n  \"peak_heap_len\": 9,\n  \"redivisions\": 7,\n  \"series\"",
        );
        assert_eq!(session_figure_to_json_with_info(&fig, Some(INFO)), timed);
    }

    #[test]
    fn run_info_resolves_a_positive_thread_count() {
        let info = RunInfo::from_elapsed(Duration::from_secs(2));
        assert!(info.threads >= 1);
        assert!((info.wall_clock_secs - 2.0).abs() < 1e-9);
    }
}
