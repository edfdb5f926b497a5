//! Structured experiment results and plain-text report formatting.

use crate::metrics::{Metrics, SessionMetrics};
use crate::session::SessionTelemetry;
use std::fmt::Write as _;

/// One measured point of a figure: an x-coordinate (cache fraction,
/// estimator `e`, Zipf α, …) plus the averaged metrics at that point —
/// [`Metrics`] for the per-request figures, [`SessionMetrics`] for the
/// session-mode ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FigurePoint<M = Metrics> {
    /// The x-axis value.
    pub x: f64,
    /// Averaged metrics at this point.
    pub metrics: M,
}

/// One curve of a figure (e.g. one caching policy).
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSeries<M = Metrics> {
    /// Curve label (usually the policy name).
    pub label: String,
    /// Points in increasing x order.
    pub points: Vec<FigurePoint<M>>,
}

impl<M> FigureSeries<M> {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        FigureSeries {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, metrics: M) {
        self.points.push(FigurePoint { x, metrics });
    }
}

/// One measured point of a session-mode figure.
pub type SessionFigurePoint = FigurePoint<SessionMetrics>;

/// One curve of a session-mode figure.
pub type SessionFigureSeries = FigureSeries<SessionMetrics>;

/// Cuts the flat result of one grid — `labels.len() × xs.len()` averages,
/// series-major, the order the figure listed its configurations in — back
/// into one labelled series per label over the same `xs`.
///
/// # Panics
///
/// Panics if `metrics` does not hold exactly one entry per `(label, x)`.
pub(crate) fn assemble_series<M>(
    labels: impl IntoIterator<Item = impl Into<String>>,
    xs: &[f64],
    metrics: Vec<M>,
) -> Vec<FigureSeries<M>> {
    let mut metrics = metrics.into_iter();
    let series: Vec<FigureSeries<M>> = labels
        .into_iter()
        .map(|label| FigureSeries {
            label: label.into(),
            points: xs
                .iter()
                .map(|&x| FigurePoint {
                    x,
                    metrics: metrics.next().expect("grid covers the figure"),
                })
                .collect(),
        })
        .collect();
    assert!(metrics.next().is_none(), "figure covers the grid");
    series
}

/// A complete reproduced figure or table: metadata plus one or more series.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureResult {
    /// Identifier, e.g. `"fig5"` or `"table1"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Meaning of the x-axis.
    pub x_label: String,
    /// The measured series.
    pub series: Vec<FigureSeries>,
}

impl FigureResult {
    /// Creates an empty figure result.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
    ) -> Self {
        FigureResult {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            series: Vec::new(),
        }
    }

    /// Looks up a series by label.
    pub fn series(&self, label: &str) -> Option<&FigureSeries> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Renders the result as an aligned plain-text table, one row per
    /// (series, x) pair, with one column per metric — the same rows the
    /// paper plots.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>10} {:>12} {:>10} {:>14} {:>10}",
            "series", self.x_label, "traffic", "delay(s)", "quality", "value($)", "hit"
        );
        for series in &self.series {
            for p in &series.points {
                let m = p.metrics;
                let _ = writeln!(
                    out,
                    "{:<14} {:>10.4} {:>10.4} {:>12.2} {:>10.4} {:>14.1} {:>10.4}",
                    series.label,
                    p.x,
                    m.traffic_reduction_ratio,
                    m.avg_service_delay_secs,
                    m.avg_stream_quality,
                    m.total_added_value,
                    m.hit_ratio
                );
            }
        }
        out
    }
}

/// A complete session-mode figure: metadata plus one or more series of
/// [`SessionMetrics`] points.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionFigureResult {
    /// Identifier, e.g. `"fig_sessions"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Meaning of the x-axis.
    pub x_label: String,
    /// The measured series.
    pub series: Vec<SessionFigureSeries>,
    /// Scheduling work of all the runs behind the figure together.
    pub telemetry: SessionTelemetry,
}

impl SessionFigureResult {
    /// Creates an empty session figure result.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
    ) -> Self {
        SessionFigureResult {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            series: Vec::new(),
            telemetry: SessionTelemetry::default(),
        }
    }

    /// Looks up a series by label.
    pub fn series(&self, label: &str) -> Option<&SessionFigureSeries> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Renders the result as an aligned plain-text table, one row per
    /// (series, x) pair, with one column per session metric.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>10} {:>10} {:>6} {:>10} {:>12} {:>14}",
            "series", self.x_label, "traffic", "viewers", "peak", "rebuf", "rebuf(s)", "origin(GB)"
        );
        for series in &self.series {
            for p in &series.points {
                let m = &p.metrics;
                let _ = writeln!(
                    out,
                    "{:<14} {:>10.4} {:>10.4} {:>10.2} {:>6} {:>10.4} {:>12.2} {:>14.3}",
                    series.label,
                    p.x,
                    m.traffic_reduction_ratio,
                    m.avg_concurrent_viewers,
                    m.peak_concurrent_viewers,
                    m.rebuffer_probability,
                    m.avg_rebuffer_secs,
                    m.origin_bytes_total / 1e9
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(traffic: f64, delay: f64) -> Metrics {
        Metrics {
            requests: 100,
            traffic_reduction_ratio: traffic,
            avg_service_delay_secs: delay,
            avg_stream_quality: 0.9,
            total_added_value: 12.0,
            hit_ratio: 0.4,
            immediate_ratio: 0.5,
        }
    }

    #[test]
    fn series_and_lookup() {
        let mut fig = FigureResult::new("fig5", "Policy comparison", "cache fraction");
        let mut pb = FigureSeries::new("PB");
        pb.push(0.01, metrics(0.1, 50.0));
        pb.push(0.05, metrics(0.2, 30.0));
        fig.series.push(pb);
        assert!(fig.series("PB").is_some());
        assert!(fig.series("IF").is_none());
        assert_eq!(fig.series("PB").unwrap().points.len(), 2);
    }

    #[test]
    fn table_rendering_contains_all_rows() {
        let mut fig = FigureResult::new("fig9", "Estimator sweep", "e");
        let mut s = FigureSeries::new("PB(e)");
        s.push(0.2, metrics(0.15, 42.0));
        fig.series.push(s);
        let table = fig.to_table();
        assert!(table.contains("fig9"));
        assert!(table.contains("PB(e)"));
        assert!(table.contains("42.00"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn session_figure_series_lookup_and_table() {
        let mut fig =
            SessionFigureResult::new("fig_sessions", "Session contention", "cache fraction");
        let mut pb = SessionFigureSeries::new("PB");
        pb.push(
            0.05,
            SessionMetrics {
                sessions: 1_000,
                viewer_seconds: 5e5,
                avg_concurrent_viewers: 12.5,
                peak_concurrent_viewers: 40,
                rebuffer_probability: 0.125,
                avg_rebuffer_secs: 3.25,
                traffic_reduction_ratio: 0.2,
                origin_bytes_total: 2.5e9,
                egress_bins_bytes: vec![1.5e9, 1e9],
                horizon_secs: 4e4,
                outage_secs: 0.0,
                masked_stall_secs: 0.0,
            },
        );
        fig.series.push(pb);
        assert!(fig.series("PB").is_some());
        assert!(fig.series("LRU").is_none());
        let table = fig.to_table();
        assert!(table.contains("fig_sessions"));
        assert!(table.contains("0.1250"));
        assert!(table.contains("2.500"));
        assert!(table.lines().count() >= 3);
    }
}
