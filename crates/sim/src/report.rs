//! Structured experiment results: what a figure measured, as data. The
//! `sc_bench` crate renders it as a table and as JSON.

use crate::metrics::Metrics;
use crate::session::SessionTelemetry;

/// One measured point of a figure: an x-coordinate (cache fraction,
/// estimator `e`, Zipf α, …) plus the averaged metrics at that point —
/// [`Metrics`] for the per-request figures,
/// [`SessionMetrics`](crate::SessionMetrics) for the session-mode ones.
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

/// A complete reproduced figure: metadata plus one or more series of
/// [`FigurePoint`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureResult<M = Metrics> {
    /// Identifier, e.g. `"fig5"` or `"fig_sessions"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Meaning of the x-axis.
    pub x_label: String,
    /// The measured series.
    pub series: Vec<FigureSeries<M>>,
    /// Scheduling work of all the runs behind a session-mode figure
    /// together; `None` for a per-request figure.
    pub telemetry: Option<SessionTelemetry>,
}

impl<M> FigureResult<M> {
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
            telemetry: None,
        }
    }

    /// Looks up a series by label.
    pub fn series(&self, label: &str) -> Option<&FigureSeries<M>> {
        self.series.iter().find(|s| s.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SessionMetrics;

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
    fn session_figure_series_lookup() {
        let mut fig = FigureResult::new("fig_sessions", "Session contention", "cache fraction");
        let mut pb = FigureSeries::new("PB");
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
        assert_eq!(fig.series("PB").unwrap().points[0].metrics.sessions, 1_000);
        assert_eq!(fig.telemetry, None);
    }
}
