//! Integration: the simulator reproduces the paper's qualitative results at
//! test scale (the full-scale numbers are produced by `sc-bench`).

use streamcache::cache::policy::PolicyKind;
use streamcache::sim::exec::{run_grid, ParallelExecutor};
use streamcache::sim::experiments::{fig10, fig5, fig7, table1, ExperimentScale};
use streamcache::sim::{BandwidthModel, SimulationConfig, VariabilityKind};

#[test]
fn table1_reports_paper_like_workload_statistics() {
    let t = table1(ExperimentScale::Test).unwrap();
    assert_eq!(t.objects, 300);
    assert!((40.0..70.0).contains(&t.catalog.mean_duration_minutes));
    assert!((45.0..50.0).contains(&(t.bitrate_bps / 1_000.0)));
    assert!(t.trace.top_decile_share > 0.15);
}

#[test]
fn fig5_constant_bandwidth_shape() {
    let fig = fig5(ExperimentScale::Test).unwrap();
    let if_s = fig.series("IF").unwrap();
    let pb_s = fig.series("PB").unwrap();
    let ib_s = fig.series("IB").unwrap();
    // Larger caches help every policy.
    for series in [if_s, pb_s, ib_s] {
        let first = series.points.first().unwrap().metrics;
        let last = series.points.last().unwrap().metrics;
        assert!(last.traffic_reduction_ratio + 0.02 >= first.traffic_reduction_ratio);
        assert!(last.avg_service_delay_secs <= first.avg_service_delay_secs + 1.0);
    }
    // PB's delay advantage over IF holds at every cache size.
    for (pb, iff) in pb_s.points.iter().zip(&if_s.points) {
        assert!(pb.metrics.avg_service_delay_secs <= iff.metrics.avg_service_delay_secs + 1.0);
    }
}

#[test]
fn fig7_high_variability_erases_pb_advantage() {
    let constant = fig5(ExperimentScale::Test).unwrap();
    let variable = fig7(ExperimentScale::Test, BandwidthModel::Iid).unwrap();
    // Delays increase for every policy when bandwidth varies wildly.
    for label in ["IF", "PB", "IB"] {
        let c = constant
            .series(label)
            .unwrap()
            .points
            .last()
            .unwrap()
            .metrics;
        let v = variable
            .series(label)
            .unwrap()
            .points
            .last()
            .unwrap()
            .metrics;
        assert!(
            v.avg_service_delay_secs >= c.avg_service_delay_secs - 1.0,
            "{label}: variable {} vs constant {}",
            v.avg_service_delay_secs,
            c.avg_service_delay_secs
        );
        assert!(v.avg_stream_quality <= c.avg_stream_quality + 0.02);
    }
    // Under high variability IB is at least competitive with PB on delay
    // (the paper: "IB caching is no worse than PB caching").
    let pb = variable
        .series("PB")
        .unwrap()
        .points
        .last()
        .unwrap()
        .metrics;
    let ib = variable
        .series("IB")
        .unwrap()
        .points
        .last()
        .unwrap()
        .metrics;
    assert!(
        ib.avg_service_delay_secs <= pb.avg_service_delay_secs * 1.35 + 5.0,
        "IB {} should be competitive with PB {}",
        ib.avg_service_delay_secs,
        pb.avg_service_delay_secs
    );
}

#[test]
fn fig10_value_based_ordering() {
    let fig = fig10(ExperimentScale::Test).unwrap();
    let if_v = fig.series("IF").unwrap().points.last().unwrap().metrics;
    let pbv = fig.series("PB-V").unwrap().points.last().unwrap().metrics;
    assert!(pbv.total_added_value + 1e-9 >= if_v.total_added_value);
    assert!(if_v.traffic_reduction_ratio >= pbv.traffic_reduction_ratio - 0.03);
}

#[test]
fn lru_and_lfu_baselines_run_end_to_end() {
    // IF ranks whole objects by request count: it is the LFU baseline.
    let configs = [PolicyKind::Lru, PolicyKind::IntegralFrequency].map(|policy| {
        SimulationConfig {
            policy,
            variability: VariabilityKind::MeasuredModerate,
            ..SimulationConfig::small()
        }
        .with_cache_fraction(0.05)
    });
    for metrics in run_grid(&configs, 1, &ParallelExecutor::from_env()).unwrap() {
        assert!(metrics.traffic_reduction_ratio > 0.0);
        assert!(metrics.avg_stream_quality > 0.5);
    }
}
