//! The regression floor for every future scaling/perf PR:
//!
//! * seeded determinism — identical configurations produce byte-identical
//!   metrics, different seeds produce different metrics;
//! * golden metrics — a fixed small scenario is asserted against
//!   checked-in values, so any behavioural change to the workload
//!   generator, bandwidth models, cache engine or simulator loop shows up
//!   as a diff here (update the constants deliberately, never casually);
//! * cross-policy sanity — the offline optimal allocation dominates every
//!   online policy, and PB beats the network-oblivious baselines on the
//!   paper's headline metric (startup delay) at small cache sizes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use streamcache::cache::policy::PolicyKind;
use streamcache::cache::{
    average_service_delay, optimal_partial_allocation, CacheEngine, ObjectKey, ObjectMeta,
    OfflineObject,
};
use streamcache::netmodel::{
    BandwidthTimeSeries, NlanrBandwidthModel, PathSet, TimeSeriesConfig, VariabilityModel,
};
use streamcache::sim::experiments::FIG13_ESTIMATORS;
use streamcache::sim::{
    run_sessions, run_simulation, BandwidthModel, Metrics, PathFaultModel, SessionWorker,
    SimulationConfig, VariabilityKind,
};
use streamcache::workload::WorkloadConfig;

fn small(policy: PolicyKind, cache_fraction: f64) -> SimulationConfig {
    SimulationConfig {
        policy,
        ..SimulationConfig::small()
    }
    .with_cache_fraction(cache_fraction)
}

/// Two runs of the same configuration must agree bit-for-bit, and a
/// different seed must actually change the outcome.
#[test]
fn same_seed_produces_byte_identical_metrics() {
    let config = small(PolicyKind::PartialBandwidth, 0.05);
    let a = run_simulation(&config).unwrap().metrics;
    let b = run_simulation(&config).unwrap().metrics;
    assert_eq!(a, b, "identical configs diverged");
    // PartialEq on f64 is what we want here, but make bit-identity explicit
    // for the float fields that feed the golden values.
    assert_eq!(
        a.traffic_reduction_ratio.to_bits(),
        b.traffic_reduction_ratio.to_bits()
    );
    assert_eq!(
        a.avg_service_delay_secs.to_bits(),
        b.avg_service_delay_secs.to_bits()
    );
    assert_eq!(
        a.avg_stream_quality.to_bits(),
        b.avg_stream_quality.to_bits()
    );
    assert_eq!(a.total_added_value.to_bits(), b.total_added_value.to_bits());

    let mut reseeded = config;
    reseeded.seed += 1;
    let c = run_simulation(&reseeded).unwrap().metrics;
    assert_ne!(a, c, "changing the seed did not change the metrics");
}

fn assert_close(actual: f64, golden: f64, what: &str) {
    let tolerance = golden.abs().max(1.0) * 1e-9;
    assert!(
        (actual - golden).abs() <= tolerance,
        "{what}: got {actual}, golden {golden} — a behavioural change reached \
         the simulator; if intentional, update the golden values in this test"
    );
}

fn assert_golden(actual: Metrics, golden: Metrics) {
    assert_eq!(actual.requests, golden.requests, "requests");
    assert_close(
        actual.traffic_reduction_ratio,
        golden.traffic_reduction_ratio,
        "traffic_reduction_ratio",
    );
    assert_close(
        actual.avg_service_delay_secs,
        golden.avg_service_delay_secs,
        "avg_service_delay_secs",
    );
    assert_close(
        actual.avg_stream_quality,
        golden.avg_stream_quality,
        "avg_stream_quality",
    );
    assert_close(
        actual.total_added_value,
        golden.total_added_value,
        "total_added_value",
    );
    assert_close(actual.hit_ratio, golden.hit_ratio, "hit_ratio");
    assert_close(
        actual.immediate_ratio,
        golden.immediate_ratio,
        "immediate_ratio",
    );
}

/// End-to-end golden regression: seeded workload → PathSet → CacheEngine →
/// simulator, asserted against checked-in metric values for two policies.
///
/// The scenario is `SimulationConfig::small()` (500 objects, 5,000
/// requests, constant bandwidth, seed 1) at a 5% cache. The golden values
/// were produced by this code; their exact magnitudes are not meaningful,
/// their *stability* is.
#[test]
fn golden_metrics_small_scenario() {
    let pb = run_simulation(&small(PolicyKind::PartialBandwidth, 0.05))
        .unwrap()
        .metrics;
    assert_golden(
        pb,
        Metrics {
            requests: 2500,
            traffic_reduction_ratio: 0.06756428265714427,
            avg_service_delay_secs: 1124.8637681579226,
            avg_stream_quality: 0.9037905439562554,
            total_added_value: 9829.267454113455,
            hit_ratio: 0.144,
            immediate_ratio: 0.78,
        },
    );

    let integral = run_simulation(&small(PolicyKind::IntegralFrequency, 0.05))
        .unwrap()
        .metrics;
    assert_golden(
        integral,
        Metrics {
            requests: 2500,
            traffic_reduction_ratio: 0.3380915058241122,
            avg_service_delay_secs: 2013.3189995663856,
            avg_stream_quality: 0.8758244325884198,
            total_added_value: 9633.25860709988,
            hit_ratio: 0.3632,
            immediate_ratio: 0.7624,
        },
    );
}

/// Session-mode goldens for the same small scenario: the discrete-event
/// core replays the identical workload as 5,000 playback-spanning sessions
/// under processor-shared bottlenecks. Any change to the event core, the
/// session arrival derivation, or the shared bandwidth/estimator/cache
/// layers shows up here — while the per-request goldens above pin that the
/// original path is untouched.
///
/// (Note the reversal against the per-request delay ordering: under
/// contention LRU's whole objects free more bottleneck bandwidth than PB's
/// minimal deficit prefixes, so LRU rebuffers *less* — contention is
/// exactly the effect the session mode adds.)
#[test]
fn golden_session_metrics_small_scenario() {
    let pb = run_sessions(&small(PolicyKind::PartialBandwidth, 0.05))
        .unwrap()
        .metrics;
    assert_eq!(pb.sessions, 5000);
    assert_eq!(pb.peak_concurrent_viewers, 2903);
    assert_eq!(pb.egress_bins_bytes.len(), 24);
    assert_close(pb.viewer_seconds, 15997017.782627294, "PB viewer_seconds");
    assert_close(
        pb.avg_concurrent_viewers,
        730.8745577830542,
        "PB avg_concurrent_viewers",
    );
    assert_close(pb.rebuffer_probability, 0.8496, "PB rebuffer_probability");
    assert_close(
        pb.avg_rebuffer_secs,
        2475.531715947582,
        "PB avg_rebuffer_secs",
    );
    assert_close(
        pb.traffic_reduction_ratio,
        0.06973689141298253,
        "PB traffic_reduction_ratio",
    );
    assert_close(
        pb.origin_bytes_total,
        714308903548.2557,
        "PB origin_bytes_total",
    );
    assert_close(pb.horizon_secs, 21887.501230239424, "PB horizon_secs");
    let binned: f64 = pb.egress_bins_bytes.iter().sum();
    assert_close(binned, pb.origin_bytes_total, "PB egress bins sum");

    let lru = run_sessions(&small(PolicyKind::Lru, 0.05)).unwrap().metrics;
    assert_eq!(lru.sessions, 5000);
    assert_close(lru.rebuffer_probability, 0.665, "LRU rebuffer_probability");
    assert_close(
        lru.avg_rebuffer_secs,
        2120.058232349771,
        "LRU avg_rebuffer_secs",
    );
    assert_close(
        lru.traffic_reduction_ratio,
        0.17941676651642335,
        "LRU traffic_reduction_ratio",
    );
    assert_close(
        lru.origin_bytes_total,
        630090459751.8009,
        "LRU origin_bytes_total",
    );

    // Paired workloads: the viewer curve is policy-independent (the cache
    // changes what sessions download, not when they watch).
    assert_eq!(pb.peak_concurrent_viewers, lru.peak_concurrent_viewers);
    assert_close(lru.viewer_seconds, pb.viewer_seconds, "viewer pairing");
}

/// Session-mode seeded determinism mirrors the per-request contract.
#[test]
fn session_mode_same_seed_is_byte_identical_and_seed_sensitive() {
    let config = small(PolicyKind::PartialBandwidth, 0.05);
    let a = run_sessions(&config).unwrap().metrics;
    let b = run_sessions(&config).unwrap().metrics;
    assert_eq!(a, b, "identical session configs diverged");
    assert_eq!(a.viewer_seconds.to_bits(), b.viewer_seconds.to_bits());
    assert_eq!(
        a.origin_bytes_total.to_bits(),
        b.origin_bytes_total.to_bits()
    );

    let mut reseeded = config;
    reseeded.seed += 1;
    let c = run_sessions(&reseeded).unwrap().metrics;
    assert_ne!(a, c, "changing the seed did not change the session metrics");
}

/// `Debug` form of `SessionWorker::new(small().with_cache_fraction(0.05), 7)
/// .run()`, captured on the commit before the session core went from one
/// completion event per member to one per path. `f64`'s `Debug` is its
/// shortest round-trip decimal, so string equality is bit equality: this
/// pins the whole run — every metric and every egress bin — not a
/// tolerance around it.
const GOLDEN_SESSION_RUN_HEALTHY: &str =
    "Ok(SessionRunResult { metrics: SessionMetrics { sessions: 5000, \
     viewer_seconds: 17887995.116060227, avg_concurrent_viewers: 1027.4813035423697, \
     peak_concurrent_viewers: 3267, rebuffer_probability: 0.844, \
     avg_rebuffer_secs: 2795.2986112868007, traffic_reduction_ratio: 0.07254352060412562, \
     origin_bytes_total: 796336174742.0035, egress_bins_bytes: [14242199489.177872, \
     25711799981.84984, 26770380169.21841, 28156804378.0023, 30471522934.593147, \
     30132771837.003197, 29678895367.51525, 23877896926.413277, 19369497480.185486, \
     16451302758.79521, 15283871665.004454, 13449130407.450106, 12312519235.441378, \
     11703693534.49245, 10900017663.110098, 10408368596.228737, 9956262173.275307, \
     9542148738.053532, 9026016406.659267, 8592020409.81989, 8138924395.631206, \
     7901223985.1598, 7589976227.292613, 416668929981.72833], \
     horizon_secs: 17409.557774325564, outage_secs: 0.0, masked_stall_secs: 0.0 }, \
     final_cache_used_bytes: 3957889149.266642, final_cached_objects: 39 })";

/// The same run with the outage model of
/// `worker_with_faults_is_deterministic_and_sees_outages` (MTBF 1200 s,
/// MTTR 120 s, residual 0.02).
const GOLDEN_SESSION_RUN_FAULTED: &str =
    "Ok(SessionRunResult { metrics: SessionMetrics { sessions: 5000, \
     viewer_seconds: 17887995.116060417, avg_concurrent_viewers: 1027.4813035423806, \
     peak_concurrent_viewers: 3267, rebuffer_probability: 0.8768, \
     avg_rebuffer_secs: 2849.9662412558228, traffic_reduction_ratio: 0.07254352060412562, \
     origin_bytes_total: 796336174742.0035, egress_bins_bytes: [13314342822.636261, \
     23659289591.47985, 25034797350.069305, 26683569888.208565, 28631510698.73854, \
     28568185406.434227, 28413844312.243736, 23379963836.575363, 19513957483.641422, \
     16282921645.802193, 14647249938.361046, 13322053058.618507, 12220150119.49327, \
     11434610756.197004, 10788053991.024078, 9939287662.48445, 9752253008.706049, \
     9024193853.770205, 8642157335.101316, 8363819977.80775, 8155689961.27858, \
     7890707228.81065, 7259634367.551325, 431413930447.04285], \
     horizon_secs: 17409.557774325564, outage_secs: 769753.9337987372, \
     masked_stall_secs: 306503.31161670526 }, final_cache_used_bytes: 3957889149.266642, \
     final_cached_objects: 39 })";

/// Bit-exact session-mode golden, healthy and under path outages.
#[test]
fn golden_session_run_fingerprints_are_bit_exact() {
    let healthy = SimulationConfig::small().with_cache_fraction(0.05);
    let mut faulted = healthy;
    faulted.path_faults = Some(PathFaultModel {
        mtbf_secs: 1_200.0,
        mttr_secs: 120.0,
        residual_capacity_fraction: 0.02,
    });
    assert_eq!(
        format!("{:?}", SessionWorker::new(healthy, 7).run()),
        GOLDEN_SESSION_RUN_HEALTHY
    );
    assert_eq!(
        format!("{:?}", SessionWorker::new(faulted, 7).run()),
        GOLDEN_SESSION_RUN_FAULTED
    );
}

/// The run of `GOLDEN_SESSION_RUN_HEALTHY` under AR(1) bandwidth drift
/// with measured-moderate variability (fig13's setting), captured once
/// the session mode sized each path's series by the last playback end
/// instead of the last arrival.
const GOLDEN_SESSION_RUN_AR1: &str =
    "Ok(SessionRunResult { metrics: SessionMetrics { sessions: 5000, \
     viewer_seconds: 17887995.116060242, avg_concurrent_viewers: 1027.4813035423706, \
     peak_concurrent_viewers: 3267, rebuffer_probability: 0.8526, \
     avg_rebuffer_secs: 2825.2101423041704, traffic_reduction_ratio: 0.07254352060412562, \
     origin_bytes_total: 796336174742.0035, egress_bins_bytes: [14081045409.823936, \
     25047132536.06826, 25874086059.126144, 26936066598.24044, 29268201754.2637, \
     29639841878.32966, 29466088991.81804, 24731896748.622524, 20423921223.364986, \
     17043958827.75724, 14624514786.101252, 13915207163.81479, 13224655535.986189, \
     12349567140.351606, 11426485811.704172, 11051225308.680117, 10273654979.780512, \
     9700572987.981636, 9400041290.504967, 8931438830.850653, 8146844349.071322, \
     7700340481.906071, 7430528565.759037, 415648857482.0773], \
     horizon_secs: 17409.557774325564, outage_secs: 0.0, masked_stall_secs: 0.0 }, \
     final_cache_used_bytes: 3957889149.266642, final_cached_objects: 39 })";

/// Bit-exact session-mode golden under AR(1) bandwidth.
#[test]
fn golden_session_run_under_ar1_is_bit_exact() {
    let config = SimulationConfig {
        variability: VariabilityKind::MeasuredModerate,
        bandwidth_model: BandwidthModel::Ar1,
        ..SimulationConfig::small()
    }
    .with_cache_fraction(0.05);
    assert_eq!(
        format!("{:?}", SessionWorker::new(config, 7).run()),
        GOLDEN_SESSION_RUN_AR1
    );
}

/// `Debug` form of `run_simulation` on `SimulationConfig::small()` at a 5 %
/// cache under AR(1) bandwidth drift with measured-moderate variability
/// (fig13's setting), one string per entry of `FIG13_ESTIMATORS` in order.
/// Like the session goldens above, string equality is bit equality: these
/// pin the AR(1) series, the passive estimators and the probe end to end.
const GOLDEN_AR1_RUNS: [&str; 4] = [
    "Ok(RunResult { metrics: Metrics { requests: 2500, traffic_reduction_ratio: \
     0.06756428265714427, avg_service_delay_secs: 1407.732227564378, avg_stream_quality: \
     0.8831886055278022, total_added_value: 8818.639697645314, hit_ratio: 0.144, \
     immediate_ratio: 0.6912 }, warmup_requests: 2500, final_cache_used_bytes: \
     3949416159.2585664, final_cached_objects: 34 })",
    "Ok(RunResult { metrics: Metrics { requests: 2500, traffic_reduction_ratio: \
     0.07588849157018333, avg_service_delay_secs: 1413.312323212896, avg_stream_quality: \
     0.8894076479152656, total_added_value: 9370.722341200772, hit_ratio: 0.154, \
     immediate_ratio: 0.7384 }, warmup_requests: 2500, final_cache_used_bytes: \
     3911427122.5774293, final_cached_objects: 32 })",
    "Ok(RunResult { metrics: Metrics { requests: 2500, traffic_reduction_ratio: \
     0.07635533816039612, avg_service_delay_secs: 1390.137526748207, avg_stream_quality: \
     0.8901537815531823, total_added_value: 9357.634787042334, hit_ratio: 0.1572, \
     immediate_ratio: 0.7376 }, warmup_requests: 2500, final_cache_used_bytes: \
     3957889149.266642, final_cached_objects: 32 })",
    "Ok(RunResult { metrics: Metrics { requests: 2500, traffic_reduction_ratio: \
     0.08078981827728489, avg_service_delay_secs: 1371.5832623717968, avg_stream_quality: \
     0.893090069559858, total_added_value: 9586.121677757137, hit_ratio: 0.1612, \
     immediate_ratio: 0.7632 }, warmup_requests: 2500, final_cache_used_bytes: \
     3956796599.546072, final_cached_objects: 33 })",
];

/// `Debug` form of `run_simulation` on `SimulationConfig::small()` at a 5 %
/// cache under i.i.d. bandwidth, once with NLANR-like and once with
/// measured-moderate variability: the two non-constant ratio streams the
/// figures run.
const GOLDEN_IID_RUNS: [&str; 2] = [
    "Ok(RunResult { metrics: Metrics { requests: 2500, traffic_reduction_ratio: \
     0.06756428265714427, avg_service_delay_secs: 3010.1567804294923, avg_stream_quality: \
     0.8440583528918459, total_added_value: 8214.434430884317, hit_ratio: 0.144, \
     immediate_ratio: 0.6444 }, warmup_requests: 2500, final_cache_used_bytes: \
     3949416159.2585664, final_cached_objects: 34 })",
    "Ok(RunResult { metrics: Metrics { requests: 2500, traffic_reduction_ratio: \
     0.06756428265714427, avg_service_delay_secs: 1382.4400150385554, avg_stream_quality: \
     0.8891189911616101, total_added_value: 9031.488676767689, hit_ratio: 0.144, \
     immediate_ratio: 0.7072 }, warmup_requests: 2500, final_cache_used_bytes: \
     3949416159.2585664, final_cached_objects: 34 })",
];

/// `Debug` form of the first 12 samples of `BandwidthTimeSeries::generate`
/// on each of fig4's three path configurations (120 KB/s mean, the
/// measured-path CoV, autocorrelation 0.9 / 0.8 / 0.7), drawn in order
/// from one `StdRng` seeded with 4 as fig4 does.
const GOLDEN_FIG4_SERIES: [&str; 3] = [
    "[116590.77398026727, 115678.25387305827, 116841.17627819451, 121661.6347526344, \
     124202.98778023767, 123404.94503725946, 120927.12977799002, 127046.17799924157, \
     135155.3844899552, 129906.14179520366, 123087.40015857216, 116073.58302040987]",
    "[118770.51113817215, 127806.30013920987, 137248.86450686716, 143528.33892647707, \
     153551.42061097, 139490.9201512382, 134698.06640488206, 99558.31114198038, \
     115443.9202126668, 120261.54560038306, 129875.55153139416, 101967.97436077065]",
    "[99389.67877429108, 77125.55101128244, 113292.00293680267, 133302.56883230226, \
     137149.91277114107, 154450.15845328, 160370.9957541502, 188311.9706240532, \
     126062.49131967383, 134762.49504876346, 96737.43277224872, 71404.03865029899]",
];

/// Bit-exact request-mode goldens under AR(1) drift with every fig13
/// estimator, and under the two variable i.i.d. ratio streams.
#[test]
fn golden_time_varying_and_estimator_runs_are_bit_exact() {
    for (estimator, golden) in FIG13_ESTIMATORS.into_iter().zip(GOLDEN_AR1_RUNS) {
        let config = SimulationConfig {
            variability: VariabilityKind::MeasuredModerate,
            bandwidth_model: BandwidthModel::Ar1,
            estimator,
            ..SimulationConfig::small()
        }
        .with_cache_fraction(0.05);
        assert_eq!(
            format!("{:?}", run_simulation(&config)),
            golden,
            "{}",
            estimator.label()
        );
    }
    let kinds = [
        VariabilityKind::NlanrLike,
        VariabilityKind::MeasuredModerate,
    ];
    for (variability, golden) in kinds.into_iter().zip(GOLDEN_IID_RUNS) {
        let config = SimulationConfig {
            variability,
            ..SimulationConfig::small()
        }
        .with_cache_fraction(0.05);
        assert_eq!(
            format!("{:?}", run_simulation(&config)),
            golden,
            "{}",
            variability.label()
        );
    }
}

/// Bit-exact AR(1) series on fig4's three measured-path configurations.
#[test]
fn golden_fig4_series_are_bit_exact() {
    let paths = [
        (VariabilityModel::measured_path_low(), 0.9),
        (VariabilityModel::measured_path_moderate(), 0.8),
        (VariabilityModel::measured_path_high(), 0.7),
    ];
    let mut rng = StdRng::seed_from_u64(4);
    for ((variability, autocorrelation), golden) in paths.into_iter().zip(GOLDEN_FIG4_SERIES) {
        let config = TimeSeriesConfig {
            mean_bps: 120_000.0,
            cov: variability.coefficient_of_variation(),
            autocorrelation,
        };
        let series = BandwidthTimeSeries::generate(&config, 12, &mut rng).unwrap();
        assert_eq!(format!("{:?}", series.samples_bps()), golden);
    }
}

/// Rate-weighted delay-reduction utility of an allocation:
/// `Σ λ_i · (d_i(0) − d_i(x_i))`, the objective the fractional-knapsack
/// optimum of Section 2.3 maximises.
fn total_utility(objects: &[OfflineObject], allocation: &[f64]) -> f64 {
    objects
        .iter()
        .zip(allocation)
        .map(|(o, &x)| {
            let none = o.meta.service_delay(o.bandwidth_bps, 0.0);
            let with = o.meta.service_delay(o.bandwidth_bps, x);
            o.arrival_rate * (none - with)
        })
        .sum()
}

fn to_meta(obj: &streamcache::workload::MediaObject) -> ObjectMeta {
    ObjectMeta::new(
        ObjectKey::new(obj.id.index() as u64),
        obj.duration_secs,
        obj.bitrate_bps,
        obj.value,
    )
}

/// On a small workload, the offline optimal allocation achieves at least
/// the total (delay-reduction) utility of every online policy, because any
/// online allocation is a feasible solution of the same fractional
/// knapsack.
#[test]
fn optimal_allocation_dominates_every_online_policy_on_total_utility() {
    let mut config = WorkloadConfig {
        seed: 17,
        ..WorkloadConfig::default()
    };
    config.catalog.objects = 200;
    config.trace.requests = 4_000;
    let workload = config.generate().unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let paths = PathSet::generate(
        200,
        &NlanrBandwidthModel::paper_default(),
        VariabilityModel::constant(),
        &mut rng,
    );
    let capacity = 0.04 * workload.catalog.total_bytes();
    let counts = workload.trace.request_counts(workload.catalog.len());
    let offline: Vec<OfflineObject> = workload
        .catalog
        .iter()
        .map(|o| {
            OfflineObject::new(
                to_meta(o),
                counts[o.id.index()] as f64,
                paths.mean_bps(o.id.index()),
            )
        })
        .collect();

    let optimal_alloc = optimal_partial_allocation(&offline, capacity).unwrap();
    let optimal_utility = total_utility(&offline, &optimal_alloc);
    assert!(
        optimal_utility > 0.0,
        "optimal allocation should add utility"
    );

    for kind in [
        PolicyKind::PartialBandwidth,
        PolicyKind::IntegralBandwidth,
        PolicyKind::IntegralFrequency,
        PolicyKind::HybridPartialBandwidth { e: 0.5 },
        PolicyKind::Lru,
    ] {
        let mut cache = CacheEngine::new(capacity, kind.build()).unwrap();
        for request in workload.trace.iter() {
            let obj = workload.catalog.object(request.object);
            cache.on_access(&to_meta(obj), paths.mean_bps(obj.id.index()));
        }
        let online_alloc: Vec<f64> = workload
            .catalog
            .iter()
            .map(|o| cache.cached_bytes(ObjectKey::new(o.id.index() as u64)))
            .collect();
        let online_utility = total_utility(&offline, &online_alloc);
        assert!(
            optimal_utility + 1e-6 >= online_utility,
            "offline optimum {optimal_utility} beaten by online {} ({online_utility})",
            kind.label()
        );
        // Cross-check through the delay objective as well.
        let optimal_delay = average_service_delay(&offline, &optimal_alloc).unwrap();
        let online_delay = average_service_delay(&offline, &online_alloc).unwrap();
        assert!(optimal_delay <= online_delay + 1e-6);
    }
}

/// The paper's headline claim at small cache sizes: network-aware partial
/// caching (PB) accelerates delivery — its average startup delay is well
/// below the network-oblivious LRU baseline for the same cache budget.
///
/// (On the *traffic-reduction* axis the ordering is reversed by design:
/// PB stores only minimal deficit prefixes, so integral policies such as
/// LRU/IF always reduce more bytes — the seed's figure tests pin that
/// ordering. Delay is the metric the paper optimises and the one PB wins.)
#[test]
fn pb_beats_lru_on_service_delay_at_small_cache_sizes() {
    for fraction in [0.01, 0.02, 0.05] {
        let pb = run_simulation(&small(PolicyKind::PartialBandwidth, fraction))
            .unwrap()
            .metrics;
        let lru = run_simulation(&small(PolicyKind::Lru, fraction))
            .unwrap()
            .metrics;
        assert!(
            pb.avg_service_delay_secs < lru.avg_service_delay_secs,
            "fraction {fraction}: PB delay {} should beat LRU delay {}",
            pb.avg_service_delay_secs,
            lru.avg_service_delay_secs
        );
        // The acceleration is substantial, not marginal: at least 20% less
        // average startup delay for the same cache budget.
        assert!(
            pb.avg_service_delay_secs < 0.8 * lru.avg_service_delay_secs,
            "fraction {fraction}: PB {} vs LRU {} is not a clear win",
            pb.avg_service_delay_secs,
            lru.avg_service_delay_secs
        );
        // And PB buys more stream quality, too.
        assert!(pb.avg_stream_quality >= lru.avg_stream_quality - 1e-9);
    }
}
