//! Bit-exact golden of the session core at the size the `sim_sessions`
//! benchmark workload runs it.
//!
//! `determinism_and_golden.rs` pins one small session run; the benchmark's
//! traces are larger (8 000 sessions over the quick-scale catalog), crowd
//! more sessions onto the popular paths and so reach re-division shapes the
//! small run does not. This file pins the `Debug` form of the four
//! `SessionWorker::run()` results of one benchmark pass — PB at cache
//! fraction 0.05, seeds 1–4 — by their FNV-1a hashes, so a change to the
//! session core that moves any bit of any statistic fails here.

use sc_cache::policy::PolicyKind;
use sc_sim::experiments::ExperimentScale;
use sc_sim::{SessionWorker, SharedWorkload, SimulationConfig};
use std::sync::Arc;

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The benchmark's session configuration: the quick scale's catalog, two
/// fifths of its sessions, PB at cache fraction 0.05.
fn benchmark_config() -> SimulationConfig {
    let mut config = SimulationConfig {
        policy: PolicyKind::PartialBandwidth,
        seed: 1,
        ..ExperimentScale::Quick.base_config()
    }
    .with_cache_fraction(0.05);
    config.workload.trace.requests = config.workload.trace.requests * 2 / 5;
    config
}

/// FNV-1a of `format!("{:?}", SessionWorker::run())` for seeds 1–4.
const GOLDEN_RUN_HASHES: [u64; 4] = [
    0xf8a1_1724_8459_4c1b,
    0x5a31_5753_e912_ef47,
    0x2e07_0467_1563_cd4f,
    0xb77f_569e_a465_1da7,
];

#[test]
fn benchmark_sized_session_runs_are_bit_exact() {
    let config = benchmark_config();
    let hashes: Vec<u64> = (1..=4)
        .map(|seed| {
            let workload = SharedWorkload::generate(&config.workload, seed)
                .expect("a valid workload configuration");
            let run = SessionWorker::with_workload(config, seed, Arc::new(workload)).run();
            let sessions = run.as_ref().map(|r| r.metrics.sessions);
            assert_eq!(sessions, Ok(8_000), "seed {seed}");
            fnv1a(&format!("{run:?}"))
        })
        .collect();
    assert_eq!(hashes, GOLDEN_RUN_HASHES, "{hashes:#018x?}");
}
