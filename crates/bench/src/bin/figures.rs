//! One driver for the paper's evaluation: `figures <id>` regenerates Table 1
//! (`table1`), one of Figures 2–12 (`fig2` … `fig12`) or one of the figures
//! beyond the paper (`fig13`, `fig_sessions`, `fig_faults`); `figures` alone
//! or `figures list` prints the ids.
//!
//! Figures that run the simulator take `--scale <paper|quick|test>`
//! (default quick); `fig7`, `fig8` and `fig13` also take
//! `--bandwidth <iid|ar1>` and then emit under a suffixed id (`fig7_ar1`,
//! `fig13_iid`) so both variants can sit side by side under `results/`. An
//! unknown id, an option the figure does not take and a bad or missing value
//! all exit with status 2 and list what is accepted.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sc_bench::{
    bandwidth_model_from_args, emit_timed, peak_rss_note, scale_from_args, FigureMetrics,
};
use sc_netmodel::{
    BandwidthTimeSeries, Histogram, NlanrBandwidthModel, TimeSeriesConfig, VariabilityModel,
    BYTES_PER_KB,
};
use sc_sim::experiments::{self, ExperimentScale};
use sc_sim::{BandwidthModel, FigureResult, SimError};
use std::time::Instant;

type Run = fn() -> Result<(), SimError>;

const NONE: &[&str] = &[];
const SCALE: &[&str] = &["--scale"];
const BOTH: &[&str] = &["--scale", "--bandwidth"];

/// Every figure: its id, the options it takes, how to run it.
const FIGURES: &[(&str, &[&str], Run)] = &[
    ("table1", SCALE, table1),
    ("fig2", NONE, fig2),
    ("fig3", NONE, fig3),
    ("fig4", NONE, fig4),
    ("fig5", SCALE, || at_scale(experiments::fig5)),
    ("fig6", SCALE, || at_scale(experiments::fig6)),
    ("fig7", BOTH, || {
        let model = bandwidth_model_from_args(BandwidthModel::Iid);
        with_bandwidth(experiments::fig7, model)
    }),
    ("fig8", BOTH, || {
        let model = bandwidth_model_from_args(BandwidthModel::Iid);
        with_bandwidth(experiments::fig8, model)
    }),
    ("fig9", SCALE, || at_scale(experiments::fig9)),
    ("fig10", SCALE, || at_scale(experiments::fig10)),
    ("fig11", SCALE, || at_scale(experiments::fig11)),
    ("fig12", SCALE, || at_scale(experiments::fig12)),
    // Unlike fig7/fig8, drift is this figure's point: AR(1) is the default
    // and `--bandwidth iid` selects the no-drift control.
    ("fig13", BOTH, || {
        let model = bandwidth_model_from_args(BandwidthModel::Ar1);
        with_bandwidth(experiments::fig13, model)
    }),
    // The session-mode figures, replayed through the discrete-event core.
    ("fig_sessions", SCALE, || {
        at_scale(experiments::fig_sessions)
    }),
    ("fig_faults", SCALE, || at_scale(experiments::fig_faults)),
];

fn main() -> Result<(), SimError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(id) = args.first().filter(|id| *id != "list") else {
        for (id, ..) in FIGURES {
            println!("{id}");
        }
        return Ok(());
    };
    let Some(&(_, takes, run)) = FIGURES.iter().find(|(known, ..)| known == id) else {
        let ids: Vec<&str> = FIGURES.iter().map(|&(id, ..)| id).collect();
        usage_error(&format!(
            "unknown figure `{id}` (accepted: {})",
            ids.join(", ")
        ));
    };
    // Options are name–value pairs; `sc_bench` checks the values.
    for option in args[1..].iter().step_by(2) {
        if !takes.contains(&option.as_str()) {
            let accepted = if takes.is_empty() {
                "no options".to_string()
            } else {
                takes.join(", ")
            };
            usage_error(&format!(
                "`{id}` does not take `{option}` (accepted: {accepted})"
            ));
        }
    }
    run()
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// One experiment at the requested scale: a per-request figure (5, 6,
/// 9–12) or a session-mode one.
fn at_scale<M: FigureMetrics>(
    figure: fn(ExperimentScale) -> Result<FigureResult<M>, SimError>,
) -> Result<(), SimError> {
    let scale = scale_from_args();
    let start = Instant::now();
    let figure = figure(scale)?;
    emit_timed(&figure, start.elapsed());
    println!("(scale: {scale:?})");
    Ok(())
}

/// Figures 7, 8 and 13: per-request experiments that also take the
/// bandwidth model `--bandwidth` selected.
fn with_bandwidth(
    figure: fn(ExperimentScale, BandwidthModel) -> Result<FigureResult, SimError>,
    model: BandwidthModel,
) -> Result<(), SimError> {
    let scale = scale_from_args();
    let start = Instant::now();
    let figure = figure(scale, model)?;
    emit_timed(&figure, start.elapsed());
    println!("(scale: {scale:?}, bandwidth model: {})", model.label());
    Ok(())
}

/// Table 1: characteristics of the synthetic workload.
fn table1() -> Result<(), SimError> {
    let scale = scale_from_args();
    let start = Instant::now();
    let table = experiments::table1(scale)?;
    let info = sc_bench::RunInfo::from_elapsed(start.elapsed());
    println!("{table}");
    println!("(scale: {scale:?}; paper values: 5,000 objects, 100,000 requests, 48 KB/s, ~790 GB)");
    println!(
        "(wall clock: {:.3} s; SC_SIM_THREADS resolves to {} threads{})",
        info.wall_clock_secs,
        info.threads,
        peak_rss_note()
    );
    Ok(())
}

/// Figure 2: the base bandwidth distribution (histogram and CDF) of the
/// NLANR-like model, using 4 KB/s bins as in the paper.
fn fig2() -> Result<(), SimError> {
    let start = Instant::now();
    let samples: usize = 10_000;
    let model = NlanrBandwidthModel::paper_default();
    let mut rng = StdRng::seed_from_u64(2);
    let kbps: Vec<f64> = model
        .sample_n_bps(&mut rng, samples)
        .iter()
        .map(|b| b / BYTES_PER_KB)
        .collect();
    let hist = Histogram::from_samples(4.0, 125, &kbps);
    let cdf = hist.cumulative();

    println!("# fig2 — Internet bandwidth distribution (synthetic NLANR-like model)");
    println!("{:>12} {:>10} {:>10}", "KB/s (bin)", "samples", "CDF");
    for (i, cum) in cdf.iter().enumerate() {
        if hist.count(i) > 0 || i % 5 == 0 {
            println!(
                "{:>12.0} {:>10} {:>10.4}",
                hist.bin_start(i),
                hist.count(i),
                cum
            );
        }
    }
    println!();
    println!(
        "landmarks: {:.1}% below 50 KB/s (paper: 37%), {:.1}% below 100 KB/s (paper: 56%)",
        100.0 * hist.fraction_below(50.0),
        100.0 * hist.fraction_below(100.0)
    );
    println!(
        "(wall clock: {:.3} s{})",
        start.elapsed().as_secs_f64(),
        peak_rss_note()
    );
    Ok(())
}

/// Figure 3: the sample-to-mean bandwidth ratio distribution of the
/// high-variability (NLANR-log-like) model.
fn fig3() -> Result<(), SimError> {
    let start = Instant::now();
    let samples = 10_000;
    let model = VariabilityModel::nlanr_like();
    let mut rng = StdRng::seed_from_u64(3);
    let ratios: Vec<f64> = (0..samples).map(|_| model.sample_ratio(&mut rng)).collect();
    let hist = Histogram::from_samples(0.1, 30, &ratios);
    let cdf = hist.cumulative();

    println!("# fig3 — Variation of bandwidth (sample-to-mean ratio, NLANR-like model)");
    println!("{:>10} {:>10} {:>10}", "ratio bin", "samples", "CDF");
    for (i, cum) in cdf.iter().enumerate() {
        println!(
            "{:>10.2} {:>10} {:>10.4}",
            hist.bin_start(i),
            hist.count(i),
            cum
        );
    }
    let in_band = hist.fraction_below(1.5) - hist.fraction_below(0.5);
    println!();
    println!(
        "mass in [0.5, 1.5]x mean: {:.1}% (paper: ~70%); coefficient of variation: {:.2}",
        100.0 * in_band,
        model.coefficient_of_variation()
    );
    println!(
        "(wall clock: {:.3} s{})",
        start.elapsed().as_secs_f64(),
        peak_rss_note()
    );
    Ok(())
}

/// Figure 4: bandwidth evolution of three measured-path models (low /
/// moderate / high variability) and their sample-to-mean ratio histograms.
/// One bandwidth sample every four minutes over ~40 hours, as in the
/// paper's measurements.
fn fig4() -> Result<(), SimError> {
    let start = Instant::now();
    let paths = [
        (
            "INRIA-like (low)",
            VariabilityModel::measured_path_low(),
            0.9,
        ),
        (
            "Taiwan-like (moderate)",
            VariabilityModel::measured_path_moderate(),
            0.8,
        ),
        (
            "HongKong-like (high)",
            VariabilityModel::measured_path_high(),
            0.7,
        ),
    ];
    println!("# fig4 — Bandwidth variation of synthetic measured paths");
    let mut rng = StdRng::seed_from_u64(4);
    for (name, variability, autocorrelation) in paths {
        // 600 samples × 4 minutes = 40 hours.
        let cfg = TimeSeriesConfig {
            mean_bps: 120_000.0,
            cov: variability.coefficient_of_variation(),
            autocorrelation,
        };
        let ts = BandwidthTimeSeries::generate(&cfg, 600, &mut rng)
            .expect("the three fig4 path configurations are valid");
        let ratios = ts.sample_to_mean_ratios();
        let hist = Histogram::from_samples(0.1, 30, &ratios);
        let summary = sc_netmodel::Summary::of(ts.samples_bps()).unwrap();
        println!();
        println!("## {name}");
        println!(
            "duration {:.0} h, mean {:.1} KB/s, CoV {:.3}, min {:.1}, max {:.1} KB/s",
            ts.duration_hours(),
            summary.mean / 1e3,
            summary.cov,
            summary.min / 1e3,
            summary.max / 1e3
        );
        println!("time series (KB/s, one value per 2 hours):");
        let step = ts.len() / 20;
        let series: Vec<String> = ts
            .samples_bps()
            .iter()
            .step_by(step.max(1))
            .map(|b| format!("{:.0}", b / 1e3))
            .collect();
        println!("  {}", series.join(" "));
        println!("sample-to-mean ratio histogram (bin width 0.1):");
        let bars: Vec<String> = (0..hist.bins())
            .filter(|&i| hist.count(i) > 0)
            .map(|i| format!("{:.1}:{}", hist.bin_start(i), hist.count(i)))
            .collect();
        println!("  {}", bars.join(" "));
    }
    println!();
    println!("paper observation reproduced: all measured paths vary far less than the");
    println!("NLANR-log model of fig3 (compare the CoV values above with fig3's).");
    println!(
        "(wall clock: {:.3} s{})",
        start.elapsed().as_secs_f64(),
        peak_rss_note()
    );
    Ok(())
}
