//! Quickstart: how network-aware partial caching accelerates one stream.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use streamcache::cache::policy::PolicyKind;
use streamcache::cache::{CacheEngine, ObjectKey, ObjectMeta};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 30-minute clip encoded at 48 KB/s (≈ 86 MB), whose origin server is
    // reachable at only 16 KB/s — a third of the required rate.
    let clip = ObjectMeta::new(ObjectKey::new(1), 1_800.0, 48_000.0, 0.0);
    let bandwidth = 16_000.0;

    println!("object size        : {:>10.1} MB", clip.size_bytes() / 1e6);
    println!("bit-rate           : {:>10.1} KB/s", clip.bitrate_bps / 1e3);
    println!("path bandwidth     : {:>10.1} KB/s", bandwidth / 1e3);
    println!(
        "delay without cache: {:>10.1} s",
        clip.service_delay(bandwidth, 0.0)
    );
    println!(
        "quality w/o cache  : {:>10.2}",
        clip.quality(bandwidth, 0.0)
    );
    println!();

    // A partial-caching (PB) proxy stores exactly the bandwidth deficit.
    let mut pb = CacheEngine::new(200e6, PolicyKind::PartialBandwidth)?;
    pb.on_access(&clip, bandwidth);
    let cached = pb.cached_bytes(clip.key);
    println!("PB cached prefix   : {:>10.1} MB", cached / 1e6);
    println!(
        "delay with PB cache: {:>10.1} s",
        clip.service_delay(bandwidth, cached)
    );
    println!(
        "quality with PB    : {:>10.2}",
        clip.quality(bandwidth, cached)
    );
    println!();

    // A frequency-only (IF) cache of the same size would have stored the
    // whole object — or, with less space than the object, nothing at all.
    let mut integral = CacheEngine::new(50e6, PolicyKind::IntegralFrequency)?;
    integral.on_access(&clip, bandwidth);
    println!(
        "IF (50 MB cache)   : {:>10.1} MB cached — integral caching cannot help here",
        integral.cached_bytes(clip.key) / 1e6
    );
    let mut partial_small = CacheEngine::new(50e6, PolicyKind::PartialBandwidth)?;
    partial_small.on_access(&clip, bandwidth);
    let small_prefix = partial_small.cached_bytes(clip.key);
    println!(
        "PB (50 MB cache)   : {:>10.1} MB cached, delay {:.1} s",
        small_prefix / 1e6,
        clip.service_delay(bandwidth, small_prefix)
    );
    Ok(())
}
