//! Tests of the proxy as a whole — its configuration, counters and stages
//! — and the test doubles the stage modules' own tests share.

use super::*;
use crate::proxy::relay::RING_BYTES;
use std::io::{BufReader, IoSlice, Read, Write};
use std::time::Duration;

/// A client that records every write call it receives as one entry, and
/// takes at most `first` bytes on the first of them.
pub(super) struct Wire {
    first: usize,
    pub(super) writes: Vec<Vec<u8>>,
}

impl Wire {
    pub(super) fn taking(first: usize) -> Self {
        Wire {
            first,
            writes: Vec::new(),
        }
    }
}

impl Write for Wire {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        let room = std::mem::replace(&mut self.first, usize::MAX);
        let mut call = Vec::new();
        for buf in bufs {
            let take = buf.len().min(room - call.len());
            call.extend_from_slice(&buf[..take]);
        }
        let len = call.len();
        self.writes.push(call);
        Ok(len)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

pub(super) fn clip_bytes(len: usize) -> Vec<u8> {
    let mut payload = vec![0u8; len];
    crate::content::fill_content("clip", 0, &mut payload);
    payload
}

#[test]
fn keys_are_stable_and_distinct() {
    assert_eq!(key_for("movie-1"), key_for("movie-1"));
    assert_ne!(key_for("movie-1"), key_for("movie-2"));
    // Pairs the Fx mix maps to one key.
    assert_ne!(key_for("clip-1619"), key_for("clip-1692"));
    assert_ne!(key_for("clip-aaaclip-bbb"), key_for("c2240331i,qmngqH"));
}

#[test]
fn proxy_config_defaults() {
    let cfg = ProxyConfig::new("127.0.0.1:9".parse().unwrap(), 1e6);
    assert_eq!(cfg.policy, PolicyKind::PartialBandwidth);
    const { assert!(ASSUMED_ORIGIN_BPS > 0.0) };
    assert!(cfg.worker_threads >= 1);
    assert!(!cfg.connect_timeout.is_zero());
    assert!(!cfg.origin_read_timeout.is_zero());
    assert!(cfg.retry.max_attempts >= 1);
    assert!(cfg.retry.deadline >= cfg.retry.max_backoff);
    assert!(cfg.breaker.failure_threshold > 0, "breaker on by default");
    // Overload knobs default permissive: a generous queue deadline and
    // write timeout, no in-flight cap, no per-client pacing.
    assert!(!cfg.queue_deadline.is_zero());
    assert_eq!(cfg.max_in_flight, 0);
    assert!(!cfg.client_write_timeout.is_zero());
    assert_eq!(cfg.client_rate_limit_bps, 0.0);
}

#[test]
fn stats_json_is_well_formed_and_complete() {
    let stats = ProxyStats {
        requests: 7,
        shed_requests: 3,
        queued_requests: 5,
        peak_queue_depth: 11,
        client_timeouts: 2,
        spliced_bytes: 13,
        estimated_origin_bps: 64_000.0,
        ..ProxyStats::default()
    };
    let json = stats.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"requests\": 7"));
    assert!(json.contains("\"shed_requests\": 3"));
    assert!(json.contains("\"queued_requests\": 5"));
    assert!(json.contains("\"peak_queue_depth\": 11"));
    assert!(json.contains("\"client_timeouts\": 2"));
    assert!(json.contains("\"spliced_bytes\": 13"));
    assert!(json.contains("\"queue_wait_micros\": 0"));
    assert!(json.contains("\"estimated_origin_bps\": 64000"));
    // One line, no trailing newline: the verb handler appends it.
    assert!(!json.contains('\n'));
}

/// A client that leaves mid-tail must not leave the worker holding what
/// the relay retained of the object: under IF every relayed byte is
/// kept, and the origin holds its last 3 MiB back until the client has
/// read 256 KiB and gone, so the relay fails with far more than a ring's
/// worth retained.
#[test]
fn a_failed_relay_releases_the_retention_buffer() {
    const SIZE: usize = 4 << 20;
    const FIRST: usize = 1 << 20;
    let origin = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut config = ProxyConfig::new(origin.local_addr().unwrap(), 1e12);
    config.policy = PolicyKind::IntegralFrequency;
    let proxy = CachingProxy::start(config).unwrap();
    let (gone, client_left) = std::sync::mpsc::channel();
    let origin = std::thread::spawn(move || {
        let (mut conn, _) = origin.accept().unwrap();
        crate::protocol::read_request(&mut BufReader::new(&conn)).unwrap();
        let object = clip_bytes(SIZE);
        conn.write_all(format!("OK {SIZE} 96000\n").as_bytes())
            .unwrap();
        conn.write_all(&object[..FIRST]).unwrap();
        client_left.recv().unwrap();
        let _ = conn.write_all(&object[FIRST..]);
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (served, _) = listener.accept().unwrap();
    client.write_all(b"GET clip 0\n").unwrap();
    let reader = std::thread::spawn(move || {
        let mut some = vec![0u8; 256 << 10];
        client.read_exact(&mut some).unwrap();
        drop(client);
        gone.send(()).unwrap();
    });

    let mut scratch = WorkerScratch::new();
    handle_client(served, &proxy.state, &mut scratch);
    reader.join().unwrap();
    origin.join().unwrap();
    assert_eq!(proxy.stats().requests, 0, "the relay did not fail");
    assert!(
        scratch.retained.capacity() <= RING_BYTES,
        "the worker still holds {} B",
        scratch.retained.capacity()
    );
}

#[test]
fn nan_client_rate_limit_is_rejected() {
    let mut cfg = ProxyConfig::new("127.0.0.1:9".parse().unwrap(), 1e6);
    cfg.client_rate_limit_bps = f64::NAN;
    assert!(CachingProxy::start(cfg).is_err());
}

#[test]
fn nan_policy_estimator_is_rejected() {
    for policy in [
        PolicyKind::HybridPartialBandwidth { e: f64::NAN },
        PolicyKind::PartialBandwidthValue { e: f64::NAN },
    ] {
        let mut cfg = ProxyConfig::new("127.0.0.1:9".parse().unwrap(), 1e6);
        cfg.policy = policy;
        assert!(matches!(
            CachingProxy::start(cfg),
            Err(ProxyError::InvalidConfig("policy", why)) if why.contains("`e`")
        ));
    }
}

#[test]
fn value_policies_are_refused_and_the_others_start() {
    let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
    for policy in [
        PolicyKind::PartialBandwidthValue { e: 1.0 },
        PolicyKind::PartialBandwidthValue { e: 0.5 },
        PolicyKind::IntegralBandwidthValue,
    ] {
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.policy = policy;
        assert!(
            matches!(
                CachingProxy::start(cfg),
                Err(ProxyError::InvalidConfig("policy", why)) if why.contains("value 0")
            ),
            "{} must be refused",
            policy.label()
        );
    }
    for policy in [
        PolicyKind::PartialBandwidth,
        PolicyKind::HybridPartialBandwidth { e: 0.5 },
        PolicyKind::IntegralBandwidth,
        PolicyKind::IntegralFrequency,
        PolicyKind::Lru,
    ] {
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.policy = policy;
        cfg.worker_threads = 1;
        assert!(
            CachingProxy::start(cfg).is_ok(),
            "{} must start",
            policy.label()
        );
    }
}

#[test]
fn engine_shards_default_to_worker_count() {
    let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
    for workers in [3, 1] {
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.worker_threads = workers;
        let proxy = CachingProxy::start(cfg).unwrap();
        assert_eq!(proxy.engine_shards(), workers);
    }
}

#[test]
fn invalid_configs_are_rejected() {
    let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
    assert!(CachingProxy::start(ProxyConfig::new(addr, -1.0)).is_err());
    let mut cfg = ProxyConfig::new(addr, 1e6);
    cfg.worker_threads = 0;
    assert!(CachingProxy::start(cfg).is_err());
    let mut cfg = ProxyConfig::new(addr, 1e6);
    cfg.connect_timeout = Duration::ZERO;
    assert!(CachingProxy::start(cfg).is_err());
    let mut cfg = ProxyConfig::new(addr, 1e6);
    cfg.origin_read_timeout = Duration::ZERO;
    assert!(CachingProxy::start(cfg).is_err());
    let mut cfg = ProxyConfig::new(addr, 1e6);
    cfg.retry.max_attempts = 0;
    assert!(CachingProxy::start(cfg).is_err());
    let mut cfg = ProxyConfig::new(addr, 1e6);
    cfg.retry.deadline = Duration::ZERO;
    assert!(CachingProxy::start(cfg).is_err());
    // The breaker has no off state.
    let mut cfg = ProxyConfig::new(addr, 1e6);
    cfg.breaker.failure_threshold = 0;
    assert!(matches!(
        CachingProxy::start(cfg),
        Err(ProxyError::InvalidConfig("breaker.failure_threshold", _))
    ));
}

#[test]
fn plan_covers_every_lookup_and_origin_outcome() {
    use OriginAnswer::{Stream, Unavailable, Unknown};
    // What the shard's record says, and an origin header that
    // deliberately disagrees: a known object is served under the
    // metadata the shard holds.
    let record = Header {
        size: 1_000,
        bitrate_bps: 8e3,
    };
    let origin = Header {
        size: 2_000,
        bitrate_bps: 16e3,
    };
    let known = Some(record);
    let ok = |header: Header, degraded| Response::Ok {
        size: header.size,
        bitrate_bps: header.bitrate_bps,
        degraded,
    };
    let unknown = Response::Err("unknown object".into());
    let down = Response::Err("origin unavailable".into());
    // (metadata known?, cached bytes, origin outcome — `None` when the
    // origin must not be consulted) → the header on the wire.
    let rows = [
        (known, 1_000, None, ok(record, false)),
        (known, 1_001, None, ok(record, false)),
        (known, 400, Some(Stream(origin)), ok(record, false)),
        (known, 0, Some(Stream(origin)), ok(record, false)),
        (known, 400, Some(Unknown), unknown.clone()),
        (known, 400, Some(Unavailable), ok(record, true)),
        (known, 0, Some(Unavailable), down.clone()),
        (None, 0, Some(Stream(origin)), ok(origin, false)),
        (None, 0, Some(Unknown), unknown),
        (None, 0, Some(Unavailable), down),
    ];
    for (known, cached_len, answer, expected) in rows {
        let row = format!("known {known:?}, cached {cached_len}, origin {answer:?}");
        let answered = plan(known, cached_len, |offset| {
            assert_eq!(offset, cached_len, "{row}: tail starts after the prefix");
            answer.unwrap_or_else(|| panic!("{row}: origin consulted"))
        });
        assert_eq!(answered, expected, "{row}");
    }
}

/// A one-shard proxy whose estimator reads `estimate_bps`.
fn proxy_at(policy: PolicyKind, capacity: f64, estimate_bps: f64) -> CachingProxy {
    let mut cfg = ProxyConfig::new("127.0.0.1:9".parse().unwrap(), capacity);
    cfg.policy = policy;
    cfg.worker_threads = 1;
    let proxy = CachingProxy::start(cfg).unwrap();
    lock(&proxy.state.estimator).observe_transfer(0, estimate_bps);
    assert_eq!(proxy.state.estimate(), estimate_bps);
    proxy
}

fn job<'a>(name: &'a str, key: u64, meta: (f64, f64), prefix: &'a [u8]) -> Job<'a> {
    let (duration_secs, bitrate_bps) = meta;
    Job {
        name,
        meta: ObjectMeta::new(ObjectKey::new(key), duration_secs, bitrate_bps, 0.0),
        size: (duration_secs * bitrate_bps) as u64,
        prefix,
        keep: 0,
    }
}

#[test]
fn decide_keeps_the_grant_minus_the_prefix_served() {
    const FILM: (f64, f64) = (10.0, 100_000.0);
    // PB at 40 kB/s wants (100 - 40) kB/s × 10 s = 600 000 B of a
    // 1 000 000 B object: all of it is tail when nothing is stored ...
    let proxy = proxy_at(PolicyKind::PartialBandwidth, 1e7, 40_000.0);
    assert_eq!(decide(&proxy.state, &job("film", 1, FILM, &[])), 600_000);
    // ... and only the rest of it behind a 500 000 B prefix.
    let stored = vec![0u8; 500_000];
    assert_eq!(
        decide(&proxy.state, &job("film", 1, FILM, &stored)),
        100_000
    );
    // Abundant bandwidth: nothing worth keeping.
    let proxy = proxy_at(PolicyKind::PartialBandwidth, 1e7, 1e9);
    assert_eq!(decide(&proxy.state, &job("film", 1, FILM, &[])), 0);
    // IF wants the whole object, but the capacity grants none of it.
    let proxy = proxy_at(PolicyKind::IntegralFrequency, 1_000.0, 40_000.0);
    assert_eq!(decide(&proxy.state, &job("film", 1, FILM, &[])), 0);
}

#[test]
fn a_slot_belongs_to_the_first_name_admitted_under_its_key() {
    let proxy = proxy_at(PolicyKind::IntegralFrequency, 1e6, 1e9);
    let state = &*proxy.state;
    // Two names forged onto one key, as a 64-bit collision would.
    let key = ObjectKey::new(7);
    let a = job("a", 7, (1e-3, 1e6), &[]);
    assert_eq!(decide(state, &a), 1_000);
    store(state, &a, &[1u8; 1_000]);
    let found = lookup(state, key, "a");
    assert_eq!(found.known.map(|h| h.size), Some(1_000));
    assert_eq!(&found.cached[..], &[1u8; 1_000][..]);
    assert!(found.ours);

    // The other name sees nothing of the record, so its request skips
    // decide; one that raced past lookup keeps nothing, so it never
    // reaches store, and leaves the record alone.
    let b = lookup(state, key, "b");
    assert!(!b.ours);
    assert_eq!(b.known, None);
    assert!(b.cached.is_empty());
    assert_eq!(decide(state, &job("b", 7, (3e-3, 1e6), &[])), 0);
    let found = lookup(state, key, "a");
    assert_eq!(found.known.map(|h| h.size), Some(1_000));
    assert_eq!(&found.cached[..], &[1u8; 1_000][..]);
    let stats = proxy.stats();
    assert_eq!((stats.cached_objects, stats.cached_bytes), (1, 1_000));
}
