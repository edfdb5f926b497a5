//! A rate-limited origin streaming server, with optional deterministic
//! fault injection (see [`crate::fault`]).

use crate::content::fill_content;
use crate::error::ProxyError;
use crate::fault::{FaultAction, FaultPlan};
use crate::protocol::{read_request, write_response, Response};
use crate::ratelimit::RateLimiter;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Static description of an object hosted by an origin server.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectSpec {
    /// Object name (the key clients request).
    pub name: String,
    /// Total size in bytes.
    pub size_bytes: u64,
    /// CBR encoding rate in bytes per second.
    pub bitrate_bps: f64,
}

impl ObjectSpec {
    /// Creates an object specification.
    pub fn new(name: impl Into<String>, size_bytes: u64, bitrate_bps: f64) -> Self {
        ObjectSpec {
            name: name.into(),
            size_bytes,
            bitrate_bps,
        }
    }

    /// Playback duration implied by size and bit-rate.
    pub fn duration_secs(&self) -> f64 {
        self.size_bytes as f64 / self.bitrate_bps
    }
}

/// Configuration of an origin server.
#[derive(Debug, Clone)]
pub struct OriginConfig {
    /// The objects this origin hosts.
    pub objects: Vec<ObjectSpec>,
    /// Per-connection throughput cap in bytes per second, emulating the
    /// constrained cache↔origin path (0 disables the cap).
    pub rate_limit_bps: f64,
}

/// A running origin server (one thread per connection).
///
/// The server is shut down and joined when dropped.
#[derive(Debug)]
pub struct OriginServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    state: Arc<OriginState>,
}

#[derive(Debug)]
struct OriginState {
    objects: HashMap<String, ObjectSpec>,
    rate_limit_bps: f64,
    faults: FaultPlan,
}

impl OriginServer {
    /// Binds to an ephemeral localhost port and starts accepting
    /// connections.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::Io`] if binding fails or
    /// [`ProxyError::InvalidConfig`] if an object has a non-positive size
    /// or bit-rate, or the rate limit is NaN.
    pub fn start(config: OriginConfig) -> Result<Self, ProxyError> {
        OriginServer::start_with_faults(config, FaultPlan::none())
    }

    /// Like [`start`](Self::start), but every accepted connection consults
    /// `faults` (in accept order) and misbehaves as instructed — the
    /// deterministic failure model the proxy's resilience tests drive.
    pub fn start_with_faults(config: OriginConfig, faults: FaultPlan) -> Result<Self, ProxyError> {
        if config.rate_limit_bps.is_nan() {
            return Err(ProxyError::InvalidConfig(
                "rate_limit_bps",
                "the origin rate limit must be a number (0 disables it)".into(),
            ));
        }
        for o in &config.objects {
            if o.size_bytes == 0 {
                return Err(ProxyError::InvalidConfig(
                    "size_bytes",
                    format!("object `{}` has zero size", o.name),
                ));
            }
            if !o.bitrate_bps.is_finite() || o.bitrate_bps <= 0.0 {
                return Err(ProxyError::InvalidConfig(
                    "bitrate_bps",
                    format!(
                        "object `{}` has a non-finite or non-positive bit-rate",
                        o.name
                    ),
                ));
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let state = Arc::new(OriginState {
            objects: config
                .objects
                .into_iter()
                .map(|o| (o.name.clone(), o))
                .collect(),
            rate_limit_bps: config.rate_limit_bps,
            faults,
        });
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        let state = Arc::clone(&accept_state);
                        std::thread::spawn(move || {
                            let _ = handle_connection(stream, &state);
                        });
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(OriginServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            state,
        })
    }

    /// Number of connections that have consulted the fault plan so far
    /// (every handled connection does, healthy or not), useful for
    /// asserting that a fast-failing proxy really did not dial out.
    pub fn fault_connections_seen(&self) -> u64 {
        self.state.faults.connections_seen()
    }

    /// The address clients and proxies should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and joins the accept thread.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for OriginServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(stream: TcpStream, state: &OriginState) -> Result<(), ProxyError> {
    let action = state.faults.next_action();
    if action == FaultAction::Refuse {
        // Drop before reading the request: the peer sees an immediate EOF
        // where the response header should be.
        drop(stream);
        return Ok(());
    }
    stream.set_nodelay(true).ok();
    // A third handle to the socket so a reset can sever it abruptly while
    // the buffered reader/writer own the other two.
    let raw = stream.try_clone()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let request = read_request(&mut reader)?;
    let spec = match state.objects.get(&request.name) {
        Some(spec) => spec,
        None => {
            write_response(&mut writer, &Response::Err("unknown object".into()))?;
            return Err(ProxyError::UnknownObject(request.name));
        }
    };
    write_response(
        &mut writer,
        &Response::Ok {
            size: spec.size_bytes,
            bitrate_bps: spec.bitrate_bps,
            degraded: false,
        },
    )?;
    let mut limiter = RateLimiter::new(state.rate_limit_bps);
    let start_offset = request.offset.min(spec.size_bytes);
    let mut offset = start_offset;
    // Fault offsets are relative to this connection's payload stream.
    let end = match action {
        FaultAction::ResetAfter(n) | FaultAction::TruncateAfter(n) => {
            spec.size_bytes.min(start_offset.saturating_add(n))
        }
        _ => spec.size_bytes,
    };
    let stall = match action {
        FaultAction::StallAt {
            offset: rel,
            millis,
        } => Some((start_offset.saturating_add(rel), millis)),
        _ => None,
    };
    let mut stalled = false;
    let mut chunk = vec![0u8; 8 * 1024];
    while offset < end {
        let mut n = chunk.len().min((end - offset) as usize);
        if let Some((at, millis)) = stall {
            if !stalled && offset == at {
                stalled = true;
                writer.flush()?;
                std::thread::sleep(Duration::from_millis(millis));
            }
            if !stalled && offset < at {
                // Stop the chunk exactly at the stall point.
                n = n.min((at - offset) as usize);
            }
        }
        fill_content(&spec.name, offset, &mut chunk[..n]);
        limiter.acquire(n);
        writer.write_all(&chunk[..n])?;
        offset += n as u64;
    }
    if matches!(action, FaultAction::ResetAfter(_)) {
        // Deliver exactly the promised prefix, then sever the socket in
        // both directions instead of completing the stream.
        writer.flush()?;
        let _ = raw.shutdown(Shutdown::Both);
        return Ok(());
    }
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::verify_content;
    use crate::protocol::{write_request, Request};
    use std::io::Read;

    fn read_header(reader: &mut impl std::io::BufRead) -> Response {
        crate::protocol::read_response(reader).unwrap()
    }

    #[test]
    fn serves_full_objects_with_correct_content() {
        let server = OriginServer::start(OriginConfig {
            objects: vec![ObjectSpec::new("clip", 64 * 1024, 1_000_000.0)],
            rate_limit_bps: 0.0,
        })
        .unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_request(
            &mut writer,
            &Request {
                name: "clip".into(),
                offset: 0,
            },
        )
        .unwrap();
        match read_header(&mut reader) {
            Response::Ok {
                size,
                bitrate_bps,
                degraded,
            } => {
                assert_eq!(size, 64 * 1024);
                assert_eq!(bitrate_bps, 1_000_000.0);
                assert!(!degraded, "a healthy origin never degrades");
            }
            Response::Err(e) => panic!("unexpected error: {e}"),
            Response::Busy { .. } => panic!("the origin never sheds"),
        }
        let mut payload = Vec::new();
        reader.read_to_end(&mut payload).unwrap();
        assert_eq!(payload.len(), 64 * 1024);
        assert_eq!(verify_content("clip", 0, &payload), None);
    }

    #[test]
    fn serves_ranges_from_an_offset() {
        let server = OriginServer::start(OriginConfig {
            objects: vec![ObjectSpec::new("clip", 10_000, 1_000_000.0)],
            rate_limit_bps: 0.0,
        })
        .unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_request(
            &mut writer,
            &Request {
                name: "clip".into(),
                offset: 6_000,
            },
        )
        .unwrap();
        let _ = read_header(&mut reader);
        let mut payload = Vec::new();
        reader.read_to_end(&mut payload).unwrap();
        assert_eq!(payload.len(), 4_000);
        assert_eq!(verify_content("clip", 6_000, &payload), None);
    }

    #[test]
    fn unknown_objects_get_an_error() {
        let server = OriginServer::start(OriginConfig {
            objects: vec![],
            rate_limit_bps: 0.0,
        })
        .unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_request(
            &mut writer,
            &Request {
                name: "missing".into(),
                offset: 0,
            },
        )
        .unwrap();
        assert!(matches!(read_header(&mut reader), Response::Err(_)));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(OriginServer::start(OriginConfig {
            objects: vec![ObjectSpec::new("z", 0, 1.0)],
            rate_limit_bps: 0.0,
        })
        .is_err());
        assert!(OriginServer::start(OriginConfig {
            objects: vec![ObjectSpec::new("z", 10, 0.0)],
            rate_limit_bps: 0.0,
        })
        .is_err());
        assert!(OriginServer::start(OriginConfig {
            objects: vec![ObjectSpec::new("z", 10, 1.0)],
            rate_limit_bps: f64::NAN,
        })
        .is_err());
    }

    #[test]
    fn rate_limit_slows_transfers() {
        let server = OriginServer::start(OriginConfig {
            objects: vec![ObjectSpec::new("clip", 100_000, 1_000_000.0)],
            rate_limit_bps: 400_000.0,
        })
        .unwrap();
        let start = std::time::Instant::now();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_request(
            &mut writer,
            &Request {
                name: "clip".into(),
                offset: 0,
            },
        )
        .unwrap();
        let _ = read_header(&mut reader);
        let mut payload = Vec::new();
        reader.read_to_end(&mut payload).unwrap();
        let elapsed = start.elapsed().as_secs_f64();
        // 100 KB at 400 KB/s takes about 0.25 s.
        assert!(elapsed >= 0.2, "elapsed {elapsed}");
        assert_eq!(payload.len(), 100_000);
    }

    #[test]
    fn object_spec_duration() {
        let spec = ObjectSpec::new("x", 480_000, 48_000.0);
        assert!((spec.duration_secs() - 10.0).abs() < 1e-12);
    }

    /// One raw fetch against a faulty origin: returns the parsed header (if
    /// any) and however much payload arrived before the connection ended.
    fn raw_fetch(addr: std::net::SocketAddr, name: &str) -> (Option<Response>, Vec<u8>) {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_request(
            &mut writer,
            &Request {
                name: name.into(),
                offset: 0,
            },
        )
        .unwrap();
        let header = crate::protocol::read_response(&mut reader).ok();
        let mut payload = Vec::new();
        let _ = reader.read_to_end(&mut payload);
        (header, payload)
    }

    #[test]
    fn refused_connections_end_before_the_header() {
        let server = OriginServer::start_with_faults(
            OriginConfig {
                objects: vec![ObjectSpec::new("clip", 4_096, 1e6)],
                rate_limit_bps: 0.0,
            },
            FaultPlan::from_actions(vec![FaultAction::Refuse]),
        )
        .unwrap();
        let (header, payload) = raw_fetch(server.addr(), "clip");
        assert!(header.is_none(), "refusal must precede the header");
        assert!(payload.is_empty());
        // The schedule is exhausted: the next connection is healthy.
        let (header, payload) = raw_fetch(server.addr(), "clip");
        assert!(matches!(header, Some(Response::Ok { .. })));
        assert_eq!(payload.len(), 4_096);
        assert_eq!(server.fault_connections_seen(), 2);
    }

    #[test]
    fn resets_and_truncations_deliver_exactly_the_promised_prefix() {
        for make_action in [FaultAction::ResetAfter, FaultAction::TruncateAfter] {
            let server = OriginServer::start_with_faults(
                OriginConfig {
                    objects: vec![ObjectSpec::new("clip", 32 * 1024, 1e6)],
                    rate_limit_bps: 0.0,
                },
                FaultPlan::from_actions(vec![make_action(10_000)]),
            )
            .unwrap();
            let (header, payload) = raw_fetch(server.addr(), "clip");
            // The header still promises the full object ...
            assert!(matches!(header, Some(Response::Ok { size: 32_768, .. })));
            // ... but only the scheduled prefix arrives, byte-correct.
            assert_eq!(payload.len(), 10_000);
            assert_eq!(verify_content("clip", 0, &payload), None);
        }
    }

    #[test]
    fn stalls_pause_mid_payload_then_complete() {
        let server = OriginServer::start_with_faults(
            OriginConfig {
                objects: vec![ObjectSpec::new("clip", 16 * 1024, 1e6)],
                rate_limit_bps: 0.0,
            },
            FaultPlan::from_actions(vec![FaultAction::StallAt {
                offset: 8_192,
                millis: 150,
            }]),
        )
        .unwrap();
        let start = std::time::Instant::now();
        let (header, payload) = raw_fetch(server.addr(), "clip");
        assert!(matches!(header, Some(Response::Ok { .. })));
        assert_eq!(payload.len(), 16 * 1024);
        assert_eq!(verify_content("clip", 0, &payload), None);
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(140),
            "the stall must actually pause the stream"
        );
    }
}
