//! Seeded malformed-input property tests for the wire protocol.
//!
//! The parsers in `sc_proxy::protocol` promise three things for arbitrary
//! input: they never panic, they never read unboundedly (every line is
//! capped at [`MAX_LINE_BYTES`]), and a failure is a clean
//! `ProxyError::Protocol`/`Io`, never garbage silently accepted. These
//! tests drive the parsers — and a live proxy socket — with seeded
//! pseudo-random junk so every failure reproduces from its seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_proxy::protocol::{
    read_command, read_response, write_request, Command, Request, Response, MAX_LINE_BYTES,
};
use sc_proxy::{
    CachingProxy, ObjectSpec, OriginConfig, OriginServer, ProxyConfig, ProxyError, StreamingClient,
};
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

/// Draws a junk byte string: arbitrary bytes (newlines included) with a
/// length biased around the line bound so both sides of the limit are hit.
fn junk_bytes(rng: &mut StdRng) -> Vec<u8> {
    let len = match rng.gen_range(0u32..4) {
        0 => rng.gen_range(0..32),
        1 => rng.gen_range(0..MAX_LINE_BYTES),
        2 => rng.gen_range(MAX_LINE_BYTES - 8..MAX_LINE_BYTES + 8),
        _ => rng.gen_range(MAX_LINE_BYTES..4 * MAX_LINE_BYTES),
    };
    (0..len).map(|_| rng.gen_range(0u8..=255)).collect()
}

#[test]
fn seeded_junk_never_panics_the_parsers() {
    for seed in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..64 {
            let junk = junk_bytes(&mut rng);
            // Either outcome is fine; panicking or hanging is not. The
            // Cursor is finite, so termination here plus the explicit
            // oversized-line tests below covers the bounded-read claim.
            let _ = read_command(&mut Cursor::new(junk.clone()));
            let _ = read_response(&mut Cursor::new(junk.clone()));
            // Whatever happened, a well-formed command still parses on a
            // fresh reader: the parsers hold no hidden state.
            match read_command(&mut Cursor::new(b"GET movie 42\n".to_vec())) {
                Ok(Command::Get(req)) => {
                    assert_eq!(req.name, "movie");
                    assert_eq!(req.offset, 42);
                }
                other => panic!("seed {seed} round {round}: valid GET parsed as {other:?}"),
            }
        }
    }
}

#[test]
fn mutated_valid_lines_parse_or_fail_cleanly() {
    for seed in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut line = b"GET movie-7 1024\n".to_vec();
        for _ in 0..48 {
            // One random edit per round: flip, insert or delete a byte.
            match rng.gen_range(0u32..3) {
                0 => {
                    let i = rng.gen_range(0..line.len());
                    line[i] ^= 1u8 << rng.gen_range(0u32..8);
                }
                1 => {
                    let i = rng.gen_range(0..=line.len());
                    line.insert(i, rng.gen_range(0u8..=255));
                }
                _ if line.len() > 1 => {
                    let i = rng.gen_range(0..line.len());
                    line.remove(i);
                }
                _ => {}
            }
            if let Ok(Command::Get(req)) = read_command(&mut Cursor::new(line.clone())) {
                // Accepted input must round-trip: whatever the parser made
                // of the mutated bytes re-serialises and re-parses equal.
                let mut rewritten = Vec::new();
                write_request(&mut rewritten, &req).expect("accepted request must re-serialise");
                match read_command(&mut Cursor::new(rewritten)) {
                    Ok(Command::Get(again)) => assert_eq!(req, again, "seed {seed}"),
                    other => panic!("seed {seed}: round-trip failed: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn junk_ok_headers_never_yield_inconsistent_responses() {
    for seed in 0u64..32 {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let mut line = Vec::new();
            line.extend_from_slice(b"OK ");
            let junk = junk_bytes(&mut rng);
            line.extend_from_slice(&junk[..junk.len().min(64)]);
            line.push(b'\n');
            if let Ok(Response::Ok {
                size, bitrate_bps, ..
            }) = read_response(&mut Cursor::new(line))
            {
                // If the parser accepted it, the numeric fields must describe
                // an object — NaN, infinity or zero would poison every
                // downstream rate computation.
                assert!(
                    size > 0 && bitrate_bps.is_finite() && bitrate_bps > 0.0,
                    "seed {seed}: OK {size} {bitrate_bps} accepted"
                );
            }
        }
    }
}

/// `f64` parsing accepts spellings no object can have; each is an error,
/// not a header whose bit-rate poisons the duration, the utility and the
/// prefix the policy computes from it.
#[test]
fn ok_headers_that_describe_no_object_are_errors() {
    for line in [
        "OK 1 NaN",
        "OK 1 nan",
        "OK 1 inf",
        "OK 1 -inf",
        "OK 1 1e400",
        "OK 1 0",
        "OK 1 -5",
        "OK 0 1000",
        "OK 0 1000 degraded",
        // A bit-rate so small the duration overflows.
        "OK 1 1e-320",
        "OK 18446744073709551615 1e-300",
    ] {
        let parsed = read_response(&mut Cursor::new(format!("{line}\n")));
        assert!(
            matches!(parsed, Err(ProxyError::Protocol(_))),
            "{line:?} parsed as {parsed:?}"
        );
    }
    // Small but possible.
    assert_eq!(
        read_response(&mut Cursor::new(b"OK 1 1e-300\n".to_vec())).unwrap(),
        Response::Ok {
            size: 1,
            bitrate_bps: 1e-300,
            degraded: false
        }
    );
}

/// An origin whose `OK` header carries a bit-rate of 0 (followed by a
/// payload) is a failed attempt, as a `BUSY` is: every `GET` gets `ERR`,
/// and the one-worker pool is still there to answer `STATS`.
#[test]
fn an_origin_header_with_an_impossible_bit_rate_is_an_err_not_a_dead_thread() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let origin = std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { return };
            let mut line = String::new();
            let _ = BufReader::new(&conn).read_line(&mut line);
            if !line.starts_with("GET ") {
                return;
            }
            let _ = conn.write_all(b"OK 16384 0\n");
            let _ = conn.write_all(&[7u8; 16 * 1024]);
        }
    });
    let mut config = ProxyConfig::new(addr, 1e9);
    config.worker_threads = 1;
    let proxy = CachingProxy::start(config).expect("proxy start");
    let ask = |line: &[u8]| {
        let mut stream = TcpStream::connect(proxy.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("read timeout");
        stream.write_all(line).expect("request");
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .expect("an answer within 2 s");
        reply
    };
    for round in 0..3 {
        let reply = ask(b"GET clip 0\n");
        assert!(reply.starts_with("ERR "), "GET {round}: {reply:?}");
    }
    assert!(ask(b"STATS\n").starts_with('{'));
    drop(proxy);
    let mut stop = TcpStream::connect(addr).expect("connect to the origin");
    stop.write_all(b"STOP\n").expect("stop the origin");
    origin.join().expect("the origin thread");
}

#[test]
fn live_proxy_answers_junk_with_err_or_close_and_keeps_serving() {
    let origin = OriginServer::start(OriginConfig {
        objects: vec![ObjectSpec::new("movie", 16 * 1024, 1e6)],
        rate_limit_bps: 0.0,
    })
    .expect("origin start");
    let mut config = ProxyConfig::new(origin.addr(), 1e9);
    config.worker_threads = 2;
    let mut proxy = CachingProxy::start(config).expect("proxy start");
    let client = StreamingClient::new();

    for seed in 0u64..24 {
        let mut rng = StdRng::seed_from_u64(0xBAD_F00D ^ seed);
        let junk = junk_bytes(&mut rng);
        let stream = TcpStream::connect(proxy.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut writer = stream.try_clone().expect("clone");
        // The proxy may rightfully close mid-write on oversized garbage;
        // a send error is an acceptable outcome, not a test failure.
        let _ = writer.write_all(&junk);
        let _ = writer.flush();
        let _ = stream.shutdown(Shutdown::Write);
        let mut reply = Vec::new();
        let mut reader = BufReader::new(stream);
        reader.read_to_end(&mut reply).expect("junk reply read");
        // Whatever came back is a bounded protocol answer (possibly
        // nothing), never a payload stream leaked for a request that was
        // never made.
        let text = String::from_utf8_lossy(&reply);
        assert!(
            reply.is_empty() || text.starts_with("ERR ") || text.starts_with("BUSY "),
            "seed {seed}: junk produced a non-error reply: {text:?}"
        );
        assert!(
            reply.len() <= 2 * MAX_LINE_BYTES,
            "seed {seed}: unbounded reply to junk ({} bytes)",
            reply.len()
        );

        // The worker that handled the garbage is immediately healthy again.
        let report = client
            .fetch(proxy.addr(), "movie")
            .expect("fetch after junk");
        assert!(report.content_ok, "seed {seed}: content corrupted by junk");
        assert_eq!(report.bytes, 16 * 1024);
    }

    let stats = proxy.stats();
    assert!(stats.requests >= 24, "served fetches must all be counted");
    proxy.shutdown();
}

#[test]
fn oversized_request_lines_are_rejected_not_buffered() {
    // A "line" that never ends must be rejected after MAX_LINE_BYTES, not
    // accumulated: reading from an endless source terminates with an error.
    let endless = std::io::repeat(b'A');
    let mut reader = BufReader::new(endless.take(64 * 1024));
    let err = read_command(&mut reader).expect_err("endless line must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("line") || msg.contains("long") || msg.contains("protocol"),
        "unexpected error for oversized line: {msg}"
    );
    let err = read_response(&mut BufReader::new(std::io::repeat(b'B').take(64 * 1024)))
        .expect_err("endless response line must be rejected");
    let _ = err.to_string();

    // An oversized but newline-terminated request is equally rejected.
    let mut big = vec![b'G'; 2 * MAX_LINE_BYTES];
    big.push(b'\n');
    assert!(read_command(&mut Cursor::new(big)).is_err());

    // And write_request refuses to produce such a line in the first place.
    let long_name = "x".repeat(2 * MAX_LINE_BYTES);
    let err = write_request(
        &mut Vec::new(),
        &Request {
            name: long_name,
            offset: 0,
        },
    )
    .expect_err("oversized name must not serialise");
    let _ = err.to_string();
}
