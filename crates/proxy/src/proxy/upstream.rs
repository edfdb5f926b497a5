//! The origin conversation: every byte the proxy says to the origin and
//! every origin reply it parses goes through here — the dial, the request
//! line, the reply header read into the worker's ring, and around them the
//! circuit breaker and the retry loop. The relay reads the payload that
//! follows from the [`OriginConn`] an open returns.

use super::records::Header;
use super::ProxyState;
use crate::error::ProxyError;
use crate::protocol::{read_response, write_request, Request, Response, MAX_LINE_BYTES};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// The origin's answer to one resilient open, without the connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum OriginAnswer {
    /// The origin is streaming the object, under this header.
    Stream(Header),
    /// The origin answered but does not know the object.
    Unknown,
    /// The origin could not be reached within the retry budget, or the
    /// circuit breaker is open.
    Unavailable,
}

/// An open origin connection positioned at the requested offset.
pub(super) struct OriginConn {
    pub(super) stream: TcpStream,
    /// Where in the worker's ring the payload bytes lie that arrived behind
    /// the origin's header: the relay's first chunk.
    pub(super) in_hand: Range<usize>,
}

/// What an origin open has to come back with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Await {
    /// The origin's header; payload only if it came along. A first open:
    /// the client's header must not wait for payload.
    Header,
    /// At least one payload byte. A mid-stream resume: an origin that
    /// answers `OK` and then delivers nothing has not resumed anything, and
    /// the attempt counts as failed.
    Payload,
}

/// Opens an origin connection for `name` starting at `offset` through the
/// resilience stack: the circuit breaker gates every attempt, each attempt
/// dials and reads (into `ring`) under per-attempt timeouts, and failures
/// back off exponentially (seeded jitter) until the attempt count or the
/// deadline budget runs out. Transport failures are absorbed into
/// [`OriginAnswer::Unavailable`] rather than propagated; the connection
/// comes back only with [`OriginAnswer::Stream`].
pub(super) fn open_origin(
    state: &ProxyState,
    name: &str,
    offset: u64,
    wait: Await,
    ring: &mut [u8],
) -> (OriginAnswer, Option<OriginConn>) {
    let policy = state.config.retry;
    let started = Instant::now();
    let nonce = state.open_nonce.fetch_add(1, Ordering::Relaxed);
    let mut attempt: u32 = 0;
    loop {
        if !state.breaker.allow() {
            return (OriginAnswer::Unavailable, None);
        }
        match try_open_origin(state, name, offset, wait, ring) {
            // A definite answer from a healthy origin, streaming or not.
            Ok(answered) => {
                state.breaker.record_success();
                return answered;
            }
            // The failed attempt took its connection with it: the backoff
            // below holds none.
            Err(_) => {
                state.breaker.record_failure();
                attempt += 1;
                if attempt >= policy.max_attempts || started.elapsed() >= policy.deadline {
                    return (OriginAnswer::Unavailable, None);
                }
                let pause = policy
                    .backoff(attempt - 1, nonce)
                    .min(policy.deadline.saturating_sub(started.elapsed()));
                if !pause.is_zero() {
                    state
                        .hot
                        .origin_backoff_micros
                        .fetch_add(pause.as_micros() as u64, Ordering::Relaxed);
                    std::thread::sleep(pause);
                }
                state.hot.origin_retries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// One origin connection attempt under the per-attempt timeouts.
fn try_open_origin(
    state: &ProxyState,
    name: &str,
    offset: u64,
    wait: Await,
    ring: &mut [u8],
) -> Result<(OriginAnswer, Option<OriginConn>), ProxyError> {
    let mut stream =
        TcpStream::connect_timeout(&state.config.origin_addr, state.config.connect_timeout)?;
    stream.set_read_timeout(Some(state.config.origin_read_timeout))?;
    // No `TCP_NODELAY` here: the request line below is the only write this
    // connection ever sees, and Nagle holds a segment back only behind
    // unacknowledged data, which a fresh connection does not have. (Client
    // sockets keep the option: they take many writes.)
    //
    // The request line is framed in memory: one write.
    let mut line = Vec::with_capacity(name.len() + 32);
    write_request(
        &mut line,
        &Request {
            name: name.to_string(),
            offset,
        },
    )?;
    stream.write_all(&line)?;
    let (response, mut in_hand) = read_reply(&mut stream, ring)?;
    match response {
        Response::Ok {
            size, bitrate_bps, ..
        } => {
            if wait == Await::Payload && in_hand.is_empty() {
                in_hand = 0..read_some(&mut stream, ring)?;
            }
            let conn = OriginConn { stream, in_hand };
            Ok((
                OriginAnswer::Stream(Header { size, bitrate_bps }),
                Some(conn),
            ))
        }
        Response::Err(_) => Ok((OriginAnswer::Unknown, None)),
        // An overloaded origin counts as a transport failure: the caller
        // backs off and retries within the usual budget.
        Response::Busy { retry_after_ms } => Err(ProxyError::Busy(retry_after_ms)),
    }
}

/// Reads an origin's reply into `ring`, where the relay will read: bytes
/// are taken until the header line's `\n` — which has to come within
/// [`MAX_LINE_BYTES`], as for every protocol line — and the line is parsed
/// in place by [`read_response`]. Whatever arrived behind it is payload and
/// stays where it is; the returned range says where. The origin closing
/// before its header line ended is an error.
fn read_reply<R: Read>(
    origin: &mut R,
    ring: &mut [u8],
) -> Result<(Response, Range<usize>), ProxyError> {
    debug_assert!(ring.len() > MAX_LINE_BYTES);
    let mut filled = 0;
    let line_end = loop {
        // A line of at most MAX_LINE_BYTES ends within one byte more.
        let window = &ring[..filled.min(MAX_LINE_BYTES + 1)];
        if let Some(newline) = window.iter().position(|&b| b == b'\n') {
            break newline + 1;
        }
        if filled > MAX_LINE_BYTES {
            return Err(ProxyError::Protocol(format!(
                "line exceeds {MAX_LINE_BYTES} bytes"
            )));
        }
        filled += read_some(origin, &mut ring[filled..])?;
    };
    let response = read_response(&mut &ring[..line_end])?;
    Ok((response, line_end..filled))
}

/// One `read` that delivers: `Interrupted` is retried, end-of-stream is an
/// error.
pub(super) fn read_some<R: Read>(reader: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match reader.read(buf) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_response;
    use crate::proxy::relay::RING_BYTES;
    use crate::proxy::tests::{clip_bytes, Wire};

    /// A reader that hands out exactly what the script says, one step per
    /// `read`, and counts the calls; end of script is end of stream.
    struct Scripted {
        steps: std::collections::VecDeque<std::io::Result<Vec<u8>>>,
        reads: usize,
    }

    fn scripted<const N: usize>(steps: [std::io::Result<&[u8]>; N]) -> Scripted {
        Scripted {
            steps: steps.into_iter().map(|s| s.map(<[u8]>::to_vec)).collect(),
            reads: 0,
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            match self.steps.pop_front() {
                Some(Ok(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Err(e)) => Err(e),
                None => Ok(0),
            }
        }
    }

    const REPLY_HEAD: &[u8] = b"OK 16384 96000\n";
    const REPLY_OK: Response = Response::Ok {
        size: 16_384,
        bitrate_bps: 96_000.0,
        degraded: false,
    };

    #[test]
    fn read_reply_finds_the_header_wherever_the_stream_is_cut() {
        let payload = clip_bytes(16_384);
        let wire = [REPLY_HEAD, &payload].concat();
        let mut ring = vec![0u8; RING_BYTES];
        // Two reads, cut at every byte position: the reply parses the same,
        // and what is in hand plus what is still unread is the payload.
        for cut in 1..wire.len() {
            let mut origin = scripted([Ok(&wire[..cut]), Ok(&wire[cut..])]);
            let (response, in_hand) = read_reply(&mut origin, &mut ring).unwrap();
            assert_eq!(response, REPLY_OK, "cut at {cut}");
            assert_eq!(in_hand.start, REPLY_HEAD.len(), "cut at {cut}");
            // A header cut short takes the second read, payload and all; a
            // complete one is not read past.
            let expected = if cut < REPLY_HEAD.len() {
                payload.len()
            } else {
                cut - REPLY_HEAD.len()
            };
            assert_eq!(ring[in_hand], payload[..expected], "cut at {cut}");
            let unread: usize = origin.steps.iter().flatten().map(Vec::len).sum();
            assert_eq!(expected + unread, payload.len(), "cut at {cut}");
        }
        // `write_response` on a raw socket, as the benchmark's stub answers:
        // the line in as many pieces as `writeln!` makes of it, then the
        // payload.
        let mut stub = Wire::taking(usize::MAX);
        write_response(&mut stub, &REPLY_OK).unwrap();
        let pieces = stub.writes.len();
        assert!(pieces > 1, "the stub's header left in one write");
        let mut origin = Scripted {
            steps: stub
                .writes
                .into_iter()
                .chain([payload.clone()])
                .map(Ok)
                .collect(),
            reads: 0,
        };
        let (response, in_hand) = read_reply(&mut origin, &mut ring).unwrap();
        assert_eq!((response, in_hand), (REPLY_OK, 15..15));
        assert_eq!(
            origin.reads, pieces,
            "the header alone: payload is not waited for"
        );
        // Header and whole payload in one read: all of it is in hand.
        let mut origin = scripted([Ok(&wire)]);
        let (response, in_hand) = read_reply(&mut origin, &mut ring).unwrap();
        assert_eq!(response, REPLY_OK);
        assert_eq!(ring[in_hand], payload[..]);
        assert_eq!(origin.reads, 1);
        // `Interrupted` in the middle is retried, not reported.
        let mut origin = scripted([
            Ok(b"OK 16"),
            Err(std::io::ErrorKind::Interrupted.into()),
            Ok(b"384 96000\npay"),
        ]);
        let (response, in_hand) = read_reply(&mut origin, &mut ring).unwrap();
        assert_eq!(response, REPLY_OK);
        assert_eq!(&ring[in_hand], b"pay");
    }

    #[test]
    fn read_reply_keeps_the_line_parsers_answers_and_bounds() {
        let mut ring = vec![0u8; RING_BYTES];
        let mut reply = |mut origin: Scripted| {
            let outcome = read_reply(&mut origin, &mut ring);
            (outcome, origin.reads)
        };
        let (outcome, _) = reply(scripted([Ok(b"ERR unknown object\n")]));
        assert_eq!(
            outcome.unwrap(),
            (Response::Err("unknown object".into()), 19..19)
        );
        let (outcome, _) = reply(scripted([Ok(b"BUSY 125\n")]));
        assert_eq!(
            outcome.unwrap().0,
            Response::Busy {
                retry_after_ms: 125
            }
        );
        for junk in [&b"YES 5\n"[..], b"OK abc def\n", b"OK 1 2 3 4 5 6\n", b"\n"] {
            let (outcome, _) = reply(scripted([Ok(junk)]));
            assert!(matches!(outcome, Err(ProxyError::Protocol(_))), "{junk:?}");
        }
        let (outcome, _) = reply(scripted([Ok(b"OK \xff\xfe 1\n")]));
        assert!(matches!(outcome, Err(ProxyError::Protocol(_))));
        // The origin hangs up before the line ends — mid-number, where a
        // parser fed "what arrived" would read a plausible smaller size.
        for steps in [scripted([]), scripted([Ok(b"OK 16384 96")])] {
            match reply(steps).0 {
                Err(ProxyError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
                other => panic!("expected an early EOF, got {other:?}"),
            }
        }
        // A read that fails is the attempt's failure, as it was.
        let timed_out = std::io::ErrorKind::WouldBlock;
        let (outcome, _) = reply(scripted([Ok(b"OK 1"), Err(timed_out.into())]));
        assert!(matches!(outcome, Err(ProxyError::Io(e)) if e.kind() == timed_out));
        // The line bound is `read_line_bounded`'s: MAX_LINE_BYTES without
        // the terminator pass, one more does not ...
        let longest = format!("ERR {}\n", "x".repeat(MAX_LINE_BYTES - 4));
        let (outcome, _) = reply(scripted([Ok(longest.as_bytes())]));
        assert!(matches!(outcome, Ok((Response::Err(_), _))));
        let too_long = format!("ERR {}\n", "x".repeat(MAX_LINE_BYTES - 3));
        let (outcome, _) = reply(scripted([Ok(too_long.as_bytes())]));
        assert!(matches!(outcome, Err(ProxyError::Protocol(_))));
        // ... and an endless line costs a bounded read, not a full ring.
        let endless = Scripted {
            steps: (0..RING_BYTES / 100).map(|_| Ok(vec![b'O'; 100])).collect(),
            reads: 0,
        };
        let (outcome, reads) = reply(endless);
        assert!(matches!(outcome, Err(ProxyError::Protocol(_))));
        assert_eq!(reads, MAX_LINE_BYTES / 100 + 1);
    }
}
