//! The client side of a request: the command is read off the client's
//! socket here, and every byte the client receives is written here — an
//! `ERR` or the `STATS` line, or the header with the first bytes in hand,
//! the cached prefix, then the origin tail through the worker's ring, and
//! from where the kept bytes end, kernel to kernel through the worker's
//! pipe.

use super::upstream::{open_origin, read_some, Await, OriginConn};
use super::{Job, ProxyState};
use crate::error::ProxyError;
use crate::protocol::{header_line, read_command, Command, Response};
use crate::ratelimit::RateLimiter;
use crate::splice::Pipe;
use std::io::{BufReader, IoSlice, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Size of each worker's reusable relay chunk buffer (the "ring"): origin
/// tails stream through this fixed window, so relay memory per request is
/// `RING_BYTES` plus the prefix the engine granted — never the whole
/// object.
pub(super) const RING_BYTES: usize = 64 * 1024;

/// Per-worker reusable buffers: everything a request needs that should not
/// be reallocated per request.
pub(super) struct WorkerScratch {
    /// Fixed-size relay ring: the origin's reply is read and parsed here,
    /// and every origin chunk passes through.
    pub(super) chunk: Vec<u8>,
    /// Tail-retention buffer: the leading tail bytes the engine granted,
    /// grown only as they arrive.
    pub(super) retained: Vec<u8>,
    /// The spliced tail's pipe, empty between steps; made on first use,
    /// and dropped when a failed drain may have left bytes in it.
    pipe: Option<Pipe>,
}

impl WorkerScratch {
    pub(super) fn new() -> Self {
        WorkerScratch {
            chunk: vec![0u8; RING_BYTES],
            retained: Vec::new(),
            pipe: None,
        }
    }
}

/// Where a relay writes to: a writer, and the socket beneath it if there
/// is one — the spliced tail moves bytes into that socket directly.
pub(super) trait ClientWire: Write {
    fn socket(&self) -> Option<&TcpStream> {
        None
    }
}

impl ClientWire for &TcpStream {
    fn socket(&self) -> Option<&TcpStream> {
        Some(self)
    }
}

/// Classifies a failed client-socket write: a timed-out write means the
/// reader is too slow (or gone), which is counted in `client_timeouts`.
/// The error passes through either way.
fn client_err(state: &ProxyState, err: std::io::Error) -> std::io::Error {
    if matches!(
        err.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ) {
        state.hot.client_timeouts.fetch_add(1, Ordering::Relaxed);
    }
    err
}

/// When a relay step that starts now must be in the client's socket:
/// `client_write_timeout` from now, or never with the timeout off.
fn step_deadline(state: &ProxyState) -> Option<Instant> {
    let limit = state.config.client_write_timeout;
    (!limit.is_zero())
        .then(|| Instant::now().checked_add(limit))
        .flatten()
}

/// Stage 1: socket options and one command off the wire. `STATS`,
/// malformed input and a failed read are answered here or not at all
/// (`None`); a `GET` comes back as the requested name.
pub(super) fn parse(mut client: &TcpStream, state: &ProxyState) -> Option<String> {
    client.set_nodelay(true).ok();
    if !state.config.client_write_timeout.is_zero() {
        client
            .set_write_timeout(Some(state.config.client_write_timeout))
            .ok();
    }
    // Reads through the shared reference: no second fd. The buffer stays at
    // std's 8 KiB — closing with more junk unread than a smaller one takes
    // in makes the kernel answer RST and the peer never sees the `ERR`.
    match read_command(&mut BufReader::new(client)) {
        Ok(Command::Get(request)) => Some(request.name),
        Ok(Command::Stats) => {
            let mut json = state.snapshot().to_json();
            json.push('\n');
            if let Err(e) = client.write_all(json.as_bytes()) {
                client_err(state, e);
            }
            None
        }
        Err(ProxyError::Protocol(_)) => {
            // Malformed or adversarial input: the bounded parser already
            // stopped reading; answer with a clean ERR and drop the
            // connection (best-effort — the peer may be gone).
            let _ = client.write_all(&header_line(&Response::Err("malformed request".into())));
            None
        }
        Err(_) => None,
    }
}

/// Writes `head` (a framed response header, or nothing) and then payload
/// bytes to the client in ring-sized chunks, paced by the per-client token
/// bucket and with write failures classified through [`client_err`]. The
/// header rides in front of the first chunk in one vectored write — one
/// segment instead of two on a warm hit or a small miss — and goes out
/// alone only when there is no payload or the payload has to wait for the
/// bucket. Each write of a chunk, or of the header alone, is one relay
/// step, with its own [`step_deadline`] taken once the bucket has let it go.
pub(super) fn write_paced<W: Write>(
    state: &ProxyState,
    client: &mut W,
    mut head: &[u8],
    bytes: &[u8],
    pace: &mut RateLimiter,
) -> std::io::Result<()> {
    let classify = |e| client_err(state, e);
    let mut chunks = bytes.chunks(RING_BYTES);
    let first = chunks.next().unwrap_or_default();
    // The header never waits on the token bucket: if the first chunk must,
    // the header goes ahead of it alone.
    if !head.is_empty() && !pace.would_sleep(first.len()).is_zero() {
        let head = std::mem::take(&mut head);
        write_all_pair(client, head, &[], step_deadline(state)).map_err(classify)?;
    }
    pace.acquire(first.len());
    write_all_pair(client, head, first, step_deadline(state)).map_err(classify)?;
    for chunk in chunks {
        pace.acquire(chunk.len());
        write_all_pair(client, &[], chunk, step_deadline(state)).map_err(classify)?;
    }
    Ok(())
}

/// `write_all` of `head` followed by `body` in vectored writes, the first
/// of them both at once (std's `write_all_vectored` is unstable). A write
/// that comes back short is followed by another only before `deadline`:
/// after it, the step fails as `TimedOut`.
fn write_all_pair<W: Write>(
    wire: &mut W,
    head: &[u8],
    body: &[u8],
    deadline: Option<Instant>,
) -> std::io::Result<()> {
    let mut slices = [IoSlice::new(head), IoSlice::new(body)];
    let mut rest = &mut slices[..];
    // Drops the empty slices in front.
    IoSlice::advance_slices(&mut rest, 0);
    while !rest.is_empty() {
        match wire.write_vectored(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        if !rest.is_empty() && deadline.is_some_and(|at| Instant::now() >= at) {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
    }
    Ok(())
}

/// Stage 5: answers the client — `head` (the framed response header) with
/// the cached prefix, then the origin tail, keeping in `scratch.retained`
/// exactly its first `job.keep` bytes. Without an origin connection (a full
/// or degraded hit) header and prefix are the whole answer. Returns the
/// tail bytes relayed — never more than the size the header declared,
/// whatever the origin sends — and the observed origin throughput.
///
/// The header leaves at once, in one write with the first bytes there are:
/// the cached prefix (LAN speed); with nothing cached, the payload that
/// arrived behind the origin's own header and already sits in the ring;
/// with neither, alone. It never waits for payload that is still on its
/// way, nor (see [`write_paced`]) for the token bucket.
///
/// Tail bytes pass through the fixed-size ring until `keep` is reached.
/// From then on, once nothing is in hand and the header is out, each step
/// moves them kernel to kernel instead (see [`splice_step`]), when the
/// client is a socket and the worker has a pipe; with `keep` 0 that is
/// from the first step.
pub(super) fn relay<W: ClientWire>(
    state: &ProxyState,
    job: &Job<'_>,
    mut origin: Option<OriginConn>,
    mut head: &[u8],
    client: &mut W,
    pace: &mut RateLimiter,
    scratch: &mut WorkerScratch,
) -> std::io::Result<(u64, Option<f64>)> {
    scratch.retained.clear();
    let expected_tail = job.size.saturating_sub(job.prefix.len() as u64);
    let rides_with_tail = job.prefix.is_empty()
        && expected_tail > 0
        && origin.as_ref().is_some_and(|conn| !conn.in_hand.is_empty());
    if !rides_with_tail {
        write_paced(state, client, std::mem::take(&mut head), job.prefix, pace)?;
    }
    if origin.is_none() {
        return Ok((0, None));
    }
    let mut tail_len: u64 = 0;
    let started = Instant::now();
    while tail_len < expected_tail {
        let Some(conn) = origin.as_mut() else {
            break;
        };
        // Never past the size the header declared, whatever the origin sends.
        let left = usize::try_from(expected_tail - tail_len).unwrap_or(usize::MAX);
        // What an open left in the ring is the next chunk, without a read.
        let mut chunk = std::mem::take(&mut conn.in_hand);
        // Every step before `keep` is reached is kept whole, so the kept
        // bytes continue the prefix without a gap.
        let to_keep = job.keep - scratch.retained.len();
        let socket = client
            .socket()
            .filter(|_| to_keep == 0 && chunk.is_empty() && head.is_empty());
        if socket.is_some() && scratch.pipe.is_none() {
            scratch.pipe = Pipe::new().ok();
        }
        // The step's bytes go through the pipe, or lie in `chunk` of the
        // ring; none moved when the origin failed.
        let n = match (socket, scratch.pipe.as_mut()) {
            (Some(socket), Some(pipe)) => {
                match splice_step(state, &conn.stream, socket, pipe, left, pace) {
                    Ok(n) => n,
                    Err(e) => {
                        // Bytes may be left in the pipe: they must never
                        // reach the next request.
                        scratch.pipe = None;
                        return Err(client_err(state, e));
                    }
                }
            }
            _ => {
                if chunk.is_empty() {
                    chunk = read_some(&mut conn.stream, &mut scratch.chunk).map_or(0..0, |n| 0..n);
                }
                chunk.end = chunk.end.min(chunk.start + left);
                let bytes = &scratch.chunk[chunk.clone()];
                write_paced(state, client, std::mem::take(&mut head), bytes, pace)?;
                bytes.len()
            }
        };
        if n == 0 {
            // Early EOF (mid-stream reset or truncated response) or a read
            // timeout (stalled origin): drop the connection first, so a
            // request never holds two, then resume from the current offset
            // through the resilient open, which comes back only with
            // payload in hand. If the origin stays down, or keeps answering
            // without delivering, the client gets a short stream, and the
            // record still gets the kept bytes in hand.
            drop(origin.take());
            let offset = job.prefix.len() as u64 + tail_len;
            let ring = &mut scratch.chunk;
            origin = open_origin(state, job.name, offset, Await::Payload, ring).1;
            if origin.is_some() {
                state.hot.origin_resumes.fetch_add(1, Ordering::Relaxed);
            }
            continue;
        }
        tail_len += n as u64;
        // `keep` not yet reached: this step went through the ring.
        if to_keep > 0 {
            scratch
                .retained
                .extend_from_slice(&scratch.chunk[chunk][..to_keep.min(n)]);
        }
    }
    drop(origin);
    let secs = started.elapsed().as_secs_f64();
    let origin_bps = (secs > 0.0 && tail_len > 0).then(|| tail_len as f64 / secs);
    Ok((tail_len, origin_bps))
}

/// One relay step that never enters user space: one `splice` of at most
/// `left` bytes from the origin socket into the worker's empty pipe — at
/// most its size, and with an active token bucket at most a ring's worth,
/// whose tokens are taken before it leaves, as [`write_paced`]'s chunks
/// do — then all of it out into the client socket by its
/// [`step_deadline`]. `Ok(0)`: the origin
/// failed or ended, and nothing moved. An error is the client's, and may
/// leave bytes in the pipe.
fn splice_step(
    state: &ProxyState,
    origin: &TcpStream,
    client: &TcpStream,
    pipe: &mut Pipe,
    left: usize,
    pace: &mut RateLimiter,
) -> std::io::Result<usize> {
    let mut max = left.min(pipe.capacity());
    if !pace.is_unlimited() {
        max = max.min(RING_BYTES);
    }
    let n = pipe.fill(origin, max).unwrap_or(0);
    if n > 0 {
        pace.acquire(n);
        pipe.drain(client, n, step_deadline(state))?;
        state
            .hot
            .spliced_bytes
            .fetch_add(n as u64, Ordering::Relaxed);
    }
    Ok(n)
}

/// Empties the tail-retention buffer and gives its capacity back down to
/// the ring size: a request that retained a large prefix must not pin it
/// in the worker for the proxy's lifetime, whether the bytes went to the
/// record or the client left mid-tail.
pub(super) fn release(retained: &mut Vec<u8>) {
    retained.clear();
    retained.shrink_to(RING_BYTES);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::tests::{clip_bytes, Wire};
    use crate::proxy::{key_for, CachingProxy, ProxyConfig};
    use sc_cache::ObjectMeta;
    use std::net::TcpListener;

    /// A recording, not a socket: every step goes through the ring.
    impl ClientWire for Wire {}

    #[test]
    fn write_all_pair_survives_a_short_first_write_at_every_split() {
        let (head, body) = (b"OK 5 1000\n", b"hello");
        for first in 1..=head.len() + body.len() {
            let mut wire = Wire::taking(first);
            write_all_pair(&mut wire, head, body, None).unwrap();
            assert_eq!(
                wire.writes.concat(),
                b"OK 5 1000\nhello",
                "first write took {first}"
            );
        }
        // Nothing short: header and body leave in one call.
        let mut whole = Wire::taking(usize::MAX);
        write_all_pair(&mut whole, head, body, None).unwrap();
        assert_eq!(whole.writes.len(), 1);
        // A wire that takes nothing is an error, not a spin.
        let stuck = write_all_pair(&mut Wire::taking(0), head, body, None).unwrap_err();
        assert_eq!(stuck.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn a_step_short_after_its_deadline_fails_as_timed_out() {
        let (head, body) = (b"OK 5 1000\n", b"hello");
        let passed = Some(Instant::now());
        // Written whole by the first call: the deadline is never looked at.
        let mut whole = Wire::taking(usize::MAX);
        write_all_pair(&mut whole, head, body, passed).unwrap();
        assert_eq!(whole.writes.len(), 1);
        // Short past the deadline: no further write is made.
        let mut short = Wire::taking(3);
        let late = write_all_pair(&mut short, head, body, passed).unwrap_err();
        assert_eq!(late.kind(), std::io::ErrorKind::TimedOut);
        assert_eq!(short.writes.concat(), b"OK ");
        // Short before it: the rest follows.
        let mut short = Wire::taking(3);
        let later = Instant::now().checked_add(std::time::Duration::from_secs(60));
        write_all_pair(&mut short, head, body, later).unwrap();
        assert_eq!(short.writes.concat(), b"OK 5 1000\nhello");
    }

    /// Runs `relay` for a 1 000-byte object whose first `cached` bytes are
    /// the stored prefix, with the next `in_hand` bytes already in the ring
    /// behind a header and the rest waiting in the origin socket, keeping
    /// half the tail; returns the client-side write calls.
    fn relayed_writes(cached: usize, in_hand: usize, client_bps: f64) -> Vec<Vec<u8>> {
        const HEAD: &[u8] = b"OK 1000 96000\n";
        let proxy = CachingProxy::start(ProxyConfig::new("127.0.0.1:9".parse().unwrap(), 1e6))
            .expect("a proxy to borrow the state of");
        let state = &*proxy.state;
        let object = &clip_bytes(1_000)[..];
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut far_end, _) = listener.accept().unwrap();
        far_end.write_all(&object[cached + in_hand..]).unwrap();
        drop(far_end);

        let mut scratch = WorkerScratch::new();
        let in_hand = HEAD.len()..HEAD.len() + in_hand;
        scratch.chunk[in_hand.clone()].copy_from_slice(&object[cached..][..in_hand.len()]);
        let origin = OriginConn { stream, in_hand };
        let job = Job {
            name: "clip",
            meta: ObjectMeta::new(key_for("clip"), 1_000.0 / 96e3, 96e3, 0.0),
            size: 1_000,
            prefix: &object[..cached],
            keep: (1_000 - cached) / 2,
        };
        let mut client = Wire::taking(usize::MAX);
        let mut pace = RateLimiter::new(client_bps);
        let (tail_len, _) = relay(
            state,
            &job,
            Some(origin),
            HEAD,
            &mut client,
            &mut pace,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(tail_len as usize, 1_000 - cached);
        assert_eq!(client.writes.concat(), [HEAD, object].concat());
        // Exactly the granted leading tail bytes are kept, whichever step
        // they arrived in.
        assert_eq!(scratch.retained, object[cached..][..job.keep]);
        client.writes
    }

    #[test]
    fn the_header_leaves_in_one_write_with_the_first_bytes_in_hand() {
        const HEAD: usize = b"OK 1000 96000\n".len();
        // A miss whose payload arrived with the origin's header: one write.
        assert_eq!(relayed_writes(0, 1_000, 0.0).len(), 1);
        // Only part of it did: the header does not wait for the rest.
        let writes = relayed_writes(0, 300, 0.0);
        assert_eq!(writes[0].len(), HEAD + 300);
        // Nothing but the header has arrived: the header leaves alone.
        let writes = relayed_writes(0, 0, 0.0);
        assert_eq!(writes[0].len(), HEAD);
        // A partial hit: header and cached prefix first, then the tail.
        let writes = relayed_writes(400, 600, 0.0);
        assert_eq!(
            writes.iter().map(Vec::len).collect::<Vec<_>>(),
            [HEAD + 400, 600]
        );
        // A bucket that makes the first chunk wait (1 000 B at 20 kB/s:
        // 50 ms) does not hold the header back with it.
        let writes = relayed_writes(0, 1_000, 20_000.0);
        assert_eq!(
            writes.iter().map(Vec::len).collect::<Vec<_>>(),
            [HEAD, 1_000]
        );
    }
}
