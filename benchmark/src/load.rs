//! The closed-loop load generator for the proxy workloads.
//!
//! Each client thread is a caller that waits for its reply: it opens a
//! connection, sends one `GET`, reads the answer to EOF, checks it, and only
//! then picks its next object. Client `c` of `n` draws only object indices
//! ≡ `c` (mod `n`), so the client that caused an origin connection can be
//! told from the object it asked for.

use crate::origin_stub::Payloads;
use crate::procfs::{sample_self, ProcSample};
use crate::trace::{now_ns, Span, SpanIds};
use sc_proxy::protocol::{read_response, write_request, Request, Response};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::Duration;

/// xorshift64*: the pick sequence is a pure function of the seed.
#[derive(Debug, Clone)]
pub struct Picker {
    state: u64,
}

impl Picker {
    pub fn new(seed: u64, lane: u64) -> Self {
        // SplitMix64 finaliser, so neighbouring seeds give unrelated streams
        // and the state is never zero.
        let mut z = seed
            .wrapping_add(lane.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Picker {
            state: (z ^ (z >> 31)) | 1,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// What a client carries from one phase of load to the next: its pick
/// stream, so warm-up and measurement never replay picks, and its receive
/// buffer, so the process's peak memory does not depend on which allocator
/// arena each phase's threads happen to draw from.
#[derive(Debug)]
pub struct ClientState {
    picker: Picker,
    buf: Vec<u8>,
}

impl ClientState {
    pub fn new(seed: u64, lane: u64, object_bytes: usize) -> Self {
        ClientState {
            picker: Picker::new(seed, lane),
            buf: Vec::with_capacity(object_bytes),
        }
    }

    pub fn buf(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

/// Instants of one fetch on the run's shared clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchTimes {
    pub start_ns: u64,
    /// `connect` returned.
    pub connected_ns: u64,
    /// The response header was read and parsed.
    pub header_ns: u64,
    /// The last payload byte arrived.
    pub body_ns: u64,
    /// The server closed the connection.
    pub eof_ns: u64,
}

/// Fetches `name` and checks the answer against `expected`: an `OK` header
/// that is not degraded and carries the right size, exactly that many
/// payload bytes, then EOF. With `compare` the payload is also compared
/// byte for byte. `buf` is the caller's reusable receive buffer.
pub fn fetch(
    addr: SocketAddr,
    name: &str,
    expected: &[u8],
    compare: bool,
    buf: &mut Vec<u8>,
) -> Result<FetchTimes, String> {
    let mut times = FetchTimes {
        start_ns: now_ns(),
        ..FetchTimes::default()
    };
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    times.connected_ns = now_ns();
    stream.set_nodelay(true).ok();
    // No answer for this long is a failed operation, not a hung benchmark.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    // Framed by the program's own writer, sent as one segment.
    let mut line = Vec::with_capacity(64);
    write_request(
        &mut line,
        &Request {
            name: name.to_string(),
            offset: 0,
        },
    )
    .map_err(|e| format!("request: {e}"))?;
    (&stream)
        .write_all(&line)
        .map_err(|e| format!("request: {e}"))?;
    let mut reader = BufReader::new(&stream);
    let size = match read_response(&mut reader).map_err(|e| format!("response: {e}"))? {
        Response::Ok {
            size,
            degraded: false,
            ..
        } => size,
        Response::Ok { .. } => return Err("degraded response".into()),
        Response::Err(message) => return Err(format!("ERR {message}")),
        Response::Busy { retry_after_ms } => return Err(format!("BUSY {retry_after_ms}")),
    };
    times.header_ns = now_ns();
    if size != expected.len() as u64 {
        return Err(format!(
            "header says {size} bytes, expected {}",
            expected.len()
        ));
    }
    buf.resize(expected.len(), 0);
    let mut received = 0;
    while received < buf.len() {
        match reader.read(&mut buf[received..]) {
            Ok(0) => return Err(format!("short body: {received} of {size} bytes")),
            Ok(n) => received += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("body: {e}")),
        }
    }
    times.body_ns = now_ns();
    let mut extra = [0u8; 64];
    loop {
        match reader.read(&mut extra) {
            Ok(0) => break,
            Ok(n) => return Err(format!("{n} bytes after the declared size")),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("waiting for close: {e}")),
        }
    }
    times.eof_ns = now_ns();
    if compare && buf.as_slice() != expected {
        let at = buf.iter().zip(expected).position(|(a, b)| a != b);
        return Err(format!("payload differs at byte {at:?}"));
    }
    Ok(times)
}

/// What one timed phase of closed-loop load produced.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Client-observed connect → EOF time of every correct operation, in
    /// microseconds, in completion order per client.
    pub latencies_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub failures: Vec<String>,
    /// Verified payload bytes delivered.
    pub bytes: u64,
    /// Wall-clock length of the phase, first request to last completion.
    pub wall_secs: f64,
    /// Root and phase spans, when the phase was traced.
    pub spans: Vec<Span>,
    /// Process counters just before the first and just after the last
    /// request, taken while every client thread is alive.
    pub proc_before: ProcSample,
    pub proc_after: ProcSample,
}

impl LoadResult {
    pub fn correct(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn throughput_ops_s(&self) -> f64 {
        self.correct() as f64 / self.wall_secs
    }
}

/// How one phase of load is run.
#[derive(Debug, Clone, Copy)]
pub struct LoadPlan {
    pub addr: SocketAddr,
    pub clients: usize,
    /// Stop issuing requests after this long …
    pub duration: Duration,
    /// … or after this many per client, whichever comes first.
    pub max_ops_per_client: u64,
    /// Compare the payload of every `compare_every`-th operation byte for
    /// byte (every response is always length-checked).
    pub compare_every: u64,
    pub traced: bool,
}

/// Runs `plan` against `payloads` with one thread per entry of `clients`.
pub fn run(plan: &LoadPlan, payloads: &Payloads, clients: &mut [ClientState]) -> LoadResult {
    assert_eq!(clients.len(), plan.clients);
    let per_client = payloads.len() / plan.clients;
    assert!(per_client > 0, "fewer objects than clients");
    // Main thread + clients meet three times: start, end, and after the
    // main thread has sampled /proc with every client still alive.
    let barrier = Barrier::new(plan.clients + 1);
    let mut result = LoadResult::default();
    let mut first_start = u64::MAX;
    let mut last_end = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, ClientState { picker, buf })| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = LoadResult::default();
                    let mut ids = SpanIds::lane(c, plan.clients);
                    barrier.wait();
                    let started = now_ns();
                    let deadline = started + plan.duration.as_nanos() as u64;
                    let mut ended = started;
                    while out.attempted < plan.max_ops_per_client && now_ns() < deadline {
                        let object = c + plan.clients * picker.below(per_client);
                        let compare = out.attempted % plan.compare_every == 0;
                        out.attempted += 1;
                        match fetch(
                            plan.addr,
                            payloads.name(object),
                            payloads.bytes(object),
                            compare,
                            buf,
                        ) {
                            Ok(t) => {
                                out.latencies_us.push((t.eof_ns - t.start_ns) as f64 / 1e3);
                                out.bytes += payloads.object_bytes() as u64;
                                ended = t.eof_ns;
                                if plan.traced {
                                    push_spans(&mut out.spans, &mut ids, &t);
                                }
                            }
                            Err(message) => {
                                out.failed += 1;
                                ended = now_ns();
                                if out.failures.len() < 3 {
                                    out.failures
                                        .push(format!("{}: {message}", payloads.name(object)));
                                }
                            }
                        }
                    }
                    barrier.wait();
                    barrier.wait();
                    (out, started, ended)
                })
            })
            .collect();
        result.proc_before = sample_self();
        barrier.wait();
        barrier.wait();
        result.proc_after = sample_self();
        barrier.wait();
        for handle in handles {
            let (out, started, ended) = handle.join().expect("a client thread panicked");
            result.latencies_us.extend(out.latencies_us);
            result.attempted += out.attempted;
            result.failed += out.failed;
            result.failures.extend(out.failures);
            result.bytes += out.bytes;
            result.spans.extend(out.spans);
            first_start = first_start.min(started);
            last_end = last_end.max(ended);
        }
    });
    result.wall_secs = last_end.saturating_sub(first_start) as f64 / 1e9;
    result
}

/// Span names of the client side of one request. The four phases tile the
/// request span exactly, so their means sum to the mean latency.
pub const REQUEST: &str = "client.request";
pub const CONNECT: &str = "client.connect";
pub const TTFB: &str = "client.ttfb";
pub const BODY: &str = "client.body";
pub const CLOSE: &str = "client.close";

fn push_spans(spans: &mut Vec<Span>, ids: &mut SpanIds, t: &FetchTimes) {
    let root = ids.next();
    spans.push(Span {
        id: root,
        parent: 0,
        name: REQUEST,
        start_ns: t.start_ns,
        end_ns: t.eof_ns,
    });
    for (name, start_ns, end_ns) in [
        (CONNECT, t.start_ns, t.connected_ns),
        (TTFB, t.connected_ns, t.header_ns),
        (BODY, t.header_ns, t.body_ns),
        (CLOSE, t.body_ns, t.eof_ns),
    ] {
        spans.push(Span {
            id: ids.next(),
            parent: root,
            name,
            start_ns,
            end_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_is_a_function_of_its_seed_and_stays_in_range() {
        let draw = |seed, lane| {
            let mut p = Picker::new(seed, lane);
            (0..64).map(|_| p.below(1024)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        assert_ne!(draw(7, 0), draw(8, 0));
        let mut p = Picker::new(0, 0);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[p.below(5)] = true;
        }
        assert!(seen.iter().all(|s| *s), "all of 0..5 are reachable");
    }

    #[test]
    fn phase_spans_tile_the_request_span() {
        let t = FetchTimes {
            start_ns: 100,
            connected_ns: 130,
            header_ns: 190,
            body_ns: 260,
            eof_ns: 300,
        };
        let mut spans = Vec::new();
        push_spans(&mut spans, &mut SpanIds::lane(0, 1), &t);
        assert_eq!(spans.len(), 5);
        let root = spans[0];
        assert_eq!((root.name, root.parent), (REQUEST, 0));
        let phases: u64 = spans[1..].iter().map(Span::duration_ns).sum();
        assert_eq!(phases, root.duration_ns());
        assert!(spans[1..].iter().all(|s| s.parent == root.id));
    }
}
