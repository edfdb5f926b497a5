//! The benchmark's own origin: the repository's wire protocol, payloads
//! served from memory.
//!
//! `sc_proxy::OriginServer` derives every payload byte from a hash of the
//! object name while it serves, which caps a relayed object at a few
//! hundred MB/s — a timed region behind it measures mostly that hash. The
//! stub generates the same bytes once, during set-up, with
//! `sc_proxy::fill_content`, and then only copies them to the socket. It
//! speaks through `sc_proxy::protocol`, so its headers are the program's
//! own; [`self_test`] holds it byte-for-byte against `OriginServer`.

use crate::trace::now_ns;
use sc_proxy::protocol::{read_request, write_response, Response};
use sc_proxy::{ObjectSpec, OriginConfig, OriginServer};
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A set of equally sized objects with their payloads in memory. Clients
/// verify responses against the same table the stub serves from.
#[derive(Debug)]
pub struct Payloads {
    names: Vec<String>,
    index: HashMap<String, usize>,
    object_bytes: usize,
    bitrate_bps: f64,
    data: Vec<u8>,
}

impl Payloads {
    /// Generates `count` objects `"<prefix>-<i>"` of `object_bytes` each.
    pub fn generate(prefix: &str, count: usize, object_bytes: usize, bitrate_bps: f64) -> Self {
        let names: Vec<String> = (0..count).map(|i| format!("{prefix}-{i}")).collect();
        let mut data = vec![0u8; count * object_bytes];
        for (name, chunk) in names.iter().zip(data.chunks_mut(object_bytes)) {
            sc_proxy::fill_content(name, 0, chunk);
        }
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        Payloads {
            names,
            index,
            object_bytes,
            bitrate_bps,
            data,
        }
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn object_bytes(&self) -> usize {
        self.object_bytes
    }

    pub fn bitrate_bps(&self) -> f64 {
        self.bitrate_bps
    }

    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    pub fn bytes(&self, i: usize) -> &[u8] {
        &self.data[i * self.object_bytes..(i + 1) * self.object_bytes]
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }
}

/// One connection the stub served, on the run's shared clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OriginRecord {
    /// Index of the requested object in the [`Payloads`] table.
    pub object: usize,
    /// The connection was accepted.
    pub accepted_ns: u64,
    /// The request line was read and parsed.
    pub parsed_ns: u64,
    /// The last payload byte was handed to the kernel.
    pub served_ns: u64,
    pub payload_bytes: u64,
}

#[derive(Debug)]
struct StubState {
    payloads: Arc<Payloads>,
    connections: AtomicU64,
    recording: AtomicBool,
    records: Mutex<Vec<OriginRecord>>,
}

/// A running origin stub: a fixed set of handler threads that each accept
/// and serve connections on the one listener (the kernel wakes one of them
/// per connection, so no connection is handed from thread to thread), all
/// joined on drop.
#[derive(Debug)]
pub struct OriginStub {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    state: Arc<StubState>,
}

impl OriginStub {
    /// Binds an ephemeral localhost port. `handlers` bounds how many
    /// connections are served at once; the benchmark's closed loop never
    /// has more origin connections open than it has clients.
    pub fn start(payloads: Arc<Payloads>, handlers: usize) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let state = Arc::new(StubState {
            payloads,
            connections: AtomicU64::new(0),
            recording: AtomicBool::new(false),
            records: Mutex::new(Vec::new()),
        });
        let threads = (0..handlers.max(1))
            .map(|_| {
                let listener = listener.try_clone()?;
                let shutdown = Arc::clone(&shutdown);
                let state = Arc::clone(&state);
                Ok(std::thread::spawn(move || {
                    serve_loop(&listener, &shutdown, &state)
                }))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(OriginStub {
            addr,
            shutdown,
            threads,
            state,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections that asked for a known object, since start.
    pub fn connections(&self) -> u64 {
        self.state.connections.load(Ordering::SeqCst)
    }

    /// Starts or stops keeping one [`OriginRecord`] per connection.
    pub fn set_recording(&self, on: bool) {
        self.state.recording.store(on, Ordering::SeqCst);
    }

    /// Takes the records kept so far, in completion order.
    pub fn take_records(&self) -> Vec<OriginRecord> {
        std::mem::take(
            &mut *self
                .state
                .records
                .lock()
                .expect("a handler panicked while recording"),
        )
    }
}

impl Drop for OriginStub {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // One connection per handler: each wakes one of them from `accept`,
        // and a woken handler sees the flag and does not accept again.
        for _ in &self.threads {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

fn serve_loop(listener: &TcpListener, shutdown: &AtomicBool, state: &StubState) {
    loop {
        let accepted = listener.accept();
        let accepted_ns = now_ns();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // A failed accept is the connecting side's failure, and so is a
        // peer that vanished mid-transfer: the client that was waiting for
        // those bytes counts it.
        if let Ok((stream, _)) = accepted {
            let _ = serve(stream, accepted_ns, state);
        }
    }
}

fn serve(mut stream: TcpStream, accepted_ns: u64, state: &StubState) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    // A connection that never sends its request must not hold a handler.
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let request = match read_request(&mut BufReader::new(&stream)) {
        Ok(request) => request,
        Err(_) => return Ok(()),
    };
    let parsed_ns = now_ns();
    let Some(object) = state.payloads.lookup(&request.name) else {
        let _ = write_response(&mut stream, &Response::Err("unknown object".into()));
        return Ok(());
    };
    // Counted before the first byte goes out: whoever has read the answer
    // to its end then finds the connection counted.
    state.connections.fetch_add(1, Ordering::SeqCst);
    let payload = state.payloads.bytes(object);
    write_response(
        &mut stream,
        &Response::Ok {
            size: payload.len() as u64,
            bitrate_bps: state.payloads.bitrate_bps(),
            degraded: false,
        },
    )
    .map_err(std::io::Error::other)?;
    let offset = usize::try_from(request.offset)
        .unwrap_or(usize::MAX)
        .min(payload.len());
    stream.write_all(&payload[offset..])?;
    let served_ns = now_ns();
    let sent = (payload.len() - offset) as u64;
    if state.recording.load(Ordering::SeqCst) {
        state
            .records
            .lock()
            .expect("a handler panicked while recording")
            .push(OriginRecord {
                object,
                accepted_ns,
                parsed_ns,
                served_ns,
                payload_bytes: sent,
            });
    }
    Ok(())
}

/// Everything a server sends in answer to one request line, up to EOF.
fn raw_exchange(addr: SocketAddr, request_line: &str) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(request_line.as_bytes())?;
    let mut answer = Vec::new();
    stream.read_to_end(&mut answer)?;
    Ok(answer)
}

/// Requires the stub and `sc_proxy::OriginServer` to answer identically —
/// header and every payload byte — for a whole object, a range from the
/// middle, a range from past the end, and an unknown name. The stub may be
/// faster than the repository's origin; it may never be different.
pub fn self_test(payloads: &Arc<Payloads>) -> Result<(), String> {
    let io = |what: &str, e: std::io::Error| format!("origin self-test: {what}: {e}");
    let stub =
        OriginStub::start(Arc::clone(payloads), 1).map_err(|e| io("starting the stub", e))?;
    let last = payloads.len() - 1;
    let reference = OriginServer::start(OriginConfig {
        objects: [0, last]
            .into_iter()
            .map(|i| {
                ObjectSpec::new(
                    payloads.name(i),
                    payloads.object_bytes() as u64,
                    payloads.bitrate_bps(),
                )
            })
            .collect(),
        rate_limit_bps: 0.0,
    })
    .map_err(|e| format!("origin self-test: starting OriginServer: {e}"))?;
    let size = payloads.object_bytes();
    let requests = [
        format!("GET {} 0\n", payloads.name(0)),
        format!("GET {} {}\n", payloads.name(last), size / 2 + 1),
        format!("GET {} {}\n", payloads.name(0), size + 7),
        "GET no-such-object 0\n".to_string(),
    ];
    for line in &requests {
        let from_stub = raw_exchange(stub.addr(), line).map_err(|e| io("asking the stub", e))?;
        let from_repo =
            raw_exchange(reference.addr(), line).map_err(|e| io("asking OriginServer", e))?;
        if from_stub != from_repo {
            let at = from_stub
                .iter()
                .zip(&from_repo)
                .position(|(a, b)| a != b)
                .unwrap_or(from_stub.len().min(from_repo.len()));
            return Err(format!(
                "origin self-test: answers to {:?} differ at byte {at} (stub sent {} bytes, OriginServer {})",
                line.trim_end(),
                from_stub.len(),
                from_repo.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Arc<Payloads> {
        Arc::new(Payloads::generate("obj", 4, 3000, 96_000.0))
    }

    #[test]
    fn payload_table_matches_the_content_function() {
        let payloads = small();
        assert_eq!(payloads.len(), 4);
        assert_eq!(payloads.name(3), "obj-3");
        assert_eq!(
            sc_proxy::verify_content("obj-2", 0, payloads.bytes(2)),
            None
        );
        assert_ne!(payloads.bytes(0), payloads.bytes(1));
    }

    #[test]
    fn stub_is_byte_identical_to_the_repository_origin() {
        self_test(&small()).unwrap();
    }

    #[test]
    fn stub_counts_and_records_what_it_serves() {
        let payloads = small();
        let stub = OriginStub::start(Arc::clone(&payloads), 2).unwrap();
        raw_exchange(stub.addr(), "GET obj-1 0\n").unwrap();
        assert!(stub.take_records().is_empty(), "recording starts off");
        stub.set_recording(true);
        let answer = raw_exchange(stub.addr(), "GET obj-2 1000\n").unwrap();
        assert!(answer.ends_with(&payloads.bytes(2)[1000..]));
        assert_eq!(stub.connections(), 2);
        let records = stub.take_records();
        assert_eq!(records.len(), 1);
        let r = records[0];
        assert_eq!((r.object, r.payload_bytes), (2, 2000));
        assert!(r.accepted_ns <= r.parsed_ns && r.parsed_ns <= r.served_ns);
        // Unknown names and junk are answered or dropped, never counted.
        raw_exchange(stub.addr(), "GET nothing 0\n").unwrap();
        raw_exchange(stub.addr(), "junk\n").unwrap();
        assert_eq!(stub.connections(), 2);
    }
}
