//! A measuring streaming client.

use crate::content::verify_content;
use crate::error::ProxyError;
use crate::protocol::{read_response, write_request, Request, Response};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Longest `STATS` answer [`StreamingClient::stats`] reads; one is under
/// 1 KiB.
const MAX_STATS_BYTES: u64 = 64 * 1024;

/// What a [`StreamingClient`] measured while downloading one object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferReport {
    /// Total bytes received.
    pub bytes: u64,
    /// Wall-clock transfer duration in seconds.
    pub duration_secs: f64,
    /// Average throughput in bytes per second.
    pub throughput_bps: f64,
    /// The object's CBR bit-rate as reported by the server.
    pub bitrate_bps: f64,
    /// Minimal startup delay (seconds) that would have allowed stall-free
    /// playout at the object's bit-rate, computed from the byte arrival
    /// curve: `max_p (arrival_time(p) − p / r)⁺`.
    pub startup_delay_secs: f64,
    /// Whether the payload matched the expected synthetic content.
    pub content_ok: bool,
    /// Whether the server flagged the response as degraded: an origin
    /// outage was masked with a cached prefix, so `bytes` covers only that
    /// prefix rather than the full object.
    pub degraded: bool,
}

impl TransferReport {
    /// Whether the transfer could have started playing immediately without
    /// stalling (startup delay below `tolerance_secs`).
    pub fn immediate(&self, tolerance_secs: f64) -> bool {
        self.startup_delay_secs <= tolerance_secs
    }
}

/// A simple client that downloads one object and measures the startup delay
/// a streaming player would have experienced.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamingClient;

impl StreamingClient {
    /// Creates a client.
    pub fn new() -> Self {
        StreamingClient
    }

    /// Downloads `name` from `addr` (an origin server or a caching proxy)
    /// and returns the measured [`TransferReport`].
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::UnknownObject`] if the server reports an
    /// error, [`ProxyError::Busy`] if it shed the request under overload
    /// (the payload is the suggested retry pause in milliseconds), and
    /// [`ProxyError::Io`]/[`ProxyError::Protocol`] for transport failures,
    /// and [`ProxyError::Protocol`] if the server sends more bytes than its
    /// header declared.
    pub fn fetch(&self, addr: SocketAddr, name: &str) -> Result<TransferReport, ProxyError> {
        // The clock starts at the request, so time spent by the server
        // before the first payload byte counts towards the startup delay.
        let started = Instant::now();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        write_request(
            &mut writer,
            &Request {
                name: name.to_string(),
                offset: 0,
            },
        )?;
        let (size, bitrate_bps, degraded) = match read_response(&mut reader)? {
            Response::Ok {
                size,
                bitrate_bps,
                degraded,
            } => (size, bitrate_bps, degraded),
            Response::Err(message) => return Err(ProxyError::UnknownObject(message)),
            Response::Busy { retry_after_ms } => return Err(ProxyError::Busy(retry_after_ms)),
        };
        let mut received: u64 = 0;
        let mut startup_delay: f64 = 0.0;
        let mut content_ok = true;
        let mut chunk = vec![0u8; 16 * 1024];
        while received < size {
            let want = chunk.len().min((size - received) as usize);
            let n = reader.read(&mut chunk[..want])?;
            if n == 0 {
                break;
            }
            if content_ok && verify_content(name, received, &chunk[..n]).is_some() {
                content_ok = false;
            }
            let arrival = started.elapsed().as_secs_f64();
            // The first byte of this chunk plays at `delay + received / r`;
            // it arrived at `arrival`, so the delay must cover the gap.
            let required = arrival - received as f64 / bitrate_bps;
            if required > startup_delay {
                startup_delay = required;
            }
            received += n as u64;
        }
        let duration = started.elapsed().as_secs_f64();
        // Wait for the server to close the connection. This does not change
        // the measurements but synchronises with the server's post-transfer
        // bookkeeping (cache admission at a proxy), which keeps callers that
        // immediately inspect proxy state free of races. One read suffices:
        // a well-behaved server sends nothing past the declared size.
        if reader.read(&mut [0u8; 1]).is_ok_and(|n| n > 0) {
            return Err(ProxyError::Protocol(format!(
                "`{name}`: the server sent past the declared size of {size} bytes"
            )));
        }
        Ok(TransferReport {
            bytes: received,
            duration_secs: duration,
            throughput_bps: if duration > 0.0 {
                received as f64 / duration
            } else {
                0.0
            },
            bitrate_bps,
            startup_delay_secs: startup_delay.max(0.0),
            content_ok,
            degraded,
        })
    }

    /// Scrapes a proxy's `STATS` verb from `addr` and returns the raw
    /// single-line JSON dump (see `sc_proxy::ProxyStats::to_json`).
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::Io`] for transport failures and
    /// [`ProxyError::Protocol`] if the server closed without answering or
    /// sent 64 KiB without ending the line.
    pub fn stats(&self, addr: SocketAddr) -> Result<String, ProxyError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        writer.write_all(b"STATS\n")?;
        writer.flush()?;
        let mut line = String::new();
        reader.take(MAX_STATS_BYTES).read_line(&mut line)?;
        if line.is_empty() {
            return Err(ProxyError::Protocol(
                "server closed without a STATS answer".into(),
            ));
        }
        if line.len() as u64 == MAX_STATS_BYTES && !line.ends_with('\n') {
            return Err(ProxyError::Protocol(format!(
                "STATS answer exceeds {MAX_STATS_BYTES} bytes"
            )));
        }
        Ok(line.trim_end().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_threshold() {
        let report = TransferReport {
            bytes: 10,
            duration_secs: 1.0,
            throughput_bps: 10.0,
            bitrate_bps: 100.0,
            startup_delay_secs: 0.05,
            content_ok: true,
            degraded: false,
        };
        assert!(report.immediate(0.1));
        assert!(!report.immediate(0.01));
    }

    /// A server that keeps sending past the size its header declared ends
    /// the fetch with a protocol error instead of keeping it reading.
    #[test]
    fn bytes_past_the_declared_size_are_a_protocol_error() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(&conn).read_line(&mut request).unwrap();
            let mut answer = b"OK 10 1000\n".to_vec();
            answer.extend((0..10).map(|i| crate::content_byte("clip", i)));
            conn.write_all(&answer).unwrap();
            // Junk until the client hangs up.
            while conn.write_all(&[b'x'; 1024]).is_ok() {}
        });
        let (done, fetched) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(StreamingClient::new().fetch(addr, "clip")));
        let answer = fetched
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("fetch must stop reading at the declared size");
        assert!(
            matches!(answer, Err(ProxyError::Protocol(_))),
            "expected a protocol error, got {answer:?}"
        );
    }

    /// A peer that streams bytes without ever ending the line costs the
    /// client a bounded read, not unbounded memory.
    #[test]
    fn an_endless_stats_answer_is_a_protocol_error() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut verb = String::new();
            BufReader::new(&conn).read_line(&mut verb).unwrap();
            // The client hangs up part-way: the write may fail.
            let _ = conn.write_all(&vec![b'x'; 1 << 20]);
        });
        let answer = StreamingClient::new().stats(addr);
        assert!(
            matches!(answer, Err(ProxyError::Protocol(_))),
            "expected a protocol error, got {:?}",
            answer.map(|line| line.len())
        );
        peer.join().unwrap();
    }
}
