//! The minimal line-based streaming protocol used by the prototype.
//!
//! The paper's architecture is transport-agnostic (the authors mention RTSP
//! and RTP); the prototype only needs a way to request an object (or a byte
//! range of it) and receive the payload sequentially, so a tiny text
//! protocol suffices:
//!
//! ```text
//! client → server:  GET <object-name> <start-offset>\n
//!                   STATS\n
//! server → client:  OK <total-size> <bitrate-bps>[ degraded]\n   followed by payload bytes
//!                   ERR <message>\n
//!                   BUSY <retry-after-ms>\n
//! ```
//!
//! The optional trailing `degraded` token marks a response served from a
//! proxy's cached prefix while the origin is unreachable: the header still
//! carries the object's full size, but only the prefix follows. `BUSY` is
//! the overload-shedding answer: the server refused to do any work for this
//! connection and suggests retrying after the given pause. `STATS` asks a
//! proxy to dump its counters as one JSON line (see
//! [`crate::ProxyStats::to_json`]).
//!
//! Parsing is hardened against adversarial peers: every line read is
//! bounded by [`MAX_LINE_BYTES`] and [`MAX_LINE_FIELDS`], so junk input
//! costs a bounded read and a clean protocol error — never an unbounded
//! buffer or a panic.

use crate::error::ProxyError;
use std::io::{BufRead, Write};

/// Hard upper bound on any protocol line in bytes (terminator excluded).
/// A peer that streams a longer line gets a protocol error after at most
/// this many bytes have been buffered; the rest is never read.
pub const MAX_LINE_BYTES: usize = 1024;

/// Hard upper bound on the number of whitespace-separated fields in a
/// protocol line. No legal message has more than four (`OK <size> <bps>
/// degraded`).
pub const MAX_LINE_FIELDS: usize = 4;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Name of the requested object.
    pub name: String,
    /// Byte offset at which the transfer should start.
    pub offset: u64,
}

/// A parsed client command: a [`Request`] for object bytes, or a query
/// verb that carries no payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Fetch an object (optionally from a byte offset).
    Get(Request),
    /// Dump the server's statistics as one line of JSON.
    Stats,
}

/// A parsed response header.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The object exists: total size in bytes and its CBR bit-rate.
    Ok {
        /// Total object size in bytes.
        size: u64,
        /// Encoding bit-rate in bytes per second.
        bitrate_bps: f64,
        /// The server is masking an origin outage: only its cached prefix
        /// follows, not the full `size` bytes.
        degraded: bool,
    },
    /// The request failed.
    Err(String),
    /// The server is overloaded and shed this request before doing any
    /// work; the client should retry after the suggested pause.
    Busy {
        /// Suggested pause before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

/// Reads one newline-terminated line, refusing to buffer more than
/// [`MAX_LINE_BYTES`]: the defence against a peer that streams an endless
/// "line" to balloon server memory. At EOF whatever arrived is the line.
fn read_line_bounded<R: BufRead>(reader: &mut R) -> Result<String, ProxyError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProxyError::Io(e)),
        };
        if available.is_empty() {
            break;
        }
        let (chunk, newline) = match available.iter().position(|&b| b == b'\n') {
            Some(i) => (&available[..i], true),
            None => (available, false),
        };
        if line.len() + chunk.len() > MAX_LINE_BYTES {
            return Err(ProxyError::Protocol(format!(
                "line exceeds {MAX_LINE_BYTES} bytes"
            )));
        }
        let consumed = chunk.len() + usize::from(newline);
        line.extend_from_slice(chunk);
        reader.consume(consumed);
        if newline {
            break;
        }
    }
    String::from_utf8(line)
        .map_err(|_| ProxyError::Protocol("non-UTF-8 bytes in protocol line".into()))
}

/// Splits a line into at most [`MAX_LINE_FIELDS`] whitespace-separated
/// fields, rejecting lines with more.
fn bounded_fields(line: &str) -> Result<Vec<&str>, ProxyError> {
    let mut fields = Vec::with_capacity(4);
    for field in line.split_whitespace() {
        if fields.len() == MAX_LINE_FIELDS {
            return Err(ProxyError::Protocol(format!(
                "more than {MAX_LINE_FIELDS} fields in protocol line"
            )));
        }
        fields.push(field);
    }
    Ok(fields)
}

/// Writes a request line.
///
/// # Errors
///
/// Returns [`ProxyError::Protocol`] for an object name that cannot be
/// framed (empty, over [`MAX_LINE_BYTES`], or containing whitespace or
/// control bytes) and propagates I/O errors from the writer.
pub fn write_request<W: Write>(writer: &mut W, request: &Request) -> Result<(), ProxyError> {
    if request.name.is_empty()
        || request.name.len() > MAX_LINE_BYTES - 32
        || request
            .name
            .bytes()
            .any(|b| b.is_ascii_whitespace() || b.is_ascii_control())
    {
        return Err(ProxyError::Protocol(format!(
            "object name {:?} cannot be framed",
            request.name
        )));
    }
    writeln!(writer, "GET {} {}", request.name, request.offset)?;
    writer.flush()?;
    Ok(())
}

/// Rejects object names a well-behaved client could never have framed:
/// `write_request` refuses control bytes, so a name containing one here is
/// line noise, not a cache key. Keeps reader and writer symmetric — every
/// accepted request re-serialises.
fn validate_name(name: &str) -> Result<(), ProxyError> {
    if name.len() > MAX_LINE_BYTES - 32 {
        return Err(ProxyError::Protocol("object name too long".into()));
    }
    if name.bytes().any(|b| b.is_ascii_control()) {
        return Err(ProxyError::Protocol(
            "object name contains control bytes".into(),
        ));
    }
    Ok(())
}

/// Reads and parses a client command line (`GET` or `STATS`).
///
/// # Errors
///
/// Returns [`ProxyError::Protocol`] for malformed, oversized or non-UTF-8
/// lines and propagates I/O errors.
pub fn read_command<R: BufRead>(reader: &mut R) -> Result<Command, ProxyError> {
    let line = read_line_bounded(reader)?;
    let fields = bounded_fields(&line)?;
    match fields.as_slice() {
        ["GET", name] => {
            validate_name(name)?;
            Ok(Command::Get(Request {
                name: (*name).to_string(),
                offset: 0,
            }))
        }
        ["GET", name, offset] => {
            validate_name(name)?;
            let offset = offset
                .parse::<u64>()
                .map_err(|_| ProxyError::Protocol(format!("bad offset `{offset}`")))?;
            Ok(Command::Get(Request {
                name: (*name).to_string(),
                offset,
            }))
        }
        ["STATS"] => Ok(Command::Stats),
        _ => Err(ProxyError::Protocol(format!(
            "expected `GET <name> [offset]` or `STATS`, got {line:?}"
        ))),
    }
}

/// Reads and parses a request line (`GET` only — servers that do not serve
/// statistics, like the origin, use this and treat `STATS` as malformed).
///
/// # Errors
///
/// Returns [`ProxyError::Protocol`] for malformed lines (including
/// `STATS`) and propagates I/O errors.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, ProxyError> {
    match read_command(reader)? {
        Command::Get(request) => Ok(request),
        Command::Stats => Err(ProxyError::Protocol(
            "STATS is not served on this endpoint".into(),
        )),
    }
}

/// Writes a response header.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_response<W: Write>(writer: &mut W, response: &Response) -> Result<(), ProxyError> {
    match response {
        Response::Ok {
            size,
            bitrate_bps,
            degraded: false,
        } => writeln!(writer, "OK {size} {bitrate_bps}")?,
        Response::Ok {
            size,
            bitrate_bps,
            degraded: true,
        } => writeln!(writer, "OK {size} {bitrate_bps} degraded")?,
        Response::Err(message) => writeln!(writer, "ERR {message}")?,
        Response::Busy { retry_after_ms } => writeln!(writer, "BUSY {retry_after_ms}")?,
    }
    writer.flush()?;
    Ok(())
}

/// A response header framed in memory, so that it reaches an unbuffered
/// socket in one write — alone, or in front of the first payload chunk.
pub(crate) fn header_line(response: &Response) -> Vec<u8> {
    let mut line = Vec::with_capacity(64);
    write_response(&mut line, response).expect("writing to a Vec cannot fail");
    line
}

/// Reads and parses a response header.
///
/// # Errors
///
/// Returns [`ProxyError::Protocol`] for malformed, oversized or non-UTF-8
/// lines and propagates I/O errors.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Response, ProxyError> {
    let line = read_line_bounded(reader)?;
    let trimmed = line.trim_end();
    if let Some(rest) = trimmed.strip_prefix("OK ") {
        let fields = bounded_fields(rest)?;
        let (size, bitrate_bps, extra) = match fields.as_slice() {
            [size, bps] => (size, bps, None),
            [size, bps, extra] => (size, bps, Some(*extra)),
            _ => {
                return Err(ProxyError::Protocol(format!("bad OK header {trimmed:?}")));
            }
        };
        let size = size
            .parse::<u64>()
            .map_err(|_| ProxyError::Protocol(format!("bad OK header {trimmed:?}")))?;
        let bitrate_bps = bitrate_bps
            .parse::<f64>()
            .map_err(|_| ProxyError::Protocol(format!("bad OK header {trimmed:?}")))?;
        let degraded = match extra {
            None => false,
            Some("degraded") => true,
            Some(extra) => {
                return Err(ProxyError::Protocol(format!(
                    "unexpected OK header token `{extra}` in {trimmed:?}"
                )))
            }
        };
        Ok(Response::Ok {
            size,
            bitrate_bps,
            degraded,
        })
    } else if let Some(message) = trimmed.strip_prefix("ERR ") {
        Ok(Response::Err(message.to_string()))
    } else if let Some(rest) = trimmed.strip_prefix("BUSY ") {
        let retry_after_ms = rest
            .trim()
            .parse::<u64>()
            .map_err(|_| ProxyError::Protocol(format!("bad BUSY header {trimmed:?}")))?;
        Ok(Response::Busy { retry_after_ms })
    } else {
        Err(ProxyError::Protocol(format!(
            "expected `OK`/`ERR`/`BUSY` header, got {trimmed:?}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_roundtrip() {
        let mut buf = Vec::new();
        let req = Request {
            name: "movie-7".into(),
            offset: 4096,
        };
        write_request(&mut buf, &req).unwrap();
        let parsed = read_request(&mut BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn request_without_offset_defaults_to_zero() {
        let parsed = read_request(&mut BufReader::new("GET clip\n".as_bytes())).unwrap();
        assert_eq!(parsed.offset, 0);
        assert_eq!(parsed.name, "clip");
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(read_request(&mut BufReader::new("PUT clip\n".as_bytes())).is_err());
        assert!(read_request(&mut BufReader::new("GET clip abc\n".as_bytes())).is_err());
        assert!(read_request(&mut BufReader::new("\n".as_bytes())).is_err());
        assert!(read_request(&mut BufReader::new("GET a 1 junk\n".as_bytes())).is_err());
    }

    #[test]
    fn unframeable_names_are_rejected_at_write_time() {
        for name in ["", "two words", "new\nline", "tab\tbed"] {
            let mut buf = Vec::new();
            assert!(
                write_request(
                    &mut buf,
                    &Request {
                        name: name.into(),
                        offset: 0
                    }
                )
                .is_err(),
                "name {name:?} must not frame"
            );
            assert!(buf.is_empty(), "nothing may be written for {name:?}");
        }
        let mut buf = Vec::new();
        assert!(write_request(
            &mut buf,
            &Request {
                name: "x".repeat(MAX_LINE_BYTES),
                offset: 0
            }
        )
        .is_err());
    }

    #[test]
    fn stats_verb_parses_and_tolerates_no_arguments_only() {
        assert_eq!(
            read_command(&mut BufReader::new("STATS\n".as_bytes())).unwrap(),
            Command::Stats
        );
        assert!(read_command(&mut BufReader::new("STATS now\n".as_bytes())).is_err());
        // The origin-side parser treats STATS as malformed.
        assert!(read_request(&mut BufReader::new("STATS\n".as_bytes())).is_err());
    }

    #[test]
    fn oversized_lines_are_rejected_with_a_bounded_read() {
        let long = format!("GET {}\n", "a".repeat(MAX_LINE_BYTES + 10));
        assert!(read_command(&mut BufReader::new(long.as_bytes())).is_err());
        // An endless line without a newline terminates too: the reader
        // gives up after at most MAX_LINE_BYTES buffered bytes.
        let mut endless = BufReader::new(std::io::repeat(b'G'));
        assert!(read_command(&mut endless).is_err());
        let mut endless = BufReader::new(std::io::repeat(b'O'));
        assert!(read_response(&mut endless).is_err());
    }

    #[test]
    fn non_utf8_lines_are_clean_protocol_errors() {
        let junk: &[u8] = b"GET \xff\xfe\xfd\n";
        assert!(matches!(
            read_command(&mut BufReader::new(junk)),
            Err(ProxyError::Protocol(_))
        ));
    }

    #[test]
    fn field_counts_are_bounded() {
        let crowded = format!("GET {}\n", "a b c d e f g h");
        assert!(read_command(&mut BufReader::new(crowded.as_bytes())).is_err());
        assert!(read_response(&mut BufReader::new("OK 1 2 3 4 5 6\n".as_bytes())).is_err());
    }

    #[test]
    fn response_roundtrip() {
        for degraded in [false, true] {
            let mut buf = Vec::new();
            let response = Response::Ok {
                size: 1_000_000,
                bitrate_bps: 48_000.0,
                degraded,
            };
            write_response(&mut buf, &response).unwrap();
            let parsed = read_response(&mut BufReader::new(buf.as_slice())).unwrap();
            assert_eq!(parsed, response);
        }

        let mut buf = Vec::new();
        write_response(&mut buf, &Response::Err("unknown object".into())).unwrap();
        let parsed = read_response(&mut BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(parsed, Response::Err("unknown object".to_string()));

        let mut buf = Vec::new();
        write_response(
            &mut buf,
            &Response::Busy {
                retry_after_ms: 125,
            },
        )
        .unwrap();
        let parsed = read_response(&mut BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(
            parsed,
            Response::Busy {
                retry_after_ms: 125
            }
        );
    }

    #[test]
    fn degraded_flag_is_spelled_out_on_the_wire() {
        let parsed = read_response(&mut BufReader::new("OK 42 9.5 degraded\n".as_bytes())).unwrap();
        assert_eq!(
            parsed,
            Response::Ok {
                size: 42,
                bitrate_bps: 9.5,
                degraded: true
            }
        );
    }

    #[test]
    fn malformed_responses_are_rejected() {
        assert!(read_response(&mut BufReader::new("YES 5\n".as_bytes())).is_err());
        assert!(read_response(&mut BufReader::new("OK abc def\n".as_bytes())).is_err());
        assert!(read_response(&mut BufReader::new("OK 5 9.5 partial\n".as_bytes())).is_err());
        assert!(read_response(&mut BufReader::new("BUSY soon\n".as_bytes())).is_err());
        assert!(read_response(&mut BufReader::new("BUSY\n".as_bytes())).is_err());
    }
}
