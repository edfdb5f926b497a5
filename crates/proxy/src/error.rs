//! Error type for the proxy prototype.

use std::error::Error;
use std::fmt;
use std::io;

/// Errors returned by the proxy, origin server and streaming client.
#[derive(Debug)]
pub enum ProxyError {
    /// An I/O error on a socket or listener.
    Io(io::Error),
    /// The peer sent a malformed protocol message.
    Protocol(String),
    /// The requested object is not known to the server.
    UnknownObject(String),
    /// A configuration value was invalid (name, description).
    InvalidConfig(&'static str, String),
    /// The server shed the request under overload before doing any work;
    /// the payload is the suggested retry pause in milliseconds.
    Busy(u64),
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::Io(e) => write!(f, "i/o error: {e}"),
            ProxyError::Protocol(why) => write!(f, "protocol violation: {why}"),
            ProxyError::UnknownObject(name) => write!(f, "unknown object `{name}`"),
            ProxyError::InvalidConfig(name, why) => {
                write!(f, "invalid configuration for `{name}`: {why}")
            }
            ProxyError::Busy(retry_after_ms) => {
                write!(f, "server busy, retry after {retry_after_ms} ms")
            }
        }
    }
}

impl Error for ProxyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProxyError::Io(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<io::Error> for ProxyError {
    fn from(e: io::Error) -> Self {
        ProxyError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let io_err = ProxyError::from(io::Error::other("boom"));
        assert!(io_err.to_string().contains("boom"));
        assert!(io_err.source().is_some());
        assert!(ProxyError::UnknownObject("clip".into())
            .to_string()
            .contains("clip"));
        assert!(ProxyError::Protocol("bad line".into())
            .to_string()
            .contains("bad line"));
        assert!(ProxyError::InvalidConfig("rate", "negative".into())
            .to_string()
            .contains("rate"));
        assert!(ProxyError::Busy(125).to_string().contains("125"));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<ProxyError>();
    }
}
