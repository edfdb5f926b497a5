//! # sc-proxy — a runnable streaming-media caching-proxy prototype
//!
//! This crate turns the architecture of *Accelerating Internet Streaming
//! Media Delivery using Network-Aware Partial Caching* (Jin, Bestavros,
//! Iyengar; ICDCS 2002) into an actual system you can run on localhost:
//!
//! * [`OriginServer`] — a streaming origin whose per-connection throughput
//!   is capped by a token-bucket [`RateLimiter`], emulating the constrained
//!   Internet path between the proxy and the content provider;
//! * [`CachingProxy`] — an edge proxy that serves cached object prefixes at
//!   LAN speed, fetches the remainder from the origin (joint delivery), and
//!   uses [`sc_cache`]'s network-aware policies to decide how much of each
//!   object to retain;
//! * [`StreamingClient`] — a client that measures the startup delay a real
//!   player would experience, directly comparable to the paper's
//!   *average service delay* metric.
//!
//! The wire protocol is a deliberately tiny line-based substitute for
//! RTSP/RTP (see [`protocol`]); the algorithms being demonstrated are
//! transport-agnostic.
//!
//! ```no_run
//! use sc_proxy::{CachingProxy, ObjectSpec, OriginConfig, OriginServer, ProxyConfig, StreamingClient};
//!
//! # fn main() -> Result<(), sc_proxy::ProxyError> {
//! // A 480 KB clip encoded at 96 KB/s, served over a 48 KB/s path.
//! let origin = OriginServer::start(OriginConfig {
//!     objects: vec![ObjectSpec::new("clip", 480_000, 96_000.0)],
//!     rate_limit_bps: 48_000.0,
//! })?;
//! let proxy = CachingProxy::start(ProxyConfig::new(origin.addr(), 10_000_000.0))?;
//!
//! let client = StreamingClient::new();
//! let cold = client.fetch(proxy.addr(), "clip")?;   // populates the prefix
//! let warm = client.fetch(proxy.addr(), "clip")?;   // accelerated by the cache
//! assert!(warm.startup_delay_secs <= cold.startup_delay_secs);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod content;
mod error;
pub mod fault;
mod origin;
mod pool;
pub mod protocol;
mod proxy;
mod ratelimit;
mod retry;
#[allow(unsafe_code)]
mod splice;
mod store;

pub use client::{StreamingClient, TransferReport};
pub use content::{content_byte, fill_content, verify_content};
pub use error::ProxyError;
pub use fault::{FaultAction, FaultPlan, FaultProfile};
pub use origin::{ObjectSpec, OriginConfig, OriginServer};
pub use proxy::{CachingProxy, ProxyConfig, ProxyStats};
pub use ratelimit::RateLimiter;
pub use retry::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
pub use store::PrefixStore;
