//! Request traces: who asks for what, and when.

use crate::catalog::Catalog;
use crate::object::ObjectId;
use crate::poisson::PoissonProcess;
use crate::zipf::ZipfLike;
use crate::WorkloadError;
use rand::Rng;

/// A single client request for a streaming media object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Arrival time in seconds since the start of the trace.
    pub time_secs: f64,
    /// The requested object.
    pub object: ObjectId,
}

/// Configuration of the request-trace generator.
///
/// Defaults match Table 1 of the paper: 100,000 Poisson-arriving requests
/// whose target objects follow a Zipf-like distribution with α = 0.73.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Number of requests to generate.
    pub requests: usize,
    /// Zipf-like popularity skew.
    pub zipf_alpha: f64,
    /// Mean request arrival rate (requests per second).
    pub arrival_rate: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            requests: 100_000,
            zipf_alpha: 0.73,
            // 100,000 requests at 1 request/second spans a bit over a day,
            // matching the multi-hour horizon of the paper's experiments.
            arrival_rate: 1.0,
        }
    }
}

impl TraceConfig {
    /// A reduced configuration for tests and examples (5,000 requests).
    pub fn small() -> Self {
        TraceConfig {
            requests: 5_000,
            ..Self::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] when the request count is zero or a
    /// distribution parameter is out of range.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.requests == 0 {
            return Err(WorkloadError::EmptyTrace);
        }
        if !self.zipf_alpha.is_finite() || self.zipf_alpha < 0.0 {
            return Err(WorkloadError::InvalidZipfAlpha(self.zipf_alpha));
        }
        PoissonProcess::new(self.arrival_rate)?;
        Ok(())
    }
}

/// One streaming *session* implied by a request: the arrival instant plus
/// the playback characteristics of the requested object.
///
/// A [`Request`] is a point event; a session spans the object's playback
/// duration and consumes bandwidth for its whole lifetime. Session-level
/// simulators (the `sc_sim` event core) consume these instead of raw
/// requests so overlapping sessions can contend for shared bottleneck
/// links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionArrival {
    /// Arrival time in seconds since the start of the trace.
    pub time_secs: f64,
    /// The requested object.
    pub object: ObjectId,
    /// Playback duration of the object in seconds.
    pub duration_secs: f64,
    /// CBR encoding rate in bytes per second.
    pub bitrate_bps: f64,
    /// Total object size in bytes (`duration_secs × bitrate_bps`).
    pub size_bytes: f64,
}

/// A time-ordered sequence of requests over a catalog, stored as two
/// columns: arrival times and requested objects, 12 bytes a request.
///
/// ```
/// use sc_workload::{Catalog, CatalogConfig, RequestTrace, TraceConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let catalog = Catalog::generate(&CatalogConfig::small(), &mut rng)?;
/// let trace = RequestTrace::generate(&catalog, &TraceConfig::small(), &mut rng)?;
/// assert_eq!(trace.len(), 5_000);
/// // Requests are sorted by arrival time.
/// assert!(trace.times().windows(2).all(|w| w[0] <= w[1]));
/// # Ok::<(), sc_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    times: Vec<f64>,
    objects: Vec<ObjectId>,
}

impl RequestTrace {
    /// Builds a trace from an explicit request list.
    ///
    /// The requests are sorted by arrival time.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::EmptyTrace`] if `requests` is empty.
    pub fn from_requests(mut requests: Vec<Request>) -> Result<Self, WorkloadError> {
        if requests.is_empty() {
            return Err(WorkloadError::EmptyTrace);
        }
        requests.sort_by(|a, b| {
            a.time_secs
                .partial_cmp(&b.time_secs)
                .expect("request times are never NaN")
        });
        Ok(RequestTrace {
            times: requests.iter().map(|r| r.time_secs).collect(),
            objects: requests.iter().map(|r| r.object).collect(),
        })
    }

    /// Generates a synthetic trace over `catalog` according to `config`.
    ///
    /// Popularity rank `r` (1-based, drawn from the Zipf-like distribution)
    /// maps to the object with id `r - 1`, so object ids are ordered by
    /// decreasing expected popularity.
    ///
    /// The RNG is drawn in a fixed order: every interarrival time first,
    /// then every popularity rank. Each trace, and every result computed
    /// from it, rests on that order.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] if the configuration fails validation.
    pub fn generate<R: Rng + ?Sized>(
        catalog: &Catalog,
        config: &TraceConfig,
        rng: &mut R,
    ) -> Result<Self, WorkloadError> {
        config.validate()?;
        let zipf = ZipfLike::new(catalog.len(), config.zipf_alpha)?;
        let arrivals = PoissonProcess::new(config.arrival_rate)?;
        let times = arrivals.arrival_times(rng, config.requests);
        let objects = (0..config.requests)
            .map(|_| ObjectId::new((zipf.sample(rng) - 1) as u32))
            .collect();
        Ok(RequestTrace { times, objects })
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the trace contains no requests (never the case for
    /// a successfully constructed trace).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The arrival times in seconds, sorted.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Iterates over the requests in arrival order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Request> + '_ {
        self.times
            .iter()
            .zip(&self.objects)
            .map(|(&time_secs, &object)| Request { time_secs, object })
    }

    /// Duration in seconds between the first and last request.
    pub fn span_secs(&self) -> f64 {
        let first = self.times.first().copied().unwrap_or(0.0);
        let last = self.times.last().copied().unwrap_or(0.0);
        last - first
    }

    /// Per-object request counts, indexed by object id.
    pub fn request_counts(&self, catalog_len: usize) -> Vec<u64> {
        let mut counts = vec![0u64; catalog_len];
        for object in &self.objects {
            if let Some(c) = counts.get_mut(object.index()) {
                *c += 1;
            }
        }
        counts
    }

    /// Expands every request into a [`SessionArrival`] carrying the
    /// requested object's playback duration, encoding rate and size, in
    /// arrival order.
    ///
    /// # Panics
    ///
    /// Panics if a request references an object outside `catalog`.
    pub fn session_arrivals(&self, catalog: &Catalog) -> Vec<SessionArrival> {
        self.iter()
            .map(|req| {
                let obj = catalog.object(req.object);
                SessionArrival {
                    time_secs: req.time_secs,
                    object: req.object,
                    duration_secs: obj.duration_secs,
                    bitrate_bps: obj.bitrate_bps,
                    size_bytes: obj.size_bytes(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WorkloadConfig;
    use crate::catalog::CatalogConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_setup() -> (Catalog, RequestTrace) {
        let mut rng = StdRng::seed_from_u64(5);
        let catalog = Catalog::generate(&CatalogConfig::small(), &mut rng).unwrap();
        let trace = RequestTrace::generate(&catalog, &TraceConfig::small(), &mut rng).unwrap();
        (catalog, trace)
    }

    #[test]
    fn default_config_matches_table1() {
        let c = TraceConfig::default();
        assert_eq!(c.requests, 100_000);
        assert_eq!(c.zipf_alpha, 0.73);
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = TraceConfig::small();
        c.requests = 0;
        assert!(matches!(c.validate(), Err(WorkloadError::EmptyTrace)));
        let mut c = TraceConfig::small();
        c.zipf_alpha = -1.0;
        assert!(c.validate().is_err());
        let mut c = TraceConfig::small();
        c.arrival_rate = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn generated_trace_is_sorted_and_in_range() {
        let (catalog, trace) = small_setup();
        assert_eq!(trace.len(), 5_000);
        assert!(trace.times().windows(2).all(|w| w[0] <= w[1]));
        assert!(trace.iter().all(|r| r.object.index() < catalog.len()));
    }

    #[test]
    fn popular_objects_receive_more_requests() {
        let (catalog, trace) = small_setup();
        let counts = trace.request_counts(catalog.len());
        let head: u64 = counts[..10].iter().sum();
        let tail: u64 = counts[catalog.len() - 10..].iter().sum();
        assert!(
            head > tail * 3,
            "expected strong popularity skew, head {head} tail {tail}"
        );
    }

    /// Heap bytes the trace's columns hold, by capacity.
    fn column_bytes(trace: &RequestTrace) -> usize {
        std::mem::size_of::<f64>() * trace.times.capacity()
            + std::mem::size_of::<ObjectId>() * trace.objects.capacity()
    }

    #[test]
    fn a_trace_holds_twelve_bytes_a_request() {
        let (_, generated) = small_setup();
        assert_eq!(column_bytes(&generated), 12 * generated.len());
        let mut requests: Vec<Request> = generated.iter().collect();
        requests.reverse();
        let built = RequestTrace::from_requests(requests).unwrap();
        assert_eq!(built, generated);
        assert_eq!(column_bytes(&built), 12 * built.len());
    }

    #[test]
    fn from_requests_sorts_by_time() {
        let reqs = vec![
            Request {
                time_secs: 5.0,
                object: ObjectId::new(1),
            },
            Request {
                time_secs: 1.0,
                object: ObjectId::new(0),
            },
        ];
        let trace = RequestTrace::from_requests(reqs).unwrap();
        assert_eq!(trace.iter().next().unwrap().object, ObjectId::new(0));
        assert!((trace.span_secs() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn session_arrivals_carry_object_playback_characteristics() {
        let (catalog, trace) = small_setup();
        let sessions = trace.session_arrivals(&catalog);
        assert_eq!(sessions.len(), trace.len());
        for (req, session) in trace.iter().zip(&sessions) {
            let obj = catalog.object(req.object);
            assert_eq!(session.time_secs, req.time_secs);
            assert_eq!(session.object, req.object);
            assert_eq!(session.duration_secs, obj.duration_secs);
            assert_eq!(session.bitrate_bps, obj.bitrate_bps);
            assert_eq!(session.size_bytes, obj.size_bytes());
            assert!(session.duration_secs > 0.0);
            assert!(session.size_bytes > 0.0);
        }
        // Arrival order is preserved.
        assert!(sessions
            .windows(2)
            .all(|w| w[0].time_secs <= w[1].time_secs));
    }

    /// FNV-1a over every request's object id and arrival-time bits.
    fn trace_hash(trace: &RequestTrace) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for req in trace.iter() {
            let object = (req.object.index() as u32).to_le_bytes();
            let time = req.time_secs.to_bits().to_le_bytes();
            for byte in object.into_iter().chain(time) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    #[test]
    fn paper_scale_traces_are_pinned() {
        // Table 1 traces for seeds 1-3, hashed over (object, time bits):
        // any change to the Zipf or arrival draws, or to their order,
        // moves these constants.
        let hashes: Vec<u64> = (1..=3)
            .map(|seed| {
                let config = WorkloadConfig {
                    seed,
                    ..WorkloadConfig::default()
                };
                trace_hash(&config.generate().unwrap().trace)
            })
            .collect();
        assert_eq!(
            hashes,
            [
                3_721_643_184_734_172_617,
                12_963_538_809_103_648_072,
                7_352_349_242_349_094_564
            ]
        );
    }

    #[test]
    fn from_requests_rejects_empty() {
        assert!(matches!(
            RequestTrace::from_requests(vec![]),
            Err(WorkloadError::EmptyTrace)
        ));
    }
}
