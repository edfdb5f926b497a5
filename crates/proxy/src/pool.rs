//! Worker-pool plumbing for the proxy's request path: the loop every pool
//! thread runs, the bounded accept queue behind it, and a counting
//! semaphore bounding concurrent origin connections.
//!
//! The pool is `worker_threads + 1` identical threads, each in
//! [`run_thread`], and the kernel's accept queue is their parking lot: a
//! thread with nothing to do blocks in `accept()` on the shared listener,
//! where each arriving connection wakes exactly one of them. [`AcceptQueue`]
//! only counts the threads that are in (or on their way into) `accept()`. A
//! thread that comes back with a connection hands it to `admit`, which
//! decides under the queue's one mutex: with another thread still accepting
//! and nothing queued it counts itself out, takes an in-flight slot and
//! serves the connection itself (no queue, no wake-up, nobody to hand
//! anything to); otherwise it is the last acceptor, so it queues the
//! connection and accepts again. A thread that finishes a request takes its
//! next turn, which drains the queue before it sends the thread back to
//! `accept()`.
//!
//! Both primitives are hand-rolled on `std::sync::{Mutex, Condvar}` because
//! the build environment has no crates.io access (see `shims/`); the
//! `parking_lot` shim deliberately exposes no condition variables, so the
//! blocking coordination lives here on the standard library directly.
//!
//! The accept queue is also where the proxy's admission control lives, and
//! every shed is decided and counted under its one mutex: an optional hard
//! cap bounds requests in flight (queued + being handled) with
//! deterministic drop-oldest shedding at admission, and the turn that finds
//! an entry older than the queue deadline sheds it instead of serving it.
//! Sheds, dequeued connections, their cumulative queue wait and the peak
//! backlog are plain counters beside the queue, read for `ProxyStats` in
//! one [`AcceptQueue::counts`].

use crate::protocol::{header_line, Response};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Recovers the guard from a poisoned lock: a panicking handler must not
/// wedge the whole pool (matches the `parking_lot` shim's behaviour).
fn lock_queue<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_queue`].
fn wait_on<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match condvar.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One pool thread: take a turn — a queued connection, else off to
/// `accept()` — until the queue is closed and drained. `accept` stands for
/// the listener; `serve` handles one connection while the turn holds its
/// in-flight slot. A shed connection is answered with `BUSY
/// <retry-after-ms>` and closed instead.
pub(crate) fn run_thread(
    queue: &AcceptQueue,
    mut accept: impl FnMut() -> io::Result<TcpStream>,
    mut serve: impl FnMut(TcpStream),
) {
    loop {
        match queue.next_turn() {
            Turn::Exit => return,
            Turn::Serve(stream) => {
                let _slot = InFlightSlot::new(queue);
                serve(stream);
            }
            // Shed at its deadline, the entry keeps its slot while it is
            // told so.
            Turn::Shed(stream) => {
                let _slot = InFlightSlot::new(queue);
                queue.answer_busy(stream);
            }
            // Accept and admit until a connection is this thread's to serve
            // (another thread is then still accepting) or the queue closes;
            // as the last acceptor, queue or shed what comes and stay.
            Turn::Accept => loop {
                let Ok(stream) = accept() else {
                    // Without a listener nothing will ever be admitted
                    // again: let the pool drain and exit rather than wait
                    // forever.
                    queue.close();
                    break;
                };
                match queue.admit(stream) {
                    Admission::Closed => break,
                    Admission::Inline(stream) => {
                        let _slot = InFlightSlot::new(queue);
                        serve(stream);
                        break;
                    }
                    Admission::Queued { shed: None } => {}
                    Admission::Queued {
                        shed: Some(QueuedConn { stream, .. }),
                    }
                    | Admission::ShedIncoming(stream) => queue.answer_busy(stream),
                }
            },
        }
    }
}

/// An accepted connection waiting in the queue, stamped with its enqueue
/// time so the turn that picks it up can judge the queue wait against the
/// admission deadline.
#[derive(Debug)]
struct QueuedConn {
    stream: TcpStream,
    enqueued_at: Instant,
}

/// What [`AcceptQueue::admit`] decided for an accepted connection.
#[derive(Debug)]
enum Admission {
    /// The queue is closed; the connection was dropped.
    Closed,
    /// Another thread is still accepting and nothing was queued: the
    /// connection holds an in-flight slot (release it with
    /// [`InFlightSlot`]), the caller no longer counts as accepting, and it
    /// serves the connection itself.
    Inline(TcpStream),
    /// The connection was enqueued and the caller goes on accepting. With
    /// the in-flight cap hit, admitting it evicted the oldest queued
    /// connection, returned here so the caller can answer it with `BUSY`
    /// (drop-oldest: the newest arrival is the one most likely to still be
    /// listening).
    Queued { shed: Option<QueuedConn> },
    /// The in-flight cap is hit and nothing is queued to evict (every
    /// admitted request is already being handled), so the newcomer itself
    /// is shed. The caller goes on accepting.
    ShedIncoming(TcpStream),
}

/// What a pool thread does next, from [`AcceptQueue::next_turn`].
#[derive(Debug)]
enum Turn {
    /// Handle the oldest queued connection; it occupies an in-flight slot
    /// until [`AcceptQueue::finish`] (use [`InFlightSlot`] for panic-safe
    /// release).
    Serve(TcpStream),
    /// Like `Serve`, but the connection waited past the queue deadline:
    /// the client is already past its latency budget, so answering `BUSY`
    /// is cheaper for both sides than serving a stale request.
    Shed(TcpStream),
    /// Nothing is queued: the caller is counted as accepting and goes into
    /// `accept()`, handing what it gets to [`AcceptQueue::admit`] until
    /// that returns [`Admission::Inline`] or the queue closes.
    Accept,
    /// The queue is closed and drained.
    Exit,
}

/// What the queue has counted since it was created.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QueueCounts {
    /// Requests shed: in-flight-cap evictions at admission plus
    /// queue-deadline misses at dequeue.
    pub(crate) shed: u64,
    /// Connections that waited in the queue and were dequeued, shed or
    /// served alike (inline-served ones never do): the denominator of
    /// `wait_micros`.
    pub(crate) dequeued: u64,
    /// Cumulative queue wait over all dequeued connections, in
    /// microseconds.
    pub(crate) wait_micros: u64,
    /// Highest queue depth (excluding active handlers) ever observed.
    pub(crate) peak_depth: u64,
}

#[derive(Debug)]
struct QueueInner {
    connections: VecDeque<QueuedConn>,
    /// Connections being handled; together with `connections.len()` this
    /// is the in-flight total the admission cap bounds.
    active: usize,
    /// Threads in `accept()` or committed to entering it. A thread counts
    /// itself in only under the lock that saw the queue empty, and `admit`
    /// queues only as the sole acceptor, so `accepting > 1` implies an
    /// empty queue: no connection ever waits while a second thread sits in
    /// `accept()` beside the one that queued it. A thread counts itself out
    /// only while another is counted, so until the close at least one
    /// thread is always accepting. Not maintained after the close.
    accepting: usize,
    closed: bool,
    counts: QueueCounts,
}

/// The pool's one synchronisation point: the count of accepting threads
/// plus a bounded FIFO of accepted client connections.
///
/// Accepting threads admit, every pool thread takes turns. When the queue
/// is full the last acceptor blocks, which stops it pulling connections off
/// the listener: backpressure propagates to the OS listen backlog and from
/// there to connecting clients, so overload slows clients down instead of
/// growing proxy memory without bound. With a nonzero `max_in_flight`
/// admission never blocks at that cap — it sheds deterministically instead
/// (see [`Admission`]), trading silence for an explicit `BUSY`.
///
/// Closing the queue wakes an acceptor blocked on a full queue; turns keep
/// draining whatever was already accepted (graceful shutdown finishes
/// queued requests) and end with [`Turn::Exit`] only once the queue is
/// empty.
#[derive(Debug)]
pub(crate) struct AcceptQueue {
    inner: Mutex<QueueInner>,
    /// The last acceptor waits here while the queue is at capacity.
    not_full: Condvar,
    capacity: usize,
    /// Hard cap on queued + active connections; 0 disables the cap.
    max_in_flight: usize,
    /// Queue wait past which a turn sheds the entry; zero disables it.
    deadline: Duration,
}

impl AcceptQueue {
    pub(crate) fn new(capacity: usize, max_in_flight: usize, deadline: Duration) -> Self {
        AcceptQueue {
            inner: Mutex::new(QueueInner {
                connections: VecDeque::with_capacity(capacity.min(1024)),
                active: 0,
                accepting: 0,
                closed: false,
                counts: QueueCounts::default(),
            }),
            not_full: Condvar::new(),
            capacity,
            max_in_flight,
            deadline,
        }
    }

    /// An accepting thread's one decision per accepted connection: serve it
    /// inline, queue it (blocking while the queue is at capacity) or shed.
    /// At the in-flight cap it never blocks: it sheds (and counts) either
    /// the oldest queued connection or the newcomer instead. Only
    /// [`Admission::Inline`] takes the caller out of the accepting count.
    fn admit(&self, stream: TcpStream) -> Admission {
        let mut inner = lock_queue(&self.inner);
        loop {
            if inner.closed {
                return Admission::Closed;
            }
            if self.max_in_flight > 0
                && inner.connections.len() + inner.active >= self.max_in_flight
            {
                inner.counts.shed += 1;
                return match inner.connections.pop_front() {
                    Some(oldest) => {
                        inner.connections.push_back(QueuedConn {
                            stream,
                            enqueued_at: Instant::now(),
                        });
                        debug_assert!(inner.accepting <= 1, "queued beside a second acceptor");
                        Admission::Queued { shed: Some(oldest) }
                    }
                    None => Admission::ShedIncoming(stream),
                };
            }
            if inner.accepting > 1 && inner.connections.is_empty() {
                // Somebody else is in `accept()`: nobody to wake, nothing
                // to hand over.
                inner.accepting -= 1;
                inner.active += 1;
                return Admission::Inline(stream);
            }
            if inner.connections.len() < self.capacity {
                debug_assert!(inner.accepting <= 1, "queued beside a second acceptor");
                inner.connections.push_back(QueuedConn {
                    stream,
                    enqueued_at: Instant::now(),
                });
                let depth = inner.connections.len() as u64;
                inner.counts.peak_depth = inner.counts.peak_depth.max(depth);
                return Admission::Queued { shed: None };
            }
            inner = wait_on(&self.not_full, inner);
        }
    }

    /// What the calling thread does next, without ever waiting: the oldest
    /// queued connection first — counted as dequeued with its wait, and
    /// shed if that wait exceeds the deadline; after
    /// [`close`](Self::close), once that backlog is drained, [`Turn::Exit`];
    /// otherwise the thread is counted in and goes to `accept()`.
    fn next_turn(&self) -> Turn {
        let mut inner = lock_queue(&self.inner);
        if let Some(conn) = inner.connections.pop_front() {
            inner.active += 1;
            self.not_full.notify_one();
            let wait = conn.enqueued_at.elapsed();
            let counts = &mut inner.counts;
            counts.dequeued += 1;
            counts.wait_micros = counts
                .wait_micros
                .saturating_add(u64::try_from(wait.as_micros()).unwrap_or(u64::MAX));
            if !self.deadline.is_zero() && wait > self.deadline {
                counts.shed += 1;
                return Turn::Shed(conn.stream);
            }
            return Turn::Serve(conn.stream);
        }
        if inner.closed {
            return Turn::Exit;
        }
        inner.accepting += 1;
        Turn::Accept
    }

    /// Releases the in-flight slot of one served connection.
    fn finish(&self) {
        let mut inner = lock_queue(&self.inner);
        inner.active = inner.active.saturating_sub(1);
    }

    /// Closes the queue and wakes an acceptor blocked on a full queue.
    /// (Threads blocked in `accept()` are the caller's to wake: each comes
    /// back at most once more, to [`Admission::Closed`].)
    pub(crate) fn close(&self) {
        let mut inner = lock_queue(&self.inner);
        inner.closed = true;
        drop(inner);
        self.not_full.notify_all();
    }

    /// The counters, read under the queue's lock.
    pub(crate) fn counts(&self) -> QueueCounts {
        lock_queue(&self.inner).counts
    }

    /// The retry pause suggested with a `BUSY` answer: half the queue
    /// deadline (clamped to at least 1 ms), so a retrying client lands
    /// when roughly half of today's backlog has drained. With the
    /// deadline disabled (cap-driven sheds only) a flat 100 ms is used.
    fn retry_after_ms(&self) -> u64 {
        if self.deadline.is_zero() {
            return 100;
        }
        (self.deadline.as_millis() as u64 / 2).max(1)
    }

    /// Answers a shed connection with `BUSY <retry-after-ms>` and closes it.
    /// The write is bounded by a short timeout (and errors are ignored): a
    /// peer that is already gone or wedged must not pin the shedding thread.
    fn answer_busy(&self, stream: TcpStream) {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let busy = Response::Busy {
            retry_after_ms: self.retry_after_ms(),
        };
        let _ = (&stream).write_all(&header_line(&busy));
    }
}

/// RAII in-flight slot of a connection being handled: releases the slot on
/// drop, so a panicking handler cannot leak admission capacity.
#[derive(Debug)]
struct InFlightSlot<'a> {
    queue: &'a AcceptQueue,
}

impl<'a> InFlightSlot<'a> {
    fn new(queue: &'a AcceptQueue) -> Self {
        InFlightSlot { queue }
    }
}

impl Drop for InFlightSlot<'_> {
    fn drop(&mut self) {
        self.queue.finish();
    }
}

/// A counting semaphore bounding the proxy's concurrent origin connections.
///
/// A permit is held for the lifetime of one origin connection (RAII via
/// [`OriginPermit`]); a zero budget disables the bound entirely. Acquirers
/// hold no other locks while waiting, and every transfer terminates, so the
/// wait is bounded by the in-flight transfers ahead of it.
#[derive(Debug)]
pub(crate) struct OriginBudget {
    permits: Mutex<usize>,
    available: Condvar,
    bounded: bool,
}

impl OriginBudget {
    /// Creates a budget of `max_connections` permits (0 = unlimited).
    pub(crate) fn new(max_connections: usize) -> Self {
        OriginBudget {
            permits: Mutex::new(max_connections),
            available: Condvar::new(),
            bounded: max_connections > 0,
        }
    }

    /// Acquires one permit, waiting at most `timeout` for an origin
    /// connection slot to free; a timeout too large to represent waits
    /// without bound, and a zero timeout degenerates to a try-acquire. The
    /// resilient origin path passes its remaining retry budget, so an
    /// outage-congested budget cannot pin a worker past its deadline.
    pub(crate) fn acquire_within(&self, timeout: Duration) -> Option<OriginPermit<'_>> {
        if self.bounded {
            let deadline = Instant::now().checked_add(timeout);
            let mut permits = lock_queue(&self.permits);
            while *permits == 0 {
                let Some(deadline) = deadline else {
                    permits = wait_on(&self.available, permits);
                    continue;
                };
                let now = Instant::now();
                if now >= deadline {
                    return None;
                }
                permits = match self.available.wait_timeout(permits, deadline - now) {
                    Ok((guard, _)) => guard,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
            *permits -= 1;
        }
        Some(OriginPermit { budget: self })
    }
}

/// RAII permit for one origin connection; dropped when the connection ends.
#[derive(Debug)]
pub(crate) struct OriginPermit<'a> {
    budget: &'a OriginBudget,
}

impl Drop for OriginPermit<'_> {
    fn drop(&mut self) {
        if self.budget.bounded {
            let mut permits = lock_queue(&self.budget.permits);
            *permits += 1;
            drop(permits);
            self.budget.available.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn loopback_pair(listener: &TcpListener) -> TcpStream {
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let _ = listener.accept().unwrap();
        client
    }

    fn assert_queued(outcome: Admission) {
        assert!(
            matches!(outcome, Admission::Queued { shed: None }),
            "expected a plain enqueue, got {outcome:?}"
        );
    }

    /// The next queued connection; `None` once the queue is closed and
    /// drained. For tests that call it only with something queued or after
    /// the close, on a queue without a deadline, so a turn is never
    /// `Accept` or `Shed`.
    fn pop(queue: &AcceptQueue) -> Option<TcpStream> {
        match queue.next_turn() {
            Turn::Serve(stream) => Some(stream),
            Turn::Exit => None,
            other => panic!("expected a queued connection or the end, got {other:?}"),
        }
    }

    /// Threads counted as accepting. A turn never waits, so the tests below
    /// play several pool threads from the one test thread: every
    /// `Turn::Accept` it is handed stands for one more thread in `accept()`.
    fn accepting(queue: &AcceptQueue) -> usize {
        lock_queue(&queue.inner).accepting
    }

    /// Admits one more connection and makes it `age` old, as if it had
    /// been queued that long ago — a stale entry without a sleep.
    fn admit_aged(queue: &AcceptQueue, listener: &TcpListener, age: Duration) {
        assert_queued(queue.admit(loopback_pair(listener)));
        let mut inner = lock_queue(&queue.inner);
        let newest = inner.connections.back_mut().expect("just queued");
        newest.enqueued_at = Instant::now() - age;
    }

    #[test]
    fn queue_delivers_in_fifo_order_and_drains_after_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let queue = AcceptQueue::new(4, 0, Duration::ZERO);
        let a = loopback_pair(&listener);
        let a_addr = a.local_addr().unwrap();
        let b = loopback_pair(&listener);
        let b_addr = b.local_addr().unwrap();
        assert_queued(queue.admit(a));
        assert_queued(queue.admit(b));
        queue.close();
        // Queued connections survive the close (graceful drain) ...
        assert_eq!(pop(&queue).unwrap().local_addr().unwrap(), a_addr);
        assert_eq!(pop(&queue).unwrap().local_addr().unwrap(), b_addr);
        // ... and only then does the queue report exhaustion.
        assert!(pop(&queue).is_none());
        // New connections are refused after close.
        let c = loopback_pair(&listener);
        assert!(matches!(queue.admit(c), Admission::Closed));
    }

    #[test]
    fn full_queue_blocks_pushers_until_a_pop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let queue = Arc::new(AcceptQueue::new(1, 0, Duration::ZERO));
        assert_queued(queue.admit(loopback_pair(&listener)));
        let pushed = Arc::new(AtomicUsize::new(0));
        let handle = {
            let queue = Arc::clone(&queue);
            let pushed = Arc::clone(&pushed);
            let stream = loopback_pair(&listener);
            std::thread::spawn(move || {
                queue.admit(stream);
                pushed.store(1, Ordering::SeqCst);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(
            pushed.load(Ordering::SeqCst),
            0,
            "push must block while full"
        );
        assert!(pop(&queue).is_some());
        handle.join().unwrap();
        assert_eq!(pushed.load(Ordering::SeqCst), 1);
        queue.close();
    }

    #[test]
    fn in_flight_cap_sheds_oldest_queued_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let queue = AcceptQueue::new(8, 2, Duration::ZERO);
        let a = loopback_pair(&listener);
        let a_addr = a.local_addr().unwrap();
        let b = loopback_pair(&listener);
        let b_addr = b.local_addr().unwrap();
        assert_queued(queue.admit(a));
        assert_queued(queue.admit(b));
        // Two in flight (both queued): the cap evicts the oldest (a) to
        // admit the newcomer.
        let c = loopback_pair(&listener);
        let c_addr = c.local_addr().unwrap();
        match queue.admit(c) {
            Admission::Queued { shed: Some(old) } => {
                assert_eq!(old.stream.local_addr().unwrap(), a_addr);
            }
            other => panic!("expected drop-oldest shed, got {other:?}"),
        }
        assert_eq!(queue.counts().shed, 1);
        // FIFO order among the survivors holds: b then c.
        assert_eq!(pop(&queue).unwrap().local_addr().unwrap(), b_addr);
        assert_eq!(pop(&queue).unwrap().local_addr().unwrap(), c_addr);
        queue.close();
    }

    #[test]
    fn in_flight_cap_sheds_incoming_when_nothing_is_queued() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let queue = AcceptQueue::new(8, 2, Duration::ZERO);
        assert_queued(queue.admit(loopback_pair(&listener)));
        assert_queued(queue.admit(loopback_pair(&listener)));
        // Workers take both: in-flight stays 2 (all active, none queued).
        let _a = pop(&queue).unwrap();
        let _b = pop(&queue).unwrap();
        let c = loopback_pair(&listener);
        let c_addr = c.local_addr().unwrap();
        match queue.admit(c) {
            Admission::ShedIncoming(stream) => {
                assert_eq!(stream.local_addr().unwrap(), c_addr);
            }
            other => panic!("expected the newcomer shed, got {other:?}"),
        }
        assert_eq!(queue.counts().shed, 1);
        // A finished handler frees the slot and admission resumes.
        queue.finish();
        assert_queued(queue.admit(loopback_pair(&listener)));
        queue.close();
    }

    #[test]
    fn in_flight_slot_releases_on_drop_even_on_panic() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let queue = Arc::new(AcceptQueue::new(8, 1, Duration::ZERO));
        assert_queued(queue.admit(loopback_pair(&listener)));
        let popped = pop(&queue).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = InFlightSlot::new(&queue);
            let _conn = popped;
            panic!("handler blew up");
        }));
        assert!(result.is_err());
        // The slot was released despite the panic, so the cap admits again.
        assert_queued(queue.admit(loopback_pair(&listener)));
        queue.close();
    }

    #[test]
    fn overload_counters_track_waits_and_peak_depth() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let queue = AcceptQueue::new(8, 0, Duration::ZERO);
        admit_aged(&queue, &listener, Duration::from_millis(10));
        assert_queued(queue.admit(loopback_pair(&listener)));
        assert_eq!(queue.counts().peak_depth, 2);
        assert!(pop(&queue).is_some());
        let counts = queue.counts();
        assert!(
            counts.wait_micros >= 10_000,
            "wait {} µs",
            counts.wait_micros
        );
        assert_eq!((counts.dequeued, counts.shed), (1, 0));
        // Peak depth is a high-water mark: draining does not lower it.
        assert!(pop(&queue).is_some());
        assert_eq!(queue.counts().dequeued, 2);
        assert_eq!(queue.counts().peak_depth, 2);
        queue.close();
    }

    #[test]
    fn a_stale_entry_is_shed_by_the_turn_that_finds_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let queue = AcceptQueue::new(8, 0, Duration::from_millis(500));
        admit_aged(&queue, &listener, Duration::from_secs(1));
        admit_aged(&queue, &listener, Duration::from_millis(100));
        assert!(matches!(queue.next_turn(), Turn::Shed(_)));
        assert!(matches!(queue.next_turn(), Turn::Serve(_)));
        // Shed or served, both were dequeued and both waits count.
        let counts = queue.counts();
        assert_eq!((counts.shed, counts.dequeued), (1, 2));
        assert!(
            counts.wait_micros >= 1_100_000,
            "wait {} µs",
            counts.wait_micros
        );
        // A zero deadline is off: however stale, the entry is served.
        let queue = AcceptQueue::new(8, 0, Duration::ZERO);
        admit_aged(&queue, &listener, Duration::from_secs(1));
        assert!(matches!(queue.next_turn(), Turn::Serve(_)));
        assert_eq!(queue.counts().shed, 0);
    }

    #[test]
    fn busy_retry_after_tracks_the_queue_deadline() {
        let hint = |millis| AcceptQueue::new(1, 0, Duration::from_millis(millis)).retry_after_ms();
        assert_eq!(hint(300), 150);
        assert_eq!(hint(1), 1, "clamped to at least 1 ms");
        assert_eq!(hint(0), 100, "flat default when off");
    }

    #[test]
    fn admit_is_inline_only_with_another_thread_accepting_and_an_empty_queue() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let queue = AcceptQueue::new(4, 0, Duration::ZERO);
        // One thread accepting.
        assert!(matches!(queue.next_turn(), Turn::Accept));
        // It is the last acceptor: the connection is queued, and a thread
        // coming for its turn is handed it instead of going to accept.
        assert_queued(queue.admit(loopback_pair(&listener)));
        assert_eq!(accepting(&queue), 1, "the last acceptor stays");
        assert!(pop(&queue).is_some());
        queue.finish();
        // A second thread accepting and an empty queue: the one that comes
        // back with a connection counts itself out and serves it inline,
        // holding an in-flight slot; the other is still accepting.
        assert!(matches!(queue.next_turn(), Turn::Accept));
        assert_eq!(accepting(&queue), 2);
        let a = loopback_pair(&listener);
        let a_addr = a.local_addr().unwrap();
        match queue.admit(a) {
            Admission::Inline(stream) => assert_eq!(stream.local_addr().unwrap(), a_addr),
            other => panic!("expected to serve inline, got {other:?}"),
        }
        assert_eq!(accepting(&queue), 1);
        assert_eq!(lock_queue(&queue.inner).active, 1);
        queue.finish();
        // Down to the last acceptor again, so the next connection is queued
        // — and only the one connection dequeued so far counted as a wait,
        // not the one that skipped the queue.
        assert_queued(queue.admit(loopback_pair(&listener)));
        assert_eq!(accepting(&queue), 1);
        assert_eq!(queue.counts().dequeued, 1);
        queue.close();
    }

    #[test]
    fn inline_path_at_the_in_flight_cap_sheds_the_newcomer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let queue = AcceptQueue::new(8, 1, Duration::ZERO);
        assert!(matches!(queue.next_turn(), Turn::Accept));
        assert!(matches!(queue.next_turn(), Turn::Accept));
        assert!(matches!(
            queue.admit(loopback_pair(&listener)),
            Admission::Inline(_)
        ));
        // One in flight = the cap, nothing queued to evict: a second
        // acceptor does not buy the newcomer a slot.
        assert!(matches!(queue.next_turn(), Turn::Accept));
        let b = loopback_pair(&listener);
        let b_addr = b.local_addr().unwrap();
        match queue.admit(b) {
            Admission::ShedIncoming(stream) => assert_eq!(stream.local_addr().unwrap(), b_addr),
            other => panic!("expected the newcomer shed, got {other:?}"),
        }
        assert_eq!(queue.counts().shed, 1);
        assert_eq!(accepting(&queue), 2, "the shedding thread stays counted");
        // The slot frees: the same two acceptors now let one go inline.
        queue.finish();
        assert!(matches!(
            queue.admit(loopback_pair(&listener)),
            Admission::Inline(_)
        ));
        assert_eq!(accepting(&queue), 1);
        queue.close();
    }

    /// The stranded-entry race: were "is anybody else accepting?" and
    /// "queue it" decided under different locks, a thread could go to
    /// `accept()` just after the last acceptor chose to queue, and the
    /// connection would wait for the *next* arrival; were counting out not
    /// under the same lock, two acceptors could each leave to the other and
    /// nobody would answer overload. Three threads run [`run_thread`] over
    /// a channel standing in for the listener while the test thread checks,
    /// under the queue's lock, that a second acceptor never coexists with a
    /// queued connection and that somebody is always accepting — and that
    /// every connection is served exactly once.
    #[test]
    fn a_second_acceptor_never_coexists_with_a_queued_connection() {
        const CONNECTIONS: usize = 400;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let queue = AcceptQueue::new(2, 0, Duration::ZERO);
        let (feed, accepted) = std::sync::mpsc::channel::<TcpStream>();
        let accepted = Mutex::new(accepted);
        let served = AtomicUsize::new(0);
        // The "listener" fails once the feed is gone, which the test
        // arranges the way shutdown does — close the queue, then nudge
        // everybody out of "accept()".
        let accept = || {
            lock_queue(&accepted)
                .recv()
                .map_err(|_| io::Error::from(io::ErrorKind::NotConnected))
        };
        let serve = |stream: TcpStream| {
            drop(stream);
            served.fetch_add(1, Ordering::SeqCst);
        };
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| run_thread(&queue, accept, serve));
            }
            // From the first thread's first turn on, somebody is accepting.
            while accepting(&queue) == 0 {
                std::thread::yield_now();
            }
            for _ in 0..CONNECTIONS {
                feed.send(loopback_pair(&listener)).unwrap();
                let inner = lock_queue(&queue.inner);
                assert!(
                    inner.accepting <= 1 || inner.connections.is_empty(),
                    "{} threads accepting beside {} queued connections",
                    inner.accepting,
                    inner.connections.len()
                );
                assert!(inner.accepting >= 1, "nobody is accepting");
            }
            while served.load(Ordering::SeqCst) < CONNECTIONS {
                std::thread::yield_now();
            }
            queue.close();
            drop(feed);
        });
        assert_eq!(served.load(Ordering::SeqCst), CONNECTIONS);
        assert_eq!(queue.counts().shed, 0, "no cap, no deadline: nothing shed");
        assert_eq!(lock_queue(&queue.inner).active, 0);
    }

    #[test]
    fn origin_budget_bounds_concurrency() {
        let budget = Arc::new(OriginBudget::new(2));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let budget = Arc::clone(&budget);
                let in_flight = Arc::clone(&in_flight);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    let _permit = budget.acquire_within(Duration::MAX).unwrap();
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "budget exceeded");
    }

    #[test]
    fn zero_budget_is_unlimited() {
        let budget = OriginBudget::new(0);
        let _a = budget.acquire_within(Duration::MAX).unwrap();
        let _b = budget.acquire_within(Duration::MAX).unwrap();
        let _c = budget.acquire_within(Duration::MAX).unwrap();
    }

    #[test]
    fn acquire_within_times_out_and_recovers() {
        let budget = OriginBudget::new(1);
        let held = budget.acquire_within(Duration::MAX).unwrap();
        // Exhausted: both the try-acquire and a short bounded wait fail.
        assert!(budget.acquire_within(Duration::ZERO).is_none());
        let start = std::time::Instant::now();
        assert!(budget.acquire_within(Duration::from_millis(40)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(35));
        // Freed: the bounded wait succeeds without sleeping the timeout out.
        drop(held);
        assert!(budget.acquire_within(Duration::from_secs(5)).is_some());
        // Unlimited budgets never block.
        let unlimited = OriginBudget::new(0);
        assert!(unlimited.acquire_within(Duration::ZERO).is_some());
    }
}
