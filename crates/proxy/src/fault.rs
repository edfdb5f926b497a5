//! Deterministic fault injection for the test origin.
//!
//! A [`FaultPlan`] is a per-connection schedule of [`FaultAction`]s: the
//! origin consults the plan once for every accepted connection, in accept
//! order, and misbehaves accordingly. Connections beyond the end of the
//! schedule are served normally, so a plan describes a bounded failure
//! window and the origin recovers by construction. Plans are either spelled
//! out explicitly (tests that need exact failure placement) or generated
//! from a seed via [`FaultPlan::seeded`], which draws actions from a
//! [`FaultProfile`] with the workspace's deterministic RNG — the same plan
//! for the same seed, every run.
//!
//! All failure modes operate on an *accepted* TCP connection, because the
//! origin cannot refuse at the SYN level while its listener is up:
//!
//! * [`FaultAction::Refuse`] drops the connection before reading the
//!   request — the peer sees an immediate EOF where the header should be;
//! * [`FaultAction::ResetAfter`] serves the header plus a bounded payload
//!   prefix, then severs the socket in both directions;
//! * [`FaultAction::TruncateAfter`] serves the same bounded prefix but
//!   closes cleanly, as if the stream were complete;
//! * [`FaultAction::StallAt`] stops sending at a payload offset for a
//!   fixed interval (a "slow-loris" origin), then resumes.
//!
//! Byte offsets are relative to the bytes sent on *this connection* (after
//! any requested range offset), which keeps test assertions independent of
//! how much of the object the proxy already holds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// What the origin does to one accepted connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultAction {
    /// Serve the connection normally.
    #[default]
    None,
    /// Drop the connection before reading the request.
    Refuse,
    /// Serve the header and the first `n` payload bytes, then sever the
    /// connection in both directions without completing the stream.
    ResetAfter(u64),
    /// Pause for `millis` immediately before sending the payload byte at
    /// `offset`, then resume and complete the stream.
    StallAt {
        /// Payload offset (bytes into this connection's stream) at which
        /// the origin stops sending.
        offset: u64,
        /// How long the origin stays silent, in milliseconds.
        millis: u64,
    },
    /// Serve the header and the first `n` payload bytes, then close
    /// cleanly as if the stream were complete.
    TruncateAfter(u64),
}

/// Relative weights of each failure mode in a seeded plan, plus the
/// parameter ranges the draws use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability that a connection is refused.
    pub refuse: f64,
    /// Probability that a connection is reset mid-payload.
    pub reset: f64,
    /// Probability that a connection stalls mid-payload.
    pub stall: f64,
    /// Probability that a connection is truncated.
    pub truncate: f64,
    /// Exclusive upper bound on drawn payload offsets (reset, stall and
    /// truncate positions are uniform in `[0, fault_offset_max)`).
    pub fault_offset_max: u64,
    /// Stall length in milliseconds.
    pub stall_millis: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            refuse: 0.05,
            reset: 0.05,
            stall: 0.05,
            truncate: 0.05,
            fault_offset_max: 64 * 1024,
            stall_millis: 200,
        }
    }
}

/// A deterministic, per-connection schedule of fault actions.
///
/// The plan hands out one action per accepted connection via an internal
/// atomic cursor; connections past the end of the schedule are healthy.
/// The default plan is empty, i.e. fault injection is strictly off unless
/// a schedule is provided.
#[derive(Debug, Default)]
pub struct FaultPlan {
    actions: Vec<FaultAction>,
    connections: AtomicU64,
}

impl FaultPlan {
    /// An empty plan: every connection is served normally.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan that replays `actions` in accept order, then stays healthy.
    pub fn from_actions(actions: Vec<FaultAction>) -> Self {
        FaultPlan {
            actions,
            connections: AtomicU64::new(0),
        }
    }

    /// A full-outage window by connection index: the first `healthy_before`
    /// connections are served, the next `refused` are dropped, and every
    /// connection after that is served again.
    pub fn refuse_window(healthy_before: u64, refused: u64) -> Self {
        let mut actions = vec![FaultAction::None; healthy_before as usize];
        actions.resize((healthy_before + refused) as usize, FaultAction::Refuse);
        FaultPlan::from_actions(actions)
    }

    /// A seeded random schedule of `connections` actions drawn from
    /// `profile`. The same seed always yields the same plan.
    pub fn seeded(seed: u64, connections: usize, profile: FaultProfile) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let offset_bound = profile.fault_offset_max.max(1);
        let actions = (0..connections)
            .map(|_| {
                let u: f64 = rng.gen();
                // Draw the offset unconditionally so each connection
                // consumes a fixed number of RNG words regardless of the
                // action chosen: plans with different profiles but the same
                // seed stay positionally comparable.
                let offset = rng.gen_range(0..offset_bound);
                if u < profile.refuse {
                    FaultAction::Refuse
                } else if u < profile.refuse + profile.reset {
                    FaultAction::ResetAfter(offset)
                } else if u < profile.refuse + profile.reset + profile.stall {
                    FaultAction::StallAt {
                        offset,
                        millis: profile.stall_millis,
                    }
                } else if u < profile.refuse + profile.reset + profile.stall + profile.truncate {
                    FaultAction::TruncateAfter(offset)
                } else {
                    FaultAction::None
                }
            })
            .collect();
        FaultPlan::from_actions(actions)
    }

    /// Whether the plan contains no fault at all.
    pub fn is_healthy(&self) -> bool {
        self.actions.iter().all(|a| *a == FaultAction::None)
    }

    /// Number of connections that have consulted the plan so far.
    pub fn connections_seen(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Advances the cursor and returns the action for the next connection.
    pub(crate) fn next_action(&self) -> FaultAction {
        let index = self.connections.fetch_add(1, Ordering::Relaxed);
        self.actions
            .get(index as usize)
            .copied()
            .unwrap_or(FaultAction::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_healthy_forever() {
        let plan = FaultPlan::none();
        assert!(plan.is_healthy());
        for _ in 0..10 {
            assert_eq!(plan.next_action(), FaultAction::None);
        }
        assert_eq!(plan.connections_seen(), 10);
    }

    #[test]
    fn explicit_schedule_replays_in_order_then_recovers() {
        let plan = FaultPlan::from_actions(vec![
            FaultAction::Refuse,
            FaultAction::ResetAfter(100),
            FaultAction::StallAt {
                offset: 5,
                millis: 10,
            },
        ]);
        assert!(!plan.is_healthy());
        assert_eq!(plan.next_action(), FaultAction::Refuse);
        assert_eq!(plan.next_action(), FaultAction::ResetAfter(100));
        assert_eq!(
            plan.next_action(),
            FaultAction::StallAt {
                offset: 5,
                millis: 10
            }
        );
        // Past the end of the schedule the origin is healthy again.
        assert_eq!(plan.next_action(), FaultAction::None);
    }

    #[test]
    fn refuse_window_brackets_the_outage() {
        let plan = FaultPlan::refuse_window(2, 3);
        let drawn: Vec<_> = (0..6).map(|_| plan.next_action()).collect();
        assert_eq!(
            drawn,
            vec![
                FaultAction::None,
                FaultAction::None,
                FaultAction::Refuse,
                FaultAction::Refuse,
                FaultAction::Refuse,
                FaultAction::None,
            ]
        );
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let profile = FaultProfile::default();
        let a = FaultPlan::seeded(7, 64, profile);
        let b = FaultPlan::seeded(7, 64, profile);
        let c = FaultPlan::seeded(8, 64, profile);
        let draw = |p: &FaultPlan| (0..64).map(|_| p.next_action()).collect::<Vec<_>>();
        let da = draw(&a);
        assert_eq!(da, draw(&b));
        assert_ne!(da, draw(&c));
    }

    #[test]
    fn seeded_profile_probabilities_shape_the_mix() {
        let all_refuse = FaultProfile {
            refuse: 1.0,
            reset: 0.0,
            stall: 0.0,
            truncate: 0.0,
            ..FaultProfile::default()
        };
        let plan = FaultPlan::seeded(3, 32, all_refuse);
        for _ in 0..32 {
            assert_eq!(plan.next_action(), FaultAction::Refuse);
        }
        let healthy = FaultPlan::seeded(
            3,
            32,
            FaultProfile {
                refuse: 0.0,
                reset: 0.0,
                stall: 0.0,
                truncate: 0.0,
                ..FaultProfile::default()
            },
        );
        assert!(healthy.is_healthy());
    }
}
