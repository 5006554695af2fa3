//! Deterministic fault injection: message loss and an oracle blackout
//! window.
//!
//! The paper's churn model (§5.3) is *graceful*: a departing peer is
//! removed from the overlay in the same round, so its children are
//! orphaned instantly and omnisciently. Real deployments instead see
//! **crash-stop** failures (the peer goes silent and nobody is told),
//! lossy pairwise interactions, and directory outages. A crash-stop
//! failure enters the engine one way, `Engine::inject_crash` in
//! `lagover-core`, usually for a cohort picked by [`crash_cohort`];
//! [`FaultPlan`] describes the rest declaratively so the engine can
//! replay it bit-for-bit: every probabilistic decision is drawn from
//! the run's own [`SimRng`](crate::rng::SimRng) stream, and a plan with
//! no faults consumes **zero** random draws, leaving fault-free runs
//! byte-identical to builds without the subsystem.

use serde::{Deserialize, Serialize};

use crate::rng::SimRng;

/// A half-open oracle outage window `[start, start + rounds)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Blackout {
    /// First round of the outage.
    pub start: u64,
    /// Length of the outage in rounds (`0` means no outage at all).
    pub rounds: u64,
}

impl Blackout {
    /// Whether `round` falls inside the window.
    pub fn contains(&self, round: u64) -> bool {
        round >= self.start && round - self.start < self.rounds
    }
}

/// A serializable, replay-deterministic fault scenario: per-interaction
/// **message loss** with a fixed probability, and one **oracle
/// blackout** ([`Blackout`]) during which every directory query fails.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    message_loss: f64,
    blackout: Blackout,
}

impl FaultPlan {
    /// The empty plan: no loss, no blackout.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Sets the per-interaction message-loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_message_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1]"
        );
        self.message_loss = p;
        self
    }

    /// Sets the oracle outage to `rounds` rounds starting at `start`,
    /// replacing any earlier one. A zero-length window is no outage.
    pub fn with_blackout(mut self, start: u64, rounds: u64) -> Self {
        self.blackout = if rounds > 0 {
            Blackout { start, rounds }
        } else {
            Blackout::default()
        };
        self
    }

    /// The per-interaction message-loss probability.
    pub fn message_loss(&self) -> f64 {
        self.message_loss
    }

    /// Whether the oracle is unreachable during `round`.
    pub fn oracle_blacked_out(&self, round: u64) -> bool {
        self.blackout.contains(round)
    }
}

/// Picks a crash cohort: a uniform sample of `ceil(fraction * len)`
/// entries from `candidates`, returned in ascending order so callers
/// stay iteration-order independent.
///
/// Drawn from the caller's [`SimRng`] stream (a partial Fisher–Yates
/// shuffle), so the cohort is a pure function of `(candidates,
/// fraction, rng state)`.
///
/// # Panics
///
/// Panics unless `0.0 <= fraction <= 1.0`.
pub fn crash_cohort(candidates: &[u32], fraction: f64, rng: &mut SimRng) -> Vec<u32> {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "crash fraction must be in [0, 1]"
    );
    let take = (fraction * candidates.len() as f64).ceil() as usize;
    let take = take.min(candidates.len());
    let mut pool: Vec<u32> = candidates.to_vec();
    for i in 0..take {
        let j = i + rng.index(pool.len() - i);
        pool.swap(i, j);
    }
    pool.truncate(take);
    pool.sort_unstable();
    pool
}

/// RNG-free deterministic jitter in `0..=bound`: a SplitMix64-style
/// hash of `key`, so two peers backing off from the same failure round
/// do not retry in lock-step, yet no stream is advanced (replay and
/// schedule invariance are unaffected).
pub fn deterministic_jitter(key: u64, bound: u32) -> u32 {
    if bound == 0 {
        return 0;
    }
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % (u64::from(bound) + 1)) as u32
}

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};

impl ToJson for Blackout {
    fn to_json(&self) -> Json {
        object(vec![
            ("start", self.start.to_json()),
            ("rounds", self.rounds.to_json()),
        ])
    }
}

impl FromJson for Blackout {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Blackout {
            start: u64::from_json(value.get("start")?)?,
            rounds: u64::from_json(value.get("rounds")?)?,
        })
    }
}

impl ToJson for FaultPlan {
    fn to_json(&self) -> Json {
        object(vec![
            ("message_loss", Json::F64(self.message_loss)),
            ("blackout", self.blackout.to_json()),
        ])
    }
}

impl FromJson for FaultPlan {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let message_loss = value.get("message_loss")?.as_f64()?;
        if !(0.0..=1.0).contains(&message_loss) {
            return Err(JsonError(format!(
                "message_loss {message_loss} outside [0, 1]"
            )));
        }
        Ok(FaultPlan {
            message_loss,
            blackout: Blackout::from_json(value.get("blackout")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blackout_windows_are_half_open() {
        let plan = FaultPlan::none().with_blackout(1, 4).with_blackout(10, 3);
        assert!(
            !plan.oracle_blacked_out(2),
            "the later window replaces the earlier"
        );
        assert!(!plan.oracle_blacked_out(9));
        assert!(plan.oracle_blacked_out(10));
        assert!(plan.oracle_blacked_out(12));
        assert!(!plan.oracle_blacked_out(13));
        // A zero-length blackout is no fault, and replaces an earlier one.
        assert_eq!(plan.with_blackout(9, 0), FaultPlan::none());
    }

    #[test]
    fn cohort_is_deterministic_and_sorted() {
        let candidates: Vec<u32> = (0..40).collect();
        let a = crash_cohort(&candidates, 0.25, &mut SimRng::seed_from(11));
        let b = crash_cohort(&candidates, 0.25, &mut SimRng::seed_from(11));
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|v| candidates.contains(v)));
        // A different seed picks a different cohort (40 choose 10 makes a
        // collision astronomically unlikely).
        let c = crash_cohort(&candidates, 0.25, &mut SimRng::seed_from(12));
        assert_ne!(a, c);
    }

    #[test]
    fn cohort_edge_fractions() {
        let candidates: Vec<u32> = (0..7).collect();
        assert!(crash_cohort(&candidates, 0.0, &mut SimRng::seed_from(1)).is_empty());
        assert_eq!(
            crash_cohort(&candidates, 1.0, &mut SimRng::seed_from(1)),
            candidates
        );
        assert!(crash_cohort(&[], 0.5, &mut SimRng::seed_from(1)).is_empty());
    }

    #[test]
    fn jitter_is_bounded_and_stable() {
        for key in 0..200u64 {
            let j = deterministic_jitter(key, 4);
            assert!(j <= 4);
            assert_eq!(j, deterministic_jitter(key, 4));
        }
        assert_eq!(deterministic_jitter(99, 0), 0);
        // The hash spreads: 200 keys over 5 buckets should hit them all.
        let hit: std::collections::BTreeSet<u32> =
            (0..200).map(|k| deterministic_jitter(k, 4)).collect();
        assert_eq!(hit.len(), 5);
    }

    #[test]
    fn jsonio_round_trip() {
        let plan = FaultPlan::none()
            .with_message_loss(0.05)
            .with_blackout(10, 30);
        let json = lagover_jsonio::to_string(&plan);
        let back: FaultPlan = lagover_jsonio::from_str(&json).unwrap();
        assert_eq!(back, plan);
        let empty: FaultPlan =
            lagover_jsonio::from_str(&lagover_jsonio::to_string(&FaultPlan::none())).unwrap();
        assert_eq!(empty, FaultPlan::none());
    }

    #[test]
    fn bad_loss_probability_rejected() {
        let err = lagover_jsonio::from_str::<FaultPlan>(
            "{\"message_loss\":1.5,\"blackout\":{\"start\":0,\"rounds\":0}}",
        );
        assert!(err.is_err());
    }
}
