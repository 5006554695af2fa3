//! Structural analysis of a (partially) constructed overlay: depth
//! profiles, constraint slack, and fanout utilization.
//!
//! These are the quantities a deployment would watch on a dashboard —
//! and the quantities the gradation property is *about*: a LagOver is
//! healthy when slack is non-negative everywhere and capacity near the
//! source is neither hoarded nor exhausted.

use serde::{Deserialize, Serialize};

use crate::node::{Member, PeerId, Population};
use crate::overlay::Overlay;

/// Depth histogram and summary of a forest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepthProfile {
    /// `counts[d]` = rooted peers at delay `d` (`counts[0]` is unused
    /// and always 0; delays start at 1).
    pub counts: Vec<usize>,
    /// Peers not reachable from the source.
    pub unrooted: usize,
    /// Maximum observed delay.
    pub max_depth: u32,
    /// Mean delay over rooted peers (0.0 when none).
    pub mean_depth: f64,
}

/// Slack statistics: `slack(i) = l_i - DelayAt(i)` for rooted peers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlackProfile {
    /// Rooted peers with `slack < 0` (violated).
    pub violated: usize,
    /// Rooted peers with `slack == 0` (tight — any upstream growth
    /// breaks them).
    pub tight: usize,
    /// Rooted peers with `slack > 0`.
    pub slackful: usize,
    /// Minimum slack (negative iff violations exist); `None` when no
    /// peer is rooted.
    pub min_slack: Option<i64>,
    /// Mean slack over rooted peers.
    pub mean_slack: f64,
}

/// Capacity usage per tree level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationProfile {
    /// `used[d]` / `capacity[d]`: child slots used and offered by peers
    /// at delay `d` (index 0 = the source).
    pub used: Vec<u64>,
    /// Capacity offered per level (see `used`).
    pub capacity: Vec<u64>,
}

impl UtilizationProfile {
    /// Utilization ratio of level `d` (`None` if the level offers no
    /// capacity or is out of range).
    pub fn ratio(&self, level: usize) -> Option<f64> {
        match (self.used.get(level), self.capacity.get(level)) {
            (Some(&u), Some(&c)) if c > 0 => Some(u as f64 / c as f64),
            _ => None,
        }
    }
}

/// Computes the depth profile.
pub fn depth_profile(overlay: &Overlay, population: &Population) -> DepthProfile {
    let mut counts: Vec<usize> = Vec::new();
    let mut unrooted = 0usize;
    let mut sum = 0u64;
    let mut rooted = 0usize;
    debug_assert_eq!(overlay.len(), population.len());
    for delay in overlay.delays() {
        match delay {
            Some(d) => {
                let d = d as usize;
                if counts.len() <= d {
                    counts.resize(d + 1, 0);
                }
                counts[d] += 1;
                sum += d as u64;
                rooted += 1;
            }
            None => unrooted += 1,
        }
    }
    DepthProfile {
        max_depth: counts.len().saturating_sub(1) as u32,
        mean_depth: if rooted == 0 {
            0.0
        } else {
            sum as f64 / rooted as f64
        },
        counts,
        unrooted,
    }
}

/// Computes the slack profile.
pub fn slack_profile(overlay: &Overlay, population: &Population) -> SlackProfile {
    let latencies = population.latencies();
    let mut violated = 0usize;
    let mut tight = 0usize;
    let mut slackful = 0usize;
    let mut min_slack: Option<i64> = None;
    let mut sum = 0i64;
    let mut rooted = 0usize;
    for (&latency, delay) in latencies.iter().zip(overlay.delays()) {
        if let Some(d) = delay {
            let slack = i64::from(latency) - i64::from(d);
            match slack {
                s if s < 0 => violated += 1,
                0 => tight += 1,
                _ => slackful += 1,
            }
            min_slack = Some(min_slack.map_or(slack, |m| m.min(slack)));
            sum += slack;
            rooted += 1;
        }
    }
    SlackProfile {
        violated,
        tight,
        slackful,
        min_slack,
        mean_slack: if rooted == 0 {
            0.0
        } else {
            sum as f64 / rooted as f64
        },
    }
}

/// Computes per-level capacity utilization. Level 0 is the source;
/// level `d >= 1` aggregates the rooted peers at delay `d`.
pub fn utilization_profile(overlay: &Overlay, population: &Population) -> UtilizationProfile {
    // Level 0 is the source's own slot usage.
    let mut used = vec![overlay.source_children().len() as u64];
    let mut capacity = vec![u64::from(population.source_fanout())];
    let delays = overlay.delays();
    for (i, &fanout) in population.fanouts().iter().enumerate() {
        let p = PeerId::new(i as u32);
        if let Some(d) = delays[i] {
            let d = d as usize;
            if used.len() <= d {
                used.resize(d + 1, 0);
                capacity.resize(d + 1, 0);
            }
            used[d] += overlay.children(p).len() as u64;
            capacity[d] += u64::from(fanout);
        }
    }
    UtilizationProfile { used, capacity }
}

/// The *latency gradation* coefficient: the fraction of edges
/// `parent -> child` (among peer-to-peer edges) where
/// `l_parent <= l_child`. The greedy algorithm yields 1.0 by invariant;
/// the hybrid trades gradation for capacity, and this measures by how
/// much.
pub fn gradation_coefficient(overlay: &Overlay, population: &Population) -> Option<f64> {
    let latencies = population.latencies();
    let mut ordered = 0usize;
    let mut edges = 0usize;
    for (i, &latency) in latencies.iter().enumerate() {
        if let Some(Member::Peer(q)) = overlay.parent(PeerId::new(i as u32)) {
            edges += 1;
            if latencies[q.index()] <= latency {
                ordered += 1;
            }
        }
    }
    (edges > 0).then(|| ordered as f64 / edges as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, ConstructionConfig};
    use crate::engine::Engine;
    use crate::node::{Constraints, PeerId};
    use crate::oracle::OracleKind;

    fn p(i: u32) -> PeerId {
        PeerId::new(i)
    }

    /// source -> 0 (l=2) -> 1 (l=2, tight); 2 unrooted.
    fn fixture() -> (Overlay, Population) {
        let population = Population::new(
            1,
            vec![
                Constraints::new(2, 2),
                Constraints::new(1, 2),
                Constraints::new(0, 3),
            ],
        );
        let mut o = Overlay::new(&population);
        o.attach(p(0), Member::Source).unwrap();
        o.attach(p(1), Member::Peer(p(0))).unwrap();
        (o, population)
    }

    #[test]
    fn depth_profile_counts_levels_and_unrooted() {
        let (o, population) = fixture();
        let d = depth_profile(&o, &population);
        assert_eq!(d.counts, vec![0, 1, 1]);
        assert_eq!(d.unrooted, 1);
        assert_eq!(d.max_depth, 2);
        assert!((d.mean_depth - 1.5).abs() < 1e-12);
    }

    #[test]
    fn slack_profile_classifies() {
        let (o, population) = fixture();
        let s = slack_profile(&o, &population);
        // Peer 0: slack 1; peer 1: slack 0.
        assert_eq!(s.violated, 0);
        assert_eq!(s.tight, 1);
        assert_eq!(s.slackful, 1);
        assert_eq!(s.min_slack, Some(0));
        assert!((s.mean_slack - 0.5).abs() < 1e-12);
    }

    #[test]
    fn slack_profile_detects_violation() {
        let population = Population::new(1, vec![Constraints::new(1, 1), Constraints::new(0, 1)]);
        let mut o = Overlay::new(&population);
        o.attach(p(0), Member::Source).unwrap();
        o.attach(p(1), Member::Peer(p(0))).unwrap(); // delay 2 > l 1
        let s = slack_profile(&o, &population);
        assert_eq!(s.violated, 1);
        assert_eq!(s.min_slack, Some(-1));
    }

    #[test]
    fn utilization_tracks_used_and_offered() {
        let (o, population) = fixture();
        let u = utilization_profile(&o, &population);
        assert_eq!(u.used, vec![1, 1, 0]);
        assert_eq!(u.capacity, vec![1, 2, 1]);
        assert_eq!(u.ratio(0), Some(1.0));
        assert_eq!(u.ratio(1), Some(0.5));
        assert_eq!(u.ratio(9), None);
    }

    #[test]
    fn gradation_is_one_for_greedy_runs() {
        let population = Population::new(
            2,
            vec![
                Constraints::new(2, 1),
                Constraints::new(2, 2),
                Constraints::new(0, 3),
                Constraints::new(0, 3),
                Constraints::new(0, 4),
            ],
        );
        let config = ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
            .with_max_rounds(3_000);
        let mut engine = Engine::new(&population, &config, 8);
        engine.run_to_convergence().expect("converges");
        assert_eq!(
            gradation_coefficient(engine.overlay(), &population),
            Some(1.0)
        );
    }

    #[test]
    fn empty_forest_profiles_are_sane() {
        let population = Population::new(1, vec![Constraints::new(1, 1)]);
        let o = Overlay::new(&population);
        let d = depth_profile(&o, &population);
        assert_eq!(d.unrooted, 1);
        assert_eq!(d.mean_depth, 0.0);
        let s = slack_profile(&o, &population);
        assert_eq!(s.min_slack, None);
        assert_eq!(gradation_coefficient(&o, &population), None);
    }
}
