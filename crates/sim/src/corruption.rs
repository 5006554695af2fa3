//! Adversarial state corruption: declarative plans for mutating an
//! overlay snapshot into an *arbitrary* — possibly invariant-violating
//! — state.
//!
//! The fault plans in [`crate::faults`] only produce protocol-reachable
//! states: crashes, lost messages, and directory outages all leave the
//! overlay structurally valid. Self-stabilization (Avatar, and the
//! underlay-aware self-stabilizing overlay line of work) demands more:
//! re-convergence from *any* state, including parent cycles, forged
//! cached depths, and dangling pointers that no legal execution can
//! produce. [`CorruptionPlan`] describes such a state mutation
//! declaratively so the engine can apply it as a one-shot snapshot
//! transformation and then be measured on how long local repair takes
//! to reach a clean, converged overlay again.
//!
//! Like [`FaultPlan`](crate::faults::FaultPlan), the plan is replay
//! deterministic: victim cohorts are drawn from the plan's *own* seeded
//! [`SimRng`](crate::rng::SimRng) stream (never the engine's), and
//! forged payload values are RNG-free hashes — an empty plan consumes
//! **zero** random draws, leaving corruption-free runs byte-identical
//! to builds without the subsystem.

use serde::{Deserialize, Serialize};

use crate::faults::{crash_cohort, deterministic_jitter};
use crate::rng::SimRng;

/// The corruption classes an adversarial snapshot mutation composes.
///
/// Each class targets one structural invariant of the dissemination
/// forest; the engine-side interpreter decides how a class lands on
/// the concrete overlay (for example, `ParentCycle` only splices peers
/// that actually hold a parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorruptionClass {
    /// Splice the victims' parent pointers into a cycle, detaching
    /// them from the real tree without updating any caches.
    ParentCycle,
    /// Forge the victims' cached depth/delay (hops-to-root) values.
    ForgedCache,
    /// Point the victims' parent pointers at peers that do not list
    /// them as children (broken backlinks).
    DanglingParent,
    /// Forge the victims' advertised fanout below their current child
    /// count, overflowing the bound.
    FanoutOverflow,
    /// Graft the victims (with their whole subtrees) under foreign
    /// parents without updating subtree caches.
    OrphanGraft,
    /// Rewrite the victims' cached [`ChainRoot`] entries to stale
    /// values that no longer match a chain walk.
    StaleRoot,
}

impl CorruptionClass {
    /// Every class, in canonical (application) order.
    pub const ALL: [CorruptionClass; 6] = [
        CorruptionClass::ParentCycle,
        CorruptionClass::ForgedCache,
        CorruptionClass::DanglingParent,
        CorruptionClass::FanoutOverflow,
        CorruptionClass::OrphanGraft,
        CorruptionClass::StaleRoot,
    ];

    /// Stable machine name (serialization and report labels).
    pub fn name(&self) -> &'static str {
        match self {
            CorruptionClass::ParentCycle => "parent_cycle",
            CorruptionClass::ForgedCache => "forged_cache",
            CorruptionClass::DanglingParent => "dangling_parent",
            CorruptionClass::FanoutOverflow => "fanout_overflow",
            CorruptionClass::OrphanGraft => "orphan_graft",
            CorruptionClass::StaleRoot => "stale_root",
        }
    }

    /// Parses a [`CorruptionClass::name`] back.
    pub fn parse(name: &str) -> Option<Self> {
        CorruptionClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Position in [`CorruptionClass::ALL`] — used to salt the
    /// per-class victim stream.
    fn index(&self) -> u64 {
        CorruptionClass::ALL
            .iter()
            .position(|c| c == self)
            .expect("class listed in ALL") as u64
    }
}

impl std::fmt::Display for CorruptionClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Stream salt separating the plan's victim draws from every engine
/// stream (the class index is added on top).
const VICTIM_STREAM_SALT: u64 = 0x000C_022F_F7E0;

/// A serializable, replay-deterministic snapshot-corruption scenario.
///
/// A plan is a set of [`CorruptionClass`]es applied at one instant,
/// each hitting an independently drawn `severity` fraction of the
/// population. Construction is builder-style:
///
/// ```
/// use lagover_sim::corruption::{CorruptionClass, CorruptionPlan};
///
/// let plan = CorruptionPlan::new(7)
///     .with_class(CorruptionClass::ParentCycle)
///     .with_severity(0.25);
/// assert!(!plan.is_empty());
/// assert_eq!(plan.victims(CorruptionClass::ParentCycle, 16).len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorruptionPlan {
    classes: Vec<CorruptionClass>,
    severity: f64,
    seed: u64,
}

impl CorruptionPlan {
    /// An empty plan (no classes) with a default severity of 0.1.
    pub fn new(seed: u64) -> Self {
        CorruptionPlan {
            classes: Vec::new(),
            severity: 0.1,
            seed,
        }
    }

    /// Whether the plan mutates nothing at all.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty() || self.severity <= 0.0
    }

    /// Adds a corruption class (idempotent; kept in canonical order).
    #[must_use]
    pub fn with_class(mut self, class: CorruptionClass) -> Self {
        if !self.classes.contains(&class) {
            self.classes.push(class);
            self.classes.sort_by_key(CorruptionClass::index);
        }
        self
    }

    /// Adds every class.
    #[must_use]
    pub fn with_all_classes(mut self) -> Self {
        self.classes = CorruptionClass::ALL.to_vec();
        self
    }

    /// Sets the fraction of the population each class corrupts.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= severity <= 1.0`.
    #[must_use]
    pub fn with_severity(mut self, severity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&severity),
            "severity must be in [0, 1]"
        );
        self.severity = severity;
        self
    }

    /// The classes applied, in canonical order.
    pub fn classes(&self) -> &[CorruptionClass] {
        &self.classes
    }

    /// The per-class victim fraction.
    pub fn severity(&self) -> f64 {
        self.severity
    }

    /// The plan's own seed (never the engine's).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draws the victim cohort of `class` over a population of `n`
    /// peers: a sorted uniform sample of `ceil(severity * n)` indices,
    /// from a stream derived solely from the plan's seed and the class
    /// — applying a plan therefore advances **no** engine stream.
    pub fn victims(&self, class: CorruptionClass, n: usize) -> Vec<u32> {
        if !self.classes.contains(&class) || self.is_empty() {
            return Vec::new();
        }
        let mut rng = SimRng::seed_from(self.seed).split(VICTIM_STREAM_SALT + class.index());
        let candidates: Vec<u32> = (0..n as u32).collect();
        crash_cohort(&candidates, self.severity, &mut rng)
    }

    /// An RNG-free forged payload for `peer` under `class` — the
    /// interpreter reduces it modulo whatever range it needs (a forged
    /// hop count, a graft target, a stale root id). Pure hash of
    /// `(seed, class, peer)`, so payloads are stable across replays
    /// and advance no stream.
    pub fn payload(&self, class: CorruptionClass, peer: u32) -> u64 {
        let key = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(class.index() << 32)
            .wrapping_add(u64::from(peer));
        u64::from(deterministic_jitter(key, u32::MAX))
    }
}

impl std::fmt::Display for CorruptionPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "no corruption");
        }
        let names: Vec<&str> = self.classes.iter().map(CorruptionClass::name).collect();
        write!(
            f,
            "corrupt({} @ {:.0}%)",
            names.join("+"),
            self.severity * 100.0
        )
    }
}

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};

impl ToJson for CorruptionClass {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

impl FromJson for CorruptionClass {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let name = value.as_str()?;
        CorruptionClass::parse(name)
            .ok_or_else(|| JsonError(format!("unknown corruption class '{name}'")))
    }
}

impl ToJson for CorruptionPlan {
    fn to_json(&self) -> Json {
        object(vec![
            ("classes", self.classes.to_json()),
            ("severity", Json::F64(self.severity)),
            ("seed", self.seed.to_json()),
        ])
    }
}

impl FromJson for CorruptionPlan {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let mut classes: Vec<CorruptionClass> = Vec::from_json(value.get("classes")?)?;
        classes.sort_by_key(CorruptionClass::index);
        classes.dedup();
        let severity = value.get("severity")?.as_f64()?;
        if !(0.0..=1.0).contains(&severity) {
            return Err(JsonError(format!("severity {severity} outside [0, 1]")));
        }
        Ok(CorruptionPlan {
            classes,
            severity,
            seed: u64::from_json(value.get("seed")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(CorruptionPlan::new(1).is_empty());
        assert!(CorruptionPlan::new(1)
            .with_all_classes()
            .with_severity(0.0)
            .is_empty());
        assert!(!CorruptionPlan::new(1)
            .with_class(CorruptionClass::StaleRoot)
            .is_empty());
    }

    #[test]
    fn classes_stay_canonical_and_deduped() {
        let plan = CorruptionPlan::new(3)
            .with_class(CorruptionClass::StaleRoot)
            .with_class(CorruptionClass::ParentCycle)
            .with_class(CorruptionClass::StaleRoot);
        assert_eq!(
            plan.classes(),
            &[CorruptionClass::ParentCycle, CorruptionClass::StaleRoot]
        );
        assert_eq!(
            CorruptionPlan::new(3).with_all_classes().classes(),
            &CorruptionClass::ALL
        );
    }

    #[test]
    fn names_round_trip() {
        for class in CorruptionClass::ALL {
            assert_eq!(CorruptionClass::parse(class.name()), Some(class));
            assert_eq!(class.to_string(), class.name());
        }
        assert_eq!(CorruptionClass::parse("nope"), None);
    }

    #[test]
    fn victims_are_deterministic_per_class_and_seed() {
        let plan = CorruptionPlan::new(11)
            .with_all_classes()
            .with_severity(0.25);
        let a = plan.victims(CorruptionClass::ParentCycle, 40);
        assert_eq!(a, plan.victims(CorruptionClass::ParentCycle, 40));
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // Per-class streams are independent: another class draws a
        // different cohort (same size).
        let b = plan.victims(CorruptionClass::StaleRoot, 40);
        assert_eq!(b.len(), 10);
        assert_ne!(a, b);
        // A class outside the plan draws nothing.
        let narrow = CorruptionPlan::new(11).with_class(CorruptionClass::StaleRoot);
        assert!(narrow.victims(CorruptionClass::ParentCycle, 40).is_empty());
    }

    #[test]
    fn payloads_are_stable_and_spread() {
        let plan = CorruptionPlan::new(5).with_all_classes();
        let p = plan.payload(CorruptionClass::ForgedCache, 3);
        assert_eq!(p, plan.payload(CorruptionClass::ForgedCache, 3));
        let distinct: std::collections::BTreeSet<u64> = (0..64)
            .map(|i| plan.payload(CorruptionClass::ForgedCache, i))
            .collect();
        assert!(distinct.len() > 60, "payload hash clusters");
    }

    #[test]
    fn jsonio_round_trip() {
        let plan = CorruptionPlan::new(9)
            .with_class(CorruptionClass::ParentCycle)
            .with_class(CorruptionClass::FanoutOverflow)
            .with_severity(0.5);
        let json = lagover_jsonio::to_string(&plan);
        let back: CorruptionPlan = lagover_jsonio::from_str(&json).unwrap();
        assert_eq!(back, plan);
        let empty: CorruptionPlan =
            lagover_jsonio::from_str(&lagover_jsonio::to_string(&CorruptionPlan::new(0))).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn bad_severity_rejected() {
        let err = lagover_jsonio::from_str::<CorruptionPlan>(
            "{\"classes\":[],\"severity\":1.5,\"seed\":0}",
        );
        assert!(err.is_err());
        let err = lagover_jsonio::from_str::<CorruptionPlan>(
            "{\"classes\":[\"astral\"],\"severity\":0.1,\"seed\":0}",
        );
        assert!(err.is_err());
    }
}
