//! The metrics registry: named counters, gauges, and histograms with a
//! per-round scrape.
//!
//! Absorbs the `lagover-sim` metric primitives (re-exported from the
//! crate root) and the engine's [`EngineCounters`] into one named,
//! insertion-ordered surface. Everything is `Vec`-backed — no hash
//! maps — so iteration order, and therefore every serialized scrape,
//! is deterministic.

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};
use lagover_sim::Histogram;
use serde::{Deserialize, Serialize};

use crate::counters::EngineCounters;
use crate::event::{Event, EventKind};

/// Prefix for counters derived from journal events.
const EVENT_PREFIX: &str = "events.";
/// Prefix for counters absorbed from [`EngineCounters`].
const ENGINE_PREFIX: &str = "engine.";

/// A named, insertion-ordered metrics store.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Registry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<Histogram>,
    /// Where each event kind's counter sits in `counters`, indexed by
    /// [`EventKind`]: position + 1, or 0 until the kind is first
    /// recorded. Counters are only ever appended, so a position stays
    /// valid. Derived: never serialized, never compared.
    #[serde(skip)]
    event_slots: [u32; EventKind::ALL.len()],
}

// Equality is the metrics', not the lookup cache's.
impl PartialEq for Registry {
    fn eq(&self, other: &Self) -> bool {
        self.counters == other.counters
            && self.gauges == other.gauges
            && self.histograms == other.histograms
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `by` to the counter `name`, creating it at zero first if
    /// needed.
    pub fn add(&mut self, name: &str, by: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, value)) => *value += by,
            None => self.counters.push((name.to_string(), by)),
        }
    }

    /// Sets the counter `name` to an absolute value.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => *slot = value,
            None => self.counters.push((name.to_string(), value)),
        }
    }

    /// Current value of the counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Sets the gauge `name`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        match self.gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => *slot = value,
            None => self.gauges.push((name.to_string(), value)),
        }
    }

    /// Current value of the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram `name`, created empty on first use.
    pub fn histogram_mut(&mut self, name: &str) -> &mut Histogram {
        if let Some(at) = self.histograms.iter().position(|h| h.name() == name) {
            return &mut self.histograms[at];
        }
        self.histograms.push(Histogram::new(name));
        self.histograms.last_mut().expect("just pushed")
    }

    /// The registered histograms, in insertion order.
    pub fn histograms(&self) -> &[Histogram] {
        &self.histograms
    }

    /// Counts one journal event into the `events.<kind>` counter. The
    /// pipeline calls this for every recorded event, so these counters
    /// equal a fold over the journal whenever the journal dropped
    /// nothing.
    pub fn record_event(&mut self, event: &Event) {
        // The counter is found by name once per kind — or created, so
        // counters keep their first-seen order — and by slot after that.
        let kind = event.kind();
        let slot = &mut self.event_slots[kind as usize];
        if *slot == 0 {
            let name = format!("{EVENT_PREFIX}{}", kind.name());
            let at = match self.counters.iter().position(|(n, _)| *n == name) {
                Some(at) => at,
                None => {
                    self.counters.push((name, 0));
                    self.counters.len() - 1
                }
            };
            *slot = at as u32 + 1;
        }
        self.counters[*slot as usize - 1].1 += 1;
    }

    /// Count of recorded events of `kind` (by [`crate::EventKind::name`]).
    pub fn event_count(&self, kind: &str) -> u64 {
        self.counter(&format!("{EVENT_PREFIX}{kind}"))
    }

    /// Absorbs the engine's cumulative counters as `engine.<field>`
    /// counters (absolute values, overwritten on every scrape).
    pub fn absorb_engine_counters(&mut self, counters: &EngineCounters) {
        for (name, value) in counters.to_named() {
            self.set_counter(&format!("{ENGINE_PREFIX}{name}"), value);
        }
    }

    /// Scrapes the current counter and gauge values, stamped with the
    /// round.
    pub fn sample(&self, round: u64) -> Scrape {
        Scrape {
            round,
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
        }
    }
}

/// One point-in-time scrape of the registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Scrape {
    /// The round the scrape was taken at.
    pub round: u64,
    /// Counter values, in registration order.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, in registration order.
    pub gauges: Vec<(String, f64)>,
}

impl Scrape {
    /// Value of the counter `name` in this scrape (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Value of the gauge `name` in this scrape.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The scrape as flat `(name, value)` pairs — the round stamp
    /// followed by every counter in registration order. Gauges are
    /// deliberately excluded: this is the exact-compare export surface
    /// the perf baseline commits, and only integer metrics diff
    /// byte-exactly across toolchains.
    pub fn to_named(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(1 + self.counters.len());
        out.push(("round".to_string(), self.round));
        out.extend(self.counters.iter().cloned());
        out
    }
}

fn pairs_to_json<V: ToJson>(pairs: &[(String, V)]) -> Json {
    Json::Object(
        pairs
            .iter()
            .map(|(name, value)| (name.clone(), value.to_json()))
            .collect(),
    )
}

fn pairs_from_json<V: FromJson>(value: &Json) -> Result<Vec<(String, V)>, JsonError> {
    match value {
        Json::Object(entries) => entries
            .iter()
            .map(|(name, v)| Ok((name.clone(), V::from_json(v)?)))
            .collect(),
        _ => Err(JsonError("expected an object of named values".into())),
    }
}

impl ToJson for Scrape {
    fn to_json(&self) -> Json {
        object(vec![
            ("round", self.round.to_json()),
            ("counters", pairs_to_json(&self.counters)),
            ("gauges", pairs_to_json(&self.gauges)),
        ])
    }
}

impl FromJson for Scrape {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Scrape {
            round: u64::from_json(value.get("round")?)?,
            counters: pairs_from_json(value.get("counters")?)?,
            gauges: pairs_from_json(value.get("gauges")?)?,
        })
    }
}

impl ToJson for Registry {
    fn to_json(&self) -> Json {
        object(vec![
            ("counters", pairs_to_json(&self.counters)),
            ("gauges", pairs_to_json(&self.gauges)),
            (
                "histograms",
                Json::Array(self.histograms.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for Registry {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Registry {
            counters: pairs_from_json(value.get("counters")?)?,
            gauges: pairs_from_json(value.get("gauges")?)?,
            histograms: Vec::from_json(value.get("histograms")?)?,
            event_slots: Default::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Node;

    #[test]
    fn counters_accumulate_in_insertion_order() {
        let mut registry = Registry::new();
        registry.add("b", 2);
        registry.add("a", 1);
        registry.add("b", 3);
        assert_eq!(registry.counter("b"), 5);
        let scrape = registry.sample(7);
        assert_eq!(scrape.round, 7);
        assert_eq!(scrape.counters[0].0, "b", "insertion order kept");
        assert_eq!(scrape.counter("a"), 1);
        assert_eq!(scrape.counter("missing"), 0);
    }

    #[test]
    fn event_recording_counts_by_kind() {
        let mut registry = Registry::new();
        registry.record_event(&Event::Attach {
            round: 0,
            child: 1,
            parent: Node::Source,
        });
        registry.record_event(&Event::OracleMiss { round: 1, peer: 2 });
        registry.record_event(&Event::Attach {
            round: 1,
            child: 2,
            parent: Node::Peer(1),
        });
        assert_eq!(registry.event_count("attach"), 2);
        assert_eq!(registry.event_count("oracle_miss"), 1);
        assert_eq!(registry.event_count("crash"), 0);
    }

    #[test]
    fn event_counters_keep_first_seen_order_and_survive_a_round_trip() {
        let mut registry = Registry::new();
        registry.add("engine.attaches", 1);
        registry.record_event(&Event::OracleMiss { round: 0, peer: 1 });
        registry.record_event(&Event::Crash { round: 0, peer: 2 });
        registry.record_event(&Event::OracleMiss { round: 1, peer: 3 });
        let names: Vec<&str> = registry.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["engine.attaches", "events.oracle_miss", "events.crash"]
        );
        assert_eq!(registry.event_count("oracle_miss"), 2);

        // A registry read back has no slots yet: it finds the counter
        // by name instead of adding a second one.
        let json = lagover_jsonio::to_string(&registry);
        let mut back: Registry = lagover_jsonio::from_str(&json).expect("parses");
        assert_eq!(back, registry);
        back.record_event(&Event::Crash { round: 2, peer: 4 });
        assert_eq!(back.counters.len(), 3);
        assert_eq!(back.event_count("crash"), 2);
    }

    #[test]
    fn engine_counters_absorb_as_absolute_values() {
        let mut registry = Registry::new();
        let mut counters = EngineCounters {
            attaches: 3,
            ..Default::default()
        };
        registry.absorb_engine_counters(&counters);
        assert_eq!(registry.counter("engine.attaches"), 3);
        counters.attaches = 10;
        registry.absorb_engine_counters(&counters);
        assert_eq!(registry.counter("engine.attaches"), 10, "set, not added");
    }

    #[test]
    fn gauges_and_histograms() {
        let mut registry = Registry::new();
        registry.set_gauge("satisfied_fraction", 0.5);
        registry.set_gauge("satisfied_fraction", 0.75);
        assert_eq!(registry.gauge("satisfied_fraction"), Some(0.75));
        registry.histogram_mut("depth").record(3);
        registry.histogram_mut("depth").record(1);
        assert_eq!(registry.histograms()[0].count(), 2);
        assert_eq!(registry.histograms().len(), 1, "found, not duplicated");
    }

    #[test]
    fn scrape_named_export_keeps_round_and_counter_order() {
        let mut registry = Registry::new();
        registry.add("events.attach", 4);
        registry.add("events.detach", 1);
        registry.set_gauge("orphans", 2.0);
        let named = registry.sample(12).to_named();
        assert_eq!(named[0], ("round".to_string(), 12));
        assert_eq!(named[1], ("events.attach".to_string(), 4));
        assert_eq!(named[2], ("events.detach".to_string(), 1));
        assert_eq!(named.len(), 3, "gauges stay out of the exact export");
    }

    #[test]
    fn scrape_json_round_trips() {
        let mut registry = Registry::new();
        registry.add("events.attach", 4);
        registry.set_gauge("orphans", 2.0);
        let scrape = registry.sample(12);
        let json = lagover_jsonio::to_string(&scrape);
        let back: Scrape = lagover_jsonio::from_str(&json).expect("parses");
        assert_eq!(back, scrape);
        assert_eq!(lagover_jsonio::to_string(&back), json);
    }

    #[test]
    fn registry_json_round_trips() {
        let mut registry = Registry::new();
        registry.add("events.detach", 1);
        registry.set_gauge("stale", 0.0);
        registry.histogram_mut("depth").record(2);
        let json = lagover_jsonio::to_string(&registry);
        let back: Registry = lagover_jsonio::from_str(&json).expect("parses");
        assert_eq!(lagover_jsonio::to_string(&back), json);
    }
}
