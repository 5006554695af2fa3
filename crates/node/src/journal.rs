//! Per-node journal reports and their merge back into the twin's
//! journal.
//!
//! Each node journals only the events it *owns* (events of its own
//! turns, plus the round-close and crash-injection events that concern
//! its own peer), keyed by `(global action index, sub-index)`. Because the
//! global schedule is shared, sorting the union of all nodes' entries
//! by that key reproduces the exact event order of the simulator twin;
//! replaying them through a ring [`Journal`] of the same capacity
//! reproduces its drop behaviour too, so the merged journal is
//! byte-identical to the twin's serialized form.

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};
use lagover_obs::{EngineCounters, Event, Journal, ObsReport};

use crate::replica::OwnedEvent;

/// One owned journal event with its global position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalEntry {
    /// Global action index the event belongs to.
    pub index: u64,
    /// Position within that action's event segment.
    pub sub: u32,
    /// The event.
    pub event: Event,
}

impl ToJson for JournalEntry {
    fn to_json(&self) -> Json {
        object(vec![
            ("index", self.index.to_json()),
            ("sub", self.sub.to_json()),
            ("event", self.event.to_json()),
        ])
    }
}

impl FromJson for JournalEntry {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(JournalEntry {
            index: u64::from_json(value.get("index")?)?,
            sub: u32::from_json(value.get("sub")?)?,
            event: Event::from_json(value.get("event")?)?,
        })
    }
}

impl JournalEntry {
    /// Builds the entry for an owned event at a global action index.
    pub fn from_owned(index: u64, owned: &OwnedEvent) -> Self {
        JournalEntry {
            index,
            sub: owned.sub,
            event: owned.event,
        }
    }
}

/// What one node writes out at the end of a run: its view of the
/// shared outcome plus the journal slice it owns.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// This node's peer id.
    pub peer: u32,
    /// Population size.
    pub peers: u64,
    /// Run seed.
    pub seed: u64,
    /// Scenario label ("construction" / "recovery").
    pub scenario: String,
    /// Transport label ("mesh" / "udp").
    pub transport: String,
    /// Global actions (turns) this replica applied.
    pub actions: u64,
    /// Of those, actions owned by this node.
    pub own_actions: u64,
    /// Rounds this replica ran.
    pub rounds: u64,
    /// Round construction converged, if reached.
    pub converged_at: Option<f64>,
    /// Round the overlay healed (recovery), if reached.
    pub healed_at: Option<f64>,
    /// Crashed cohort size (recovery; 0 otherwise).
    pub crashed_peers: u64,
    /// Final satisfied fraction over online peers.
    pub final_satisfied_fraction: f64,
    /// Final stale-chain count.
    pub final_stale_chains: u64,
    /// Whether the replica hit its round cap instead of finishing.
    pub time_limited: bool,
    /// Engine counters of the replica (identical on every node).
    pub counters: EngineCounters,
    /// Journal ring capacity (shared across nodes and twin).
    pub journal_capacity: u64,
    /// The owned journal slice, in `(index, sub)` order.
    pub entries: Vec<JournalEntry>,
}

impl ToJson for NodeReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("peer", self.peer.to_json()),
            ("peers", self.peers.to_json()),
            ("seed", self.seed.to_json()),
            ("scenario", Json::Str(self.scenario.clone())),
            ("transport", Json::Str(self.transport.clone())),
            ("actions", self.actions.to_json()),
            ("own_actions", self.own_actions.to_json()),
            ("rounds", self.rounds.to_json()),
            ("converged_at", self.converged_at.to_json()),
            ("healed_at", self.healed_at.to_json()),
            ("crashed_peers", self.crashed_peers.to_json()),
            (
                "final_satisfied_fraction",
                self.final_satisfied_fraction.to_json(),
            ),
            ("final_stale_chains", self.final_stale_chains.to_json()),
            ("time_limited", self.time_limited.to_json()),
            ("counters", self.counters.to_json()),
            ("journal_capacity", self.journal_capacity.to_json()),
            ("entries", self.entries.to_json()),
        ])
    }
}

impl FromJson for NodeReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(NodeReport {
            peer: u32::from_json(value.get("peer")?)?,
            peers: u64::from_json(value.get("peers")?)?,
            seed: u64::from_json(value.get("seed")?)?,
            scenario: String::from_json(value.get("scenario")?)?,
            transport: String::from_json(value.get("transport")?)?,
            actions: u64::from_json(value.get("actions")?)?,
            own_actions: u64::from_json(value.get("own_actions")?)?,
            rounds: u64::from_json(value.get("rounds")?)?,
            converged_at: Option::<f64>::from_json(value.get("converged_at")?)?,
            healed_at: Option::<f64>::from_json(value.get("healed_at")?)?,
            crashed_peers: u64::from_json(value.get("crashed_peers")?)?,
            final_satisfied_fraction: f64::from_json(value.get("final_satisfied_fraction")?)?,
            final_stale_chains: u64::from_json(value.get("final_stale_chains")?)?,
            time_limited: bool::from_json(value.get("time_limited")?)?,
            counters: EngineCounters::from_json(value.get("counters")?)?,
            journal_capacity: u64::from_json(value.get("journal_capacity")?)?,
            entries: Vec::<JournalEntry>::from_json(value.get("entries")?)?,
        })
    }
}

/// A merged multi-node run: the reconstructed twin journal plus the
/// shared outcome, cross-checked across every node's report.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedRun {
    /// The union journal, ring-replayed at the shared capacity —
    /// byte-identical to the simulator twin's journal.
    pub journal: Journal,
    /// The shared outcome (taken from node 0, asserted identical
    /// everywhere).
    pub report: NodeReport,
}

impl MergedRun {
    /// Whether the scenario finished (construction converged, or the
    /// recovery run healed) rather than hitting the round cap.
    pub fn finished(&self) -> bool {
        self.finished_at().is_some()
    }

    /// The round construction converged at, or the recovery run
    /// healed at.
    fn finished_at(&self) -> Option<f64> {
        match self.report.scenario.as_str() {
            "recovery" => self.report.healed_at,
            _ => self.report.converged_at,
        }
    }

    /// Folds the merged run into one [`ObsReport`] — the same document
    /// the simulator's observability pipeline produces, so downstream
    /// tooling (render, byte-compare) needs no special case for runs
    /// that happened over a transport. `rounds` counts rounds, as the
    /// simulator's do; the turns every replica applied are `turns`.
    pub fn to_obs_report(&self, label: &str) -> ObsReport {
        ObsReport {
            label: label.to_string(),
            peers: self.report.peers,
            runs: 1,
            seed: self.report.seed,
            rounds: self.report.rounds,
            turns: Some(self.report.actions),
            converged: u64::from(self.finished()),
            converged_rounds: self.finished_at().map_or(0, |round| round as u64),
            counters: self.report.counters,
            journal: Some(self.journal.clone()),
            ..ObsReport::default()
        }
    }
}

/// Merges per-node reports: asserts the replicated outcome really is
/// identical on every node, then rebuilds the twin journal from the
/// owned slices.
///
/// # Errors
///
/// Returns a description of the first divergence found — a node
/// disagreeing on the outcome, a duplicate `(index, sub)` key, or a
/// missing report.
pub fn merge_reports(reports: &[NodeReport]) -> Result<MergedRun, String> {
    let first = reports.first().ok_or("no node reports to merge")?;
    if reports.len() as u64 != first.peers {
        return Err(format!(
            "expected {} reports, got {}",
            first.peers,
            reports.len()
        ));
    }
    let mut seen = vec![false; reports.len()];
    for r in reports {
        let matches = r.peers == first.peers
            && r.seed == first.seed
            && r.scenario == first.scenario
            && r.actions == first.actions
            && r.rounds == first.rounds
            && r.converged_at == first.converged_at
            && r.healed_at == first.healed_at
            && r.crashed_peers == first.crashed_peers
            && r.final_satisfied_fraction == first.final_satisfied_fraction
            && r.final_stale_chains == first.final_stale_chains
            && r.time_limited == first.time_limited
            && r.counters == first.counters
            && r.journal_capacity == first.journal_capacity;
        if !matches {
            return Err(format!(
                "node {} diverged from node {}: replicas are not in lockstep",
                r.peer, first.peer
            ));
        }
        let slot = r.peer as usize;
        if slot >= seen.len() || seen[slot] {
            return Err(format!(
                "duplicate or out-of-range report for node {}",
                r.peer
            ));
        }
        seen[slot] = true;
    }

    let mut entries: Vec<&JournalEntry> = reports.iter().flat_map(|r| r.entries.iter()).collect();
    entries.sort_by_key(|e| (e.index, e.sub));
    for pair in entries.windows(2) {
        if (pair[0].index, pair[0].sub) == (pair[1].index, pair[1].sub) {
            return Err(format!(
                "duplicate journal key ({}, {})",
                pair[0].index, pair[0].sub
            ));
        }
    }
    let mut journal = Journal::new(first.journal_capacity as usize);
    for e in entries {
        journal.push(e.event);
    }
    Ok(MergedRun {
        journal,
        report: first.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagover_obs::Node;

    fn event(round: u64) -> Event {
        Event::Attach {
            round,
            child: 1,
            parent: Node::Source,
        }
    }

    fn report(peer: u32, peers: u64, entries: Vec<JournalEntry>) -> NodeReport {
        NodeReport {
            peer,
            peers,
            seed: 42,
            scenario: "construction".into(),
            transport: "mesh".into(),
            actions: 10,
            own_actions: entries.len() as u64,
            rounds: 3,
            converged_at: Some(12.5),
            healed_at: None,
            crashed_peers: 0,
            final_satisfied_fraction: 1.0,
            final_stale_chains: 0,
            time_limited: false,
            counters: EngineCounters::default(),
            journal_capacity: 4,
            entries,
        }
    }

    #[test]
    fn node_report_round_trips_through_jsonio() {
        let r = report(
            1,
            2,
            vec![JournalEntry {
                index: 3,
                sub: 0,
                event: event(0),
            }],
        );
        let text = lagover_jsonio::to_string(&r);
        let back: NodeReport = lagover_jsonio::from_str(&text).expect("parses");
        assert_eq!(back, r);
    }

    #[test]
    fn merge_interleaves_by_key_and_replays_ring_drops() {
        let a = report(
            0,
            2,
            vec![
                JournalEntry {
                    index: 0,
                    sub: 0,
                    event: event(0),
                },
                JournalEntry {
                    index: 2,
                    sub: 0,
                    event: event(2),
                },
                JournalEntry {
                    index: 2,
                    sub: 1,
                    event: event(20),
                },
            ],
        );
        let b = report(
            1,
            2,
            vec![
                JournalEntry {
                    index: 1,
                    sub: 0,
                    event: event(1),
                },
                JournalEntry {
                    index: 3,
                    sub: 0,
                    event: event(3),
                },
            ],
        );
        let merged = merge_reports(&[b, a]).expect("merges");
        // Five events through a capacity-4 ring: the oldest dropped.
        assert_eq!(merged.journal.len(), 4);
        assert_eq!(merged.journal.dropped(), 1);
        let rounds: Vec<u64> = merged
            .journal
            .iter()
            .map(|e| match e {
                Event::Attach { round, .. } => *round,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rounds, vec![1, 2, 20, 3]);
    }

    #[test]
    fn merge_rejects_divergent_replicas() {
        let a = report(0, 2, vec![]);
        let mut b = report(1, 2, vec![]);
        b.actions = 11;
        let err = merge_reports(&[a, b]).expect_err("divergence detected");
        assert!(err.contains("lockstep"), "{err}");
    }

    #[test]
    fn merge_rejects_duplicate_keys_and_missing_reports() {
        let dup = JournalEntry {
            index: 0,
            sub: 0,
            event: event(0),
        };
        let a = report(0, 2, vec![dup]);
        let b = report(1, 2, vec![dup]);
        assert!(merge_reports(&[a.clone(), b]).is_err());
        assert!(merge_reports(&[a]).is_err());
        assert!(merge_reports(&[]).is_err());
    }
}
