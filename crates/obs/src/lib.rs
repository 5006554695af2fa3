//! `lagover-obs`: deterministic observability for the LagOver
//! reproduction.
//!
//! One subsystem unifies what used to be scattered across the engine
//! and the experiment harness:
//!
//! - **[`Event`] / [`Journal`]** — a structured, bounded event journal
//!   covering the full taxonomy (attach/detach, oracle contacts,
//!   backoff, message loss, crashes, fault detection, feed delivery).
//! - **[`Registry`] / [`Scrape`]** — named counters and gauges with
//!   per-round scrapes; absorbs [`EngineCounters`].
//! - **[`HealthSample`]** — the per-round overlay health probe (depth
//!   histogram, slack distribution, orphans, fanout utilization, stale
//!   chains, oracle load).
//! - **[`Profiler`]** — the deterministic cost-model profiler: work
//!   counters instead of wall clocks, so profiles are byte-stable and
//!   diffable.
//! - **[`ObsReport`]** — the report generator behind `lagover obs`.
//!
//! Everything funnels through [`Pipeline`], the engine-facing facade.
//! A disabled pipeline ([`Pipeline::disabled`]) stores nothing and
//! costs a branch per call site, so instrumented code runs
//! byte-identically — including RNG draw counts — with observability
//! off.

pub mod counters;
pub mod event;
pub mod health;
pub mod journal;
pub mod profiler;
pub mod registry;
pub mod report;

pub use counters::EngineCounters;
pub use event::{DetachCause, Event, EventKind, InconsistencyCause, Node, RepairKind};
pub use health::HealthSample;
pub use journal::Journal;
pub use profiler::{PhaseStats, Profiler, Work};
pub use registry::{Registry, Scrape};
pub use report::ObsReport;

use serde::{Deserialize, Serialize};

/// The engine-facing observability facade: an optional journal,
/// registry, and profiler behind one `record` surface.
///
/// Each component is independently enabled. The pipeline deliberately
/// has no global "sample rate" or filtering — determinism is easier to
/// audit when a pipeline either records everything or nothing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Pipeline {
    journal: Option<Journal>,
    registry: Option<Registry>,
    profiler: Option<Profiler>,
}

impl Pipeline {
    /// A pipeline with every component off: records nothing, allocates
    /// nothing.
    pub const fn disabled() -> Self {
        Pipeline {
            journal: None,
            registry: None,
            profiler: None,
        }
    }

    /// A fully-enabled pipeline: journal (bounded by `capacity`),
    /// registry, and profiler.
    pub fn enabled(capacity: usize) -> Self {
        Pipeline {
            journal: Some(Journal::new(capacity)),
            registry: Some(Registry::new()),
            profiler: Some(Profiler::new()),
        }
    }

    /// Enables the event journal with the given capacity (replacing any
    /// existing journal).
    pub fn enable_journal(&mut self, capacity: usize) -> &mut Self {
        self.journal = Some(Journal::new(capacity));
        self
    }

    /// Enables the metrics registry.
    pub fn enable_registry(&mut self) -> &mut Self {
        self.registry = Some(Registry::new());
        self
    }

    /// Enables the cost-model profiler.
    pub fn enable_profiler(&mut self) -> &mut Self {
        self.profiler = Some(Profiler::new());
        self
    }

    /// Whether any component is enabled (instrumented code gates event
    /// construction on this).
    pub fn is_enabled(&self) -> bool {
        self.journal.is_some() || self.registry.is_some() || self.profiler.is_some()
    }

    /// Whether the profiler is enabled (phase accounting gates on this
    /// so disabled runs skip the delta bookkeeping entirely).
    pub fn profiling(&self) -> bool {
        self.profiler.is_some()
    }

    /// Records one event into the registry (counter by kind) and the
    /// journal, whichever are enabled.
    pub fn record(&mut self, event: Event) {
        if let Some(registry) = &mut self.registry {
            registry.record_event(&event);
        }
        if let Some(journal) = &mut self.journal {
            journal.push(event);
        }
    }

    /// Attributes `work` to the profiler phase `name` (no-op unless
    /// profiling).
    pub fn record_phase(&mut self, name: &str, work: Work) {
        if let Some(profiler) = &mut self.profiler {
            profiler.record(name, work);
        }
    }

    /// The journal, if enabled.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Mutable journal access (the node runtime drains it per action).
    pub fn journal_mut(&mut self) -> Option<&mut Journal> {
        self.journal.as_mut()
    }

    /// The registry, if enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.registry.as_ref()
    }

    /// Mutable registry access (scrape paths set gauges directly).
    pub fn registry_mut(&mut self) -> Option<&mut Registry> {
        self.registry.as_mut()
    }

    /// The profiler, if enabled.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Takes the journal out of the pipeline, disabling journaling.
    pub fn take_journal(&mut self) -> Option<Journal> {
        self.journal.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attach(round: u64) -> Event {
        Event::Attach {
            round,
            child: 1,
            parent: Node::Source,
        }
    }

    #[test]
    fn disabled_pipeline_records_nothing() {
        let mut pipeline = Pipeline::disabled();
        assert!(!pipeline.is_enabled());
        assert!(!pipeline.profiling());
        pipeline.record(attach(0));
        pipeline.record_phase("construction", Work::default());
        assert!(pipeline.journal().is_none());
        assert!(pipeline.registry().is_none());
        assert!(pipeline.profiler().is_none());
    }

    #[test]
    fn record_feeds_journal_and_registry_together() {
        let mut pipeline = Pipeline::enabled(16);
        pipeline.record(attach(0));
        pipeline.record(attach(1));
        pipeline.record(Event::OracleMiss { round: 1, peer: 2 });
        assert_eq!(pipeline.journal().unwrap().len(), 3);
        assert_eq!(pipeline.registry().unwrap().event_count("attach"), 2);
        assert_eq!(pipeline.registry().unwrap().event_count("oracle_miss"), 1);
    }

    #[test]
    fn components_enable_independently() {
        let mut pipeline = Pipeline::disabled();
        pipeline.enable_journal(4);
        assert!(pipeline.is_enabled());
        assert!(!pipeline.profiling());
        pipeline.record(attach(0));
        assert_eq!(pipeline.journal().unwrap().len(), 1);
        assert!(pipeline.registry().is_none());
        pipeline.enable_profiler();
        assert!(pipeline.profiling());
        pipeline.record_phase(
            "schedule",
            Work {
                rng_draws: 2,
                ..Default::default()
            },
        );
        assert_eq!(pipeline.profiler().unwrap().total().rng_draws, 2);
    }

    #[test]
    fn take_journal_disables_journaling() {
        let mut pipeline = Pipeline::enabled(4);
        pipeline.record(attach(0));
        let journal = pipeline.take_journal().expect("journal was enabled");
        assert_eq!(journal.len(), 1);
        assert!(pipeline.journal().is_none());
        pipeline.record(attach(1));
        assert!(pipeline.journal().is_none(), "journaling stays off");
        assert_eq!(pipeline.registry().unwrap().event_count("attach"), 2);
    }
}
