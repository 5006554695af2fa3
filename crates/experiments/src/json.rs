//! [`ToJson`] implementations for every experiment report, so figure
//! JSON is produced by the in-tree writer (deterministic bytes, no
//! external serializer) and the committed `results/` have real bytes to
//! diff. Field order matches struct declaration order.

use lagover_jsonio::{object, Json, ToJson};

use crate::ablations::{AblationReport, AblationRow};
use crate::asynchrony::{AsyncReport, AsyncRow};
use crate::bench::{BenchReport, BenchRow, WorkLayer, SCHEMA_VERSION};
use crate::counterexample::{CounterexampleReport, FamilyRow};
use crate::fig2::{Fig2Report, WorkloadVariance};
use crate::fig3::{Fig3Report, OracleCell};
use crate::fig4::{Fig4Report, Fig4Row};
use crate::liveness::{LivenessReport, LivenessRow};
use crate::locality::{LocalityReport, LocalityRow};
use crate::measured::{MeasuredReport, MeasuredRow};
use crate::multifeed_exp::{MultiFeedReport, MultiFeedRow};
use crate::nodesim::{NodesimReport, NodesimRow};
use crate::realizations::{RealizationRow, RealizationsReport};
use crate::recovery::{RecoveryReport, RecoveryRow};
use crate::scaling::{ScalingReport, ScalingRow};
use crate::serverload::{LoadRow, ServerLoadReportE8};
use crate::stabilization::{StabilizationReport, StabilizationRow};
use crate::streams::{StreamsReport, StreamsRow};
use crate::sufficiency::SufficiencyReportE7;
use crate::Params;

impl ToJson for Params {
    fn to_json(&self) -> Json {
        object(vec![
            ("peers", self.peers.to_json()),
            ("runs", self.runs.to_json()),
            ("max_rounds", self.max_rounds.to_json()),
            ("seed", self.seed.to_json()),
        ])
    }
}

impl ToJson for WorkLayer {
    fn to_json(&self) -> Json {
        object(vec![
            ("rounds", self.rounds.to_json()),
            ("converged", self.converged.to_json()),
            ("converged_rounds", self.converged_rounds.to_json()),
            (
                "metrics",
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|(name, value)| (name.clone(), value.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for BenchRow {
    fn to_json(&self) -> Json {
        object(vec![
            ("name", Json::Str(self.name.clone())),
            ("params", self.params.to_json()),
            ("label", Json::Str(self.label.clone())),
            ("work", self.work.to_json()),
        ])
    }
}

impl ToJson for BenchReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("schema_version", SCHEMA_VERSION.to_json()),
            ("scenarios", self.rows.to_json()),
        ])
    }
}

impl ToJson for WorkloadVariance {
    fn to_json(&self) -> Json {
        object(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("converged_runs", self.converged_runs.to_json()),
            ("total_runs", self.total_runs.to_json()),
            ("summary", self.summary.to_json()),
            ("median_ci", self.median_ci.to_json()),
        ])
    }
}

impl ToJson for Fig2Report {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("runs_per_workload", self.runs_per_workload.to_json()),
            ("workloads", self.workloads.to_json()),
        ])
    }
}

impl ToJson for OracleCell {
    fn to_json(&self) -> Json {
        object(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("oracle", Json::Str(self.oracle.clone())),
            ("median_latency", Json::F64(self.median_latency)),
            ("converged_runs", self.converged_runs.to_json()),
            ("total_runs", self.total_runs.to_json()),
        ])
    }
}

impl ToJson for Fig3Report {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("algorithm", Json::Str(self.algorithm.clone())),
            ("cells", self.cells.to_json()),
        ])
    }
}

impl ToJson for Fig4Row {
    fn to_json(&self) -> Json {
        object(vec![
            ("algorithm", Json::Str(self.algorithm.clone())),
            ("churn", Json::Str(self.churn.clone())),
            ("median_latency", Json::F64(self.median_latency)),
            ("converged_runs", self.converged_runs.to_json()),
            ("total_runs", self.total_runs.to_json()),
            (
                "steady_state_fraction",
                Json::F64(self.steady_state_fraction),
            ),
        ])
    }
}

impl ToJson for Fig4Report {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("workload", Json::Str(self.workload.clone())),
            ("churn_rounds", self.churn_rounds.to_json()),
            ("rows", self.rows.to_json()),
            ("hybrid_faster_p", self.hybrid_faster_p.to_json()),
        ])
    }
}

impl ToJson for ScalingRow {
    fn to_json(&self) -> Json {
        object(vec![
            ("peers", self.peers.to_json()),
            ("median_latency", Json::F64(self.median_latency)),
            ("median_interactions", Json::F64(self.median_interactions)),
            (
                "median_interactions_per_peer",
                Json::F64(self.median_interactions_per_peer),
            ),
            ("converged_runs", self.converged_runs.to_json()),
            ("total_runs", self.total_runs.to_json()),
        ])
    }
}

impl ToJson for ScalingReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("workload", Json::Str(self.workload.clone())),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for FamilyRow {
    fn to_json(&self) -> Json {
        object(vec![
            ("chain", self.chain.to_json()),
            ("hub_fanout", self.hub_fanout.to_json()),
            ("sufficiency_holds", Json::Bool(self.sufficiency_holds)),
            ("feasible", Json::Bool(self.feasible)),
            ("greedy_rate", Json::F64(self.greedy_rate)),
            ("hybrid_rate", Json::F64(self.hybrid_rate)),
            (
                "greedy_median_when_converged",
                self.greedy_median_when_converged.to_json(),
            ),
            (
                "hybrid_median_when_converged",
                self.hybrid_median_when_converged.to_json(),
            ),
        ])
    }
}

impl ToJson for CounterexampleReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("seeds", self.seeds.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for AsyncRow {
    fn to_json(&self) -> Json {
        object(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("mode", Json::Str(self.mode.clone())),
            ("median_time", Json::F64(self.median_time)),
            ("converged_runs", self.converged_runs.to_json()),
            ("total_runs", self.total_runs.to_json()),
        ])
    }
}

impl ToJson for AsyncReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for SufficiencyReportE7 {
    fn to_json(&self) -> Json {
        object(vec![
            ("sampled", self.sampled.to_json()),
            ("sufficient", self.sufficient.to_json()),
            (
                "sufficient_and_feasible",
                self.sufficient_and_feasible.to_json(),
            ),
            (
                "sufficient_and_constructed",
                self.sufficient_and_constructed.to_json(),
            ),
            ("insufficient", self.insufficient.to_json()),
            (
                "insufficient_but_feasible",
                self.insufficient_but_feasible.to_json(),
            ),
        ])
    }
}

impl ToJson for LoadRow {
    fn to_json(&self) -> Json {
        object(vec![
            ("peers", self.peers.to_json()),
            ("direct_rate", Json::F64(self.direct_rate)),
            ("lagover_rate", Json::F64(self.lagover_rate)),
            ("reduction", Json::F64(self.reduction)),
            ("max_staleness", self.max_staleness.to_json()),
            ("violations", self.violations.to_json()),
        ])
    }
}

impl ToJson for ServerLoadReportE8 {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("workload", Json::Str(self.workload.clone())),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for RealizationRow {
    fn to_json(&self) -> Json {
        object(vec![
            ("implementation", Json::Str(self.implementation.clone())),
            ("median_latency", Json::F64(self.median_latency)),
            ("converged_runs", self.converged_runs.to_json()),
            ("total_runs", self.total_runs.to_json()),
        ])
    }
}

impl ToJson for RealizationsReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("workload", Json::Str(self.workload.clone())),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for LocalityRow {
    fn to_json(&self) -> Json {
        object(vec![
            ("oracle", Json::Str(self.oracle.clone())),
            ("median_latency", Json::F64(self.median_latency)),
            ("median_tree_cost", Json::F64(self.median_tree_cost)),
            ("median_edge_cost", Json::F64(self.median_edge_cost)),
            ("converged_runs", self.converged_runs.to_json()),
            ("total_runs", self.total_runs.to_json()),
        ])
    }
}

impl ToJson for LocalityReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("workload", Json::Str(self.workload.clone())),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for MeasuredRow {
    fn to_json(&self) -> Json {
        object(vec![
            ("substrate", Json::Str(self.substrate.clone())),
            ("algorithm", Json::Str(self.algorithm.clone())),
            ("oracle", Json::Str(self.oracle.clone())),
            ("median_time", Json::F64(self.median_time)),
            ("converged_runs", self.converged_runs.to_json()),
            ("total_runs", self.total_runs.to_json()),
        ])
    }
}

impl ToJson for MeasuredReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("workload", Json::Str(self.workload.clone())),
            ("substrates", self.substrates.to_json()),
            ("tiv_fraction", Json::F64(self.tiv_fraction)),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for NodesimRow {
    fn to_json(&self) -> Json {
        object(vec![
            ("scenario", Json::Str(self.scenario.clone())),
            ("seed", self.seed.to_json()),
            ("actions", self.actions.to_json()),
            ("finished", Json::Bool(self.finished)),
            ("byte_identical", Json::Bool(self.byte_identical)),
            ("journal", self.journal.to_json()),
        ])
    }
}

impl ToJson for NodesimReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("transport", Json::Str(self.transport.clone())),
            ("journal_capacity", self.journal_capacity.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for MultiFeedRow {
    fn to_json(&self) -> Json {
        object(vec![
            ("feeds", self.feeds.to_json()),
            ("policy", Json::Str(self.policy.clone())),
            ("median_satisfaction", Json::F64(self.median_satisfaction)),
            ("median_promise_ratio", Json::F64(self.median_promise_ratio)),
            ("all_converged_runs", self.all_converged_runs.to_json()),
            ("total_runs", self.total_runs.to_json()),
        ])
    }
}

impl ToJson for MultiFeedReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for AblationRow {
    fn to_json(&self) -> Json {
        object(vec![
            ("knob", Json::Str(self.knob.clone())),
            ("value", Json::Str(self.value.clone())),
            ("metric", Json::F64(self.metric)),
            ("metric_name", Json::Str(self.metric_name.clone())),
            ("converged_runs", self.converged_runs.to_json()),
            ("total_runs", self.total_runs.to_json()),
        ])
    }
}

impl ToJson for AblationReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for RecoveryRow {
    fn to_json(&self) -> Json {
        object(vec![
            ("scenario", Json::Str(self.scenario.clone())),
            ("algorithm", Json::Str(self.algorithm.clone())),
            ("median_crashed", Json::F64(self.median_crashed)),
            (
                "median_recovery_rounds",
                Json::F64(self.median_recovery_rounds),
            ),
            ("median_orphan_peak", Json::F64(self.median_orphan_peak)),
            ("median_stale_rounds", Json::F64(self.median_stale_rounds)),
            ("recovered_runs", self.recovered_runs.to_json()),
            ("total_runs", self.total_runs.to_json()),
            ("orphan_series", self.orphan_series.to_json()),
        ])
    }
}

impl ToJson for RecoveryReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("workload", Json::Str(self.workload.clone())),
            ("horizon", self.horizon.to_json()),
            ("rows", self.rows.to_json()),
            ("realization_rows", self.realization_rows.to_json()),
        ])
    }
}

impl ToJson for StabilizationRow {
    fn to_json(&self) -> Json {
        object(vec![
            ("class", Json::Str(self.class.clone())),
            ("severity", Json::F64(self.severity)),
            ("algorithm", Json::Str(self.algorithm.clone())),
            ("median_corrupted", Json::F64(self.median_corrupted)),
            ("median_clean_rounds", Json::F64(self.median_clean_rounds)),
            ("median_detections", Json::F64(self.median_detections)),
            ("median_repairs", Json::F64(self.median_repairs)),
            ("invalid_snapshots", self.invalid_snapshots.to_json()),
            ("stabilized_runs", self.stabilized_runs.to_json()),
            ("total_runs", self.total_runs.to_json()),
            ("repair_series", self.repair_series.to_json()),
            ("satisfied_series", self.satisfied_series.to_json()),
        ])
    }
}

impl ToJson for StabilizationReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("workload", Json::Str(self.workload.clone())),
            ("horizon", self.horizon.to_json()),
            ("rows", self.rows.to_json()),
            ("realization_rows", self.realization_rows.to_json()),
        ])
    }
}

impl ToJson for StreamsRow {
    fn to_json(&self) -> Json {
        object(vec![
            ("budget", Json::Str(self.budget.clone())),
            ("per_peer_budget", self.per_peer_budget.to_json()),
            ("k", self.k.to_json()),
            ("algorithm", Json::Str(self.algorithm.clone())),
            ("feasible_runs", self.feasible_runs.to_json()),
            ("total_runs", self.total_runs.to_json()),
            ("infeasible", self.infeasible.to_json()),
            (
                "median_delivered_fraction",
                Json::F64(self.median_delivered_fraction),
            ),
            (
                "median_bytes_per_round",
                Json::F64(self.median_bytes_per_round),
            ),
            ("median_staleness_p95", Json::F64(self.median_staleness_p95)),
            ("median_stalls", Json::F64(self.median_stalls)),
            ("median_drops", Json::F64(self.median_drops)),
            ("median_max_depth", Json::F64(self.median_max_depth)),
        ])
    }
}

impl ToJson for StreamsReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("workload", Json::Str(self.workload.clone())),
            ("source_budget", self.source_budget.to_json()),
            ("rate", self.rate.to_json()),
            ("rounds", self.rounds.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for LivenessRow {
    fn to_json(&self) -> Json {
        object(vec![
            ("p_off", Json::F64(self.p_off)),
            ("algorithm", Json::Str(self.algorithm.clone())),
            ("delivery_ratio", Json::F64(self.delivery_ratio)),
            ("mean_staleness", Json::F64(self.mean_staleness)),
            ("p99_staleness", Json::F64(self.p99_staleness)),
            ("satisfied_fraction", Json::F64(self.satisfied_fraction)),
        ])
    }
}

impl ToJson for LivenessReport {
    fn to_json(&self) -> Json {
        object(vec![
            ("params", self.params.to_json()),
            ("workload", Json::Str(self.workload.clone())),
            ("rows", self.rows.to_json()),
        ])
    }
}
