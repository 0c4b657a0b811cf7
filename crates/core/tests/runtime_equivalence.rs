//! The differential harness pinning the plan-ahead runtime to the serial
//! driver: same records, same totals, same failure at the same iteration
//! — the overlap is allowed to change wall-clock and architecture, never
//! behavior. `RunReport::behavior_eq` compares every field exactly
//! (floats by bit pattern) except the wall-clock `planning_time_us`.
//!
//! Every scenario runs across plan-ahead window × worker shapes, and
//! each run's span trace must validate and reconcile with its counters.
//! The store-backed deployment of the same pipeline — plans crossing the
//! instruction store as wire blobs — is the cluster runtime, pinned to
//! the serial driver and to this runtime's Sim timeline by
//! `crates/cluster/tests/cluster_equivalence.rs`.

use dynapipe_core::{
    run_training, run_training_pipelined_traced, BaselineKind, BaselinePlanner, DynaPipePlanner,
    IterationPlanner, PlannerConfig, RunConfig, RunReport, RuntimeConfig, RuntimeStats,
};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig, Sample};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_sim::JitterConfig;
use dynapipe_trace::TraceSink;
use std::sync::Arc;

/// Span-ring capacity for the traced runs: large enough that no
/// scenario drops a span (drops would fail `reconcile`).
const TRACE_CAP: usize = 1 << 20;

fn cost_model(pp: usize, dp: usize) -> Arc<CostModel> {
    Arc::new(CostModel::build(
        HardwareModel::a100_cluster(),
        ModelConfig::gpt_3_35b(),
        ParallelConfig::new(dp, 1, pp),
        &ProfileOptions::coarse(),
    ))
}

fn gbs() -> GlobalBatchConfig {
    GlobalBatchConfig {
        tokens_per_batch: 16384,
        max_seq_len: 2048,
    }
}

/// Run the pipelined runtime against the serial reference: the report
/// must be `behavior_eq` to serial, and the run's trace must validate
/// and reconcile with its counters. Returns the stats for
/// scenario-specific assertions.
fn assert_pipelined_matches(
    planner: &dyn IterationPlanner,
    dataset: &Dataset,
    gbs: GlobalBatchConfig,
    run: RunConfig,
    plan_ahead: usize,
    workers: usize,
    serial: &RunReport,
) -> RuntimeStats {
    let sink = TraceSink::bounded(TRACE_CAP);
    let (pipelined, stats) = run_training_pipelined_traced(
        planner,
        dataset,
        gbs,
        run,
        RuntimeConfig {
            plan_ahead,
            workers,
        },
        &sink,
    );
    serial
        .behavior_eq(&pipelined)
        .unwrap_or_else(|e| panic!("pipelined vs serial (w={plan_ahead},{workers}): {e}"));
    let mut trace = sink.finish();
    trace.meta = stats.trace_meta("in-process");
    trace
        .validate()
        .unwrap_or_else(|e| panic!("pipelined trace validation: {e}"));
    trace
        .reconcile()
        .unwrap_or_else(|e| panic!("pipelined trace reconciliation: {e}"));
    stats
}

#[test]
fn jittered_runs_are_bit_identical_across_window_and_worker_shapes() {
    // Jitter seeds are keyed by (iteration_index, replica), so the
    // pipelined runtime must reproduce jittered measurements exactly no
    // matter how planning is scheduled across workers and windows.
    let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
    let dataset = Dataset::flanv2(101, 500);
    let run = RunConfig {
        max_iterations: Some(4),
        jitter: Some(JitterConfig {
            sigma: 0.08,
            seed: 0xBEEF,
        }),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(), run);
    assert!(serial.feasible(), "fixture must run clean: {:?}", serial.failure);
    for (plan_ahead, workers) in [(1, 1), (2, 3), (6, 2)] {
        let stats = assert_pipelined_matches(
            &planner, &dataset, gbs(), run, plan_ahead, workers, &serial,
        );
        assert!(
            stats.max_plans_resident <= plan_ahead,
            "plan-ahead window exceeded: {} > {plan_ahead}",
            stats.max_plans_resident
        );
    }
}

#[test]
fn jitter_free_data_parallel_runs_match() {
    let planner = DynaPipePlanner::new(cost_model(2, 2), PlannerConfig::default());
    let dataset = Dataset::flanv2(103, 600);
    let run = RunConfig {
        max_iterations: Some(3),
        jitter: None,
        ..Default::default()
    };
    let gbs = GlobalBatchConfig {
        tokens_per_batch: 32768,
        max_seq_len: 2048,
    };
    let serial = run_training(&planner, &dataset, gbs, run);
    assert!(serial.feasible(), "{:?}", serial.failure);
    assert_pipelined_matches(&planner, &dataset, gbs, run, 3, 2, &serial);
}

#[test]
fn baseline_planners_run_pipelined_too() {
    let planner = BaselinePlanner::new(
        cost_model(2, 1),
        BaselineKind::Packing {
            max_seq_len: 2048,
            max_target_len: 256,
            mb_size: 1,
        },
    );
    let dataset = Dataset::flanv2(107, 400);
    let run = RunConfig {
        max_iterations: Some(3),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(), run);
    let defaults = RuntimeConfig::default();
    assert_pipelined_matches(
        &planner,
        &dataset,
        gbs(),
        run,
        defaults.plan_ahead,
        defaults.workers,
        &serial,
    );
}

#[test]
fn failure_mid_epoch_stops_the_pipeline_at_the_serial_iteration() {
    // A 2M-token monster sample lands alone in a mini-batch a few
    // iterations in: no recompute mode can fit it, so planning fails
    // mid-epoch. The pipelined runtime may have speculatively planned
    // further iterations by then — it must discard them and stop with
    // exactly the serial driver's failure, records and totals.
    let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
    let mut dataset = Dataset::flanv2(109, 400);
    dataset.samples[130] = Sample {
        id: 130,
        task: 0,
        input_len: 2_000_000,
        target_len: 512,
    };
    // No truncation: the monster must reach the planner at full length.
    let gbs = GlobalBatchConfig {
        tokens_per_batch: 16384,
        max_seq_len: 4_000_000,
    };
    let run = RunConfig {
        max_iterations: Some(20),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs, run);
    assert!(
        serial.failure.is_some(),
        "fixture must fail planning on the monster sample"
    );
    assert!(
        !serial.records.is_empty(),
        "failure must happen mid-epoch, not at iteration 0"
    );
    let failed_at: usize = serial.records.len();
    assert!(
        serial
            .failure
            .as_deref()
            .unwrap()
            .starts_with(&format!("iteration {failed_at}:")),
        "unexpected failure placement: {:?}",
        serial.failure
    );
    for (plan_ahead, workers) in [(1, 1), (4, 2)] {
        let stats = assert_pipelined_matches(
            &planner, &dataset, gbs, run, plan_ahead, workers, &serial,
        );
        // Speculative plans beyond the failure never become records.
        assert_eq!(stats.planning_us.len(), failed_at);
    }
}
