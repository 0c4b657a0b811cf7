//! Reconciliation checks for the wall-clock side of
//! [`dynapipe_core::RuntimeStats`]. These fields are excluded from
//! `behavior_eq` by design — which is exactly why they need their own
//! test: a write-only ledger field can rot (never incremented, double
//! counted, wrong unit) without any equivalence suite noticing.
//! `dynapipe-lint`'s counter-coverage rule fails the build if one of
//! these stops being referenced by a test. The store's high-water marks
//! are checked on the cluster runtime, the one runtime that uses a
//! store (`crates/cluster/tests/cluster_equivalence.rs`).

use dynapipe_core::{
    run_training_pipelined_traced, DynaPipePlanner, PlannerConfig, RunConfig, RuntimeConfig,
};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_trace::TraceSink;
use std::sync::Arc;

fn planner() -> DynaPipePlanner {
    DynaPipePlanner::new(
        Arc::new(CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::gpt_3_35b(),
            ParallelConfig::new(1, 1, 2),
            &ProfileOptions::coarse(),
        )),
        PlannerConfig::default(),
    )
}

fn gbs() -> GlobalBatchConfig {
    GlobalBatchConfig {
        tokens_per_batch: 16384,
        max_seq_len: 2048,
    }
}

#[test]
fn wall_clock_stats_reconcile_on_a_pipelined_run() {
    let planner = planner();
    let dataset = Dataset::flanv2(211, 400);
    let iterations = 4usize;
    let run = RunConfig {
        max_iterations: Some(iterations),
        ..Default::default()
    };
    let (report, stats) = run_training_pipelined_traced(
        &planner,
        &dataset,
        gbs(),
        run,
        RuntimeConfig {
            plan_ahead: 2,
            workers: 2,
        },
        &TraceSink::disabled(),
    );
    assert!(report.feasible(), "fixture must run clean: {:?}", report.failure);

    // exec_sim_us: one simulated-iteration entry per executed iteration,
    // every one strictly positive (an iteration cannot take zero time).
    assert_eq!(
        stats.exec_sim_us.len(),
        iterations,
        "one simulated time per iteration"
    );
    assert!(
        stats.exec_sim_us.iter().all(|&t| t > 0.0),
        "simulated iteration times must be positive: {:?}",
        stats.exec_sim_us
    );

    // host_wall_us covers the whole run, so it must dominate the summed
    // executor host time (exec_host_us), which is measured inside it.
    assert!(
        stats.host_wall_us > 0.0,
        "host wall-clock never measured"
    );
    assert!(
        stats.exec_host_us >= 0.0 && stats.exec_host_us <= stats.host_wall_us,
        "executor host time {} must fit inside the run's wall-clock {}",
        stats.exec_host_us,
        stats.host_wall_us
    );
}
