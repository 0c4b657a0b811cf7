//! The decode → execute seam must never run a partial or misrouted plan.
//!
//! A wire blob can decode cleanly and still not fit the fetch that took
//! it: it may name another iteration, or carry fewer replica programs
//! than its plan has replicas. Either way the executor would otherwise
//! run what it was handed and fold a different-but-valid iteration into
//! the report. `decode_for_execution` and `execute_lowered` must return
//! `Err` instead, in release builds too.

use dynapipe_core::runtime::{execute_lowered, lower_replicas};
use dynapipe_core::{
    decode_for_execution, encode_flat, DynaPipePlanner, IterationPlan, PlanError, PlannerConfig,
    ReplicaParallelism, RunConfig, StoredLowered, StoredOutcome, StoredPlan,
};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig, GlobalBatchIter};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_sim::DeviceProgram;
use std::sync::{Arc, OnceLock};

type Fixture = (Arc<CostModel>, IterationPlan, Vec<Vec<DeviceProgram>>);

/// A two-replica plan (dp = 2) and its lowered programs, built once.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let cm = Arc::new(CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::gpt_3_35b(),
            ParallelConfig::new(2, 1, 2),
            &ProfileOptions::coarse(),
        ));
        let planner = DynaPipePlanner::new(cm.clone(), PlannerConfig::default());
        let dataset = Dataset::flanv2(61, 400);
        let gbs = GlobalBatchConfig {
            tokens_per_batch: 16384,
            max_seq_len: 2048,
        };
        let batch = GlobalBatchIter::new(&dataset, gbs).next().expect("one mini-batch");
        let plan = planner.plan_iteration(&batch).expect("feasible");
        assert_eq!(plan.replicas.len(), 2, "fixture needs two replicas");
        let programs = lower_replicas(&cm, &plan)
            .into_iter()
            .map(|p| p.as_ref().clone())
            .collect();
        (cm, plan, programs)
    })
}

fn blob(iteration: usize, outcome: StoredOutcome) -> Arc<[u8]> {
    Arc::from(encode_flat(&StoredPlan { iteration, outcome }))
}

fn plan_blob(iteration: usize, replica_programs: usize) -> Arc<[u8]> {
    let (_, plan, programs) = fixture();
    let outcome = StoredOutcome::Plan(StoredLowered {
        plan: plan.clone(),
        programs: programs[..replica_programs].to_vec(),
    });
    blob(iteration, outcome)
}

#[test]
fn decode_rejects_wrong_iteration() {
    // Control: the blob decodes when fetched for the iteration it names.
    let ok = decode_for_execution(plan_blob(3, 2), 3).expect("well-formed blob");
    assert!(ok.is_ok(), "control blob must carry a plan");
    let err = decode_for_execution(plan_blob(3, 2), 4)
        .err()
        .expect("a blob for iteration 3 fetched as 4 must fail");
    assert!(err.contains("iteration 3"), "{err}");
    // A stored planning failure is misrouted just the same.
    let failed = blob(3, StoredOutcome::Failed(PlanError::Infeasible("too long".into())));
    assert!(
        decode_for_execution(failed, 4).is_err(),
        "a failure blob for iteration 3 fetched as 4 must fail"
    );
}

#[test]
fn decode_rejects_missing_replica_programs() {
    let err = decode_for_execution(plan_blob(0, 1), 0)
        .err()
        .expect("a 2-replica plan with 1 program set must fail");
    assert!(err.contains("2 replicas"), "{err}");
}

#[test]
fn execute_rejects_missing_replica_programs() {
    let (cm, _, _) = fixture();
    let (plan, mut programs) = decode_for_execution(plan_blob(0, 2), 0)
        .expect("well-formed blob")
        .expect("blob carries a plan");
    let run = RunConfig::default();
    // Control: the whole iteration executes.
    execute_lowered(cm, &plan, &programs, &run, 0, ReplicaParallelism::Serial)
        .unwrap_or_else(|e| panic!("complete iteration must run: {e}"));
    programs.pop();
    for mode in [ReplicaParallelism::Serial, ReplicaParallelism::Parallel] {
        let result = execute_lowered(cm, &plan, &programs, &run, 0, mode);
        assert!(result.is_err(), "running 1 of 2 replicas must fail ({mode:?})");
    }
}
