//! The elastic layer's differential harness: **churn may cost
//! wall-clock time, never behavior**. Every scripted churn scenario —
//! planner-host crash, planner-host join, executor-host loss with
//! replica re-placement, straggler slowdown with deadline re-issue —
//! must produce a [`dynapipe_core::RunReport`] bit-identical
//! (`behavior_eq`) to both the serial driver and the undisturbed
//! cluster run, across every wire codec, with the instruction store
//! empty at the end and every push reconciled (taken or discarded,
//! never orphaned — re-issue duplicates included). Under the sharded
//! store placement the matrix extends to losing shard *owners* —
//! including host 0, which only the single placement protects — whose
//! shards must re-own onto survivors (surviving assignments stable)
//! and whose in-flight blobs must be restored from a surviving peer,
//! all counted in [`dynapipe_cluster::ChurnStats`] and never behavioral.

use dynapipe_cluster::{
    placed_host, run_training_cluster_traced, ChurnEvent, ChurnScript, ClusterConfig,
    ClusterReport, StorePlacement,
};
use dynapipe_core::{
    run_training, DynaPipePlanner, IterationPlanner, PlanCodec, PlannerConfig, RunConfig,
    RunReport,
};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig, Sample};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_trace::{sim_eq, TraceSink};
use std::sync::Arc;
use std::time::Duration;

/// Span-ring capacity: generous enough that no churn scenario drops a
/// span (a drop would fail `reconcile` with a misleading message).
const TRACE_CAP: usize = 1 << 20;

fn cost_model(pp: usize, dp: usize) -> Arc<CostModel> {
    Arc::new(CostModel::build(
        HardwareModel::a100_cluster(),
        ModelConfig::gpt_3_35b(),
        ParallelConfig::new(dp, 1, pp),
        &ProfileOptions::coarse(),
    ))
}

fn gbs(tokens: usize) -> GlobalBatchConfig {
    GlobalBatchConfig {
        tokens_per_batch: tokens,
        max_seq_len: 2048,
    }
}

/// Store hygiene every churned run must satisfy: empty at the end, and
/// `takes + discarded == pushes` — zero orphaned blobs even when
/// re-issue races push byte-identical duplicates.
fn assert_store_reconciles(stats: &ClusterReport, label: &str) {
    assert_eq!(stats.store.occupancy, 0, "{label}: orphaned blobs");
    assert_eq!(stats.store.bytes, 0, "{label}: leaked bytes");
    assert_eq!(
        stats.store.takes + stats.store.discarded,
        stats.store.pushes,
        "{label}: every pushed blob must be taken or discarded"
    );
    assert!(
        stats.store.peak_occupancy <= stats.plan_ahead.max(1),
        "{label}: store peak {} exceeded window",
        stats.store.peak_occupancy
    );
}

/// Run `churned` against its own undisturbed twin and the serial
/// driver; behavior must be pinned three ways. Both runs record span
/// traces, which must validate, reconcile against their own counters,
/// and — the tracing contract under churn — carry **bit-identical
/// Sim-domain timelines**: recovery may add Host-domain spans
/// (re-issues, restores, churn actions), never move a simulated bit.
fn assert_churn_equivalent(
    planner: &dyn IterationPlanner,
    dataset: &Dataset,
    gbs: GlobalBatchConfig,
    run: RunConfig,
    serial: &RunReport,
    churned: ClusterConfig,
    label: &str,
) -> ClusterReport {
    let undisturbed = ClusterConfig {
        churn: ChurnScript::new(),
        reissue_deadline: None,
        ..churned.clone()
    };
    let clean_sink = TraceSink::bounded(TRACE_CAP);
    let (clean_report, clean_stats) =
        run_training_cluster_traced(planner, dataset, gbs, run, undisturbed, &clean_sink);
    serial
        .behavior_eq(&clean_report)
        .unwrap_or_else(|e| panic!("{label}: undisturbed run diverged from serial: {e}"));
    assert_eq!(
        clean_stats.churn.events_applied, 0,
        "{label}: undisturbed run must apply no churn"
    );
    assert_eq!(
        clean_stats.churn.duplicate_blobs_discarded, 0,
        "{label}: undisturbed run pushed a duplicate blob"
    );
    let mut clean_trace = clean_sink.finish();
    clean_trace.meta = clean_stats.trace_meta(&format!("{label}/undisturbed"));
    clean_trace
        .validate()
        .unwrap_or_else(|e| panic!("{label}: undisturbed trace validation: {e}"));
    clean_trace
        .reconcile()
        .unwrap_or_else(|e| panic!("{label}: undisturbed trace reconciliation: {e}"));

    let sink = TraceSink::bounded(TRACE_CAP);
    let (report, stats) = run_training_cluster_traced(planner, dataset, gbs, run, churned, &sink);
    serial
        .behavior_eq(&report)
        .unwrap_or_else(|e| panic!("{label}: churned run diverged from serial: {e}"));
    clean_report
        .behavior_eq(&report)
        .unwrap_or_else(|e| panic!("{label}: churned run diverged from undisturbed: {e}"));
    assert_store_reconciles(&stats, label);
    let mut trace = sink.finish();
    trace.meta = stats.trace_meta(&format!("{label}/churned"));
    trace
        .validate()
        .unwrap_or_else(|e| panic!("{label}: churned trace validation: {e}"));
    trace
        .reconcile()
        .unwrap_or_else(|e| panic!("{label}: churned trace reconciliation: {e}"));
    sim_eq(&clean_trace, &trace)
        .unwrap_or_else(|e| panic!("{label}: churn moved the Sim timeline: {e}"));
    stats
}

#[test]
fn planner_crash_recovers_bit_identically() {
    let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
    let dataset = Dataset::flanv2(311, 600);
    let run = RunConfig {
        max_iterations: Some(4),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(16384), run);
    assert!(serial.feasible(), "{:?}", serial.failure);
    for codec in PlanCodec::ALL {
        let cfg = ClusterConfig {
            planner_hosts: 2,
            workers_per_host: 1,
            executor_hosts: 1,
            plan_ahead: 3,
            codec,
            // Crash host 1 as the executor turns to iteration 1: any
            // ticket its worker holds is re-issued to host 0, which
            // carries the rest of the epoch alone.
            churn: ChurnScript::new().at(1, ChurnEvent::PlannerCrash { host: 1 }),
            ..Default::default()
        };
        let label = format!("crash/{}", codec.label());
        let stats = assert_churn_equivalent(
            &planner, &dataset, gbs(16384), run, &serial, cfg, &label,
        );
        assert_eq!(stats.iterations, 4, "{label}: full epoch despite the crash");
        assert_eq!(stats.churn.planner_crashes, 1, "{label}");
        assert_eq!(stats.churn.events_applied, 1, "{label}");
        // Whoever planned what, every iteration is accounted to a host.
        let produced: usize = stats.planner_hosts.iter().map(|h| h.plans_produced).sum();
        assert_eq!(produced + stats.store.discarded as usize, stats.store.pushes as usize);
    }
}

#[test]
fn crashing_the_last_planner_host_is_ignored_not_fatal() {
    // A cluster with zero planners is fail-stop territory, not churn:
    // the event must be counted as ignored and the run must proceed
    // undisturbed.
    let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
    let dataset = Dataset::flanv2(313, 400);
    let run = RunConfig {
        max_iterations: Some(2),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(16384), run);
    let cfg = ClusterConfig {
        planner_hosts: 1,
        workers_per_host: 1,
        executor_hosts: 1,
        plan_ahead: 2,
        codec: PlanCodec::Binary,
        churn: ChurnScript::new().at(0, ChurnEvent::PlannerCrash { host: 0 }),
        ..Default::default()
    };
    let stats = assert_churn_equivalent(
        &planner, &dataset, gbs(16384), run, &serial, cfg, "last-planner",
    );
    assert_eq!(stats.churn.events_applied, 0);
    assert_eq!(stats.churn.events_ignored, 1);
    assert_eq!(stats.iterations, 2);
}

#[test]
fn planner_join_rebalances_bit_identically() {
    let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
    let dataset = Dataset::flanv2(317, 600);
    let run = RunConfig {
        max_iterations: Some(4),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(16384), run);
    assert!(serial.feasible(), "{:?}", serial.failure);
    for codec in PlanCodec::ALL {
        let cfg = ClusterConfig {
            planner_hosts: 1,
            workers_per_host: 1,
            executor_hosts: 1,
            plan_ahead: 3,
            codec,
            // A second planner host (2 workers) joins at iteration 1 and
            // starts claiming from the shared window immediately.
            churn: ChurnScript::new().at(1, ChurnEvent::PlannerJoin { workers: 2 }),
            ..Default::default()
        };
        let label = format!("join/{}", codec.label());
        let stats = assert_churn_equivalent(
            &planner, &dataset, gbs(16384), run, &serial, cfg, &label,
        );
        assert_eq!(stats.churn.planner_joins, 1, "{label}");
        // The roster grew: the joined host reports alongside the seed
        // host (whether it won any ticket is scheduling).
        assert_eq!(stats.planner_hosts.len(), 2, "{label}");
        assert_eq!(stats.planner_hosts[1].workers, 2, "{label}");
        let produced: usize = stats.planner_hosts.iter().map(|h| h.plans_produced).sum();
        assert_eq!(produced, 4, "{label}: all plans accounted");
    }
}

#[test]
fn executor_loss_replaces_replicas_bit_identically() {
    // dp=2 over two executor hosts; host 1 dies at iteration 1. Its
    // replica re-places onto host 0 (the store host), whose downlink is
    // local — subsequent iterations stop paying host 1's fetch wire.
    let planner = DynaPipePlanner::new(cost_model(2, 2), PlannerConfig::default());
    let dataset = Dataset::flanv2(331, 600);
    let run = RunConfig {
        max_iterations: Some(4),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(32768), run);
    assert!(serial.feasible(), "{:?}", serial.failure);
    for codec in PlanCodec::ALL {
        let cfg = ClusterConfig {
            planner_hosts: 1,
            workers_per_host: 2,
            executor_hosts: 2,
            plan_ahead: 3,
            codec,
            churn: ChurnScript::new().at(1, ChurnEvent::ExecutorLoss { host: 1 }),
            ..Default::default()
        };
        let label = format!("loss/{}", codec.label());
        let stats = assert_churn_equivalent(
            &planner, &dataset, gbs(32768), run, &serial, cfg, &label,
        );
        assert_eq!(stats.churn.executor_losses, 1, "{label}");
        assert_eq!(stats.churn.replicas_moved, 1, "{label}");
        // Replica 1 executed on host 1 (iteration 0) and then on host 0
        // (after the loss): both hosts saw it.
        assert!(
            stats.executor_hosts[0].replicas.contains(&1),
            "{label}: replica 1 must re-place onto host 0, got {:?}",
            stats.executor_hosts[0].replicas
        );
        assert!(
            stats.executor_hosts[1].replicas.contains(&1),
            "{label}: host 1 ran replica 1 before dying"
        );
        // Host 1 fetched only the pre-loss iteration's blob; an
        // undisturbed twin fetches all four. (Loss at iteration 1 =
        // exactly one fetched blob, sized codec-dependently — compare
        // against the mean blob to stay codec-agnostic.)
        assert!(
            (stats.executor_hosts[1].bytes_fetched as f64)
                < 2.0 * stats.mean_blob_bytes,
            "{label}: dead host kept fetching: {} bytes",
            stats.executor_hosts[1].bytes_fetched
        );
    }
}

#[test]
fn losing_the_store_host_is_ignored_not_fatal() {
    let planner = DynaPipePlanner::new(cost_model(2, 2), PlannerConfig::default());
    let dataset = Dataset::flanv2(337, 500);
    let run = RunConfig {
        max_iterations: Some(2),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(32768), run);
    let cfg = ClusterConfig {
        planner_hosts: 1,
        workers_per_host: 1,
        executor_hosts: 2,
        plan_ahead: 2,
        codec: PlanCodec::Json,
        // Host 0 holds the store: losing it is fail-stop, not churn.
        // Losing host 1 twice: the second event hits a dead host.
        churn: ChurnScript::new()
            .at(0, ChurnEvent::ExecutorLoss { host: 0 })
            .at(0, ChurnEvent::ExecutorLoss { host: 1 })
            .at(1, ChurnEvent::ExecutorLoss { host: 1 }),
        ..Default::default()
    };
    let stats = assert_churn_equivalent(
        &planner, &dataset, gbs(32768), run, &serial, cfg, "store-host",
    );
    assert_eq!(stats.churn.events_applied, 1, "only the first host-1 loss lands");
    assert_eq!(stats.churn.events_ignored, 2);
}

#[test]
fn sharded_owner_loss_reowns_shards_and_refetches_in_flight_blobs() {
    // dp=3 over three sharded executor hosts; host 1 dies at iteration
    // 1. Exactly its shard (shard 1) re-owns onto a survivor, the
    // in-flight blob of iteration 1 — already pushed toward the dead
    // owner — is restored from the surviving peer, and none of it may
    // move a bit of behavior.
    let planner = DynaPipePlanner::new(cost_model(2, 3), PlannerConfig::default());
    let dataset = Dataset::flanv2(359, 900);
    let run = RunConfig {
        max_iterations: Some(4),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(49152), run);
    assert!(serial.feasible(), "{:?}", serial.failure);
    for codec in PlanCodec::ALL {
        let cfg = ClusterConfig {
            planner_hosts: 1,
            workers_per_host: 2,
            executor_hosts: 3,
            plan_ahead: 3,
            codec,
            placement: StorePlacement::Sharded,
            churn: ChurnScript::new().at(1, ChurnEvent::ExecutorLoss { host: 1 }),
            ..Default::default()
        };
        let label = format!("shard-loss/{}", codec.label());
        let stats = assert_churn_equivalent(
            &planner, &dataset, gbs(49152), run, &serial, cfg, &label,
        );
        assert_eq!(stats.churn.executor_losses, 1, "{label}");
        assert_eq!(stats.churn.replicas_moved, 1, "{label}");
        // Only the dead owner's shard moved; survivors' shards stayed.
        assert_eq!(stats.churn.shards_moved, 1, "{label}");
        assert_eq!(stats.shards.len(), 3, "{label}: one shard per host");
        assert_eq!(stats.shards[0].owner, 0, "{label}: surviving shard 0 is stable");
        assert_eq!(stats.shards[2].owner, 2, "{label}: surviving shard 2 is stable");
        assert_ne!(stats.shards[1].owner, 1, "{label}: lost shard must re-own");
        // Iteration 1's blob was in flight to the dead owner: exactly
        // one restore from the surviving peer, sized like a blob.
        assert_eq!(stats.churn.blobs_refetched, 1, "{label}");
        assert!(
            stats.churn.refetch_bytes > 0
                && (stats.churn.refetch_bytes as f64) < 2.0 * stats.mean_blob_bytes,
            "{label}: one blob restored, got {} bytes",
            stats.churn.refetch_bytes
        );
        // The per-shard view agrees with the ledger.
        let refetched: u64 = stats.shards.iter().map(|s| s.refetched_blobs).sum();
        let refetch_bytes: u64 = stats.shards.iter().map(|s| s.refetch_bytes).sum();
        assert_eq!(refetched, stats.churn.blobs_refetched, "{label}");
        assert_eq!(refetch_bytes, stats.churn.refetch_bytes, "{label}");
        assert_eq!(stats.shards[1].refetched_blobs, 1, "{label}: the moved shard restored");
    }
}

#[test]
fn sharded_placement_survives_losing_host_zero() {
    // Under the single placement host 0 holds the whole store and its
    // loss is ignored as fail-stop; under the sharded placement host 0
    // owns just one shard and may die like anyone else — the guard this
    // PR lifts.
    let planner = DynaPipePlanner::new(cost_model(2, 2), PlannerConfig::default());
    let dataset = Dataset::flanv2(367, 600);
    let run = RunConfig {
        max_iterations: Some(3),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(32768), run);
    assert!(serial.feasible(), "{:?}", serial.failure);
    let cfg = ClusterConfig {
        planner_hosts: 1,
        workers_per_host: 1,
        executor_hosts: 2,
        plan_ahead: 2,
        codec: PlanCodec::Binary,
        placement: StorePlacement::Sharded,
        churn: ChurnScript::new().at(1, ChurnEvent::ExecutorLoss { host: 0 }),
        ..Default::default()
    };
    let stats = assert_churn_equivalent(
        &planner, &dataset, gbs(32768), run, &serial, cfg, "shard-host0",
    );
    assert_eq!(stats.churn.events_applied, 1, "host 0 loss must land under sharding");
    assert_eq!(stats.churn.events_ignored, 0);
    assert_eq!(stats.churn.executor_losses, 1);
    assert_eq!(stats.churn.shards_moved, 1, "host 0's shard re-owns onto host 1");
    assert_eq!(stats.shards[0].owner, 1);
    // Sole survivor: it already holds the replica, nothing to restore.
    assert_eq!(stats.churn.blobs_refetched, 0);
}

#[test]
fn stale_placement_snapshot_errors_instead_of_routing_to_dead_host() {
    // The regression behind the hard error: after host 1 dies, the
    // prefetcher's snapshot re-places both replicas onto host 0. If
    // that snapshot were ever truncated, the old fallback would compute
    // `replica % executor_hosts` — routing replica 1 straight back to
    // the dead host and silently accounting its time there. A short
    // snapshot must refuse instead.
    let full = vec![0, 0];
    assert_eq!(placed_host(&full, 0), Ok(0));
    assert_eq!(placed_host(&full, 1), Ok(0));
    let err = placed_host(&full[..1], 1).expect_err("short snapshot must hard-error");
    assert!(err.contains("replica 1"), "{err}");
}

#[test]
fn straggler_reissue_recovers_bit_identically() {
    let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
    let dataset = Dataset::flanv2(347, 1000);
    let run = RunConfig {
        // Enough iterations that the straggling host is guaranteed to
        // claim a ticket after its delay is armed (the arm races the
        // first claims, but not five of them).
        max_iterations: Some(5),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(16384), run);
    assert!(serial.feasible(), "{:?}", serial.failure);
    for codec in PlanCodec::ALL {
        let cfg = ClusterConfig {
            planner_hosts: 2,
            workers_per_host: 1,
            executor_hosts: 1,
            plan_ahead: 2,
            codec,
            // Host 1's next claim sleeps 1.5 s before planning; the
            // executor's 60 ms deadline detects the stall and re-issues
            // the ticket to host 0. Both attempts eventually complete:
            // first wins, the duplicate blob is discarded at the store
            // door and the duplicate completion discarded as stale.
            churn: ChurnScript::new().at(0, ChurnEvent::Straggle {
                host: 1,
                delay_ms: 1500,
            }),
            reissue_deadline: Some(Duration::from_millis(60)),
            ..Default::default()
        };
        let label = format!("straggle/{}", codec.label());
        let stats = assert_churn_equivalent(
            &planner, &dataset, gbs(16384), run, &serial, cfg, &label,
        );
        assert_eq!(stats.churn.straggles, 1, "{label}");
        assert!(
            stats.churn.deadline_expiries >= 1,
            "{label}: the 60ms deadline must expire under a 1.5s straggle"
        );
        assert!(
            stats.churn.tickets_reissued >= 1,
            "{label}: the stalled ticket must re-issue"
        );
        // Both attempts ran to completion: exactly one was accepted per
        // iteration, the rest discarded — never double-completed, never
        // silently overwritten.
        assert!(
            stats.churn.stale_completions >= 1,
            "{label}: the losing attempt's completion must be counted stale"
        );
        assert!(
            stats.churn.duplicate_blobs_discarded >= 1,
            "{label}: the losing attempt's blob must be discarded at the store"
        );
        assert_eq!(
            stats.store.discarded, stats.churn.duplicate_blobs_discarded,
            "{label}: store discards are exactly the counted duplicates"
        );
    }
}

#[test]
fn compound_churn_still_pins_behavior() {
    // Everything at once: a straggle, a crash of the straggling host, a
    // join to replace it, under a live re-issue deadline — the stack of
    // recoveries must still be invisible in the RunReport.
    let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
    let dataset = Dataset::flanv2(353, 700);
    let run = RunConfig {
        max_iterations: Some(5),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(16384), run);
    assert!(serial.feasible(), "{:?}", serial.failure);
    for codec in PlanCodec::ALL {
        let cfg = ClusterConfig {
            planner_hosts: 2,
            workers_per_host: 1,
            executor_hosts: 1,
            plan_ahead: 3,
            codec,
            churn: ChurnScript::new()
                .at(1, ChurnEvent::Straggle {
                    host: 1,
                    delay_ms: 800,
                })
                .at(2, ChurnEvent::PlannerCrash { host: 1 })
                .at(3, ChurnEvent::PlannerJoin { workers: 1 }),
            reissue_deadline: Some(Duration::from_millis(60)),
            ..Default::default()
        };
        let label = format!("compound/{}", codec.label());
        let stats = assert_churn_equivalent(
            &planner, &dataset, gbs(16384), run, &serial, cfg, &label,
        );
        assert_eq!(stats.iterations, 5, "{label}");
        assert_eq!(stats.churn.events_applied, 3, "{label}");
        assert_eq!(
            (stats.churn.straggles, stats.churn.planner_crashes, stats.churn.planner_joins),
            (1, 1, 1),
            "{label}"
        );
    }
}

#[test]
fn failure_mid_epoch_during_rebalance_sweeps_speculative_blobs() {
    // The monster-sample fixture fails planning a few iterations in,
    // *while* churn is rebalancing the pool (a crash right before the
    // failing iteration and an executor loss at it). The run must stop
    // at exactly the serial failure, and teardown must still discard
    // every speculative blob — recovery machinery cannot leak.
    let planner = DynaPipePlanner::new(cost_model(2, 2), PlannerConfig::default());
    let mut dataset = Dataset::flanv2(109, 400);
    dataset.samples[130] = Sample {
        id: 130,
        task: 0,
        input_len: 2_000_000,
        target_len: 512,
    };
    let gbs = GlobalBatchConfig {
        tokens_per_batch: 16384,
        max_seq_len: 4_000_000,
    };
    let run = RunConfig {
        max_iterations: Some(20),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs, run);
    assert!(serial.failure.is_some(), "fixture must fail mid-epoch");
    assert!(!serial.records.is_empty());
    let fail_at = serial.records.len();
    for codec in PlanCodec::ALL {
        let cfg = ClusterConfig {
            planner_hosts: 2,
            workers_per_host: 2,
            executor_hosts: 2,
            plan_ahead: 3,
            codec,
            churn: ChurnScript::new()
                .at(fail_at.saturating_sub(1), ChurnEvent::PlannerCrash { host: 0 })
                .at(fail_at, ChurnEvent::ExecutorLoss { host: 1 }),
            ..Default::default()
        };
        let label = format!("fail-rebalance/{}", codec.label());
        let stats = assert_churn_equivalent(
            &planner, &dataset, gbs, run, &serial, cfg, &label,
        );
        assert_eq!(
            stats.iterations,
            serial.records.len(),
            "{label}: must stop at the serial failure iteration"
        );
        assert!(stats.churn.events_applied >= 1, "{label}");
    }
}
