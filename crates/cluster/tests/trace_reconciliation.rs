//! The trace ↔ counter reconciliation suite (PR 10): on a store-backed
//! **sharded** cluster run with live churn (a straggler under a
//! re-issue deadline, then an executor-host loss with an in-flight blob
//! restore), the span trace must reconcile **exactly** with every
//! counter ledger the run reports — byte sums as integers, span counts
//! as integers, exposed-µs ledgers bitwise — against [`ClusterReport`],
//! its per-host stats and its [`ShardStats`], not just the embedded
//! `TraceMeta` (which `Trace::reconcile` already audits).
//!
//! The invariant table lives in `TRACING.md`; this suite is its
//! executable form on a scenario that exercises every span kind at
//! once: re-issues, duplicate discards, teardown sweeps, restore hops,
//! cross-host fetches and per-host exposure.

use dynapipe_cluster::{
    run_training_cluster_traced, ChurnEvent, ChurnScript, ClusterConfig, StorePlacement,
};
use dynapipe_core::{run_training, DynaPipePlanner, PlannerConfig, RunConfig};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_trace::{SpanKind, TraceSink};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn churned_sharded_run_reconciles_span_for_span() {
    let planner = DynaPipePlanner::new(
        Arc::new(CostModel::build(
            HardwareModel::a100_cluster(),
            ModelConfig::gpt_3_35b(),
            ParallelConfig::new(3, 1, 2),
            &ProfileOptions::coarse(),
        )),
        PlannerConfig::default(),
    );
    let dataset = Dataset::flanv2(401, 900);
    let gbs = GlobalBatchConfig {
        tokens_per_batch: 49152,
        max_seq_len: 2048,
    };
    let run = RunConfig {
        max_iterations: Some(5),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs, run);
    assert!(serial.feasible(), "{:?}", serial.failure);
    let label = "sharded+churn";
    let cfg = ClusterConfig {
        planner_hosts: 2,
        workers_per_host: 1,
        executor_hosts: 3,
        plan_ahead: 3,
        placement: StorePlacement::Sharded,
        // A straggle long enough for the 60 ms deadline to re-issue,
        // then a shard-owner loss whose in-flight blob must be
        // restored from a surviving peer.
        churn: ChurnScript::new()
            .at(0, ChurnEvent::Straggle {
                host: 1,
                delay_ms: 1500,
            })
            .at(2, ChurnEvent::ExecutorLoss { host: 1 }),
        reissue_deadline: Some(Duration::from_millis(60)),
        ..Default::default()
    };
    let sink = TraceSink::bounded(1 << 20);
    let (report, stats) = run_training_cluster_traced(&planner, &dataset, gbs, run, cfg, &sink);
    serial
        .behavior_eq(&report)
        .unwrap_or_else(|e| panic!("{label}: diverged from serial: {e}"));
    assert!(stats.churn.tickets_reissued >= 1, "{label}: scenario must re-issue");
    assert!(stats.churn.executor_losses == 1, "{label}");

    let mut trace = sink.finish();
    trace.meta = stats.trace_meta("reconciliation");
    assert_eq!(trace.counters.spans_dropped, 0, "{label}: ring must not truncate");
    trace
        .validate()
        .unwrap_or_else(|e| panic!("{label}: validation: {e}"));
    trace
        .reconcile()
        .unwrap_or_else(|e| panic!("{label}: meta reconciliation: {e}"));

    // --- Wire bytes, against the per-host / per-shard ledgers ------
    let host_pushed: u64 = stats.planner_hosts.iter().map(|h| h.bytes_pushed).sum();
    assert_eq!(trace.bytes_of(SpanKind::LinkPush), host_pushed, "{label}: push bytes");
    let host_fetched: u64 = stats.executor_hosts.iter().map(|h| h.bytes_fetched).sum();
    assert_eq!(trace.bytes_of(SpanKind::LinkFetch), host_fetched, "{label}: fetch bytes");
    assert_eq!(
        trace.bytes_of(SpanKind::LinkRestore),
        stats.churn.refetch_bytes,
        "{label}: restore bytes"
    );
    assert_eq!(
        trace.of_kind(SpanKind::LinkRestore).count() as u64,
        stats.churn.blobs_refetched,
        "{label}: one restore span per refetched blob"
    );
    // Per-executor-host fetch attribution (fetch spans carry the
    // fetching host in `lane`).
    for (h, eh) in stats.executor_hosts.iter().enumerate() {
        let got: u64 = trace
            .of_kind(SpanKind::LinkFetch)
            .filter(|s| s.lane == h as i64)
            .map(|s| s.bytes)
            .sum();
        assert_eq!(got, eh.bytes_fetched, "{label}: host {h} fetch bytes");
    }

    // --- Store traffic, per shard -----------------------------------
    assert_eq!(
        trace.of_kind(SpanKind::StorePush).count() as u64,
        stats.store.pushes,
        "{label}: one push span per store push"
    );
    assert_eq!(
        trace.of_kind(SpanKind::StoreTake).count() as u64,
        stats.store.takes,
        "{label}: one take span per store take"
    );
    assert_eq!(
        trace.of_kind(SpanKind::StoreDiscard).count() as u64,
        stats.store.discarded,
        "{label}: one discard span per duplicate or swept blob"
    );
    // `ShardStats::bytes_pushed` ledgers only the blobs that were
    // taken and executed; a re-issue duplicate crosses the store
    // door and is discarded there, so its bytes appear as a
    // matching StorePush + StoreDiscard pair on the same shard.
    for (s, shard) in stats.shards.iter().enumerate() {
        let pushed: u64 = trace
            .of_kind(SpanKind::StorePush)
            .filter(|p| p.lane == s as i64)
            .map(|p| p.bytes)
            .sum();
        let door_discarded: u64 = trace
            .of_kind(SpanKind::StoreDiscard)
            .filter(|p| p.lane == s as i64)
            .map(|p| p.bytes)
            .sum();
        assert_eq!(
            pushed - door_discarded,
            shard.bytes_pushed,
            "{label}: shard {s} pushed bytes"
        );
    }

    // --- Ticket lifecycle vs the queue's ledger ---------------------
    assert_eq!(
        trace.of_kind(SpanKind::TicketReissue).count() as u64,
        stats.churn.tickets_reissued,
        "{label}: one span per re-issue"
    );
    // Every committed claim plans and pushes exactly once; the
    // completion spans split into accepted (bytes = 1, one per
    // executed iteration) and stale (bytes = 0, counted by the
    // churn ledger).
    assert_eq!(
        trace.of_kind(SpanKind::TicketClaim).count() as u64,
        stats.store.pushes,
        "{label}: claims committed == blobs pushed"
    );
    let accepted = trace
        .of_kind(SpanKind::TicketComplete)
        .filter(|s| s.bytes == 1)
        .count();
    let stale = trace
        .of_kind(SpanKind::TicketComplete)
        .filter(|s| s.bytes == 0)
        .count() as u64;
    assert_eq!(accepted, stats.iterations, "{label}: one accepted completion per iteration");
    assert_eq!(stale, stats.churn.stale_completions, "{label}: stale completions");
    assert_eq!(
        trace.of_kind(SpanKind::ChurnAction).count(),
        stats.churn.events_applied,
        "{label}: one action span per applied event"
    );

    // --- Exposure ledgers, bitwise ----------------------------------
    assert_eq!(
        trace.ledger_us(SpanKind::ExposedPlanning).to_bits(),
        stats.exposed_us.to_bits(),
        "{label}: exposed ledger must be the same accumulation"
    );
    for (h, eh) in stats.executor_hosts.iter().enumerate() {
        let got = trace
            .of_kind(SpanKind::ExposedWait)
            .filter(|s| s.lane == h as i64)
            .map(|s| s.wait_us)
            .sum::<f64>()
            + 0.0;
        assert_eq!(
            got.to_bits(),
            eh.exposed_us.to_bits(),
            "{label}: host {h} exposed ledger ({got} vs {})",
            eh.exposed_us
        );
    }

    // --- The Sim timeline ends exactly at the simulated total -------
    let sim_end = trace
        .of_kind(SpanKind::IterSync)
        .last()
        .expect("executed iterations record sync spans")
        .end_us;
    assert_eq!(
        sim_end.to_bits(),
        stats.exec_sim_us.to_bits(),
        "{label}: Sim timeline end {sim_end} vs exec_sim_us {}",
        stats.exec_sim_us
    );
}
