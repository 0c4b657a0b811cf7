//! The cluster runtime: the plan-ahead pipeline of
//! [`dynapipe_core::runtime`] deployed across an explicit multi-host
//! topology, with every plan blob paying its way over modeled links.
//!
//! # Architecture
//!
//! * **Planner hosts** — `planner_hosts × workers_per_host` worker
//!   threads claim iteration tickets from the shared bounded
//!   [`PlanAheadQueue`] (ticket order == stream order), plan, lower to
//!   *owned* programs, encode the Flat wire blob and push it into the
//!   [`InstructionStore`] — the shared worker body
//!   [`plan_lower_push_traced`], annotated with which host produced the
//!   plan. This is the only runtime whose plans cross the store; the
//!   core runtime hands plans over in-process.
//! * **The store** lives where [`crate::StorePlacement`] says: on
//!   executor host 0 (the paper's Redis placement), or sharded one
//!   shard per executor host with iteration `i` owned by shard
//!   `i % executor_hosts` ([`crate::shard`]). A planner worker's push
//!   crosses its **uplink connection** to the owning shard's host (one
//!   connection per worker × destination, so the FIFO replay matches
//!   the worker's real push order); an executor host's fetch crosses
//!   the **shard-host → executor** link; a host colocated with the
//!   owning shard reads host memory for free. Every hop is priced by
//!   the [`dynapipe_sim::Fabric`] host-pair matrix (same host free,
//!   same rack intra-node, cross-rack oversubscribed inter-node) and
//!   replayed over α-β links with FIFO occupancy
//!   ([`dynapipe_sim::Link`]), so bursts of blobs queue instead of
//!   teleporting.
//! * **Executor hosts** — each data-parallel replica runs on host
//!   `r % executor_hosts`. The replica engines are the same
//!   [`execute_lowered`] fold as the serial driver (worst makespan,
//!   per-stage max peaks, stalls summed in replica order), so the
//!   [`RunReport`] is bit-identical by construction; the per-replica
//!   makespans are additionally grouped per host to build each host's
//!   timeline.
//!
//! # Timeline semantics
//!
//! Host-side costs (planning, lowering, encode, decode) are **real**
//! measured durations; wire costs are **simulated** from blob bytes and
//! the configured link — the same hybrid as the core runtime's overlap
//! accounting, extended with the wire hop. For iteration `i`:
//!
//! ```text
//! at_store    = uplink[w→s].transmit(pushed_at, bytes)      (w = planner worker,
//!                                                            s = owning shard's host)
//! at_shard    = restore[peer→s].transmit(at_store, bytes)   (only after the shard's
//!                                                            owner died mid-flight)
//! avail_h     = link[s→h].transmit(at_shard, bytes) + decode_us
//! exposed_h   = max(0, avail_h − sync_end(i−1))
//! start_h     = max(sync_end(i−1), avail_h)
//! sync_end(i) = max_h(start_h + span_h) + dp_sync
//! ```
//!
//! where `span_h` is host `h`'s worst replica makespan. With every plan
//! available in time, `sync_end(i) − sync_end(i−1)` degenerates to
//! exactly the serial iteration time, so the cluster wall can only
//! exceed the ideal by genuinely exposed distribution latency — which is
//! what [`ClusterReport`] itemizes per host.

use crate::churn::{ChurnEvent, Membership};
use crate::report::{ChurnStats, ClusterReport, ExecutorHostStats, PlannerHostStats, ShardStats};
use crate::shard::{ShardMap, StorePlacement};
use crate::topology::ClusterConfig;
use dynapipe_core::driver::{record_iteration, IterationPlanner, RunConfig, RunReport};
use dynapipe_core::planner::{IterationPlan, PlanError};
use dynapipe_core::runtime::{
    decode_for_execution, execute_lowered, plan_lower_push_traced, record_sim_iteration,
    CompleteOutcome, PlanAheadQueue, ReplicaParallelism, ReplicaPrograms, TicketGuard,
    TicketTraceCtx, WaitOutcome,
};
use dynapipe_core::store::InstructionStore;
use dynapipe_trace::{Span, SpanKind, TraceSink};
use dynapipe_batcher::PaddingStats;
use dynapipe_data::{BatchStream, Dataset, GlobalBatchConfig};
use dynapipe_sim::Link;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Crashed-counterpart bound for store waits (mirrors the core runtime):
/// reaching it means a dead peer, not backpressure.
const STORE_WAIT: Duration = Duration::from_secs(60);

/// What a planner worker reports through the queue once its blob is in
/// the store: the distribution accounting, annotated with the producing
/// worker — the payload itself travels only through the store.
struct ClusterPlanned {
    /// Global worker index (maps to a planner host and to that worker's
    /// uplink connection).
    worker: usize,
    plan_us: f64,
    lower_us: f64,
    serialize_us: f64,
    blob_bytes: usize,
    /// Real µs since run start when the push completed.
    pushed_at_us: f64,
}

/// What the prefetcher hands the executor per iteration.
struct ClaimedCluster {
    meta: ClusterPlanned,
    outcome: Result<(IterationPlan, Vec<ReplicaPrograms>), PlanError>,
    /// Real µs one host spends decoding its copy of the blob.
    decode_us: f64,
    /// Replica → executor-host placement in force for this iteration.
    /// Snapshotted by the prefetcher (the thread that applies churn
    /// events, possibly several iterations ahead of the executor), so
    /// the executor's accounting follows the placement the iteration
    /// was *fetched* under, deterministically.
    placement: Vec<usize>,
    /// Executor host owning this iteration's store shard, snapshotted by
    /// the prefetcher under the same discipline as `placement`.
    shard_host: usize,
    /// `Some(peer)` when the shard's previous owner died with this blob
    /// in flight: the surviving `peer` streams its replica to the new
    /// owner before any fetch can start.
    recover_from: Option<usize>,
}

/// Resolve data-parallel replica `r`'s executor host from a placement
/// snapshot.
///
/// The snapshot is built once per iteration by the prefetcher and must
/// cover every replica; a short snapshot is a **hard error**. (An
/// earlier revision silently fell back to the static
/// `r % executor_hosts` assignment, which can point at a host a churn
/// script already killed — the replica's time would be accounted to a
/// dead host's timeline without any test noticing.)
pub fn placed_host(placement: &[usize], replica: usize) -> Result<usize, String> {
    placement.get(replica).copied().ok_or_else(|| {
        format!(
            "placement snapshot covers {} replicas but replica {replica} needs a host; \
             falling back to the static assignment could route to a churn-killed host",
            placement.len()
        )
    })
}

/// Executor-side teardown, run when the executor leaves its loop by
/// returning or by unwinding: stop workers waiting on the window or about
/// to claim past a failure, wake a prefetcher stuck on a plan that will
/// never come, and release the workers of scripted-join hosts whose
/// event never fired. Without it a re-raised planner panic would leave a
/// parked join-host worker blocked and the thread scope would never
/// join.
struct Teardown<'a, T> {
    queue: &'a PlanAheadQueue<T>,
    membership: &'a Membership,
}

impl<T> Drop for Teardown<'_, T> {
    fn drop(&mut self) {
        self.queue.cancel();
        self.membership.shutdown();
    }
}

enum Prefetched {
    Iteration(Box<ClaimedCluster>),
    EndOfEpoch,
    /// The store lost a blob the queue promised (crashed counterpart /
    /// corrupt wire blob).
    Lost(String),
}

/// Run (a prefix of) one training epoch on the simulated multi-host
/// cluster, recording spans into `sink` (pass [`TraceSink::disabled`] to
/// record nothing): ticket lifecycle, store traffic and churn actions as
/// `Host`-domain spans, per-blob link transfers (push / fetch / restore,
/// with the FIFO queue-wait split out), per-host exposure, and the
/// executed iterations as `Sim`-domain spans on the ideal simulated
/// timeline.
///
/// The returned [`RunReport`] is bit-identical to
/// [`dynapipe_core::run_training`] with the same arguments — any
/// topology or link speed (`RunReport::behavior_eq`; pinned by
/// `tests/cluster_equivalence.rs`). The [`ClusterReport`] carries the
/// per-host and wire accounting.
pub fn run_training_cluster_traced(
    planner: &dyn IterationPlanner,
    dataset: &Dataset,
    gbs: GlobalBatchConfig,
    run: RunConfig,
    cluster: ClusterConfig,
    sink: &TraceSink,
) -> (RunReport, ClusterReport) {
    let cm = planner.cost_model();
    let cluster = cluster.normalized(cm.parallel.dp);
    let cap = run.max_iterations.unwrap_or(usize::MAX);
    let stream = BatchStream::new(dataset, gbs);
    let queue: PlanAheadQueue<ClusterPlanned> = PlanAheadQueue::new(cluster.plan_ahead, cap);
    // Window slots count store occupancy (ticket held from push to take),
    // so the capacity is a hard backstop, not an active gate.
    let store = InstructionStore::with_capacity(cluster.plan_ahead);
    // lint:allow(wall-clock): host wall-clock for ClusterReport.host_wall_us, excluded from behavior_eq
    let t0 = Instant::now();

    // Planner-host roster: the configured hosts plus one slot per
    // scripted join. Joined hosts' worker threads are spawned up front
    // but parked behind the membership gate, so a join event activates
    // them instantly (and deterministically — no mid-run thread spawn
    // racing the claim loop).
    let script = cluster.churn.clone();
    let mut host_workers: Vec<usize> = vec![cluster.workers_per_host; cluster.planner_hosts];
    host_workers.extend(script.joining_hosts());
    let worker_host: Vec<usize> = host_workers
        .iter()
        .enumerate()
        .flat_map(|(h, &n)| std::iter::repeat(h).take(n))
        .collect();
    let membership = Membership::new(cluster.planner_hosts, host_workers.len() - cluster.planner_hosts);
    let ledger: Mutex<ChurnStats> = Mutex::new(ChurnStats::default());

    let mut report = RunReport {
        planner: planner.label(),
        records: Vec::new(),
        total_tokens: 0,
        total_time_us: 0.0,
        padding: PaddingStats::default(),
        failure: None,
    };
    let initial_shards = ShardMap::new(cluster.placement, cluster.executor_hosts);
    let mut out = ClusterReport {
        topology: cluster.label(),
        placement: cluster.placement.label().to_string(),
        fabric: cluster.fabric.label(),
        plan_ahead: cluster.plan_ahead,
        shards: initial_shards
            .owners()
            .iter()
            .enumerate()
            .map(|(s, &owner)| ShardStats {
                shard: s,
                owner,
                ..Default::default()
            })
            .collect(),
        planner_hosts: host_workers
            .iter()
            .enumerate()
            .map(|(h, &workers)| PlannerHostStats {
                host: h,
                workers,
                ..Default::default()
            })
            .collect(),
        executor_hosts: (0..cluster.executor_hosts)
            .map(|h| ExecutorHostStats {
                host: h,
                ..Default::default()
            })
            .collect(),
        ..Default::default()
    };

    // One uplink *connection* per planner worker × destination shard
    // host (a worker's pushes are ordered in time, so the FIFO math
    // replays exactly; a per-host shared link would be replayed in
    // iteration order, which races push order across workers and would
    // charge phantom queueing), and one link per shard-host → executor-
    // host pair out of the store; a host colocated with the owning
    // shard rides the fabric's free same-host link. Fetch-side links
    // are legitimately FIFO in iteration order: the executor demands
    // blobs in order, so fetch i+1 cannot start before fetch i finishes
    // on that pair's link. Connections are created lazily from the
    // fabric — a pair that never carries a blob never exists.
    let mut uplinks: BTreeMap<(usize, usize), Link> = BTreeMap::new();
    let mut interlinks: BTreeMap<(usize, usize), Link> = BTreeMap::new();

    std::thread::scope(|scope| {
        for (w, &host) in worker_host.iter().enumerate() {
            let queue = &queue;
            let stream = &stream;
            let store = &store;
            let membership = &membership;
            let ledger = &ledger;
            let cluster = &cluster;
            scope.spawn(move || {
                // Scripted-join hosts park here until their event fires.
                if !membership.wait_active(host) {
                    return;
                }
                while let Some(ticket) = queue.claim(stream, w) {
                    // A crash takes effect at the claim boundary:
                    // the dead host's worker hands the ticket
                    // straight back for the survivors. The abandon
                    // bumps the queue's `reissued` counter, so it
                    // records a re-issue span like the crash sweep
                    // (lane = the dead host).
                    if !membership.is_alive(host) {
                        queue.abandon(ticket.index, w);
                        if sink.is_enabled() {
                            let t = sink.now_us();
                            sink.record(Span {
                                kind: SpanKind::TicketReissue,
                                iteration: ticket.index as i64,
                                lane: host as i64,
                                start_us: t,
                                end_us: t,
                                ..Span::default()
                            });
                        }
                        return;
                    }
                    // A scripted straggle delays this host's next
                    // attempt *before* planning starts — the window
                    // the executor's re-issue deadline is built to
                    // detect.
                    if let Some(delay) = membership.take_straggle(host) {
                        std::thread::sleep(delay);
                    }
                    // The claim is recorded only once the holder
                    // commits to planning (a dead host's claim is
                    // abandoned above, not a lifecycle event).
                    if sink.is_enabled() {
                        let t = sink.now_us();
                        sink.record(Span {
                            kind: SpanKind::TicketClaim,
                            iteration: ticket.index as i64,
                            lane: w as i64,
                            host: cluster.planner_global(host) as i64,
                            start_us: t,
                            end_us: t,
                            generation: ticket.generation,
                            ..Span::default()
                        });
                    }
                    let guard = TicketGuard::new(queue, Some(store));
                    // Plan, lower owned, encode, push. Under churn an
                    // iteration may race two byte-identical blobs
                    // (straggler vs re-issue): whichever lands second
                    // is discarded at the store door.
                    let push = plan_lower_push_traced(
                        planner,
                        store,
                        ticket.index,
                        &ticket.batch,
                        &TicketTraceCtx {
                            sink,
                            worker: w as i64,
                            host: cluster.planner_global(host) as i64,
                            shard: (ticket.index % cluster.num_shards()) as i64,
                            generation: ticket.generation,
                        },
                    );
                    if push.discarded {
                        ledger
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .duplicate_blobs_discarded += 1;
                    }
                    let outcome = queue.complete(
                        ticket.index,
                        ticket.generation,
                        ClusterPlanned {
                            worker: w,
                            plan_us: push.plan_us,
                            lower_us: push.lower_us,
                            serialize_us: push.serialize_us,
                            blob_bytes: push.blob_bytes,
                            pushed_at_us: t0.elapsed().as_secs_f64() * 1e6,
                        },
                    );
                    guard.disarm();
                    if sink.is_enabled() {
                        let t = sink.now_us();
                        sink.record(Span {
                            kind: SpanKind::TicketComplete,
                            iteration: ticket.index as i64,
                            lane: w as i64,
                            host: cluster.planner_global(host) as i64,
                            start_us: t,
                            end_us: t,
                            // 1 when the queue accepted this
                            // completion; 0 when it lost the churn
                            // race to a re-issued generation.
                            bytes: (outcome == CompleteOutcome::Accepted) as u64,
                            generation: ticket.generation,
                            ..Span::default()
                        });
                    }
                    if !membership.is_alive(host) {
                        return; // crashed mid-plan: stop claiming
                    }
                }
            });
        }

        // Executor-side prefetcher: take each blob in order, decode it
        // ahead of execution (one decode stands in for the per-host
        // decodes, which would run in parallel on identical bytes), and
        // hand the executable plan over a bounded channel.
        //
        // The prefetcher is also the **churn event loop**: it is the one
        // thread that observes iteration boundaries strictly in order,
        // so scripted events key off its progress — applied before the
        // wait for the keyed iteration's plan, and the placement in
        // force is snapshotted per iteration for the executor's
        // accounting (the prefetcher runs ahead, so the executor must
        // not read live placement state).
        let (tx, rx) = std::sync::mpsc::sync_channel::<Prefetched>(1);
        {
            let queue = &queue;
            let store = &store;
            let membership = &membership;
            let ledger = &ledger;
            let script = &script;
            let worker_host = &worker_host;
            let cluster = &cluster;
            let dp = cm.parallel.dp.max(1);
            scope.spawn(move || {
                // Instant Host-domain markers: churn actions carry the
                // event class in `generation` (0 crash / 1 join /
                // 2 straggle / 3 executor loss) and the affected host in
                // `lane`; re-issues count against `tickets_reissued`.
                let churn_span = |class: u64, affected: i64, it: usize| {
                    if sink.is_enabled() {
                        let t = sink.now_us();
                        sink.record(Span {
                            kind: SpanKind::ChurnAction,
                            iteration: it as i64,
                            lane: affected,
                            start_us: t,
                            end_us: t,
                            generation: class,
                            ..Span::default()
                        });
                    }
                };
                let reissue_span = |iteration: i64, lane: i64| {
                    if sink.is_enabled() {
                        let t = sink.now_us();
                        sink.record(Span {
                            kind: SpanKind::TicketReissue,
                            iteration,
                            lane,
                            start_us: t,
                            end_us: t,
                            ..Span::default()
                        });
                    }
                };
                let mut executor_alive = vec![true; cluster.executor_hosts];
                let mut replica_host: Vec<usize> =
                    (0..dp).map(|r| cluster.executor_host_of(r)).collect();
                let mut shard_map = ShardMap::new(cluster.placement, cluster.executor_hosts);
                // Iteration → surviving peer that must restore the blob
                // to its shard's new owner (owner died mid-flight).
                let mut pending_recovery: BTreeMap<usize, usize> = BTreeMap::new();
                for it in 0..cap {
                    // --- Scripted churn due at this iteration ---------
                    for ev in script.events_at(it) {
                        let mut led = ledger.lock().unwrap_or_else(|e| e.into_inner());
                        match ev {
                            ChurnEvent::PlannerCrash { host } => {
                                if membership.crash(*host) {
                                    led.events_applied += 1;
                                    led.planner_crashes += 1;
                                    churn_span(0, *host as i64, it);
                                    // Everything the dead host's workers
                                    // held goes back to the survivors.
                                    let n =
                                        queue.reissue_claimed_by(|w| worker_host[w] == *host);
                                    for _ in 0..n {
                                        // Claimed-but-unplanned tickets
                                        // are unknown here: -1 iteration,
                                        // lane = the dead host.
                                        reissue_span(-1, *host as i64);
                                    }
                                } else {
                                    led.events_ignored += 1;
                                }
                            }
                            ChurnEvent::PlannerJoin { .. } => {
                                if let Some(joined) = membership.activate_next() {
                                    led.events_applied += 1;
                                    led.planner_joins += 1;
                                    churn_span(1, joined as i64, it);
                                } else {
                                    led.events_ignored += 1;
                                }
                            }
                            ChurnEvent::Straggle { host, delay_ms } => {
                                if membership
                                    .straggle(*host, Duration::from_millis(*delay_ms))
                                {
                                    led.events_applied += 1;
                                    led.straggles += 1;
                                    churn_span(2, *host as i64, it);
                                } else {
                                    led.events_ignored += 1;
                                }
                            }
                            ChurnEvent::ExecutorLoss { host } => {
                                let survivors: Vec<usize> = (0..cluster.executor_hosts)
                                    .filter(|&h| h != *host && executor_alive[h])
                                    .collect();
                                // Under the single placement host 0
                                // holds the whole store; losing it (or
                                // the last survivor under either
                                // placement) is fail-stop, not churn. A
                                // dead/unknown host is a no-op. Under
                                // the sharded placement *any* host may
                                // go — its shards re-own onto survivors.
                                let store_protected = cluster.placement
                                    == StorePlacement::Single
                                    && *host == 0;
                                if store_protected
                                    || *host >= cluster.executor_hosts
                                    || !executor_alive[*host]
                                    || survivors.is_empty()
                                {
                                    led.events_ignored += 1;
                                } else {
                                    executor_alive[*host] = false;
                                    led.events_applied += 1;
                                    led.executor_losses += 1;
                                    churn_span(3, *host as i64, it);
                                    // Re-place the lost host's replicas
                                    // round-robin onto the survivors;
                                    // their plans re-distribute from the
                                    // store over the survivors' own
                                    // downlinks from here on.
                                    for (r, h) in replica_host.iter_mut().enumerate() {
                                        if *h == *host {
                                            *h = survivors[r % survivors.len()];
                                            led.replicas_moved += 1;
                                        }
                                    }
                                    // Sharded store recovery: only the
                                    // dead host's shards move (surviving
                                    // assignments are stable), and any
                                    // blob that may already sit on the
                                    // dead owner — conservatively, the
                                    // whole plan-ahead window from here —
                                    // is restored from a surviving peer
                                    // before its fetches replay.
                                    let lost_shards: Vec<usize> = shard_map
                                        .owners()
                                        .iter()
                                        .enumerate()
                                        .filter(|(_, &o)| o == *host)
                                        .map(|(s, _)| s)
                                        .collect();
                                    if !lost_shards.is_empty() {
                                        led.shards_moved +=
                                            shard_map.reassign_lost(*host, &survivors);
                                        let window_end =
                                            it.saturating_add(cluster.plan_ahead).min(cap);
                                        for j in it..window_end {
                                            let s = shard_map.shard_of(j);
                                            if !lost_shards.contains(&s) {
                                                continue;
                                            }
                                            let new_owner = shard_map.owner(s);
                                            // The lowest surviving host
                                            // that is not the new owner
                                            // holds the replica; a sole
                                            // survivor already owns it.
                                            if let Some(&peer) = survivors
                                                .iter()
                                                .find(|&&h| h != new_owner)
                                            {
                                                pending_recovery.insert(j, peer);
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                    let placement = replica_host.clone();
                    let shard_host = shard_map.host_of(it);
                    let recover_from = pending_recovery.remove(&it);

                    // --- Bounded wait + straggler re-issue ------------
                    let meta = loop {
                        match queue.wait_for_deadline(it, cluster.reissue_deadline) {
                            WaitOutcome::Cancelled => return,
                            WaitOutcome::EndOfEpoch => {
                                let _ = tx.send(Prefetched::EndOfEpoch);
                                return;
                            }
                            WaitOutcome::Deadline => {
                                // The plan is overdue: suspect the
                                // holder and re-issue the ticket to the
                                // next healthy claimant, then keep
                                // waiting (first completion wins).
                                let mut led =
                                    ledger.lock().unwrap_or_else(|e| e.into_inner());
                                led.deadline_expiries += 1;
                                drop(led);
                                let min_age = cluster
                                    .reissue_deadline
                                    .expect("Deadline implies a deadline was set");
                                if queue.reissue(it, min_age) {
                                    reissue_span(it as i64, -1);
                                }
                            }
                            WaitOutcome::Planned(p) => break p,
                        }
                    };
                    // Time the *decode* alone: the wait-for-arrival and
                    // the store take model the fetch, which the timeline
                    // already charges as downlink wire time.
                    let s_take = sink.now_us();
                    let taken = store.take_blocking(it, STORE_WAIT);
                    queue.advance(it); // blob out of the store: slot free
                    let taken_at = sink.now_us();
                    if sink.is_enabled() {
                        if let Ok(blob) = &taken {
                            sink.record(Span {
                                kind: SpanKind::StoreTake,
                                iteration: it as i64,
                                lane: shard_map.shard_of(it) as i64,
                                host: cluster.executor_global(shard_host) as i64,
                                start_us: s_take,
                                end_us: taken_at,
                                bytes: blob.len() as u64,
                                ..Span::default()
                            });
                        }
                    }
                    // lint:allow(wall-clock): decode timing for ExecutorHostStats.decode_us, a stats field only
                    let t_decode = Instant::now();
                    let decoded = taken.map_err(|e| format!("take: {e}")).and_then(|blob| {
                        decode_for_execution(blob, it)
                            .map_err(|e| format!("decode: {e}"))
                    });
                    let decode_us = t_decode.elapsed().as_secs_f64() * 1e6;
                    if sink.is_enabled() && decoded.is_ok() {
                        sink.record(Span {
                            kind: SpanKind::Decode,
                            iteration: it as i64,
                            lane: shard_map.shard_of(it) as i64,
                            host: cluster.executor_global(shard_host) as i64,
                            start_us: taken_at,
                            end_us: sink.now_us(),
                            ..Span::default()
                        });
                    }
                    let outcome = match decoded {
                        Ok(o) => o,
                        Err(e) => {
                            let _ = tx.send(Prefetched::Lost(format!(
                                "instruction store lost iteration {it}: {e}"
                            )));
                            return;
                        }
                    };
                    let claimed = ClaimedCluster {
                        meta,
                        outcome,
                        decode_us,
                        placement,
                        shard_host,
                        recover_from,
                    };
                    if tx.send(Prefetched::Iteration(Box::new(claimed))).is_err() {
                        return; // executor stopped consuming
                    }
                }
                let _ = tx.send(Prefetched::EndOfEpoch);
            });
        }

        // The executor: strictly in order on the caller thread, folding
        // the per-host timelines as it goes.
        let teardown = Teardown {
            queue: &queue,
            membership: &membership,
        };
        let mut vclock = 0.0f64;
        // Sim-domain clock: the ideal back-to-back timeline the executed
        // iterations would occupy with every plan instantly available.
        let mut sim_clock = 0.0f64;
        let mut refetched_blobs = 0u64;
        let mut refetched_bytes = 0u64;
        for it in 0..cap {
            let claimed = match rx.recv() {
                Ok(Prefetched::EndOfEpoch) => break,
                // Re-raising unwinds through `teardown`, which unblocks
                // the pool before the scope joins it.
                Ok(Prefetched::Lost(e)) => panic!("{e}"),
                // Prefetcher died without a message: a planner worker
                // panicked under it.
                Err(_) => panic!("a planner worker panicked while planning ahead"),
                Ok(Prefetched::Iteration(c)) => c,
            };
            let ClaimedCluster {
                meta,
                outcome,
                decode_us,
                placement,
                shard_host,
                recover_from,
            } = *claimed;
            let (plan, programs) = match outcome {
                Ok(x) => x,
                Err(e) => {
                    report.failure = Some(format!("iteration {it}: {e}"));
                    break;
                }
            };
            let exec = match execute_lowered(
                cm,
                &plan,
                &programs,
                &run,
                it,
                ReplicaParallelism::Parallel,
            ) {
                Ok(x) => x,
                Err(e) => {
                    report.failure = Some(format!("iteration {it}: {e}"));
                    break;
                }
            };

            // --- Wire + per-host timeline ---------------------------------
            let bytes = meta.blob_bytes as u64;
            let p = worker_host[meta.worker];
            let shard = it % out.shards.len();
            let up = uplinks
                .entry((meta.worker, shard_host))
                .or_insert_with(|| {
                    cluster
                        .fabric
                        .connect(cluster.planner_global(p), cluster.executor_global(shard_host))
                });
            let up_before = up.wire_us();
            let up_busy = up.busy_until_us();
            let at_store = up.transmit(meta.pushed_at_us, bytes);
            let push_wire = up.wire_us() - up_before;
            if sink.is_enabled() {
                sink.record(Span {
                    kind: SpanKind::LinkPush,
                    iteration: it as i64,
                    lane: meta.worker as i64,
                    host: cluster.planner_global(p) as i64,
                    start_us: meta.pushed_at_us,
                    end_us: at_store,
                    // FIFO queueing behind the worker's earlier pushes,
                    // split out of the interval.
                    wait_us: (up_busy - meta.pushed_at_us).max(0.0),
                    bytes,
                    src: cluster.planner_global(p) as i64,
                    dst: cluster.executor_global(shard_host) as i64,
                    ..Span::default()
                });
            }
            let ph = &mut out.planner_hosts[p];
            ph.plans_produced += 1;
            ph.plan_us += meta.plan_us;
            ph.lower_us += meta.lower_us;
            ph.serialize_us += meta.serialize_us;
            ph.bytes_pushed += bytes;
            ph.push_wire_us += push_wire;
            {
                let sh = &mut out.shards[shard];
                sh.owner = shard_host;
                sh.blobs_stored += 1;
                sh.bytes_pushed += bytes;
                sh.push_wire_us += push_wire;
            }

            // Post-loss restore: the shard's previous owner died with
            // this blob in flight, so a surviving peer streams its
            // replica to the new owner before any fetch can start.
            let at_shard = if let Some(peer) = recover_from {
                let link = interlinks
                    .entry((peer, shard_host))
                    .or_insert_with(|| cluster.fabric.connect(peer, shard_host));
                let before = link.wire_us();
                let restore_busy = link.busy_until_us();
                let restored = link.transmit(at_store, bytes);
                if sink.is_enabled() {
                    sink.record(Span {
                        kind: SpanKind::LinkRestore,
                        iteration: it as i64,
                        lane: shard as i64,
                        host: cluster.executor_global(shard_host) as i64,
                        start_us: at_store,
                        end_us: restored,
                        wait_us: (restore_busy - at_store).max(0.0),
                        bytes,
                        src: cluster.executor_global(peer) as i64,
                        dst: cluster.executor_global(shard_host) as i64,
                        ..Span::default()
                    });
                }
                let sh = &mut out.shards[shard];
                sh.refetched_blobs += 1;
                sh.refetch_bytes += bytes;
                sh.fetch_wire_us += link.wire_us() - before;
                refetched_blobs += 1;
                refetched_bytes += bytes;
                restored
            } else {
                at_store
            };

            // Hosts with at least one replica this iteration fetch the
            // blob and run their share.
            let mut spans = vec![f64::NEG_INFINITY; cluster.executor_hosts];
            for (r, &makespan) in exec.replica_makespans.iter().enumerate() {
                // Placement under churn: the snapshot the prefetcher took
                // when it fetched this iteration (initially
                // `r % executor_hosts`; re-placed on executor loss). A
                // snapshot that fails to cover a replica is a hard error
                // — the silent static fallback it replaces could route
                // to a churn-killed host.
                let h = placed_host(&placement, r).expect("short placement snapshot");
                spans[h] = spans[h].max(makespan);
                if !out.executor_hosts[h].replicas.contains(&r) {
                    out.executor_hosts[h].replicas.push(r);
                }
            }
            let mut sync_end = f64::NEG_INFINITY;
            for (h, &span) in spans.iter().enumerate() {
                if span == f64::NEG_INFINITY {
                    continue; // no replica landed here this iteration
                }
                let link = interlinks
                    .entry((shard_host, h))
                    .or_insert_with(|| cluster.fabric.connect(shard_host, h));
                let down_before = link.wire_us();
                let down_busy = link.busy_until_us();
                let arrival = link.transmit(at_shard, bytes);
                let fetch_wire = link.wire_us() - down_before;
                let avail = arrival + decode_us;
                let eh = &mut out.executor_hosts[h];
                // The wire-byte rule (see report.rs): only copies that
                // cross hosts count — the shard owner's replicas read
                // host memory. The trace obeys the same rule: a
                // LinkFetch span exists iff the copy crossed hosts, so
                // Σ span bytes reconciles against `bytes_fetched`.
                if h != shard_host {
                    eh.bytes_fetched += bytes;
                    out.shards[shard].bytes_served += bytes;
                    if sink.is_enabled() {
                        sink.record(Span {
                            kind: SpanKind::LinkFetch,
                            iteration: it as i64,
                            lane: h as i64,
                            host: cluster.executor_global(h) as i64,
                            start_us: at_shard,
                            end_us: arrival,
                            wait_us: (down_busy - at_shard).max(0.0),
                            bytes,
                            src: cluster.executor_global(shard_host) as i64,
                            dst: cluster.executor_global(h) as i64,
                            ..Span::default()
                        });
                    }
                }
                eh.fetch_wire_us += fetch_wire;
                out.shards[shard].fetch_wire_us += fetch_wire;
                eh.decode_us += decode_us;
                // The span carries the exact ledger term in `wait_us`
                // (start/end have float residue; the counter does not),
                // and zero terms are skipped — adding +0.0 to a
                // non-negative accumulator cannot change its bits, so
                // the per-host ledger still reconciles bit-exactly.
                let wait = (avail - vclock).max(0.0);
                eh.exposed_us += wait;
                if sink.is_enabled() && wait > 0.0 {
                    sink.record(Span {
                        kind: SpanKind::ExposedWait,
                        iteration: it as i64,
                        lane: h as i64,
                        host: cluster.executor_global(h) as i64,
                        start_us: vclock,
                        end_us: avail,
                        wait_us: wait,
                        ..Span::default()
                    });
                }
                eh.busy_us += span;
                let start = vclock.max(avail);
                sync_end = sync_end.max(start + span);
            }
            let end = sync_end + plan.dp_sync_time;
            // How much later the sync finished than it would have with
            // every plan instantly available.
            let exposed = (end - vclock - exec.measured_time).max(0.0);
            out.exposed_us += exposed;
            if sink.is_enabled() && exposed > 0.0 {
                sink.record(Span {
                    kind: SpanKind::ExposedPlanning,
                    iteration: it as i64,
                    start_us: vclock,
                    end_us: vclock + exposed,
                    wait_us: exposed,
                    ..Span::default()
                });
            }
            record_sim_iteration(sink, it, &exec, &mut sim_clock);
            vclock = end;

            out.exec_sim_us += exec.measured_time;
            out.serialize_us += meta.serialize_us;
            out.decode_us += decode_us * spans.iter().filter(|s| s.is_finite()).count() as f64;
            out.total_planning_us += meta.plan_us + meta.lower_us;
            out.iterations += 1;

            record_iteration(
                &mut report,
                cm,
                &plan,
                exec.measured_time,
                exec.peak_memory,
                exec.allocator_stall_us,
            );
        }
        out.cluster_wall_us = vclock;
        {
            let mut led = ledger.lock().unwrap_or_else(|e| e.into_inner());
            led.blobs_refetched = refetched_blobs;
            led.refetch_bytes = refetched_bytes;
        }
        drop(teardown);
        drop(rx);
    });

    // Workers joined: sweep speculative blobs past a failure. Each
    // swept blob is a discard, so the trace's StoreDiscard count keeps
    // matching the store's `discarded` counter.
    let swept = store.clear_remaining();
    if sink.is_enabled() {
        let t = sink.now_us();
        for _ in 0..swept {
            sink.record(Span {
                kind: SpanKind::StoreDiscard,
                start_us: t,
                end_us: t,
                ..Span::default()
            });
        }
    }
    out.store = store.stats();

    // Fold the queue's churn counters into the ledger.
    let mut churn = ledger.into_inner().unwrap_or_else(|e| e.into_inner());
    let qc = queue.churn_stats();
    churn.tickets_reissued = qc.reissued;
    churn.stale_completions = qc.stale_completions;
    out.churn = churn;

    // Cluster totals. Host pipeline cost counts every host's decode (each
    // fetching host burns its own CPU on its copy).
    out.total_planning_us += out.serialize_us + out.decode_us;
    out.total_wire_us = uplinks.values().map(Link::wire_us).sum::<f64>()
        + interlinks.values().map(Link::wire_us).sum::<f64>();
    // The busiest single directed host-pair link — local links never
    // count bytes, so this is a pure wire quantity.
    out.max_link_bytes = uplinks
        .values()
        .chain(interlinks.values())
        .map(Link::bytes)
        .max()
        .unwrap_or(0);
    let pushed: u64 = out.planner_hosts.iter().map(|h| h.bytes_pushed).sum();
    out.wire_bytes = pushed
        + out
            .executor_hosts
            .iter()
            .map(|h| h.bytes_fetched)
            .sum::<u64>();
    out.mean_blob_bytes = if out.iterations > 0 {
        pushed as f64 / out.iterations as f64
    } else {
        0.0
    };
    out.serial_wall_us = out.total_planning_us + out.exec_sim_us;
    let to_hide = out.total_planning_us + out.total_wire_us;
    out.overlap_ratio = if to_hide > 0.0 {
        (to_hide - out.exposed_us).max(0.0) / to_hide
    } else {
        1.0
    };
    for eh in &mut out.executor_hosts {
        // Per-host overlap: the host's share of the upstream pipeline
        // (planning + lowering + serialize, split evenly across hosts —
        // they all consume the same plans) plus its own fetch wire and
        // decode, minus what it actually had to wait out on its timeline.
        let upstream = (out.total_planning_us - out.decode_us) / cluster.executor_hosts as f64;
        let total = upstream + eh.fetch_wire_us + eh.decode_us;
        eh.hidden_us = (total - eh.exposed_us).max(0.0);
        eh.overlap_ratio = if total > 0.0 {
            eh.hidden_us / total
        } else {
            1.0
        };
    }
    out.host_wall_us = t0.elapsed().as_secs_f64() * 1e6;
    (report, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_placement_snapshot_is_a_hard_error() {
        // The regression: with host 1 killed by churn, a snapshot
        // re-placing replica 0 onto host 0 but (wrongly) missing
        // replica 1 used to fall back to the static `r % hosts`
        // assignment — routing replica 1 straight back to dead host 1.
        assert_eq!(placed_host(&[0, 0], 1), Ok(0));
        let err = placed_host(&[0], 1).expect_err("short snapshot must be rejected");
        assert!(err.contains("replica 1"), "{err}");
        assert!(placed_host(&[], 0).is_err());
    }
}
