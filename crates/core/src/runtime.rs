//! The pipelined plan-ahead runtime: overlap planning with execution.
//!
//! The serial driver ([`crate::driver::run_training`]) is a strict
//! plan → simulate loop: every iteration pays its full planning time on
//! the critical path. The paper's end-to-end claim (§6, Fig. 17) is that
//! per-iteration planning is *hidden* behind training — a planner worker
//! pool pre-plans iterations ahead of a bounded window while the executor
//! runs the current one. This module makes that overlap structural:
//!
//! ```text
//!   BatchStream ──► planner pool ──► lowering ──► plan-ahead ──► executor
//!   (streaming      (plan i+1..i+k   (compile     queue          (replicas in
//!    mini-batches)   concurrently)    programs)   (bounded, k)    parallel)
//! ```
//!
//! * the **planner pool** pulls mini-batches from a streaming
//!   [`BatchStream`] (the epoch is never materialized) and plans
//!   iterations up to [`RuntimeConfig::plan_ahead`] ahead of the one being
//!   executed; workers and the planner's own nested parallel passes share
//!   the one rayon thread budget;
//! * the **lowering stage** sits between planner and engine: each
//!   replica's [`dynapipe_comm::ExecutionPlan`] is compiled to shared
//!   [`DeviceProgram`]s on the worker, so the executor never rebuilds
//!   programs inline;
//! * the **executor** consumes iterations strictly in order from the
//!   bounded queue and runs each iteration's independent replica engines
//!   in parallel.
//!
//! Plans travel from worker to executor as shared `Arc`s. The paper's
//! Fig. 9 deployment, where workers serialize each lowered plan into an
//! [`InstructionStore`] and executors prefetch and decode it, is the
//! cluster runtime (`dynapipe_cluster::run_training_cluster_traced`).
//! It is built from the primitives this module shares:
//! [`PlanAheadQueue`], [`TicketGuard`], [`plan_lower_push_traced`],
//! [`decode_for_execution`], [`execute_lowered`] and
//! [`record_sim_iteration`].
//!
//! # Determinism
//!
//! The pipelined runtime is **bit-identical** to the serial driver:
//! planning is deterministic, jitter seeds are keyed by
//! `(iteration_index, replica)`, replica results are folded in replica
//! order, and iterations are recorded strictly in order. On a failure the
//! executor stops at exactly the iteration the serial driver would, with
//! the same error string; speculatively planned later iterations are
//! discarded. The produced [`RunReport`] matches the serial one in every
//! field except the wall-clock `planning_time_us` measurements (see
//! [`RunReport::behavior_eq`]), which is pinned by tests and enforced by
//! the `fig17_planahead` bench.
//!
//! # Overlap accounting
//!
//! In a real deployment, execution occupies the cluster for the
//! iteration's duration while planning occupies CPU cores. The simulator
//! compresses execution to host-microseconds, so host wall-clock alone
//! cannot show the overlap the paper measures. The runtime therefore
//! tracks the **training timeline**: a virtual clock advances by each
//! iteration's *simulated* duration, and a plan's readiness is its real
//! host timestamp. An iteration's *exposed* planning time is how long the
//! virtual clock must wait for its plan; everything else is *hidden*
//! behind execution. `pipelined_wall_us` (virtual end time) versus
//! `serial_wall_us` (Σ planning + Σ execution — the serial driver's
//! timeline, where every microsecond of planning is exposed) quantifies
//! the win; see [`RuntimeStats`]. The same methodology backs the existing
//! `fig17_planning_time` bench's planning/iteration ratios.
//!
//! # Failure semantics: poison vs. re-issue
//!
//! Two distinct failure mechanisms coexist in the queue, for two
//! distinct failure classes:
//!
//! * **poison (fail-stop)** — a planner worker *panics*: its unwind path
//!   ([`TicketGuard`]) poisons the queue (and the store, if it is given one),
//!   every blocked party re-raises, and the run dies at exactly the
//!   iteration the serial driver would have died at. A panic means the
//!   planning computation itself is broken; retrying it elsewhere would
//!   just panic again.
//! * **re-issue (recover)** — a planner worker *disappears or straggles*
//!   (scripted churn, a dead host, a slow machine): the computation is
//!   fine, only its host is gone. The executor's bounded
//!   [`PlanAheadQueue::wait_for_deadline`] detects the stall, and
//!   [`PlanAheadQueue::reissue`] hands the claimed ticket — index,
//!   mini-batch, and a bumped **generation** counter — to a surviving
//!   worker. Completions are first-wins per iteration: whichever attempt
//!   finishes first is accepted, every later duplicate is counted and
//!   discarded ([`CompleteOutcome::Stale`]) — an iteration is never
//!   double-completed, and because planning is deterministic all
//!   attempts carry byte-identical plans, so recovery can never change
//!   behavior, only cost wall-clock ([`QueueChurn`]). The elastic
//!   cluster layer (`dynapipe-cluster`) drives this path; the
//!   single-host runtime keeps the unbounded wait.

use crate::codec::{FlatPlanRef, FlatReplicaRef};
use crate::driver::{record_iteration, IterationPlanner, RunConfig, RunReport};
use crate::planner::{IterationPlan, PlanError};
use crate::store::{InstructionStore, StoredLowered, StoredOutcome, StoredPlan};
use dynapipe_batcher::PaddingStats;
use dynapipe_cost::CostModel;
use dynapipe_data::{BatchStream, Dataset, GlobalBatchConfig, Sample};
use dynapipe_model::{Bytes, Micros};
use dynapipe_sim::{DeviceProgram, Engine, EngineConfig, JitterConfig, SimResult, TraceEvent, TraceKind};
use dynapipe_trace::{ClockDomain, Span, SpanKind, TraceSink};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a pushing worker waits for a capacity slot the window
/// accounting says is free. Reaching it is a crashed-counterpart signal,
/// not normal backpressure — the push fails loudly instead of
/// deadlocking.
const STORE_WAIT: Duration = Duration::from_secs(60);

/// Configuration of the pipelined runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Bounded plan-ahead window: the planner pool may run at most this
    /// many iterations ahead of the executor (≥ 1). Bounds both
    /// speculation depth and resident compiled plans.
    pub plan_ahead: usize,
    /// Planner worker threads (≥ 1).
    pub workers: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            plan_ahead: 4,
            workers: rayon::current_num_threads().saturating_sub(1).max(1),
        }
    }
}

impl RuntimeConfig {
    /// Clamp the window and worker count to their minima.
    fn normalized(self) -> Self {
        RuntimeConfig {
            plan_ahead: self.plan_ahead.max(1),
            workers: self.workers.max(1),
        }
    }
}

/// One replica's device programs in whichever representation crossed
/// the plan-distribution boundary. The engine runs both through the same
/// [`dynapipe_sim::InstructionSource`] abstraction, bit-identically.
#[derive(Debug, Clone)]
pub enum ReplicaPrograms {
    /// Owned lowered programs, shared with the engines that run them
    /// (the in-process path).
    Owned(Arc<Vec<DeviceProgram>>),
    /// Zero-copy view into a Flat wire blob: the engine
    /// reads instruction records straight off the fetched bytes — no
    /// tree build, no owned copy.
    Flat(FlatReplicaRef),
}

impl ReplicaPrograms {
    /// Number of devices this replica's programs cover.
    pub fn num_devices(&self) -> usize {
        match self {
            ReplicaPrograms::Owned(p) => p.len(),
            ReplicaPrograms::Flat(f) => {
                dynapipe_sim::InstructionSource::num_devices(f)
            }
        }
    }
}

/// One iteration after the lowering stage: the plan plus each replica's
/// compiled device programs, ready for the engine.
pub struct CompiledIteration {
    /// The iteration plan the programs were lowered from.
    pub plan: IterationPlan,
    /// Per-replica device programs, shared with the engines that run them.
    pub programs: Vec<ReplicaPrograms>,
}

/// Lower every replica of `plan` to simulator device programs (the
/// lowering stage; pure, so programs are identical wherever lowering
/// runs). One ground-truth memo serves all replicas: padding buckets
/// repeat micro-batch shapes across replicas, so each distinct
/// `(stage, shape)` is priced once per iteration, not once per replica
/// (bit-identical either way — the memo returns the first evaluation).
pub fn lower_replicas(cm: &CostModel, plan: &IterationPlan) -> Vec<Arc<Vec<DeviceProgram>>> {
    let truth = crate::compile::GroundTruth::new(cm);
    plan.replicas
        .iter()
        .map(|r| Arc::new(crate::compile::compile_replica_with(&truth, &r.plan)))
        .collect()
}

/// Lower an owned plan into a [`CompiledIteration`].
pub fn lower_iteration(cm: &CostModel, plan: IterationPlan) -> CompiledIteration {
    let programs = lower_replicas(cm, &plan)
        .into_iter()
        .map(ReplicaPrograms::Owned)
        .collect();
    CompiledIteration { plan, programs }
}

/// Distribution accounting of one [`plan_lower_push_traced`] call.
pub struct StorePush {
    /// Worker wall-clock spent planning (µs).
    pub plan_us: f64,
    /// Worker wall-clock spent lowering (µs).
    pub lower_us: f64,
    /// Worker wall-clock spent encoding + pushing the blob (µs).
    pub serialize_us: f64,
    /// Size of the pushed wire blob.
    pub blob_bytes: usize,
    /// Whether the push was discarded at the store door because a
    /// re-issued attempt of the same iteration landed first.
    pub discarded: bool,
}

/// Trace attribution for one planner-worker ticket: where
/// [`plan_lower_push_traced`] records its phase spans.
pub struct TicketTraceCtx<'a> {
    /// Recorder (may be disabled).
    pub sink: &'a TraceSink,
    /// Worker lane the spans are attributed to.
    pub worker: i64,
    /// Global host id for export grouping.
    pub host: i64,
    /// Store shard the push lands on (-1 when single / unknown).
    pub shard: i64,
    /// Ticket generation (re-issue count).
    pub generation: u64,
}

/// The store-backed planner-worker body: plan the mini-batch, lower to
/// *owned* programs (one ground-truth memo across replicas — the plans
/// are about to cross the wire, so sharing `Arc`s buys nothing), encode
/// the Flat blob and push it keyed by `index` with put-side
/// backpressure. Planning failures are pushed too
/// ([`StoredOutcome::Failed`]) so the executor reports them at exactly
/// the serial iteration.
///
/// Under churn recovery an iteration may be planned twice (a straggling
/// original and its re-issue race byte-identical blobs to the store), so
/// the push goes through [`InstructionStore::push_discarding`]: whichever
/// lands second is counted and dropped at the door. A run without churn
/// never discards one.
///
/// Records one `Host`-domain span per phase (plan / lower / encode+push),
/// a `StorePush` marker, and a `StoreDiscard` marker when the push was
/// dropped at the door.
///
/// # Panics
///
/// If the push fails — window accounting means a healthy run never
/// blocks long enough to time out, so failure is a crashed-counterpart
/// signal. Callers hold a [`TicketGuard`], whose unwind poisons the
/// queue and store instead of deadlocking the executor.
pub fn plan_lower_push_traced(
    planner: &dyn IterationPlanner,
    store: &InstructionStore,
    index: usize,
    batch: &[Sample],
    ctx: &TicketTraceCtx<'_>,
) -> StorePush {
    let cm = planner.cost_model();
    let ticket_span = |kind: SpanKind, start_us: f64, end_us: f64, bytes: u64| Span {
        kind,
        iteration: index as i64,
        lane: ctx.worker,
        host: ctx.host,
        start_us,
        end_us,
        bytes,
        generation: ctx.generation,
        ..Span::default()
    };
    let s_plan = ctx.sink.now_us();
    // lint:allow(wall-clock): plan timing for RuntimeStats.planning_us, a stats field only
    let t_plan = Instant::now();
    let planned = planner.plan(batch);
    let plan_us = t_plan.elapsed().as_secs_f64() * 1e6;
    ctx.sink
        .record(ticket_span(SpanKind::TicketPlan, s_plan, ctx.sink.now_us(), 0));
    let s_lower = ctx.sink.now_us();
    // lint:allow(wall-clock): lowering timing for RuntimeStats stats fields only
    let t_lower = Instant::now();
    let outcome = match planned {
        Ok(plan) => {
            let truth = crate::compile::GroundTruth::new(cm);
            let programs = plan
                .replicas
                .iter()
                .map(|r| crate::compile::compile_replica_with(&truth, &r.plan))
                .collect();
            StoredOutcome::Plan(StoredLowered { plan, programs })
        }
        Err(e) => StoredOutcome::Failed(e),
    };
    let lower_us = t_lower.elapsed().as_secs_f64() * 1e6;
    ctx.sink
        .record(ticket_span(SpanKind::TicketLower, s_lower, ctx.sink.now_us(), 0));
    let s_ser = ctx.sink.now_us();
    // lint:allow(wall-clock): serialize timing for RuntimeStats.serialize_us, a stats field only
    let t_ser = Instant::now();
    let blob = crate::codec::encode_flat(&StoredPlan {
        iteration: index,
        outcome,
    });
    let blob_bytes = blob.len();
    let discarded = store
        .push_discarding(index, blob, STORE_WAIT)
        .unwrap_or_else(|e| panic!("instruction store push failed: {e}"))
        == crate::store::PushOutcome::DiscardedDuplicate;
    let e_ser = ctx.sink.now_us();
    ctx.sink
        .record(ticket_span(SpanKind::TicketEncode, s_ser, e_ser, blob_bytes as u64));
    ctx.sink.record(Span {
        lane: ctx.shard,
        bytes: blob_bytes as u64,
        ..ticket_span(SpanKind::StorePush, e_ser, e_ser, 0)
    });
    if discarded {
        ctx.sink.record(Span {
            lane: ctx.shard,
            bytes: blob_bytes as u64,
            ..ticket_span(SpanKind::StoreDiscard, e_ser, e_ser, 0)
        });
    }
    StorePush {
        plan_us,
        lower_us,
        serialize_us: t_ser.elapsed().as_secs_f64() * 1e6,
        blob_bytes,
        discarded,
    }
}

/// The engine configuration for one replica of one iteration — the single
/// source of truth shared by the serial driver and the pipelined
/// executor, so both run bit-identical simulations. Jitter seeds are
/// keyed by `(iteration_index, replica)`.
pub fn replica_engine_config(
    cm: &CostModel,
    run: &RunConfig,
    iteration_index: usize,
    replica: usize,
) -> EngineConfig {
    let c = cm.num_stages();
    // Pipeline stages sit `tp` ranks apart, so stages-per-node shrinks by
    // the tensor-parallel degree.
    let mut hw = cm.hw.clone();
    hw.gpus_per_node = (hw.gpus_per_node / cm.parallel.tp).max(1);
    EngineConfig {
        hardware: hw,
        memory_limits: (0..c).map(|j| cm.activation_budget(j)).collect(),
        allocator_mode: run.allocator,
        jitter: run.jitter.map(|j| JitterConfig {
            sigma: j.sigma,
            seed: j.seed ^ (iteration_index as u64) << 8 ^ replica as u64,
        }),
        comm_post_overhead: 2.0,
        record_trace: run.record_trace,
    }
}

/// Whether [`execute_lowered`] runs replica engines one by one or on the
/// rayon pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaParallelism {
    /// Run replicas sequentially, stopping at the first failure — the
    /// golden-reference semantics of the serial driver.
    Serial,
    /// Run the independent replica engines in parallel; results are
    /// folded in replica order, so the outcome (including which failure
    /// is reported) is bit-identical to [`ReplicaParallelism::Serial`].
    Parallel,
}

/// Measurements of one executed iteration.
pub struct IterationExecution {
    /// Simulated iteration time: worst replica makespan plus gradient
    /// sync (µs).
    pub measured_time: Micros,
    /// Measured peak activation per stage (worst replica).
    pub peak_memory: Vec<Bytes>,
    /// Total allocator stall across devices and replicas (µs).
    pub allocator_stall_us: Micros,
    /// Host wall-clock the engines spent simulating, summed over replicas
    /// (µs) — the executor-side cost in the overlap accounting.
    pub host_wall_us: f64,
    /// Per-replica simulated makespans (µs), in replica order — the
    /// cluster layer aggregates these per executor host; `measured_time`
    /// is their max plus the gradient sync.
    pub replica_makespans: Vec<Micros>,
    /// Per-replica engine op traces, in replica order. Empty per replica
    /// unless [`RunConfig::record_trace`] is set; the traced runtimes
    /// adapt these into unified `Sim`-domain `EngineOp` spans.
    pub replica_traces: Vec<Vec<TraceEvent>>,
}

/// Execute one lowered iteration's replicas and fold the results exactly
/// as the serial driver does: worst makespan, per-stage max peaks, summed
/// stalls, first failure in replica order.
///
/// Returns `Err` when `programs` does not carry exactly one entry per
/// replica of `plan`: running the replicas that happen to be present
/// would fold a partial iteration into a valid-looking result.
pub fn execute_lowered(
    cm: &CostModel,
    plan: &IterationPlan,
    programs: &[ReplicaPrograms],
    run: &RunConfig,
    iteration_index: usize,
    mode: ReplicaParallelism,
) -> Result<IterationExecution, String> {
    if plan.replicas.len() != programs.len() {
        return Err(format!(
            "plan has {} replicas but {} replica programs were supplied",
            plan.replicas.len(),
            programs.len()
        ));
    }
    let c = cm.num_stages();
    let run_replica = |ri: usize| -> Result<SimResult, String> {
        let config = replica_engine_config(cm, run, iteration_index, ri);
        match &programs[ri] {
            ReplicaPrograms::Owned(p) => {
                Engine::with_shared(config, p.clone()).run()
            }
            ReplicaPrograms::Flat(f) => {
                Engine::from_source(config, f.clone()).run()
            }
        }
        .map_err(|e| e.to_string())
    };
    let mut exec = IterationExecution {
        measured_time: 0.0,
        peak_memory: vec![0u64; c],
        allocator_stall_us: 0.0,
        host_wall_us: 0.0,
        replica_makespans: Vec::with_capacity(programs.len()),
        replica_traces: Vec::with_capacity(programs.len()),
    };
    let mut worst_makespan: Micros = 0.0;
    let mut makespans: Vec<Micros> = Vec::with_capacity(programs.len());
    let mut fold = |result: SimResult| {
        makespans.push(result.makespan);
        exec.replica_traces.push(result.trace);
        worst_makespan = worst_makespan.max(result.makespan);
        for (j, &p) in result.peak_memory.iter().enumerate() {
            exec.peak_memory[j] = exec.peak_memory[j].max(p);
        }
        exec.allocator_stall_us += result
            .allocator_stats
            .iter()
            .map(|s| s.stall_us)
            .sum::<Micros>();
        exec.host_wall_us += result.host_wall_us;
    };
    match mode {
        ReplicaParallelism::Serial => {
            for ri in 0..programs.len() {
                fold(run_replica(ri)?);
            }
        }
        ReplicaParallelism::Parallel => {
            let results: Vec<Result<SimResult, String>> =
                (0..programs.len()).into_par_iter().map(run_replica).collect();
            for result in results {
                fold(result?);
            }
        }
    }
    drop(fold);
    exec.replica_makespans = makespans;
    exec.measured_time = worst_makespan + plan.dp_sync_time;
    Ok(exec)
}

/// Decode the wire blob fetched for iteration `expected` into its
/// executable form: either the plan with per-replica programs or the
/// planner failure stored in its place.
///
/// The Flat arena is validated once and handed back as
/// [`ReplicaPrograms::Flat`] views over the very same bytes — the engines
/// execute straight over the wire blob; only the small plan-metadata
/// section is materialized.
///
/// A blob that decodes but does not fit the fetch is an `Err`, never a
/// smaller iteration: the blob must name iteration `expected`, and a plan
/// must carry exactly one program set per replica.
#[allow(clippy::type_complexity)]
pub fn decode_for_execution(
    blob: Arc<[u8]>,
    expected: usize,
) -> Result<Result<(IterationPlan, Vec<ReplicaPrograms>), PlanError>, String> {
    let flat = FlatPlanRef::new(blob).map_err(|e| e.to_string())?;
    if flat.iteration() != expected {
        return Err(format!(
            "blob carries iteration {}, fetched for iteration {expected}",
            flat.iteration()
        ));
    }
    if flat.is_failed() {
        return Ok(Err(flat.failure().map_err(|e| e.to_string())?));
    }
    let plan = flat.plan().map_err(|e| e.to_string())?;
    if plan.replicas.len() != flat.num_replicas() {
        return Err(format!(
            "plan has {} replicas but the blob carries {} replica programs",
            plan.replicas.len(),
            flat.num_replicas()
        ));
    }
    let programs = flat.replicas().into_iter().map(ReplicaPrograms::Flat).collect();
    Ok(Ok((plan, programs)))
}

/// A planned (and lowered) iteration travelling through the plan-ahead
/// queue to the executor.
struct PlannedIteration {
    outcome: Result<CompiledIteration, PlanError>,
    /// Worker wall-clock spent planning (µs).
    plan_us: f64,
    /// Worker wall-clock spent lowering (µs).
    lower_us: f64,
    /// Host time since run start when the outcome landed in the queue (µs).
    ready_at_us: f64,
}

/// What the executor receives for an iteration index.
pub enum WaitOutcome<T> {
    /// The iteration's planned payload.
    Planned(T),
    /// The epoch ended before this iteration.
    EndOfEpoch,
    /// The run was cancelled (executor failure/teardown) before this
    /// iteration completed planning — only ever observed by a consumer
    /// running ahead of the executor (e.g. the cluster prefetcher).
    Cancelled,
    /// A bounded [`PlanAheadQueue::wait_for_deadline`] gave up waiting:
    /// the plan is still outstanding after the deadline. The caller
    /// decides what that means — typically a straggler/crash suspicion
    /// followed by [`PlanAheadQueue::reissue`]. The plain
    /// [`PlanAheadQueue::wait_for`] never returns this.
    Deadline,
}

/// A claimed planning assignment: which iteration to plan, which attempt
/// this is, and the mini-batch (shared with the queue so the ticket can
/// be re-issued to another worker without re-reading the stream).
pub struct Ticket {
    /// Iteration index (== stream index).
    pub index: usize,
    /// Attempt number for this iteration: 0 for the original claim,
    /// bumped by every re-issue. Passed back to
    /// [`PlanAheadQueue::complete`] so late duplicate attempts are
    /// detected and discarded.
    pub generation: u64,
    /// The iteration's mini-batch.
    pub batch: Arc<Vec<Sample>>,
}

/// A claimed-but-not-completed iteration, retained by the queue so the
/// ticket can be re-issued if its holder crashes or straggles.
struct Inflight {
    batch: Arc<Vec<Sample>>,
    /// Current attempt number; completions carrying an older number are
    /// from attempts that were re-issued past.
    generation: u64,
    /// Global worker index of the current holder (for crash-triggered
    /// re-issue of everything a dead host held).
    owner: usize,
    /// Whether the ticket sits in the re-issue queue awaiting a new
    /// claimant (guards against double-queueing).
    queued: bool,
    /// When the current attempt was claimed — re-issue only fires on
    /// attempts older than the caller's deadline, so a freshly
    /// re-claimed ticket is not immediately invalidated again.
    claimed_at: Instant,
}

/// Churn counters of a [`PlanAheadQueue`] (see
/// [`PlanAheadQueue::churn_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueChurn {
    /// Tickets re-issued to a new claimant (deadline, crash, abandon).
    pub reissued: u64,
    /// Completions discarded because the iteration was already completed
    /// by another attempt (a late straggler's duplicate).
    pub stale_completions: u64,
}

/// What [`PlanAheadQueue::complete`] did with a delivered completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompleteOutcome {
    /// The completion was accepted; the executor will consume it.
    Accepted,
    /// Discarded: another attempt already completed this iteration (the
    /// caller's work was wasted, not wrong — attempts are deterministic,
    /// so every attempt produces the identical plan).
    Stale,
    /// Discarded: the run was cancelled (speculative work past a
    /// failure).
    Cancelled,
}

struct QueueState<T> {
    /// Next iteration index the planner pool will claim.
    next_ticket: usize,
    /// Next iteration index the executor will consume.
    next_consume: usize,
    /// Total iterations in the epoch, once the stream dries.
    epoch_len: Option<usize>,
    /// Set by the executor on failure/teardown: workers stop claiming.
    cancelled: bool,
    /// Set when a planner worker panicked mid-iteration: its claimed
    /// ticket will never be fulfilled, so the executor must re-raise
    /// instead of waiting forever.
    worker_panicked: bool,
    /// Completed, not-yet-consumed iterations.
    ready: BTreeMap<usize, T>,
    /// High-water mark of `ready` (bounded by the window).
    max_ready: usize,
    /// Claimed, not-yet-completed iterations (ticket + batch retained
    /// for re-issue).
    inflight: BTreeMap<usize, Inflight>,
    /// Tickets awaiting a new claimant after a re-issue; served before
    /// fresh stream claims (they are older, and the executor is waiting
    /// on them).
    reissue_queue: std::collections::VecDeque<usize>,
    churn: QueueChurn,
}

/// The bounded plan-ahead queue between a planner pool and an in-order
/// executor, generic over the planned payload `T` (this runtime's
/// [`PlannedIteration`]; the cluster layer's host-annotated receipt).
/// Claiming a ticket pulls the matching mini-batch from the
/// stream under the queue lock, so ticket order always equals stream
/// order; the window condition `next_ticket < next_consume + plan_ahead`
/// bounds both speculation and resident compiled plans.
///
/// # Re-issue and generations (elastic membership)
///
/// Every claimed ticket is retained (batch included) until its
/// completion is accepted, so a ticket whose holder crashes or
/// straggles can be **re-issued** to a healthy worker:
///
/// * [`PlanAheadQueue::wait_for_deadline`] is the executor's bounded
///   wait — on [`WaitOutcome::Deadline`] the caller may call
///   [`PlanAheadQueue::reissue`], which bumps the ticket's generation
///   and hands it to the next claimant (re-issued tickets are served
///   before fresh stream claims);
/// * completions are **first-wins**: planning is deterministic, so every
///   attempt produces the identical plan — the first completion for an
///   iteration is accepted no matter which generation produced it, and
///   every later one is discarded as [`CompleteOutcome::Stale`]
///   (counted, never double-executed). First-wins also means a
///   too-short deadline can never livelock the queue: a spurious
///   re-issue wastes a replan, it cannot invalidate the attempt that
///   finishes first;
/// * a worker that knows it is "dead" (scripted churn) hands a claimed
///   ticket back with [`PlanAheadQueue::abandon`]; an executor that
///   learns a whole host died re-issues everything it held via
///   [`PlanAheadQueue::reissue_claimed_by`].
///
/// `claim` returning `None` still means "nothing left for *you*": at
/// epoch end the pool drains only once no ticket is in flight, so a
/// ticket abandoned by a crashing worker always finds a surviving
/// claimant instead of stranding the executor.
pub struct PlanAheadQueue<T> {
    state: Mutex<QueueState<T>>,
    cv: Condvar,
    window: usize,
    cap: usize,
}

impl<T> PlanAheadQueue<T> {
    /// A queue bounded to `window` in-flight iterations, planning at most
    /// `cap` iterations in total.
    pub fn new(window: usize, cap: usize) -> Self {
        PlanAheadQueue {
            state: Mutex::new(QueueState {
                next_ticket: 0,
                next_consume: 0,
                epoch_len: None,
                cancelled: false,
                worker_panicked: false,
                ready: BTreeMap::new(),
                max_ready: 0,
                inflight: BTreeMap::new(),
                reissue_queue: std::collections::VecDeque::new(),
                churn: QueueChurn::default(),
            }),
            cv: Condvar::new(),
            window,
            cap,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Claim the next iteration to plan as worker `owner`, blocking while
    /// the window is full. Re-issued tickets are served first. Returns
    /// `None` once there is nothing left to plan (epoch end with no
    /// ticket in flight, iteration cap, or cancellation).
    pub fn claim<D: std::ops::Deref<Target = Dataset>>(
        &self,
        stream: &BatchStream<D>,
        owner: usize,
    ) -> Option<Ticket> {
        let mut st = self.lock();
        loop {
            if st.cancelled {
                return None;
            }
            // Re-issued tickets first: they are within the window by
            // construction (claimed before), and the executor is
            // blocked on them right now.
            if let Some(index) = st.reissue_queue.pop_front() {
                let e = st
                    .inflight
                    .get_mut(&index)
                    .expect("re-issue queue only holds in-flight tickets");
                e.queued = false;
                e.owner = owner;
                // lint:allow(wall-clock): re-issue deadline bookkeeping; expiry widens waits, never changes plan bytes
                e.claimed_at = Instant::now();
                return Some(Ticket {
                    index,
                    generation: e.generation,
                    batch: e.batch.clone(),
                });
            }
            let drained = st.next_ticket >= self.cap
                || st.epoch_len.is_some_and(|len| st.next_ticket >= len);
            if drained {
                // Nothing fresh to claim — but a ticket still in flight
                // may yet come back for re-issue (crash/straggle), so
                // the pool only drains once the last ticket completes.
                if st.inflight.is_empty() {
                    return None;
                }
            } else if st.next_ticket < st.next_consume + self.window {
                // Pull under the queue lock: ticket index == stream index.
                match stream.next_batch() {
                    Some((idx, batch)) => {
                        debug_assert_eq!(idx, st.next_ticket);
                        st.next_ticket += 1;
                        let batch = Arc::new(batch);
                        st.inflight.insert(
                            idx,
                            Inflight {
                                batch: batch.clone(),
                                generation: 0,
                                owner,
                                queued: false,
                                // lint:allow(wall-clock): claim timestamp for deadline expiry; affects wall-clock, not behavior
                                claimed_at: Instant::now(),
                            },
                        );
                        return Some(Ticket {
                            index: idx,
                            generation: 0,
                            batch,
                        });
                    }
                    None => {
                        st.epoch_len = Some(st.next_ticket);
                        self.cv.notify_all();
                        continue; // re-evaluate as drained
                    }
                }
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Deliver a planned iteration (worker side). Completions are
    /// first-wins per iteration: the first one is accepted (whatever its
    /// generation — attempts are deterministic, so all produce the same
    /// plan, and accepting the earliest also cancels a pending re-issue
    /// that no worker picked up yet); any later duplicate is discarded
    /// as [`CompleteOutcome::Stale`], so an iteration is never
    /// double-executed.
    pub fn complete(&self, index: usize, generation: u64, planned: T) -> CompleteOutcome {
        let mut st = self.lock();
        match st.inflight.remove(&index) {
            None => {
                // Already completed by another attempt: a late
                // straggler's duplicate. Discard, never overwrite — and
                // count it even if the run has since been cancelled (a
                // straggler that outlives the epoch is still a recovery
                // the churn accounting must show).
                st.churn.stale_completions += 1;
                CompleteOutcome::Stale
            }
            Some(e) => {
                if st.cancelled {
                    return CompleteOutcome::Cancelled; // speculative work past a failure
                }
                if e.queued {
                    // The original came through before any worker picked
                    // up the re-issue: withdraw it, nothing to replan.
                    st.reissue_queue.retain(|&i| i != index);
                }
                debug_assert!(generation <= e.generation, "generations only move forward");
                st.ready.insert(index, planned);
                debug_assert!(st.ready.len() <= self.window);
                st.max_ready = st.max_ready.max(st.ready.len());
                self.cv.notify_all();
                CompleteOutcome::Accepted
            }
        }
    }

    /// Re-issue iteration `index` to a new claimant if its current
    /// attempt has been in flight for at least `min_age` (typically the
    /// caller's wait deadline, so a freshly re-claimed ticket is not
    /// instantly invalidated again). Returns whether a re-issue was
    /// queued — `false` if the ticket completed meanwhile, was never
    /// claimed (the pool is merely behind, not stuck), or is already
    /// queued for re-claim.
    pub fn reissue(&self, index: usize, min_age: Duration) -> bool {
        let mut st = self.lock();
        let Some(e) = st.inflight.get_mut(&index) else {
            return false;
        };
        if e.queued || e.claimed_at.elapsed() < min_age {
            return false;
        }
        e.generation += 1;
        e.queued = true;
        st.reissue_queue.push_back(index);
        st.churn.reissued += 1;
        self.cv.notify_all();
        true
    }

    /// Hand a claimed ticket back without completing it (a worker that
    /// learned its host "crashed" between claim and plan): the ticket is
    /// re-queued for the surviving workers under a fresh generation.
    /// No-op unless `owner` still holds the current attempt — a crashed
    /// worker whose ticket was already re-issued to (and claimed by) a
    /// healthy worker must not invalidate that live attempt.
    pub fn abandon(&self, index: usize, owner: usize) {
        let mut st = self.lock();
        let Some(e) = st.inflight.get_mut(&index) else {
            return; // completed concurrently — nothing to hand back
        };
        if e.queued || e.owner != owner {
            return;
        }
        e.generation += 1;
        e.queued = true;
        st.reissue_queue.push_back(index);
        st.churn.reissued += 1;
        self.cv.notify_all();
    }

    /// Re-issue every in-flight ticket whose current holder satisfies
    /// `owned_by` (crash recovery: the executor learned a planner host
    /// died, so everything its workers held is handed to the survivors).
    /// Returns how many tickets were re-queued.
    pub fn reissue_claimed_by(&self, owned_by: impl Fn(usize) -> bool) -> usize {
        let mut st = self.lock();
        // BTreeMap iteration is index-ordered, so the re-claim order is
        // deterministic by construction — no sort needed.
        let indices: Vec<usize> = st
            .inflight
            .iter()
            .filter(|(_, e)| !e.queued && owned_by(e.owner))
            .map(|(&i, _)| i)
            .collect();
        for &index in &indices {
            let e = st.inflight.get_mut(&index).expect("just listed");
            e.generation += 1;
            e.queued = true;
            st.reissue_queue.push_back(index);
            st.churn.reissued += 1;
        }
        if !indices.is_empty() {
            self.cv.notify_all();
        }
        indices.len()
    }

    /// Block until iteration `index`'s outcome is available (executor
    /// side, strictly in order). Does **not** free the iteration's
    /// window slot: call [`PlanAheadQueue::advance`] once the payload is
    /// fully claimed (with a store in between, that is after the blob is
    /// taken, so window slots count store occupancy).
    ///
    /// # Panics
    ///
    /// Re-raises if a planner worker panicked: its claimed ticket will
    /// never arrive, and waiting on would deadlock (the worker's own
    /// panic surfaces when the scope joins it).
    pub fn wait_for(&self, index: usize) -> WaitOutcome<T> {
        match self.wait_for_deadline(index, None) {
            WaitOutcome::Deadline => unreachable!("unbounded wait cannot time out"),
            outcome => outcome,
        }
    }

    /// [`PlanAheadQueue::wait_for`] with a bounded wait: returns
    /// [`WaitOutcome::Deadline`] if the plan is still outstanding after
    /// `deadline` — the fail-stop alternative was an executor that hangs
    /// forever on a planner that dies without panicking. The caller
    /// typically responds with [`PlanAheadQueue::reissue`] and waits
    /// again. `None` waits unboundedly.
    pub fn wait_for_deadline(
        &self,
        index: usize,
        deadline: Option<Duration>,
    ) -> WaitOutcome<T> {
        // lint:allow(wall-clock): bounded-wait deadline; first-completion-wins keeps results bit-identical
        let give_up = deadline.map(|d| Instant::now() + d);
        let mut st = self.lock();
        loop {
            if st.worker_panicked {
                panic!("a planner worker panicked while planning ahead");
            }
            if let Some(planned) = st.ready.remove(&index) {
                return WaitOutcome::Planned(planned);
            }
            if let Some(len) = st.epoch_len {
                if index >= len {
                    return WaitOutcome::EndOfEpoch;
                }
            }
            if st.cancelled {
                return WaitOutcome::Cancelled;
            }
            match give_up {
                None => st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner()),
                Some(dl) => {
                    // lint:allow(wall-clock): deadline re-check in the bounded wait loop; wall-clock only
                    let now = Instant::now();
                    if now >= dl {
                        return WaitOutcome::Deadline;
                    }
                    let (guard, _) = self
                        .cv
                        .wait_timeout(st, dl - now)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
            }
        }
    }

    /// Churn counters: re-issues and discarded stale completions.
    pub fn churn_stats(&self) -> QueueChurn {
        self.lock().churn
    }

    /// Release iteration `index`'s window slot so the planner pool may
    /// claim another ticket.
    pub fn advance(&self, index: usize) {
        let mut st = self.lock();
        st.next_consume = index + 1;
        self.cv.notify_all();
    }

    /// Stop the planner pool (failure or normal teardown).
    pub fn cancel(&self) {
        let mut st = self.lock();
        st.cancelled = true;
        self.cv.notify_all();
    }

    /// Poison the queue from a panicking worker's unwind path: wake the
    /// executor so it re-raises, and stop the other workers.
    pub fn poison(&self) {
        let mut st = self.lock();
        st.worker_panicked = true;
        st.cancelled = true;
        self.cv.notify_all();
    }

    /// High-water mark of planned-but-unconsumed iterations.
    pub fn max_ready(&self) -> usize {
        self.lock().max_ready
    }
}

/// Unwind guard for a planner worker holding a claimed ticket: if the
/// planner, the lowering stage, or the store push panics, the ticket
/// would never be completed and the executor's in-order wait would
/// deadlock. Dropping the armed guard during unwind poisons the queue —
/// and the store, when there is one, so an executor blocked in
/// `take_blocking` fails too — so the executor re-raises and the panic
/// propagates through the scope join.
pub struct TicketGuard<'a, T> {
    queue: &'a PlanAheadQueue<T>,
    store: Option<&'a InstructionStore>,
    armed: bool,
}

impl<'a, T> TicketGuard<'a, T> {
    /// Arm a guard for a freshly claimed ticket; pass the store the
    /// worker pushes into so a panic poisons it too.
    pub fn new(queue: &'a PlanAheadQueue<T>, store: Option<&'a InstructionStore>) -> Self {
        TicketGuard {
            queue,
            store,
            armed: true,
        }
    }

    /// Disarm after the ticket was completed: the worker fulfilled its
    /// promise, so an unwind past this point poisons nothing.
    pub fn disarm(mut self) {
        self.armed = false;
    }
}

impl<T> Drop for TicketGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            if let Some(store) = self.store {
                store.poison("planner worker panicked while planning ahead");
            }
            self.queue.poison();
        }
    }
}

/// Record one executed iteration's `Sim`-domain spans on the ideal
/// simulated timeline (`sim_clock`): per-replica execution intervals,
/// the gradient-sync tail, and (when the engines recorded op traces)
/// each engine op offset into the iteration's window. Everything here
/// derives from behavior-pinned simulated quantities, so the recorded
/// spans are bit-identical across reruns, placements and churn — the
/// [`dynapipe_trace::sim_eq`] contract. Shared verbatim by the
/// single-host executor and the cluster fold.
pub fn record_sim_iteration(
    sink: &TraceSink,
    it: usize,
    exec: &IterationExecution,
    sim_clock: &mut f64,
) {
    let t0 = *sim_clock;
    *sim_clock += exec.measured_time;
    if !sink.is_enabled() {
        return;
    }
    let mut worst: f64 = 0.0;
    for (r, &mk) in exec.replica_makespans.iter().enumerate() {
        worst = worst.max(mk);
        sink.record(Span {
            domain: ClockDomain::Sim,
            kind: SpanKind::IterExec,
            iteration: it as i64,
            lane: r as i64,
            start_us: t0,
            end_us: t0 + mk,
            ..Span::default()
        });
        for e in &exec.replica_traces[r] {
            sink.record(Span {
                domain: ClockDomain::Sim,
                kind: SpanKind::EngineOp,
                iteration: it as i64,
                lane: r as i64,
                start_us: t0 + e.start,
                end_us: t0 + e.end,
                // EngineOp spans repurpose `generation` as the op class:
                // 0 forward, 1 backward, 2 transfer, 3 allocator stall.
                generation: match e.kind {
                    TraceKind::Forward => 0,
                    TraceKind::Backward => 1,
                    TraceKind::Transfer => 2,
                    TraceKind::AllocStall => 3,
                },
                src: e.device as i64,
                dst: if e.peer == usize::MAX { -1 } else { e.peer as i64 },
                ..Span::default()
            });
        }
    }
    sink.record(Span {
        domain: ClockDomain::Sim,
        kind: SpanKind::IterSync,
        iteration: it as i64,
        start_us: t0 + worst,
        end_us: t0 + exec.measured_time,
        ..Span::default()
    });
}

/// Execute one planned iteration and fold it into the report and stats;
/// returns `false` when the run must stop (planning or execution
/// failure).
#[allow(clippy::too_many_arguments)]
fn fold_planned(
    cm: &CostModel,
    run: &RunConfig,
    it: usize,
    planned: PlannedIteration,
    report: &mut RunReport,
    stats: &mut RuntimeStats,
    vclock: &mut f64,
    sink: &TraceSink,
    sim_clock: &mut f64,
) -> bool {
    let compiled = match planned.outcome {
        Ok(c) => c,
        Err(e) => {
            report.failure = Some(format!("iteration {it}: {e}"));
            return false;
        }
    };
    let exec = match execute_lowered(
        cm,
        &compiled.plan,
        &compiled.programs,
        run,
        it,
        ReplicaParallelism::Parallel,
    ) {
        Ok(x) => x,
        Err(e) => {
            report.failure = Some(format!("iteration {it}: {e}"));
            return false;
        }
    };
    // Overlap accounting on the training timeline: the virtual clock
    // waits until the plan is ready, then advances by the simulated
    // execution.
    let exposed = (planned.ready_at_us - *vclock).max(0.0);
    if exposed > 0.0 {
        sink.record(Span {
            kind: SpanKind::ExposedPlanning,
            iteration: it as i64,
            host: 0,
            start_us: *vclock,
            end_us: planned.ready_at_us,
            // The exact ledger term added to `RuntimeStats::exposed_us`,
            // so Σ span ledgers reconciles bitwise with the counter.
            wait_us: exposed,
            ..Span::default()
        });
    }
    record_sim_iteration(sink, it, &exec, sim_clock);
    *vclock = (*vclock).max(planned.ready_at_us) + exec.measured_time;
    stats.planning_us.push(planned.plan_us + planned.lower_us);
    stats.exec_sim_us.push(exec.measured_time);
    stats.exposed_us.push(exposed);
    stats.exec_host_us += exec.host_wall_us;
    record_iteration(
        report,
        cm,
        &compiled.plan,
        exec.measured_time,
        exec.peak_memory,
        exec.allocator_stall_us,
    );
    true
}

/// Timing breakdown of a pipelined run — the data behind
/// `BENCH_runtime.json` and the paper's "planning is fully overlapped"
/// argument. All `_us` values are microseconds; see the module docs for
/// the training-timeline semantics.
#[derive(Debug, Clone)]
pub struct RuntimeStats {
    /// Per executed iteration: worker time spent planning + lowering.
    pub planning_us: Vec<f64>,
    /// Per executed iteration: simulated execution time.
    pub exec_sim_us: Vec<f64>,
    /// Per executed iteration: planning time exposed on the training
    /// timeline (the virtual clock waited this long for the plan).
    pub exposed_us: Vec<f64>,
    /// End of the training timeline: Σ execution + exposed planning.
    pub pipelined_wall_us: f64,
    /// Real host wall-clock of the whole pipelined run.
    pub host_wall_us: f64,
    /// Host time spent inside the simulation engines.
    pub exec_host_us: f64,
    /// High-water mark of planned-but-unconsumed iterations (≤ window).
    pub max_plans_resident: usize,
    /// Planner pool size used.
    pub workers: usize,
    /// Plan-ahead window used.
    pub plan_ahead: usize,
}

impl RuntimeStats {
    /// Total planning + lowering time across iterations (µs).
    pub fn total_planning_us(&self) -> f64 {
        // `+ 0.0` normalizes std's empty-f64-sum identity of -0.0, which
        // would otherwise leak a literal "-0.0" into the JSON artifacts.
        self.planning_us.iter().sum::<f64>() + 0.0
    }

    /// Planning time exposed on the training timeline (µs).
    pub fn exposed_planning_us(&self) -> f64 {
        self.exposed_us.iter().sum::<f64>() + 0.0
    }

    /// Planning time hidden behind execution (µs).
    pub fn hidden_planning_us(&self) -> f64 {
        (self.total_planning_us() - self.exposed_planning_us()).max(0.0)
    }

    /// Fraction of planning hidden behind execution, in [0, 1].
    pub fn overlap_ratio(&self) -> f64 {
        let total = self.total_planning_us();
        if total <= 0.0 {
            return 1.0;
        }
        self.hidden_planning_us() / total
    }

    /// The serial driver's training timeline for the same work:
    /// every microsecond of planning exposed, then execution.
    pub fn serial_wall_us(&self) -> f64 {
        self.total_planning_us() + self.exec_sim_us.iter().sum::<f64>()
    }

    /// The counter ledger a trace of this run must reconcile against
    /// (see `dynapipe_trace::Trace::reconcile`). Plans never leave the
    /// process, so every wire and store field is zero.
    pub fn trace_meta(&self, label: &str) -> dynapipe_trace::TraceMeta {
        dynapipe_trace::TraceMeta {
            label: label.to_string(),
            iterations: self.exec_sim_us.len() as u64,
            exec_sim_us: self.exec_sim_us.iter().sum::<f64>() + 0.0,
            exposed_us: self.exposed_planning_us(),
            wall_us: self.pipelined_wall_us,
            ..dynapipe_trace::TraceMeta::default()
        }
    }
}

/// Run (a prefix of) one training epoch on the pipelined plan-ahead
/// runtime, recording spans into `sink` (pass
/// [`TraceSink::disabled`] to record nothing): the ticket lifecycle as
/// `Host`-domain spans, the executed iterations as `Sim`-domain spans on
/// the ideal simulated timeline (see [`record_sim_iteration`]).
///
/// The produced [`RunReport`] is bit-identical to
/// [`crate::driver::run_training`] with the same arguments, except for
/// the wall-clock `planning_time_us` fields (see
/// [`RunReport::behavior_eq`]); the accompanying [`RuntimeStats`] carries
/// the overlap accounting.
pub fn run_training_pipelined_traced(
    planner: &dyn IterationPlanner,
    dataset: &Dataset,
    gbs: GlobalBatchConfig,
    run: RunConfig,
    config: RuntimeConfig,
    sink: &TraceSink,
) -> (RunReport, RuntimeStats) {
    let config = config.normalized();
    let cm = planner.cost_model();
    let cap = run.max_iterations.unwrap_or(usize::MAX);
    let stream = BatchStream::new(dataset, gbs);
    let queue = PlanAheadQueue::new(config.plan_ahead, cap);
    // lint:allow(wall-clock): host wall-clock for RuntimeStats.host_wall_us, excluded from behavior_eq
    let t0 = Instant::now();

    let mut report = RunReport {
        planner: planner.label(),
        records: Vec::new(),
        total_tokens: 0,
        total_time_us: 0.0,
        padding: PaddingStats::default(),
        failure: None,
    };
    let mut stats = RuntimeStats {
        planning_us: Vec::new(),
        exec_sim_us: Vec::new(),
        exposed_us: Vec::new(),
        pipelined_wall_us: 0.0,
        host_wall_us: 0.0,
        exec_host_us: 0.0,
        max_plans_resident: 0,
        workers: config.workers,
        plan_ahead: config.plan_ahead,
    };

    std::thread::scope(|scope| {
        for worker in 0..config.workers {
            let queue = &queue;
            let stream = &stream;
            scope.spawn(move || {
                while let Some(ticket) = queue.claim(stream, worker) {
                    let (index, batch) = (ticket.index, &ticket.batch);
                    let ticket_span = |kind: SpanKind, start_us: f64, end_us: f64| Span {
                        kind,
                        iteration: index as i64,
                        lane: worker as i64,
                        host: 0,
                        start_us,
                        end_us,
                        generation: ticket.generation,
                        ..Span::default()
                    };
                    let claim_at = sink.now_us();
                    sink.record(ticket_span(SpanKind::TicketClaim, claim_at, claim_at));
                    let guard = TicketGuard::new(queue, None);
                    // The lowering stage runs on the worker, so the
                    // executor receives ready-to-run programs.
                    let s_plan = sink.now_us();
                    // lint:allow(wall-clock): plan timing for RuntimeStats.planning_us, a stats field only
                    let t_plan = Instant::now();
                    let planned = planner.plan(batch);
                    let plan_us = t_plan.elapsed().as_secs_f64() * 1e6;
                    sink.record(ticket_span(SpanKind::TicketPlan, s_plan, sink.now_us()));
                    let s_lower = sink.now_us();
                    // lint:allow(wall-clock): lowering timing for RuntimeStats stats fields only
                    let t_lower = Instant::now();
                    let outcome = planned.map(|p| lower_iteration(cm, p));
                    let lower_us = t_lower.elapsed().as_secs_f64() * 1e6;
                    sink.record(ticket_span(SpanKind::TicketLower, s_lower, sink.now_us()));
                    let planned = PlannedIteration {
                        outcome,
                        plan_us,
                        lower_us,
                        ready_at_us: t0.elapsed().as_secs_f64() * 1e6,
                    };
                    let outcome = queue.complete(index, ticket.generation, planned);
                    let done_at = sink.now_us();
                    sink.record(Span {
                        // `bytes` flags acceptance: 1 accepted, 0 stale/cancelled.
                        bytes: (outcome == CompleteOutcome::Accepted) as u64,
                        ..ticket_span(SpanKind::TicketComplete, done_at, done_at)
                    });
                    guard.disarm();
                }
            });
        }

        // The executor: consume strictly in order on the caller thread.
        let mut vclock = 0.0f64;
        let mut sim_clock = 0.0f64;
        for it in 0..cap {
            let planned = match queue.wait_for(it) {
                WaitOutcome::EndOfEpoch => break,
                WaitOutcome::Cancelled => {
                    unreachable!("only the executor cancels, after this loop")
                }
                WaitOutcome::Deadline => unreachable!("wait_for is unbounded"),
                WaitOutcome::Planned(p) => p,
            };
            queue.advance(it);
            if !fold_planned(
                cm,
                &run,
                it,
                planned,
                &mut report,
                &mut stats,
                &mut vclock,
                sink,
                &mut sim_clock,
            ) {
                break;
            }
        }
        stats.pipelined_wall_us = vclock;
        // Teardown: stop workers that are waiting on the window or about
        // to claim past a failure.
        queue.cancel();
    });

    stats.host_wall_us = t0.elapsed().as_secs_f64() * 1e6;
    stats.max_plans_resident = queue.max_ready();
    (report, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_training, simulate_iteration};
    use crate::planner::{DynaPipePlanner, PlannerConfig};
    use dynapipe_cost::ProfileOptions;
    use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};

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

    #[test]
    fn parallel_replica_execution_matches_serial_fold() {
        // The satellite invariant: replicas are independent engines, and
        // the parallel fold (worst makespan, per-stage max peaks, summed
        // stalls) must reproduce the serial loop bit for bit.
        let cm = cost_model(2, 2);
        let planner = DynaPipePlanner::new(cm.clone(), PlannerConfig::default());
        let dataset = Dataset::flanv2(61, 400);
        let run = RunConfig::default();
        let stream = BatchStream::new(&dataset, gbs());
        for _ in 0..2 {
            let (it, mb) = stream.next_batch().unwrap();
            let plan = planner.plan_iteration(&mb).unwrap();
            assert_eq!(plan.replicas.len(), 2);
            let programs: Vec<_> = lower_replicas(&cm, &plan)
                .into_iter()
                .map(ReplicaPrograms::Owned)
                .collect();
            let serial =
                execute_lowered(&cm, &plan, &programs, &run, it, ReplicaParallelism::Serial)
                    .unwrap();
            let parallel =
                execute_lowered(&cm, &plan, &programs, &run, it, ReplicaParallelism::Parallel)
                    .unwrap();
            assert_eq!(
                serial.measured_time.to_bits(),
                parallel.measured_time.to_bits()
            );
            assert_eq!(serial.peak_memory, parallel.peak_memory);
            assert_eq!(
                serial.allocator_stall_us.to_bits(),
                parallel.allocator_stall_us.to_bits()
            );
            // And the refactored serial path still backs simulate_iteration.
            let (m, p, s) = simulate_iteration(&cm, &plan, &run, it).unwrap();
            assert_eq!(m.to_bits(), serial.measured_time.to_bits());
            assert_eq!(p, serial.peak_memory);
            assert_eq!(s.to_bits(), serial.allocator_stall_us.to_bits());
        }
    }

    #[test]
    fn pipelined_report_matches_serial_driver() {
        let cm = cost_model(2, 1);
        let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
        let dataset = Dataset::flanv2(31, 400);
        let run = RunConfig {
            max_iterations: Some(3),
            ..Default::default()
        };
        let serial = run_training(&planner, &dataset, gbs(), run);
        let (pipelined, stats) = run_training_pipelined_traced(
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
        serial.behavior_eq(&pipelined).unwrap();
        assert_eq!(stats.planning_us.len(), 3);
        assert!(stats.max_plans_resident <= 2, "window must bound the queue");
        assert!(stats.pipelined_wall_us > 0.0);
        assert!(
            stats.pipelined_wall_us <= stats.serial_wall_us(),
            "plan-ahead can only remove planning from the timeline"
        );
        assert!((0.0..=1.0).contains(&stats.overlap_ratio()));
    }

    #[test]
    fn planner_worker_panic_propagates_instead_of_deadlocking() {
        // A panicking worker leaves its claimed ticket unfulfilled; the
        // queue must poison itself so the executor re-raises rather than
        // waiting forever (the serial driver would have propagated the
        // panic directly).
        struct PanickingPlanner(Arc<CostModel>);
        impl IterationPlanner for PanickingPlanner {
            fn plan(&self, _: &[Sample]) -> Result<IterationPlan, PlanError> {
                panic!("injected planner panic");
            }
            fn cost_model(&self) -> &CostModel {
                &self.0
            }
            fn label(&self) -> String {
                "panicking".to_string()
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let planner = PanickingPlanner(cost_model(2, 1));
            let dataset = Dataset::flanv2(37, 200);
            let run = RunConfig {
                max_iterations: Some(3),
                ..Default::default()
            };
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_training_pipelined_traced(
                    &planner,
                    &dataset,
                    gbs(),
                    run,
                    RuntimeConfig::default(),
                    &TraceSink::disabled(),
                )
            }))
            .is_err();
            let _ = tx.send(panicked);
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("pipelined run must terminate, not deadlock");
        assert!(panicked, "worker panic must propagate to the caller");
    }

    #[test]
    fn zero_iteration_cap_produces_empty_report() {
        let cm = cost_model(2, 1);
        let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
        let dataset = Dataset::flanv2(33, 200);
        let run = RunConfig {
            max_iterations: Some(0),
            ..Default::default()
        };
        let serial = run_training(&planner, &dataset, gbs(), run);
        let (pipelined, stats) = run_training_pipelined_traced(
            &planner,
            &dataset,
            gbs(),
            run,
            RuntimeConfig::default(),
            &TraceSink::disabled(),
        );
        serial.behavior_eq(&pipelined).unwrap();
        assert!(pipelined.records.is_empty());
        assert_eq!(stats.total_planning_us(), 0.0);
    }

    #[test]
    fn full_epoch_runs_to_stream_end() {
        let cm = cost_model(2, 1);
        let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
        let dataset = Dataset::flanv2(35, 260);
        let run = RunConfig {
            max_iterations: None,
            jitter: None,
            ..Default::default()
        };
        let serial = run_training(&planner, &dataset, gbs(), run);
        let (pipelined, _) = run_training_pipelined_traced(
            &planner,
            &dataset,
            gbs(),
            run,
            RuntimeConfig {
                plan_ahead: 3,
                workers: 2,
            },
            &TraceSink::disabled(),
        );
        serial.behavior_eq(&pipelined).unwrap();
        assert!(!pipelined.records.is_empty());
    }

    #[test]
    fn deadline_then_reissue_recovers_a_straggling_ticket() {
        // The bounded-wait recovery sequence, step by step: worker 0
        // claims a ticket and stalls; the executor's bounded wait times
        // out; the ticket is re-issued under a new generation; worker 1
        // re-claims the very same (index, batch) and completes it; the
        // straggler's late duplicate is discarded as stale — never
        // double-completed.
        let dataset = Dataset::flanv2(41, 200);
        let stream = BatchStream::new(&dataset, gbs());
        let queue: PlanAheadQueue<u32> = PlanAheadQueue::new(2, 4);

        let t0 = queue.claim(&stream, 0).expect("fresh ticket");
        assert_eq!((t0.index, t0.generation), (0, 0));

        // Worker 0 never completes: the bounded wait must give up.
        let deadline = Duration::from_millis(50);
        match queue.wait_for_deadline(0, Some(deadline)) {
            WaitOutcome::Deadline => {}
            _ => panic!("a stalled ticket must surface as Deadline"),
        }

        // Re-issue: the ticket is older than the deadline, so it is
        // queued for the next claimant under generation 1.
        assert!(queue.reissue(0, deadline), "stalled ticket must re-issue");
        assert!(
            !queue.reissue(0, deadline),
            "an already-queued ticket must not double-queue"
        );

        // Worker 1's next claim serves the re-issue, not a fresh pull:
        // same index, same batch, bumped generation.
        let t1 = queue.claim(&stream, 1).expect("re-issued ticket");
        assert_eq!((t1.index, t1.generation), (0, 1));
        assert!(Arc::ptr_eq(&t0.batch, &t1.batch), "same mini-batch");

        // The healthy attempt completes; the executor unblocks.
        assert_eq!(queue.complete(0, t1.generation, 7), CompleteOutcome::Accepted);
        match queue.wait_for(0) {
            WaitOutcome::Planned(v) => assert_eq!(v, 7),
            _ => panic!("accepted completion must reach the executor"),
        }

        // The straggler finally finishes: discarded, not re-delivered.
        assert_eq!(queue.complete(0, t0.generation, 9), CompleteOutcome::Stale);
        assert_eq!(
            queue.churn_stats(),
            QueueChurn {
                reissued: 1,
                stale_completions: 1
            }
        );
    }

    #[test]
    fn first_completion_wins_even_after_reissue() {
        // A too-short deadline can spuriously re-issue a ticket that is
        // merely slow. If the original then completes before any worker
        // picks up the re-issue, it must be ACCEPTED (first-wins) and
        // the pending re-issue withdrawn — otherwise a deadline shorter
        // than planning time would livelock the queue.
        let dataset = Dataset::flanv2(43, 200);
        let stream = BatchStream::new(&dataset, gbs());
        let queue: PlanAheadQueue<u32> = PlanAheadQueue::new(2, 4);

        let t0 = queue.claim(&stream, 0).expect("fresh ticket");
        assert!(queue.reissue(t0.index, Duration::ZERO), "spurious re-issue");
        // Original completes first, with its now-outdated generation.
        assert_eq!(queue.complete(t0.index, t0.generation, 5), CompleteOutcome::Accepted);
        match queue.wait_for(0) {
            WaitOutcome::Planned(v) => assert_eq!(v, 5),
            _ => panic!("first completion must win"),
        }
        // The withdrawn re-issue must not be served to the next claimant
        // as iteration 0 again: the next claim is a fresh index-1 pull.
        let t1 = queue.claim(&stream, 1).expect("fresh ticket");
        assert_eq!((t1.index, t1.generation), (1, 0));
    }

    #[test]
    fn abandoned_ticket_is_reclaimed_at_epoch_end() {
        // A worker that learns its host crashed hands its ticket back
        // via abandon(); with the rest of the epoch already claimed, a
        // surviving worker's claim must WAIT for (and serve) the
        // abandoned ticket instead of returning None and stranding the
        // executor.
        let dataset = Dataset::flanv2(45, 200);
        let stream = BatchStream::new(&dataset, gbs());
        let queue: PlanAheadQueue<u32> = PlanAheadQueue::new(2, 1);

        let t0 = queue.claim(&stream, 0).expect("fresh ticket");
        queue.abandon(t0.index, 0);
        queue.abandon(t0.index, 9); // wrong owner: must not double-queue
        // The cap is exhausted, but the abandoned ticket is in flight:
        // the claim must serve it rather than draining the pool.
        let t1 = queue.claim(&stream, 1).expect("abandoned ticket re-served");
        assert_eq!((t1.index, t1.generation), (0, 1));
        // The dead original owner's late abandon must not invalidate the
        // live attempt worker 1 now holds.
        queue.abandon(t1.index, 0);
        assert_eq!(queue.complete(0, 1, 3), CompleteOutcome::Accepted);
        // Now the pool truly drains.
        assert!(queue.claim(&stream, 1).is_none());
    }

    #[test]
    fn reissue_claimed_by_requeues_a_dead_hosts_tickets() {
        let dataset = Dataset::flanv2(47, 400);
        let stream = BatchStream::new(&dataset, gbs());
        let queue: PlanAheadQueue<u32> = PlanAheadQueue::new(4, 8);

        let a = queue.claim(&stream, 0).expect("worker 0 ticket");
        let b = queue.claim(&stream, 1).expect("worker 1 ticket");
        let c = queue.claim(&stream, 2).expect("worker 2 ticket");
        // Workers 0 and 1 lived on the host that just died.
        assert_eq!(queue.reissue_claimed_by(|w| w < 2), 2);
        // Their tickets come back in index order, generation bumped.
        let r0 = queue.claim(&stream, 2).expect("re-issued");
        let r1 = queue.claim(&stream, 2).expect("re-issued");
        assert_eq!((r0.index, r0.generation), (a.index, 1));
        assert_eq!((r1.index, r1.generation), (b.index, 1));
        // The survivor's own ticket was untouched.
        assert_eq!(queue.complete(c.index, c.generation, 1), CompleteOutcome::Accepted);
        assert_eq!(queue.complete(r0.index, 1, 1), CompleteOutcome::Accepted);
        assert_eq!(queue.complete(r1.index, 1, 1), CompleteOutcome::Accepted);
        assert_eq!(queue.churn_stats().reissued, 2);
    }
}
