//! The benchmark's single boundary with the program: every type and
//! function it uses from the DynaPipe crates is named in this file, so a
//! later API rename in the program touches this file only.
//!
//! The replay half (`order` … `assemble`) splits
//! `DynaPipePlanner::plan_iteration` into one call per layer, in the order
//! the planner makes them. The replay's correctness gate compares the
//! result with `plan_iteration`'s own output bit for bit, so a planner
//! change that this file does not follow is caught, never measured.

use std::sync::Arc;

use crate::workloads::{DATASET_SAMPLES, ITERATIONS, PLAN_AHEAD};

use dynapipe_batcher::{
    karmarkar_karp, DpConfig, MicroBatch, PaddingStats, Partitioner, SliceFwdCosts, SliceShapes,
};
use dynapipe_cluster::run_training_cluster_traced;
use dynapipe_comm::{plan_communication, verify_deadlock_free, ExecutionPlan, PlanInputs};
use dynapipe_core::planner::{dp_sync_time, schedule_input_for, ReplicaPlan, ScheduleKind};
use dynapipe_core::runtime::{
    execute_lowered, lower_replicas, ReplicaParallelism, ReplicaPrograms,
};
use dynapipe_core::{
    run_training, BaselineKind, BaselinePlanner, FlatPlanRef, InstructionStore, IterationPlanner,
    PlanCodec, PlannerConfig, StoredLowered, StoredOutcome, StoredPlan,
};
use dynapipe_cost::{grid_query_stats, CostModel, ProfileOptions};
use dynapipe_data::GlobalBatchIter;
use dynapipe_model::{HardwareModel, MicroBatchShape, ModelConfig, ParallelConfig};
use dynapipe_schedule::{
    adaptive_schedule, evaluate_schedule, one_f_one_b, reorder_micro_batches, ReorderConfig,
    Schedule, ScheduleInput, Timeline,
};

pub use dynapipe_batcher::PartitionResult;
pub use dynapipe_cluster::ClusterReport;
pub use dynapipe_core::{DynaPipePlanner, IterationPlan, PlanError, RunConfig, RunReport};
pub use dynapipe_data::{Dataset, GlobalBatchConfig, Sample};
pub use dynapipe_model::RecomputeMode;

/// The models the workloads train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Gpt3_35b,
    Gpt6_7b,
}

impl Model {
    pub fn label(self) -> &'static str {
        match self {
            Model::Gpt3_35b => "GPT-3.35B",
            Model::Gpt6_7b => "GPT-6.7B",
        }
    }

    fn config(self) -> ModelConfig {
        match self {
            Model::Gpt3_35b => ModelConfig::gpt_3_35b(),
            Model::Gpt6_7b => ModelConfig::gpt_6_7b(),
        }
    }
}

/// Where the instruction store lives and what the wire between hosts costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deployment {
    /// One store on executor host 0, uniform inter-node fabric.
    SingleStore,
    /// One store shard per executor host over a rack fabric with
    /// `hosts_per_rack` hosts per rack and cross-rack `oversubscription`.
    ShardedDatacenter {
        hosts_per_rack: usize,
        oversubscription: f64,
    },
}

/// Everything a timed run needs, built once per set-up.
pub struct Setup {
    pub dataset: Dataset,
    pub planner: DynaPipePlanner,
    pub gbs: GlobalBatchConfig,
    pub run: RunConfig,
    cluster: dynapipe_cluster::ClusterConfig,
}

/// Workload parameters the set-up is built from.
pub struct SetupParams {
    pub model: Model,
    /// `(dp, tp, pp)`.
    pub parallel: (usize, usize, usize),
    pub max_seq_len: usize,
    pub tokens_per_batch: usize,
    pub executor_hosts: usize,
    pub deployment: Deployment,
}

/// Generate the dataset, build the cost model, planner and the Fig. 9
/// deployment: one planner host with one worker, Flat wire codec.
pub fn build_setup(p: &SetupParams, seed: u64) -> Setup {
    let hw = HardwareModel::a100_cluster();
    let (dp, tp, pp) = p.parallel;
    let dataset = Dataset::flanv2(seed, DATASET_SAMPLES);
    let cm = Arc::new(CostModel::build(
        hw.clone(),
        p.model.config(),
        ParallelConfig::new(dp, tp, pp),
        &ProfileOptions::default(),
    ));
    let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
    let (fabric, placement) = match p.deployment {
        Deployment::SingleStore => (
            dynapipe_cluster::ClusterConfig::fabric_from_hardware(&hw),
            dynapipe_cluster::StorePlacement::Single,
        ),
        Deployment::ShardedDatacenter {
            hosts_per_rack,
            oversubscription,
        } => (
            dynapipe_cluster::ClusterConfig::datacenter_fabric(
                &hw,
                hosts_per_rack,
                oversubscription,
            ),
            dynapipe_cluster::StorePlacement::Sharded,
        ),
    };
    // Pinned rather than left to the defaults, so that a changed default
    // does not change the workload.
    let cluster = dynapipe_cluster::ClusterConfig {
        planner_hosts: 1,
        workers_per_host: 1,
        executor_hosts: p.executor_hosts,
        plan_ahead: PLAN_AHEAD,
        codec: PlanCodec::Flat,
        fabric,
        placement,
        ..Default::default()
    }
    .normalized(dp);
    Setup {
        dataset,
        planner,
        gbs: GlobalBatchConfig {
            tokens_per_batch: p.tokens_per_batch,
            max_seq_len: p.max_seq_len,
        },
        run: RunConfig {
            max_iterations: Some(ITERATIONS),
            ..Default::default()
        },
        cluster,
    }
}

impl Setup {
    /// Executor hosts after normalization (each decodes every blob).
    pub fn executor_hosts(&self) -> usize {
        self.cluster.executor_hosts
    }

    /// Mini-batches the dataset yields.
    pub fn minibatch_count(&self) -> usize {
        minibatches(&self.dataset, self.gbs).count()
    }

    /// Whether the cost model says the parallelism fits in memory.
    pub fn feasible(&self) -> bool {
        self.planner.cm.is_feasible()
    }

    /// One end-to-end run through the cluster runtime, tracing off.
    pub fn run_cluster(&self, iterations: usize) -> (RunReport, ClusterReport) {
        run_training_cluster_traced(
            &self.planner,
            &self.dataset,
            self.gbs,
            RunConfig {
                max_iterations: Some(iterations),
                ..self.run
            },
            self.cluster.clone(),
            &dynapipe_trace::TraceSink::disabled(),
        )
    }

    /// The same run on the serial driver: plan, then simulate, one
    /// iteration at a time, so planning has the machine to itself.
    pub fn run_serial(&self) -> RunReport {
        run_training(&self.planner, &self.dataset, self.gbs, self.run)
    }

    /// The MLM+DS packing baseline at this parallelism with `mb_size`
    /// packed sequences per micro-batch, on the same mini-batches and
    /// run configuration (serial driver).
    pub fn run_packing(&self, mb_size: usize) -> RunReport {
        let planner = BaselinePlanner::new(
            self.planner.cm.clone(),
            BaselineKind::Packing {
                max_seq_len: self.gbs.max_seq_len,
                max_target_len: (self.gbs.max_seq_len / 4).max(64),
                mb_size,
            },
        );
        run_training(&planner, &self.dataset, self.gbs, self.run)
    }

    /// An empty report to fold replayed iterations into.
    pub fn empty_report(&self) -> RunReport {
        RunReport {
            planner: self.planner.label(),
            records: Vec::new(),
            total_tokens: 0,
            total_time_us: 0.0,
            padding: PaddingStats::default(),
            failure: None,
        }
    }
}

pub fn minibatches(dataset: &Dataset, gbs: GlobalBatchConfig) -> GlobalBatchIter<'_> {
    GlobalBatchIter::new(dataset, gbs)
}

pub fn behavior_eq(a: &RunReport, b: &RunReport) -> Result<(), String> {
    a.behavior_eq(b)
}

/// Iterations a report completed.
pub fn completed(report: &RunReport) -> usize {
    report.records.len()
}

pub fn failure(report: &RunReport) -> Option<&str> {
    report.failure.as_deref()
}

/// Per-iteration planner latency (µs) as the run recorded it.
pub fn planning_times_us(report: &RunReport) -> impl Iterator<Item = f64> + '_ {
    report.records.iter().map(|r| r.planning_time_us)
}

/// Non-padding tokens per simulated second.
pub fn sim_tokens_per_s(report: &RunReport) -> f64 {
    report.throughput()
}

/// Wire and host-pipeline totals of a cluster run.
pub struct ClusterTotals {
    pub iterations: usize,
    pub wire_bytes: u64,
    pub max_link_bytes: u64,
    pub wire_us: f64,
    pub decode_us: f64,
    pub serialize_us: f64,
}

pub fn cluster_totals(c: &ClusterReport) -> ClusterTotals {
    ClusterTotals {
        iterations: c.iterations,
        wire_bytes: c.wire_bytes,
        max_link_bytes: c.max_link_bytes,
        wire_us: c.total_wire_us,
        decode_us: c.decode_us,
        serialize_us: c.serialize_us,
    }
}

pub fn rayon_threads() -> usize {
    rayon::current_num_threads()
}

/// Grid-query counters `(batch_points, batch_cells, batch_evals)`.
pub fn grid_counters() -> [u64; 3] {
    let g = grid_query_stats();
    [g.batch_points, g.batch_cells, g.batch_evals]
}

// --- The planner, one layer call at a time -------------------------------

pub fn plan_iteration(p: &DynaPipePlanner, batch: &[Sample]) -> Result<IterationPlan, PlanError> {
    p.plan_iteration(batch)
}

pub fn recompute_modes() -> [RecomputeMode; 3] {
    RecomputeMode::ALL
}

pub fn mode_label(mode: RecomputeMode) -> &'static str {
    mode.label()
}

pub fn planning_budget(p: &DynaPipePlanner) -> u64 {
    p.planning_budget()
}

/// The mini-batch in the planner's sample order.
pub fn order(p: &DynaPipePlanner, batch: &[Sample]) -> Vec<Sample> {
    let mut samples = batch.to_vec();
    p.config.ordering.apply(p.cm.model.arch, &mut samples);
    samples
}

pub fn shape_pass(p: &DynaPipePlanner, ordered: &[Sample]) -> SliceShapes {
    SliceShapes::build(p.cm.model.arch, ordered, p.config.max_mb_samples)
}

pub fn distinct_shapes(shapes: &SliceShapes) -> usize {
    shapes.num_distinct_shapes()
}

pub fn fwd_costs(p: &DynaPipePlanner, shapes: &SliceShapes) -> SliceFwdCosts {
    SliceFwdCosts::build(&p.cm, shapes)
}

/// The DP partition of the ordered samples under one recompute mode.
pub fn partition(
    p: &DynaPipePlanner,
    shapes: &SliceShapes,
    fwd: &SliceFwdCosts,
    ordered: &[Sample],
    mode: RecomputeMode,
    budget: u64,
) -> Option<PartitionResult> {
    let cm = &*p.cm;
    let mb_memory_limit = match p.config.schedule {
        ScheduleKind::OneFOneB => budget / cm.num_stages().max(1) as u64,
        ScheduleKind::Adaptive { .. } => budget,
    };
    let config = DpConfig {
        tmax_resolution_us: p.config.tmax_resolution_us,
        max_mb_samples: p.config.max_mb_samples,
        mb_memory_limit,
        recompute: mode,
        dp_degree: cm.parallel.dp,
        max_candidates: p.config.max_candidates,
        probe_stop_divisor: DpConfig::PROBE_STOP_DIVISOR,
    };
    Partitioner::new(cm, config).partition_with_context(shapes, fwd, ordered)
}

/// Karmarkar–Karp balance of the micro-batches over the replicas; each
/// group is returned sorted, as the planner uses it.
pub fn balance(p: &DynaPipePlanner, part: &PartitionResult) -> Vec<Vec<usize>> {
    karmarkar_karp(&part.mb_times, p.cm.parallel.dp)
        .into_iter()
        .map(|mut g| {
            g.sort_unstable();
            g
        })
        .collect()
}

pub fn group_shapes(
    p: &DynaPipePlanner,
    part: &PartitionResult,
    group: &[usize],
) -> Vec<MicroBatchShape> {
    group
        .iter()
        .map(|&i| part.micro_batches[i].shape(p.cm.model.arch))
        .collect()
}

pub fn schedule_input(
    p: &DynaPipePlanner,
    shapes: &[MicroBatchShape],
    mode: RecomputeMode,
    budget: u64,
) -> ScheduleInput {
    schedule_input_for(&p.cm, shapes, mode, budget)
}

/// Whether the planner reorders this replica's micro-batches.
pub fn reorders(p: &DynaPipePlanner, micro_batches: usize) -> bool {
    matches!(p.config.schedule, ScheduleKind::Adaptive { reorder: true }) && micro_batches > 1
}

/// Reorder micro-batches by execution-time cluster; returns the permuted
/// schedule input and shapes.
pub fn reorder(
    p: &DynaPipePlanner,
    input: &ScheduleInput,
    shapes: &[MicroBatchShape],
) -> (ScheduleInput, Vec<MicroBatchShape>) {
    let (order, _) = reorder_micro_batches(
        input,
        &ReorderConfig {
            num_clusters: p.config.reorder_clusters,
        },
    );
    (
        input.select(&order),
        order.iter().map(|&i| shapes[i]).collect(),
    )
}

pub fn build_schedule(
    p: &DynaPipePlanner,
    input: &ScheduleInput,
    micro_batches: usize,
) -> Schedule {
    match p.config.schedule {
        ScheduleKind::OneFOneB => one_f_one_b(micro_batches, p.cm.num_stages()),
        ScheduleKind::Adaptive { .. } => adaptive_schedule(input),
    }
}

/// Per-stage peak activation memory, or the planner's OOM message.
pub fn peak_memory(schedule: &Schedule, input: &ScheduleInput) -> Result<Vec<u64>, String> {
    let peaks = schedule.peak_memory(&input.act);
    for (j, &peak) in peaks.iter().enumerate() {
        if peak > input.mem_limit[j] {
            return Err(format!(
                "stage {j} peak activation {peak} B exceeds limit {} B (OOM)",
                input.mem_limit[j]
            ));
        }
    }
    Ok(peaks)
}

pub fn evaluate(schedule: &Schedule, input: &ScheduleInput) -> Result<Timeline, String> {
    evaluate_schedule(schedule, input)
}

/// `1 − Σ op busy / (stages × makespan)` of an evaluated timeline.
pub fn idle_share(timeline: &Timeline) -> f64 {
    let t = &timeline.times;
    let stages = t.fwd.first().map_or(0, Vec::len);
    if stages == 0 || t.makespan <= 0.0 {
        return 0.0;
    }
    let busy: f64 = t
        .fwd
        .iter()
        .chain(&t.bwd)
        .flatten()
        .map(|&(start, end)| end - start)
        .sum();
    1.0 - busy / (stages as f64 * t.makespan)
}

pub fn plan_comm(
    p: &DynaPipePlanner,
    schedule: &Schedule,
    timeline: &Timeline,
    shapes: &[MicroBatchShape],
    mode: RecomputeMode,
) -> ExecutionPlan {
    let cm = &*p.cm;
    let boundaries = cm.num_stages().saturating_sub(1);
    let boundary_bytes: Vec<Vec<u64>> = shapes
        .iter()
        .map(|sh| (0..boundaries).map(|j| cm.boundary_bytes(j, sh)).collect())
        .collect();
    plan_communication(&PlanInputs {
        schedule,
        timeline,
        boundary_bytes: &boundary_bytes,
        shapes,
        recompute: mode,
    })
}

pub fn verify(plan: &ExecutionPlan) -> Result<(), String> {
    plan.validate()?;
    verify_deadlock_free(plan).map_err(|e| e.to_string())
}

pub fn instructions(plan: &IterationPlan) -> usize {
    plan.replicas
        .iter()
        .map(|r| r.plan.num_instructions())
        .sum()
}

pub fn replica_plan(
    plan: ExecutionPlan,
    schedule: Schedule,
    timeline: &Timeline,
    peaks: Vec<u64>,
) -> ReplicaPlan {
    ReplicaPlan {
        est_makespan: timeline.times.makespan,
        est_peak_memory: peaks,
        plan,
        schedule,
    }
}

/// Fold one mode's replica plans into an iteration plan, as the planner does.
pub fn assemble(
    p: &DynaPipePlanner,
    part: &PartitionResult,
    replicas: Vec<ReplicaPlan>,
    mode: RecomputeMode,
    ordered: &[Sample],
) -> IterationPlan {
    let cm = &*p.cm;
    let dp_sync = dp_sync_time(cm);
    let est_iteration_time = replicas.iter().map(|r| r.est_makespan).fold(0.0, f64::max) + dp_sync;
    let micro_batches: &[MicroBatch] = &part.micro_batches;
    IterationPlan {
        num_micro_batches: part.num_micro_batches(),
        replicas,
        recompute: mode,
        est_iteration_time,
        dp_sync_time: dp_sync,
        padding: PaddingStats::from_micro_batches(micro_batches, cm.model.arch),
        actual_tokens: ordered.iter().map(|s| s.total_tokens() as u64).sum(),
        planning_time_us: 0.0,
    }
}

pub fn infeasible(message: String) -> PlanError {
    PlanError::Infeasible(message)
}

pub fn padding_efficiency(plan: &IterationPlan) -> f64 {
    plan.padding.efficiency()
}

// --- Lowering, wire and execution ----------------------------------------

/// Lowered programs, owned, ready to encode.
pub struct Lowered(Vec<Vec<dynapipe_sim::DeviceProgram>>);

pub fn lower(p: &DynaPipePlanner, plan: &IterationPlan) -> Lowered {
    Lowered(
        lower_replicas(&p.cm, plan)
            .into_iter()
            .map(|a| Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()))
            .collect(),
    )
}

/// Encode an iteration outcome with the Flat wire codec.
pub fn encode_flat(
    iteration: usize,
    outcome: Result<(IterationPlan, Lowered), PlanError>,
) -> Vec<u8> {
    let outcome = match outcome {
        Ok((plan, Lowered(programs))) => StoredOutcome::Plan(StoredLowered { plan, programs }),
        Err(e) => StoredOutcome::Failed(e),
    };
    StoredPlan { iteration, outcome }.encode(PlanCodec::Flat)
}

pub struct Store(InstructionStore);

impl Store {
    pub fn new() -> Self {
        Store(InstructionStore::new())
    }

    pub fn push(&self, iteration: usize, blob: Vec<u8>) -> Result<(), String> {
        self.0.push(iteration, blob).map_err(|e| e.to_string())
    }

    pub fn take(&self, iteration: usize) -> Result<Arc<[u8]>, String> {
        self.0
            .take(iteration)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("iteration {iteration} missing from the store"))
    }
}

pub struct FlatBlob(FlatPlanRef);

/// Validate a fetched Flat blob's structure (the zero-copy view).
pub fn flat_validate(blob: Arc<[u8]>) -> Result<FlatBlob, String> {
    FlatPlanRef::new(blob)
        .map(FlatBlob)
        .map_err(|e| e.to_string())
}

impl FlatBlob {
    /// Decode the plan-metadata section, or the stored planner failure.
    pub fn plan(&self) -> Result<Result<IterationPlan, PlanError>, String> {
        if self.0.is_failed() {
            return self.0.failure().map(Err).map_err(|e| e.to_string());
        }
        self.0.plan().map(Ok).map_err(|e| e.to_string())
    }
}

/// What one executed iteration measured on the simulator.
pub struct Executed {
    pub measured_time_us: f64,
    pub peak_memory: Vec<u64>,
    pub allocator_stall_us: f64,
}

/// Run every replica's engine serially straight over the Flat blob.
pub fn execute(
    setup: &Setup,
    plan: &IterationPlan,
    blob: &FlatBlob,
    iteration: usize,
) -> Result<Executed, String> {
    let programs: Vec<ReplicaPrograms> = blob
        .0
        .replicas()
        .into_iter()
        .map(ReplicaPrograms::Flat)
        .collect();
    let exec = execute_lowered(
        &setup.planner.cm,
        plan,
        &programs,
        &setup.run,
        iteration,
        ReplicaParallelism::Serial,
    )?;
    Ok(Executed {
        measured_time_us: exec.measured_time,
        peak_memory: exec.peak_memory,
        allocator_stall_us: exec.allocator_stall_us,
    })
}

pub fn record(report: &mut RunReport, setup: &Setup, plan: &IterationPlan, exec: Executed) {
    dynapipe_core::driver::record_iteration(
        report,
        &setup.planner.cm,
        plan,
        exec.measured_time_us,
        exec.peak_memory,
        exec.allocator_stall_us,
    );
}
