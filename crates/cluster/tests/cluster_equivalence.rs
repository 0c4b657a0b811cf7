//! The cluster layer's differential harness: **every simulated topology
//! is bit-identical to the serial driver**. Hosts, links and codecs may
//! move time around — they must never move a single bit of behavior
//! (records, totals, failure placement; floats compared by bit pattern
//! via `RunReport::behavior_eq`).
//!
//! The matrix crosses topology shape (single-host, multi-planner,
//! multi-executor), wire codec (JSON / binary / flat), store placement
//! (single vs sharded), fabric (free, uniform, slow, rack-structured),
//! jitter, dp>1, baselines, and a failure-mid-epoch run whose
//! speculative blobs must be swept. Every cell's Sim-domain timeline is
//! pinned bit-for-bit to the in-process plan-ahead runtime's. It also
//! pins the **wire-byte rule** (see `report.rs`): local copies appear
//! in no wire counter, so on the flat codec `flat_wire_bytes` must
//! reconcile exactly with `Σ bytes_fetched`.

use dynapipe_cluster::{
    run_training_cluster_traced, ChurnEvent, ChurnScript, ClusterConfig, ClusterReport,
    StorePlacement,
};
use dynapipe_core::{
    run_training, run_training_pipelined_traced, BaselineKind, BaselinePlanner, DynaPipePlanner,
    IterationPlan, IterationPlanner, PlanCodec, PlanError, PlannerConfig, RunConfig, RunReport,
    RuntimeConfig,
};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig, GlobalBatchIter, Sample};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_sim::{Fabric, JitterConfig, LinkModel};
use dynapipe_trace::{sim_eq, Trace, TraceSink};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Large enough that no matrix cell ever drops a span — a dropped span
/// would (correctly) fail `reconcile`, but the failure should then mean
/// a real accounting bug, not an undersized ring.
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

/// The topology × codec × placement × fabric matrix every scenario runs
/// through.
fn topologies() -> Vec<ClusterConfig> {
    let slow = LinkModel::new(
        500.0, 10.0, // 10 bytes/µs: a 300 KB blob costs ~30 ms
    )
    .expect("slow link model is valid");
    let mut out = Vec::new();
    for codec in PlanCodec::ALL {
        // Degenerate single host, free links: the plain store-backed
        // pipeline, one planner worker pushing to one executor.
        out.push(ClusterConfig {
            planner_hosts: 1,
            workers_per_host: 1,
            executor_hosts: 1,
            plan_ahead: 2,
            codec,
            fabric: Fabric::free(),
            ..Default::default()
        });
        // Multi-planner, multi-executor over the default (a100
        // inter-node) uniform fabric.
        out.push(ClusterConfig {
            planner_hosts: 2,
            workers_per_host: 2,
            executor_hosts: 2,
            plan_ahead: 3,
            codec,
            ..Default::default()
        });
        // A link slow enough that wire time dominates: exposure may be
        // large, behavior must not budge. (Window 3: a worker becomes
        // eligible to claim speculatively well before a failure can
        // cancel the pool — the failure test relies on it.)
        out.push(ClusterConfig {
            planner_hosts: 3,
            workers_per_host: 1,
            executor_hosts: 2,
            plan_ahead: 3,
            codec,
            fabric: Fabric::uniform(slow).expect("slow fabric is valid"),
            ..Default::default()
        });
        // Sharded store on a rack-structured fabric: pushes and fetches
        // fan out across shard owners, cross-rack hops oversubscribed.
        out.push(ClusterConfig {
            planner_hosts: 2,
            workers_per_host: 1,
            executor_hosts: 2,
            plan_ahead: 3,
            codec,
            placement: StorePlacement::Sharded,
            fabric: ClusterConfig::datacenter_fabric(&HardwareModel::a100_cluster(), 2, 4.0),
            ..Default::default()
        });
    }
    out
}

fn assert_cluster_matrix(
    planner: &dyn IterationPlanner,
    dataset: &Dataset,
    gbs: GlobalBatchConfig,
    run: RunConfig,
    serial: &RunReport,
) -> Vec<ClusterReport> {
    let mut reports = Vec::new();
    // The Sim-domain span timeline is derived purely from the
    // behavior-pinned execution results, so it must be bit-identical
    // across every topology × codec × placement cell and to the
    // in-process plan-ahead runtime, whose plans never cross the store:
    // pin every cell's trace against the in-process run's.
    let pinned = in_process_trace(planner, dataset, gbs, run, serial);
    for cluster in topologies() {
        let label = format!(
            "{}/{}/{}",
            cluster.label(),
            cluster.codec.label(),
            cluster.placement.label()
        );
        let plan_ahead = cluster.plan_ahead;
        let sink = TraceSink::bounded(TRACE_CAP);
        let (report, stats) =
            run_training_cluster_traced(planner, dataset, gbs, run, cluster, &sink);
        serial
            .behavior_eq(&report)
            .unwrap_or_else(|e| panic!("{label} diverged from serial: {e}"));
        let mut trace = sink.finish();
        trace.meta = stats.trace_meta(&label);
        trace
            .validate()
            .unwrap_or_else(|e| panic!("{label}: trace validation: {e}"));
        trace
            .reconcile()
            .unwrap_or_else(|e| panic!("{label}: trace reconciliation: {e}"));
        sim_eq(&pinned, &trace)
            .unwrap_or_else(|e| panic!("{label}: Sim timeline diverged from in-process: {e}"));
        // Store hygiene in every topology: no orphaned blobs, occupancy
        // bounded by the window, and the byte high-water mark saw the
        // pushed blobs.
        assert_eq!(stats.store.occupancy, 0, "{label}: orphaned blobs");
        assert_eq!(stats.store.bytes, 0, "{label}: leaked bytes");
        assert!(
            stats.store.per_shard.iter().all(|s| s.occupancy == 0 && s.bytes == 0),
            "{label}: per-shard counters must reconcile to zero"
        );
        assert!(
            stats.store.peak_occupancy <= plan_ahead.max(1),
            "{label}: store peak {} exceeded window",
            stats.store.peak_occupancy
        );
        assert!(stats.store.peak_bytes > 0, "{label}: peak_bytes never recorded a push");
        assert!(
            stats.store.peak_bytes >= stats.store.bytes,
            "{label}: peak_bytes {} below final bytes {}",
            stats.store.peak_bytes,
            stats.store.bytes
        );
        // Without churn no ticket is re-issued, so no iteration is ever
        // pushed twice.
        assert_eq!(
            stats.churn.duplicate_blobs_discarded, 0,
            "{label}: an undisturbed run pushed a duplicate blob"
        );
        // The wire hop is real work, accounted on both sides.
        assert!(stats.serialize_us > 0.0, "{label}: encode + push never timed");
        assert!(stats.decode_us > 0.0, "{label}: decode never timed");
        // The wire-byte rule reconciles across counters (the regression
        // this matrix pins: flat_wire_bytes used to count the store
        // host's local copy while bytes_fetched excluded it). Zero-copy
        // execution happens exactly over the remote copies on the flat
        // codec, and never on the tree codecs.
        let fetched: u64 = stats.executor_hosts.iter().map(|h| h.bytes_fetched).sum();
        if stats.codec == "flat" {
            assert_eq!(
                stats.flat_wire_bytes, fetched,
                "{label}: flat_wire_bytes must reconcile with Σ bytes_fetched"
            );
        } else {
            assert_eq!(stats.flat_wire_bytes, 0, "{label}: tree codecs never run zero-copy");
        }
        // Shard accounting reconciles with the host-level counters under
        // both placements.
        let served: u64 = stats.shards.iter().map(|s| s.bytes_served).sum();
        assert_eq!(served, fetched, "{label}: shards serve exactly what hosts fetch");
        let shard_pushed: u64 = stats.shards.iter().map(|s| s.bytes_pushed).sum();
        let host_pushed: u64 = stats.planner_hosts.iter().map(|h| h.bytes_pushed).sum();
        assert_eq!(shard_pushed, host_pushed, "{label}: every pushed byte lands on a shard");
        let stored: u64 = stats.shards.iter().map(|s| s.blobs_stored).sum();
        assert_eq!(stored as usize, stats.iterations, "{label}: one blob per iteration");
        for (i, s) in stats.shards.iter().enumerate() {
            assert_eq!(s.shard, i, "{label}: shard index is positional");
            assert!(
                s.owner < stats.executor_hosts.len(),
                "{label}: shard owner must be an executor host"
            );
        }
        // The busiest link cannot carry more than everything that
        // crossed any wire.
        assert!(
            stats.max_link_bytes <= host_pushed + fetched,
            "{label}: max_link_bytes {} exceeds total wire traffic",
            stats.max_link_bytes
        );
        reports.push(stats);
    }
    reports
}

/// The in-process plan-ahead runtime at the first cell's window and
/// worker count: `behavior_eq` to serial, its trace validated and
/// reconciled, returned as the Sim timeline every cell must carry.
fn in_process_trace(
    planner: &dyn IterationPlanner,
    dataset: &Dataset,
    gbs: GlobalBatchConfig,
    run: RunConfig,
    serial: &RunReport,
) -> Trace {
    let sink = TraceSink::bounded(TRACE_CAP);
    let (report, stats) = run_training_pipelined_traced(
        planner,
        dataset,
        gbs,
        run,
        RuntimeConfig {
            plan_ahead: 2,
            workers: 1,
        },
        &sink,
    );
    serial
        .behavior_eq(&report)
        .unwrap_or_else(|e| panic!("in-process diverged from serial: {e}"));
    let mut trace = sink.finish();
    trace.meta = stats.trace_meta("in-process");
    trace
        .validate()
        .unwrap_or_else(|e| panic!("in-process trace validation: {e}"));
    trace
        .reconcile()
        .unwrap_or_else(|e| panic!("in-process trace reconciliation: {e}"));
    trace
}

/// The cluster run with tracing off.
fn run_cluster(
    planner: &dyn IterationPlanner,
    dataset: &Dataset,
    gbs: GlobalBatchConfig,
    run: RunConfig,
    cluster: ClusterConfig,
) -> (RunReport, ClusterReport) {
    run_training_cluster_traced(planner, dataset, gbs, run, cluster, &TraceSink::disabled())
}

#[test]
fn jittered_runs_are_bit_identical_across_topologies() {
    let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
    let dataset = Dataset::flanv2(211, 500);
    let run = RunConfig {
        max_iterations: Some(3),
        jitter: Some(JitterConfig {
            sigma: 0.08,
            seed: 0xC10C,
        }),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(16384), run);
    assert!(serial.feasible(), "fixture must run clean: {:?}", serial.failure);
    let reports = assert_cluster_matrix(&planner, &dataset, gbs(16384), run, &serial);
    for r in &reports {
        assert_eq!(r.iterations, 3);
        // Every planner host's production reconciles with the store
        // counters; every executed iteration crossed the wire.
        let produced: usize = r.planner_hosts.iter().map(|h| h.plans_produced).sum();
        assert_eq!(produced, 3, "{}: all plans accounted to a host", r.topology);
        assert_eq!(r.store.pushes, 3);
        assert_eq!(r.store.takes, 3);
        assert!(r.mean_blob_bytes > 0.0);
        assert!((0.0..=1.0).contains(&r.overlap_ratio), "{}", r.topology);
        for eh in &r.executor_hosts {
            assert!((0.0..=1.0).contains(&eh.overlap_ratio));
        }
    }
}

#[test]
fn data_parallel_replicas_split_across_executor_hosts() {
    let planner = DynaPipePlanner::new(cost_model(2, 2), PlannerConfig::default());
    let dataset = Dataset::flanv2(223, 600);
    let run = RunConfig {
        max_iterations: Some(3),
        jitter: None,
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(32768), run);
    assert!(serial.feasible(), "{:?}", serial.failure);
    let reports = assert_cluster_matrix(&planner, &dataset, gbs(32768), run, &serial);
    // In the 2-executor topologies, replica 0 runs on host 0 and
    // replica 1 on host 1. Under the single placement only host 1 pays
    // fetch wire bytes (host 0 is colocated with the store); under the
    // sharded placement ownership alternates per iteration, so *both*
    // hosts fetch remotely for the iterations they don't own.
    for r in reports.iter().filter(|r| r.executor_hosts.len() == 2) {
        assert_eq!(r.executor_hosts[0].replicas, vec![0]);
        assert_eq!(r.executor_hosts[1].replicas, vec![1]);
        if r.placement == "single" {
            assert_eq!(r.executor_hosts[0].bytes_fetched, 0, "{}", r.topology);
        } else {
            assert!(
                r.executor_hosts[0].bytes_fetched > 0,
                "{}: host 0 fetches the iterations shard 1 owns",
                r.topology
            );
        }
        assert!(r.executor_hosts[1].bytes_fetched > 0, "{}", r.topology);
        assert!(r.executor_hosts[0].busy_us > 0.0);
        assert!(r.executor_hosts[1].busy_us > 0.0);
    }
}

#[test]
fn slow_links_expose_wire_time_without_changing_behavior() {
    // A/B on the same workload: free links vs a crawling network. The
    // behavior is pinned by the matrix; here we check the timeline
    // *does* respond to the link model — bytes genuinely cost time.
    let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
    let dataset = Dataset::flanv2(227, 500);
    let run = RunConfig {
        max_iterations: Some(3),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(16384), run);
    let base = ClusterConfig {
        planner_hosts: 2,
        workers_per_host: 1,
        executor_hosts: 1,
        plan_ahead: 2,
        codec: PlanCodec::Binary,
        fabric: Fabric::free(),
        ..Default::default()
    };
    let (fast_report, fast) =
        run_cluster(&planner, &dataset, gbs(16384), run, base.clone());
    let (slow_report, slow) = run_cluster(
        &planner,
        &dataset,
        gbs(16384),
        run,
        ClusterConfig {
            fabric: Fabric::uniform(
                LinkModel::new(1e6 /* one full second per hop */, 1.0)
                    .expect("crawl link is valid"),
            )
            .expect("crawl fabric is valid"),
            ..base
        },
    );
    serial.behavior_eq(&fast_report).unwrap();
    serial.behavior_eq(&slow_report).unwrap();
    assert_eq!(fast.total_wire_us, 0.0, "local links are free");
    assert!(
        slow.total_wire_us > 1e6,
        "slow links must accumulate wire time: {}",
        slow.total_wire_us
    );
    assert!(
        slow.cluster_wall_us > fast.cluster_wall_us,
        "wire latency must appear on the training timeline: {} vs {}",
        slow.cluster_wall_us,
        fast.cluster_wall_us
    );
    assert!(
        slow.exposed_us > fast.exposed_us,
        "a second of latency per blob cannot be fully hidden"
    );
    // Wire time is attributed to the shard that carried the blob (one
    // shard here — single placement), on both sides of the store.
    let slow_shard_wire: f64 = slow
        .shards
        .iter()
        .map(|s| s.push_wire_us + s.fetch_wire_us)
        .sum();
    assert!(
        slow_shard_wire > 1e6,
        "shard wire attribution must see the slow hops: {slow_shard_wire}"
    );
    let fast_shard_wire: f64 = fast
        .shards
        .iter()
        .map(|s| s.push_wire_us + s.fetch_wire_us)
        .sum();
    assert_eq!(fast_shard_wire, 0.0, "free fabric: no shard wire time");
}

#[test]
fn baseline_planners_run_on_the_cluster_too() {
    let planner = BaselinePlanner::new(
        cost_model(2, 1),
        BaselineKind::Packing {
            max_seq_len: 2048,
            max_target_len: 256,
            mb_size: 1,
        },
    );
    let dataset = Dataset::flanv2(229, 400);
    let run = RunConfig {
        max_iterations: Some(2),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(16384), run);
    assert_cluster_matrix(&planner, &dataset, gbs(16384), run, &serial);
}

#[test]
fn failure_mid_epoch_stops_every_topology_at_the_same_iteration() {
    // The monster-sample fixture from the core harness: planning fails a
    // few iterations in, each topology must stop with exactly the serial
    // failure and sweep its speculative blobs.
    let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
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
    let reports = assert_cluster_matrix(&planner, &dataset, gbs, run, &serial);
    for r in &reports {
        assert_eq!(r.iterations, serial.records.len(), "{}", r.topology);
        // The failing iteration's blob always lands (the failure is
        // encoded and pushed like any plan), so pushes strictly exceed
        // the executed records. Additional speculative pushes depend on
        // whether other workers finished their claims before teardown —
        // pure scheduling, not asserted (the old `>= iterations + 2`
        // form was flaky for exactly that reason). What must hold is
        // that every push was reconciled: taken or discarded, never
        // leaked (occupancy==0 is asserted in the matrix helper).
        assert!(
            r.store.pushes as usize >= r.iterations + 1,
            "{}: the failure blob must be pushed, got {} pushes for {} records",
            r.topology,
            r.store.pushes,
            r.iterations
        );
        assert_eq!(
            r.store.takes + r.store.discarded,
            r.store.pushes,
            "{}: every pushed blob is taken or discarded",
            r.topology
        );
    }
}

#[test]
fn zero_iteration_cap_produces_empty_report() {
    let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
    let dataset = Dataset::flanv2(233, 200);
    let run = RunConfig {
        max_iterations: Some(0),
        ..Default::default()
    };
    let serial = run_training(&planner, &dataset, gbs(16384), run);
    let (report, stats) =
        run_cluster(&planner, &dataset, gbs(16384), run, ClusterConfig::default());
    serial.behavior_eq(&report).unwrap();
    assert!(report.records.is_empty());
    assert_eq!(stats.iterations, 0);
    assert_eq!(stats.cluster_wall_us, 0.0);
}

#[test]
fn binary_codec_shrinks_the_wire_on_identical_behavior() {
    // Same topology, both codecs: identical RunReports (pinned in the
    // matrix), but the binary wire must carry at most half the bytes —
    // the acceptance bar the fig09 bench enforces on the full workload.
    let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
    let dataset = Dataset::flanv2(239, 500);
    let run = RunConfig {
        max_iterations: Some(2),
        ..Default::default()
    };
    let base = ClusterConfig {
        planner_hosts: 1,
        workers_per_host: 2,
        executor_hosts: 1,
        plan_ahead: 2,
        codec: PlanCodec::Json,
        ..Default::default()
    };
    let (ra, json) = run_cluster(&planner, &dataset, gbs(16384), run, base.clone());
    let (rb, binary) = run_cluster(
        &planner,
        &dataset,
        gbs(16384),
        run,
        ClusterConfig {
            codec: PlanCodec::Binary,
            ..base
        },
    );
    ra.behavior_eq(&rb).unwrap();
    assert!(json.mean_blob_bytes > 0.0 && binary.mean_blob_bytes > 0.0);
    assert!(
        binary.mean_blob_bytes * 2.0 <= json.mean_blob_bytes,
        "binary blob {} bytes must be at most half of JSON {}",
        binary.mean_blob_bytes,
        json.mean_blob_bytes
    );
}

#[test]
fn planner_worker_panic_poisons_the_store_and_propagates() {
    // A panicking worker leaves its claimed ticket unfulfilled; its
    // unwind guard must poison the queue and the store, so the
    // prefetcher and the executor re-raise instead of waiting forever.
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
        let cluster = ClusterConfig {
            planner_hosts: 1,
            workers_per_host: 1,
            executor_hosts: 1,
            fabric: Fabric::free(),
            // A scripted join the run never reaches: its pre-spawned
            // worker stays parked, and teardown must release it.
            churn: ChurnScript::new().at(2, ChurnEvent::PlannerJoin { workers: 1 }),
            ..Default::default()
        };
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cluster(&planner, &dataset, gbs(16384), run, cluster)
        }))
        .is_err();
        let _ = tx.send(panicked);
    });
    let panicked = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("cluster run must terminate, not deadlock");
    assert!(panicked, "worker panic must propagate to the caller");
}

/// Delegates to a planner, but plans the mini-batch holding sample
/// `failing` only once the mini-batch starting with sample `next` has
/// been planned as often as the failing one has been requested. Tickets
/// are claimed in order and a claimed plan is always pushed, so with two
/// workers and a window > 1 the iteration after the failure is planned
/// and pushed before the failure reaches the executor.
struct FailAfterLookahead<'a> {
    inner: &'a DynaPipePlanner,
    failing: u64,
    next: u64,
    /// (failing plans requested, `next` plans finished)
    counts: Mutex<(usize, usize)>,
    planned_next: Condvar,
}

impl<'a> FailAfterLookahead<'a> {
    fn new(inner: &'a DynaPipePlanner, failing: u64, next: u64) -> Self {
        FailAfterLookahead {
            inner,
            failing,
            next,
            counts: Mutex::new((0, 0)),
            planned_next: Condvar::new(),
        }
    }
}

impl IterationPlanner for FailAfterLookahead<'_> {
    fn plan(&self, minibatch: &[Sample]) -> Result<IterationPlan, PlanError> {
        if minibatch.iter().any(|s| s.id == self.failing) {
            let mut counts = self.counts.lock().unwrap();
            counts.0 += 1;
            let want = counts.0;
            let (_counts, wait) = self
                .planned_next
                .wait_timeout_while(counts, Duration::from_secs(60), |c| c.1 < want)
                .unwrap();
            assert!(
                !wait.timed_out(),
                "the iteration after the failure was never planned"
            );
            return self.inner.plan(minibatch);
        }
        let out = self.inner.plan(minibatch);
        if minibatch.first().map(|s| s.id) == Some(self.next) {
            self.counts.lock().unwrap().1 += 1;
            self.planned_next.notify_all();
        }
        out
    }

    fn cost_model(&self) -> &CostModel {
        IterationPlanner::cost_model(self.inner)
    }

    fn label(&self) -> String {
        IterationPlanner::label(self.inner)
    }
}

#[test]
fn failure_behind_a_wide_window_discards_the_speculative_blobs() {
    // The monster-sample fixture, planned through `FailAfterLookahead`:
    // the failing plan is held back until the next iteration has been
    // planned and pushed, so a speculative blob past the failure exists
    // on every run. Both the in-process runtime and the store-backed
    // `1p×2w→1e` pipeline must stop at the serial failure; the store
    // must discard that blob at teardown, never leak it.
    let planner = DynaPipePlanner::new(cost_model(2, 1), PlannerConfig::default());
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
    let failed_at = serial.records.len();
    assert!(failed_at > 0, "failure must happen mid-epoch, not at iteration 0");
    let batches: Vec<Vec<Sample>> = GlobalBatchIter::new(&dataset, gbs).collect();
    let lookahead = FailAfterLookahead::new(&planner, 130, batches[failed_at + 1][0].id);

    let (in_process, stats) = run_training_pipelined_traced(
        &lookahead,
        &dataset,
        gbs,
        run,
        RuntimeConfig {
            plan_ahead: 4,
            workers: 2,
        },
        &TraceSink::disabled(),
    );
    serial.behavior_eq(&in_process).expect("in-process vs serial");
    // Speculative plans beyond the failure never become records.
    assert_eq!(stats.planning_us.len(), failed_at);

    for codec in PlanCodec::ALL {
        let label = codec.label();
        let cluster = ClusterConfig {
            planner_hosts: 1,
            workers_per_host: 2,
            executor_hosts: 1,
            plan_ahead: 4,
            codec,
            fabric: Fabric::free(),
            ..Default::default()
        };
        let (report, stats) = run_cluster(&lookahead, &dataset, gbs, run, cluster);
        serial
            .behavior_eq(&report)
            .unwrap_or_else(|e| panic!("{label}: diverged from serial: {e}"));
        assert_eq!(stats.iterations, failed_at, "{label}");
        assert_eq!(stats.store.occupancy, 0, "{label}: orphaned blobs");
        assert_eq!(
            stats.store.pushes,
            stats.store.takes + stats.store.discarded,
            "{label}: pushed blobs must all be taken or discarded: {:?}",
            stats.store
        );
        assert!(
            stats.store.discarded > 0,
            "{label}: a wide window must have parked speculative blobs to discard"
        );
    }
}
