//! Fig. 9 deployed: the cluster runtime on simulated multi-host
//! topologies, with plans crossing the wire as Flat blobs.
//!
//! Runs the fig17 workload (65k-token mini-batches, 8 GPUs) at dp=2 —
//! GPT 6.7B (dp2·pp4) and T5 11B (dp2·tp4) — through the serial driver
//! and a topology matrix of
//! [`dynapipe_cluster::run_training_cluster_traced`]:
//!
//! * `1p×1w→1e` over free local links — the degenerate single-host
//!   deployment, the control arm;
//! * `2p×1w→2e` and `2p×2w→2e` over the a100 inter-node link — planner
//!   pool on separate hosts, replicas split across executor hosts, every
//!   plan blob paying α-β wire cost into and out of the store.
//!
//! Executors run engines straight over the downlink bytes; decode is
//! validate-and-wrap.
//!
//! A **churn arm** (PR 6) then replays the `2p×1w→2e` deployment under
//! a scripted worst-of-every-class [`ChurnScript`] — a straggler, a
//! planner crash, a planner join, and an executor-host loss — with a
//! re-issue deadline armed, and reports the recovery counters
//! ([`dynapipe_cluster::ChurnStats`]) plus `churn_overhead_us` against
//! the undisturbed arm of the same topology. Events are keyed at
//! `min(k, iters-1)` so a capped 1-iteration smoke run still fires every
//! one of them.
//!
//! A **datacenter arm** (PR 9) then sweeps executor-host counts up to
//! O(100) — GPT 3.35B at `dp = host count`, pp=2 — over a
//! rack-structured [`Fabric`] (racks of 8, 4× oversubscribed cross-rack
//! bandwidth), under both [`StorePlacement`]s, plus a churned cell per
//! placement that loses a store-shard owner mid-run (host 0 itself under
//! the sharded placement — only the single placement protects the store
//! host). The sweep is the existence proof for sharding: under the
//! single placement the store host's links concentrate the entire plan
//! stream; sharding must spread it.
//!
//! Emits `BENCH_cluster.json` with per-topology cluster walls, overlap
//! ratios, per-host breakdowns, the Flat wire microbenchmark, the churn
//! arms, and the datacenter sweep, and **exits nonzero** if
//!
//! 1. any topology's `RunReport` diverges from the serial driver
//!    (`behavior_eq` — the golden invariant), **including the churned
//!    arms**, or
//! 2. recovery cost is unbounded: a churned arm's wall exceeds
//!    `3 × undisturbed + 5 s` (the slack covers the injected straggle
//!    sleep and scheduler noise on a small container), or
//! 3. the Flat wire format leaves its absolute bounds on a **controlled
//!    microbenchmark** (one real lowered plan blob per model, validated
//!    repeatedly on an otherwise idle process — the in-run decode walls
//!    are also reported, but on a contended container they measure the
//!    scheduler, not the format): bytes per instruction record at most
//!    **1.25×**, and validate-and-wrap per blob under **0.2×**, what the
//!    retired Binary wire codec measured on the same blob
//!    ([`BINARY_REFERENCE`]), or
//! 4. any datacenter cell — every host count × placement, churned cells
//!    included — diverges from its serial oracle, or
//! 5. sharding stops spreading the plan stream: at the **largest**
//!    topology, the sharded store's busiest single link must carry
//!    **strictly fewer** bytes than the single store host serves over
//!    its downlink (`Σ bytes_fetched` across the other executor hosts).

use dynapipe_bench::{
    flat_wire_bench, flat_wire_gate, write_json, write_root_artifact, BenchOpts,
    BinaryReference, FlatWireBench, FLAT_BENCH_REPS,
};
use dynapipe_cluster::{
    run_training_cluster_traced, ChurnEvent, ChurnScript, ClusterConfig,
    ClusterReport, StorePlacement,
};
use dynapipe_core::{run_training, DynaPipePlanner, PlannerConfig, RunConfig};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_sim::Fabric;
use dynapipe_trace::{chrome::to_chrome_trace, sim_eq, Trace, TraceSink};
use std::sync::Arc;
use std::time::Duration;

struct Arm {
    stats: ClusterReport,
    divergence: Option<String>,
}

struct ChurnArm {
    stats: ClusterReport,
    divergence: Option<String>,
    undisturbed_wall_us: f64,
    churn_overhead_us: f64,
}

/// What the retired Binary wire codec measured on each model's
/// [`flat_wire_bench`] blob: bytes per instruction record (exact), and
/// its `StoredPlan::decode` tree rebuild per blob (best of three runs of
/// three passes × 5 reps). Measured at commit 785e38b on a 2-vCPU
/// "Intel(R) Xeon(R) Processor" VM. The Flat gates compare against these
/// constants, so they keep the strength of the flat-vs-binary gates they
/// replace.
const BINARY_REFERENCE: [BinaryReference; 2] = [
    BinaryReference {
        model: "GPT",
        bytes_per_record: 65.7227,
        decode_us_per_blob: 2267.1,
    },
    BinaryReference {
        model: "T5",
        bytes_per_record: 109.9348,
        decode_us_per_blob: 151.0,
    },
];

struct ModelOutcome {
    name: &'static str,
    iterations: usize,
    serial_wall_us: f64,
    arms: Vec<Arm>,
    churn_arm: ChurnArm,
    flat_bench: FlatWireBench,
}

/// The churn arm's deployment: the `2p×1w→2e` matrix topology with one
/// scripted event of every class and a re-issue deadline armed. Events
/// are keyed at `min(k, iters-1)` so a capped 1-iteration smoke run
/// (`run_all --smoke`) still fires all of them at iteration 0.
fn churn_topology(iters: usize) -> ClusterConfig {
    let at = |k: usize| k.min(iters.saturating_sub(1));
    ClusterConfig {
        planner_hosts: 2,
        workers_per_host: 1,
        executor_hosts: 2,
        plan_ahead: 4,
        churn: ChurnScript::new()
            .at(
                at(1),
                ChurnEvent::Straggle {
                    host: 1,
                    delay_ms: 1200,
                },
            )
            .at(at(2), ChurnEvent::PlannerCrash { host: 1 })
            .at(at(2), ChurnEvent::PlannerJoin { workers: 1 })
            .at(at(3), ChurnEvent::ExecutorLoss { host: 1 }),
        reissue_deadline: Some(Duration::from_millis(500)),
        ..Default::default()
    }
}

fn topologies() -> Vec<ClusterConfig> {
    vec![
        ClusterConfig {
            planner_hosts: 1,
            workers_per_host: 1,
            executor_hosts: 1,
            plan_ahead: 4,
            fabric: Fabric::free(),
            ..Default::default()
        },
        ClusterConfig {
            planner_hosts: 2,
            workers_per_host: 1,
            executor_hosts: 2,
            plan_ahead: 4,
            ..Default::default()
        },
        ClusterConfig {
            planner_hosts: 2,
            workers_per_host: 2,
            executor_hosts: 2,
            plan_ahead: 4,
            ..Default::default()
        },
    ]
}

fn run_model(
    name: &'static str,
    model: ModelConfig,
    parallel: ParallelConfig,
    dataset: &Dataset,
    iters: usize,
) -> ModelOutcome {
    let cm = Arc::new(CostModel::build(
        HardwareModel::a100_cluster(),
        model,
        parallel,
        &ProfileOptions::default(),
    ));
    let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
    let gbs = GlobalBatchConfig {
        tokens_per_batch: 65536,
        max_seq_len: 4096,
    };
    let run = RunConfig {
        max_iterations: Some(iters),
        ..Default::default()
    };
    let serial = run_training(&planner, dataset, gbs, run);
    let serial_wall_us: f64 = serial
        .records
        .iter()
        .map(|r| r.planning_time_us + r.measured_time)
        .sum();
    let arms: Vec<Arm> = topologies()
        .into_iter()
        .map(|cluster| {
            let (report, stats) = run_training_cluster_traced(
                &planner,
                dataset,
                gbs,
                run,
                cluster,
                &TraceSink::disabled(),
            );
            Arm {
                divergence: serial.behavior_eq(&report).err(),
                stats,
            }
        })
        .collect();
    let cluster = churn_topology(iters);
    let label = cluster.label();
    let (report, stats) =
        run_training_cluster_traced(&planner, dataset, gbs, run, cluster, &TraceSink::disabled());
    // The undisturbed baseline is the matrix arm with the same topology,
    // measured moments earlier in this run.
    let undisturbed_wall_us = arms
        .iter()
        .find(|a| a.stats.topology == label)
        .map(|a| a.stats.cluster_wall_us)
        .unwrap_or(serial_wall_us);
    let churn_arm = ChurnArm {
        divergence: serial.behavior_eq(&report).err(),
        churn_overhead_us: stats.cluster_wall_us - undisturbed_wall_us,
        undisturbed_wall_us,
        stats,
    };
    let flat_bench = flat_wire_bench(&planner);
    ModelOutcome {
        name,
        iterations: serial.records.len(),
        serial_wall_us,
        arms,
        churn_arm,
        flat_bench,
    }
}

/// One cell of the datacenter sweep: one placement's deployment at
/// one executor-host count over the rack-structured fabric, optionally
/// with a scripted shard-owner loss.
struct DatacenterCell {
    stats: ClusterReport,
    divergence: Option<String>,
    churned: bool,
}

/// The datacenter sweep at one executor-host count, with its own serial
/// oracle (the workload changes with `dp = host count`).
struct DatacenterPoint {
    hosts: usize,
    iterations: usize,
    serial_feasible: bool,
    serial_wall_us: f64,
    cells: Vec<DatacenterCell>,
}

const DC_HOSTS_PER_RACK: usize = 8;
const DC_OVERSUBSCRIPTION: f64 = 4.0;

/// Executor-host counts for the datacenter sweep — O(100) hosts at the
/// top end. `run_all --smoke` caps the sweep to one toy size; it must
/// stay ≥ 3 hosts so the fan-out gate (sharded busiest link strictly
/// below the single store host's downlink) is still meaningful.
fn datacenter_host_counts(opts: &BenchOpts) -> Vec<usize> {
    if opts.smoke {
        vec![3]
    } else {
        vec![8, 32, 96]
    }
}

fn run_datacenter(dataset: &Dataset, opts: &BenchOpts) -> Vec<DatacenterPoint> {
    let hw = HardwareModel::a100_cluster();
    let iters = opts.capped(3, 1);
    datacenter_host_counts(opts)
        .into_iter()
        .map(|hosts| {
            // The runtime clamps executor hosts to the data-parallel
            // degree, so the sweep sets dp = host count (pp=2 keeps the
            // per-host model small). The coarse profile is enough: this
            // arm measures the fabric, not profile fidelity.
            let cm = Arc::new(CostModel::build(
                hw.clone(),
                ModelConfig::gpt_3_35b(),
                ParallelConfig::new(hosts, 1, 2),
                &ProfileOptions::coarse(),
            ));
            let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
            let gbs = GlobalBatchConfig {
                tokens_per_batch: (hosts * 1024).max(8192),
                max_seq_len: 1024,
            };
            let run = RunConfig {
                max_iterations: Some(iters),
                ..Default::default()
            };
            let serial = run_training(&planner, dataset, gbs, run);
            let fabric =
                ClusterConfig::datacenter_fabric(&hw, DC_HOSTS_PER_RACK, DC_OVERSUBSCRIPTION);
            let mut cells = Vec::new();
            for placement in [StorePlacement::Single, StorePlacement::Sharded] {
                let cfg = ClusterConfig {
                    planner_hosts: 2,
                    workers_per_host: 1,
                    executor_hosts: hosts,
                    plan_ahead: 4,
                    placement,
                    fabric: fabric.clone(),
                    ..Default::default()
                };
                let (report, stats) = run_training_cluster_traced(
                    &planner,
                    dataset,
                    gbs,
                    run,
                    cfg,
                    &TraceSink::disabled(),
                );
                cells.push(DatacenterCell {
                    divergence: serial.behavior_eq(&report).err(),
                    stats,
                    churned: false,
                });
                // The churned cell loses a store-shard owner mid-run —
                // host 0 itself under the sharded placement (only the
                // single placement protects the store host; host 1
                // there). Recovery must stay behavior-identical: the
                // survivors re-own the dead host's shards and re-fetch
                // its in-flight blobs from a surviving peer.
                let lost = match placement {
                    StorePlacement::Sharded => 0,
                    StorePlacement::Single => 1,
                };
                let cfg = ClusterConfig {
                    planner_hosts: 2,
                    workers_per_host: 1,
                    executor_hosts: hosts,
                    plan_ahead: 4,
                    placement,
                    fabric: fabric.clone(),
                    churn: ChurnScript::new().at(
                        1usize.min(iters.saturating_sub(1)),
                        ChurnEvent::ExecutorLoss { host: lost },
                    ),
                    ..Default::default()
                };
                let (report, stats) = run_training_cluster_traced(
                    &planner,
                    dataset,
                    gbs,
                    run,
                    cfg,
                    &TraceSink::disabled(),
                );
                cells.push(DatacenterCell {
                    divergence: serial.behavior_eq(&report).err(),
                    stats,
                    churned: true,
                });
            }
            DatacenterPoint {
                hosts,
                iterations: serial.records.len(),
                serial_feasible: serial.feasible(),
                serial_wall_us: serial
                    .records
                    .iter()
                    .map(|r| r.planning_time_us + r.measured_time)
                    .sum(),
                cells,
            }
        })
        .collect()
}

/// Per-host detail kept per datacenter cell in `BENCH_cluster.json`.
/// The O(100)-host sweep used to serialize every `ExecutorHostStats`
/// and `ShardStats` of every cell (~28k lines of artifact); the gates
/// only need per-cell totals, so the artifact now carries summaries
/// plus the first few hosts as a sample.
const DC_HOST_JSON_CAP: usize = 8;

/// One datacenter cell as artifact JSON: every gated quantity in full
/// (placement, churn flag, wall, busiest link, fetched-byte
/// total, divergence), per-cell rollups, and per-host arrays capped at
/// [`DC_HOST_JSON_CAP`] entries with an explicit `omitted` count.
fn datacenter_cell_json(c: &DatacenterCell) -> serde_json::Value {
    let s = &c.stats;
    let fetched: u64 = s.executor_hosts.iter().map(|h| h.bytes_fetched).sum();
    let pushed: u64 = s.planner_hosts.iter().map(|h| h.bytes_pushed).sum();
    let cap_array = |n: usize, full: serde_json::Value| -> (serde_json::Value, usize) {
        match full {
            serde_json::Value::Array(mut v) => {
                let omitted = v.len().saturating_sub(n);
                v.truncate(n);
                (serde_json::Value::Array(v), omitted)
            }
            other => (other, 0),
        }
    };
    let (executor_hosts, executors_omitted) = cap_array(
        DC_HOST_JSON_CAP,
        serde_json::to_value(&s.executor_hosts),
    );
    let (shards, shards_omitted) = cap_array(DC_HOST_JSON_CAP, serde_json::to_value(&s.shards));
    serde_json::Value::Object(vec![
        ("topology".to_string(), serde_json::json!(s.topology)),
        ("placement".to_string(), serde_json::json!(s.placement)),
        ("fabric".to_string(), serde_json::json!(s.fabric)),
        ("churned".to_string(), serde_json::json!(c.churned)),
        ("iterations".to_string(), serde_json::json!(s.iterations)),
        (
            "cluster_wall_us".to_string(),
            serde_json::json!(s.cluster_wall_us),
        ),
        (
            "serial_wall_us".to_string(),
            serde_json::json!(s.serial_wall_us),
        ),
        ("exec_sim_us".to_string(), serde_json::json!(s.exec_sim_us)),
        ("exposed_us".to_string(), serde_json::json!(s.exposed_us)),
        (
            "overlap_ratio".to_string(),
            serde_json::json!(s.overlap_ratio),
        ),
        ("wire_bytes".to_string(), serde_json::json!(s.wire_bytes)),
        (
            "max_link_bytes".to_string(),
            serde_json::json!(s.max_link_bytes),
        ),
        (
            "total_wire_us".to_string(),
            serde_json::json!(s.total_wire_us),
        ),
        (
            "mean_blob_bytes".to_string(),
            serde_json::json!(s.mean_blob_bytes),
        ),
        ("bytes_fetched_total".to_string(), serde_json::json!(fetched)),
        ("bytes_pushed_total".to_string(), serde_json::json!(pushed)),
        // Store scalars only: `per_shard` scales with host count and
        // duplicates the capped `shards` sample below.
        (
            "store".to_string(),
            serde_json::Value::Object(vec![
                ("pushes".to_string(), serde_json::json!(s.store.pushes)),
                ("takes".to_string(), serde_json::json!(s.store.takes)),
                ("discarded".to_string(), serde_json::json!(s.store.discarded)),
                (
                    "peak_occupancy".to_string(),
                    serde_json::json!(s.store.peak_occupancy),
                ),
                ("peak_bytes".to_string(), serde_json::json!(s.store.peak_bytes)),
            ]),
        ),
        ("churn".to_string(), serde_json::to_value(&s.churn)),
        ("planner_hosts".to_string(), serde_json::to_value(&s.planner_hosts)),
        ("executor_hosts".to_string(), executor_hosts),
        (
            "executor_hosts_omitted".to_string(),
            serde_json::json!(executors_omitted),
        ),
        ("shards".to_string(), shards),
        ("shards_omitted".to_string(), serde_json::json!(shards_omitted)),
        (
            "report_divergence".to_string(),
            serde_json::json!(c.divergence.clone().unwrap_or_default()),
        ),
    ])
}

/// Span capacity for the trace arm's bounded ring: ample for the small
/// deployment (a dropped span fails reconciliation by design).
const TRACE_CAP: usize = 65536;

/// The **trace arm** (PR 10): the unified span recorder on a small
/// sharded deployment, held to the determinism contract. Every cell —
/// each placement, a churned cell per placement, and a rerun of the
/// first cell — must (a) stay behavior-identical to the serial oracle,
/// (b) produce a structurally valid trace whose payload totals
/// reconcile **exactly** against the run's own counters
/// (`Trace::reconcile`: byte sums, span counts, bitwise exposed-µs
/// ledgers), and (c) produce the **bit-identical Sim-domain span
/// sequence** as every other cell (`sim_eq`) — the simulated timeline
/// is behavior, not stats, so placement, churn and rerun must
/// not move it. The richest cell (sharded + shard-owner loss) is
/// exported to `results/TRACE_cluster.json` plus a Chrome trace-event
/// rendering; `run_all --smoke` round-trips the export through
/// `trace_report`, which recomputes the critical path from the spans.
fn run_trace_arm(dataset: &Dataset, opts: &BenchOpts) -> (Vec<String>, Option<Trace>) {
    let hosts = 3usize;
    let iters = opts.capped(3, 1);
    let cm = Arc::new(CostModel::build(
        HardwareModel::a100_cluster(),
        ModelConfig::gpt_3_35b(),
        ParallelConfig::new(hosts, 1, 2),
        &ProfileOptions::coarse(),
    ));
    let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
    let gbs = GlobalBatchConfig {
        tokens_per_batch: 8192,
        max_seq_len: 1024,
    };
    // Engine traces on: the sim timeline carries per-op spans, not just
    // iteration extents. The serial oracle runs the same config.
    let run = RunConfig {
        max_iterations: Some(iters),
        record_trace: true,
        ..Default::default()
    };
    let serial = run_training(&planner, dataset, gbs, run);

    let base = |placement: StorePlacement| ClusterConfig {
        planner_hosts: 2,
        workers_per_host: 1,
        executor_hosts: hosts,
        plan_ahead: 4,
        placement,
        ..Default::default()
    };
    let mut cells: Vec<(String, ClusterConfig)> = Vec::new();
    for placement in [StorePlacement::Single, StorePlacement::Sharded] {
        let pl = match placement {
            StorePlacement::Single => "single",
            StorePlacement::Sharded => "sharded",
        };
        cells.push((pl.to_string(), base(placement)));
        // The churned cell loses a store owner mid-run (host 0 itself
        // under the sharded placement), so the export carries churn,
        // re-placement and restore-hop spans.
        let lost = match placement {
            StorePlacement::Sharded => 0,
            StorePlacement::Single => 1,
        };
        let mut cfg = base(placement);
        cfg.churn = ChurnScript::new().at(
            1usize.min(iters.saturating_sub(1)),
            ChurnEvent::ExecutorLoss { host: lost },
        );
        cells.push((format!("{pl}+loss"), cfg));
    }
    // Rerun of the first cell: bit-identity across reruns, not just
    // across configurations.
    let rerun = cells[0].1.clone();
    cells.push(("rerun/single".to_string(), rerun));

    let mut failures = Vec::new();
    let mut pinned: Option<Trace> = None;
    let mut export: Option<Trace> = None;
    println!("\n  trace arm — {hosts} executor hosts, {iters} iteration(s), cap {TRACE_CAP} spans");
    println!(
        "  {:>20} | {:>7} {:>10} | {:>9} {:>9} {:>7}",
        "cell", "spans", "sim spans", "validate", "reconcile", "sim_eq"
    );
    for (label, cfg) in cells {
        let sink = TraceSink::bounded(TRACE_CAP);
        let (report, stats) = run_training_cluster_traced(&planner, dataset, gbs, run, cfg, &sink);
        if let Err(d) = serial.behavior_eq(&report) {
            failures.push(format!("trace arm {label}: diverged from serial: {d}"));
        }
        let mut trace = sink.finish();
        trace.meta = stats.trace_meta(&format!("fig09 trace arm {label}"));
        let validated = trace.validate();
        let reconciled = trace.reconcile();
        let pinned_eq = match &pinned {
            Some(first) => sim_eq(first, &trace),
            None => Ok(()),
        };
        println!(
            "  {label:>20} | {:>7} {:>10} | {:>9} {:>9} {:>7}",
            trace.spans.len(),
            trace.counters.sim_spans,
            if validated.is_ok() { "ok" } else { "FAIL" },
            if reconciled.is_ok() { "ok" } else { "FAIL" },
            if pinned_eq.is_ok() { "ok" } else { "FAIL" },
        );
        if let Err(e) = validated {
            failures.push(format!("trace arm {label}: validation failed: {e}"));
        }
        if let Err(e) = reconciled {
            failures.push(format!("trace arm {label}: reconciliation failed: {e}"));
        }
        if let Err(e) = pinned_eq {
            failures.push(format!(
                "trace arm {label}: Sim spans diverged from the pinned cell: {e}"
            ));
        }
        if pinned.is_none() {
            pinned = Some(trace.clone());
        }
        if label == "sharded+loss" {
            export = Some(trace);
        }
    }
    (failures, export)
}

/// A cluster report as artifact JSON, with extra fields appended.
fn report_json(stats: &ClusterReport, extra: Vec<(&str, serde_json::Value)>) -> serde_json::Value {
    let mut v = match serde_json::to_value(stats) {
        serde_json::Value::Object(m) => m,
        _ => unreachable!("reports are objects"),
    };
    v.extend(extra.into_iter().map(|(k, x)| (k.to_string(), x)));
    serde_json::Value::Object(v)
}

fn main() {
    let opts = BenchOpts::default();
    let dataset = Dataset::flanv2(opts.seed, opts.dataset_samples_at_least(6000));
    let iters = opts.capped(opts.iters.max(8), 1);
    println!(
        "fig09 cluster — fig17 workload at dp=2, {iters} iteration(s) per arm, \
         {} thread(s)\n",
        rayon::current_num_threads()
    );
    println!(
        "{:>5} {:>9} | {:>12} {:>12} {:>8} | {:>9} {:>10} {:>9}",
        "model", "topology", "serial (ms)", "cluster (ms)", "overlap",
        "blob (KB)", "wire (KB)", "dec (ms)"
    );

    let mut outcomes = Vec::new();
    for (name, model, parallel) in [
        ("GPT", ModelConfig::gpt_6_7b(), ParallelConfig::new(2, 1, 4)),
        ("T5", ModelConfig::t5_11b(), ParallelConfig::new(2, 4, 1)),
    ] {
        let o = run_model(name, model, parallel, &dataset, iters);
        for arm in &o.arms {
            let s = &arm.stats;
            println!(
                "{:>5} {:>9} | {:>12.1} {:>12.1} {:>7.1}% | {:>9.1} {:>10.1} {:>9.2}",
                o.name,
                s.topology,
                o.serial_wall_us / 1e3,
                s.cluster_wall_us / 1e3,
                s.overlap_ratio * 100.0,
                s.mean_blob_bytes / 1e3,
                s.wire_bytes as f64 / 1e3,
                s.decode_us / 1e3,
            );
        }
        let c = &o.churn_arm;
        let ch = &c.stats.churn;
        println!(
            "{:>5} {:>9} | churn +{:.1} ms: {} applied, {} reissued, \
             {} stale, {} moved, {} dup blobs",
            o.name,
            c.stats.topology,
            c.churn_overhead_us.max(0.0) / 1e3,
            ch.events_applied,
            ch.tickets_reissued,
            ch.stale_completions,
            ch.replicas_moved,
            ch.duplicate_blobs_discarded,
        );
        outcomes.push(o);
    }

    println!(
        "\n  datacenter arm — GPT 3.35B pp2, dp = executor hosts, racks of \
         {DC_HOSTS_PER_RACK}, {DC_OVERSUBSCRIPTION}x oversubscribed cross-rack"
    );
    println!(
        "  {:>5} {:>8} {:>6} | {:>12} {:>13} {:>13}",
        "hosts", "store", "churn", "cluster (ms)", "max link (KB)", "fetched (KB)"
    );
    let datacenter = run_datacenter(&dataset, &opts);
    for p in &datacenter {
        for c in &p.cells {
            let fetched: u64 = c.stats.executor_hosts.iter().map(|h| h.bytes_fetched).sum();
            println!(
                "  {:>5} {:>8} {:>6} | {:>12.1} {:>13.1} {:>13.1}",
                p.hosts,
                c.stats.placement,
                if c.churned { "loss" } else { "-" },
                c.stats.cluster_wall_us / 1e3,
                c.stats.max_link_bytes as f64 / 1e3,
                fetched as f64 / 1e3,
            );
        }
    }

    let (trace_failures, trace_export) = run_trace_arm(&dataset, &opts);
    if let Some(trace) = &trace_export {
        write_json("TRACE_cluster", trace);
        let chrome = to_chrome_trace(trace);
        let _ = std::fs::create_dir_all("results");
        match std::fs::write("results/TRACE_cluster_chrome.json", &chrome) {
            Ok(()) => println!(
                "  -> results/TRACE_cluster_chrome.json (load in Perfetto or chrome://tracing)"
            ),
            Err(e) => eprintln!("warning: could not write chrome trace: {e}"),
        }
    }

    // Flat wire format: in-run blob bytes are exact (Σ over the arms);
    // the gated quantities come from the controlled per-model
    // microbenchmark — the in-run decode walls compete with the planner
    // pool for CPU and measure the scheduler on a small container.
    let flat_blob_bytes: f64 = outcomes
        .iter()
        .flat_map(|o| o.arms.iter())
        .map(|a| a.stats.mean_blob_bytes)
        .sum();
    let mut wire_failures = Vec::new();
    println!();
    for (o, reference) in outcomes.iter().zip(&BINARY_REFERENCE) {
        assert_eq!(o.name, reference.model, "reference order follows the model order");
        let b = &o.flat_bench;
        println!(
            "  flat wire {}: {} B / {} records = {:.2} B per record (binary reference {:.2}); \
             validate-and-wrap {:.2} µs per blob (binary tree rebuild {:.1} µs)",
            o.name,
            b.bytes,
            b.records,
            b.bytes_per_record(),
            reference.bytes_per_record,
            b.validate_us_per_blob,
            reference.decode_us_per_blob,
        );
        wire_failures.extend(flat_wire_gate(b, reference));
    }

    let per_model = serde_json::Value::Object(
        outcomes
            .iter()
            .zip(&BINARY_REFERENCE)
            .map(|(o, reference)| {
                let c = &o.churn_arm;
                (
                    o.name.to_string(),
                    serde_json::Value::Object(vec![
                        ("iterations".to_string(), serde_json::json!(o.iterations)),
                        (
                            "serial_wall_us".to_string(),
                            serde_json::json!(o.serial_wall_us),
                        ),
                        (
                            "flat_bench".to_string(),
                            serde_json::json!({
                                "bytes": o.flat_bench.bytes,
                                "records": o.flat_bench.records,
                                "bytes_per_record": o.flat_bench.bytes_per_record(),
                                "validate_us_per_blob": o.flat_bench.validate_us_per_blob,
                                "reps": FLAT_BENCH_REPS,
                                "binary_reference_bytes_per_record": reference.bytes_per_record,
                                "binary_reference_decode_us_per_blob": reference.decode_us_per_blob,
                            }),
                        ),
                        (
                            "arms".to_string(),
                            serde_json::Value::Array(
                                o.arms
                                    .iter()
                                    .map(|a| {
                                        report_json(
                                            &a.stats,
                                            vec![(
                                                "report_divergence",
                                                serde_json::json!(a
                                                    .divergence
                                                    .clone()
                                                    .unwrap_or_default()),
                                            )],
                                        )
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "churn_arm".to_string(),
                            report_json(
                                &c.stats,
                                vec![
                                    (
                                        "undisturbed_wall_us",
                                        serde_json::json!(c.undisturbed_wall_us),
                                    ),
                                    (
                                        "churn_overhead_us",
                                        serde_json::json!(c.churn_overhead_us),
                                    ),
                                    (
                                        "report_divergence",
                                        serde_json::json!(c
                                            .divergence
                                            .clone()
                                            .unwrap_or_default()),
                                    ),
                                ],
                            ),
                        ),
                    ]),
                )
            })
            .collect(),
    );
    let churn_overhead_us: f64 = outcomes
        .iter()
        .map(|o| o.churn_arm.churn_overhead_us.max(0.0))
        .sum();
    let out = serde_json::Value::Object(vec![
        ("iterations".to_string(), serde_json::json!(iters)),
        (
            "flat_blob_bytes".to_string(),
            serde_json::json!(flat_blob_bytes),
        ),
        (
            "churn_overhead_us".to_string(),
            serde_json::json!(churn_overhead_us),
        ),
        (
            "threads".to_string(),
            serde_json::json!(rayon::current_num_threads()),
        ),
        ("per_model".to_string(), per_model),
        (
            "datacenter".to_string(),
            serde_json::Value::Array(
                datacenter
                    .iter()
                    .map(|p| {
                        serde_json::Value::Object(vec![
                            ("hosts".to_string(), serde_json::json!(p.hosts)),
                            ("iterations".to_string(), serde_json::json!(p.iterations)),
                            (
                                "hosts_per_rack".to_string(),
                                serde_json::json!(DC_HOSTS_PER_RACK),
                            ),
                            (
                                "oversubscription".to_string(),
                                serde_json::json!(DC_OVERSUBSCRIPTION),
                            ),
                            (
                                "serial_wall_us".to_string(),
                                serde_json::json!(p.serial_wall_us),
                            ),
                            (
                                "cells".to_string(),
                                serde_json::Value::Array(
                                    p.cells.iter().map(datacenter_cell_json).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    write_root_artifact(&opts, "BENCH_cluster.json", &out);
    write_json("fig09_cluster", &out);

    // Hard checks: the golden invariant (churned arms included), bounded
    // recovery cost, the absolute Flat wire gates, and the trace arm's
    // determinism + reconciliation contract.
    let mut failed = false;
    for f in trace_failures.iter().chain(&wire_failures) {
        eprintln!("error: {f}");
        failed = true;
    }
    if trace_export.is_none() {
        eprintln!("error: trace arm produced no export cell");
        failed = true;
    }
    for o in &outcomes {
        for a in &o.arms {
            if let Some(d) = &a.divergence {
                eprintln!(
                    "error: {} {} diverged from serial: {d}",
                    o.name, a.stats.topology
                );
                failed = true;
            }
        }
        let c = &o.churn_arm;
        if let Some(d) = &c.divergence {
            eprintln!(
                "error: {} churned {} diverged from serial: {d}",
                o.name, c.stats.topology
            );
            failed = true;
        }
        let bound = c.undisturbed_wall_us * 3.0 + 5e6;
        if c.stats.cluster_wall_us > bound {
            eprintln!(
                "error: {} churned {} recovery cost is unbounded: {:.0} µs wall \
                 vs {:.0} µs allowed (3× undisturbed + 5 s)",
                o.name, c.stats.topology, c.stats.cluster_wall_us, bound
            );
            failed = true;
        }
    }
    // Datacenter gates: the golden invariant over every cell (churned
    // included), and the fan-out bar at the largest topology.
    for p in &datacenter {
        if !p.serial_feasible {
            eprintln!(
                "error: datacenter {}h serial oracle is infeasible — the sweep proved nothing",
                p.hosts
            );
            failed = true;
        }
        for c in &p.cells {
            if let Some(d) = &c.divergence {
                eprintln!(
                    "error: datacenter {}h {}{} diverged from serial: {d}",
                    p.hosts,
                    c.stats.placement,
                    if c.churned { " (churned)" } else { "" }
                );
                failed = true;
            }
        }
    }
    if let Some(p) = datacenter.last() {
        let cell = |placement: &str| {
            p.cells
                .iter()
                .find(|c| !c.churned && c.stats.placement == placement)
        };
        match (cell("single"), cell("sharded")) {
            (Some(single), Some(sharded)) => {
                // The single store host's downlink: every byte the other
                // executor hosts fetch comes off host 0's NIC (its own
                // replicas read local copies, uncounted).
                let downlink: u64 = single
                    .stats
                    .executor_hosts
                    .iter()
                    .map(|h| h.bytes_fetched)
                    .sum();
                if sharded.stats.max_link_bytes >= downlink {
                    eprintln!(
                        "error: datacenter {}h: sharded busiest link carries {} B, not \
                         strictly below the single store host's {} B downlink — sharding \
                         stopped spreading the plan stream",
                        p.hosts, sharded.stats.max_link_bytes, downlink
                    );
                    failed = true;
                }
            }
            _ => {
                eprintln!(
                    "error: datacenter {}h: missing a placement cell for the fan-out gate",
                    p.hosts
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
