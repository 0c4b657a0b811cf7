//! Fig. 17 end-to-end: the pipelined plan-ahead runtime hiding planning
//! behind execution.
//!
//! Runs the fig17 workload (65k-token mini-batches, GPT 6.7B and T5 11B
//! on 8 GPUs) through three drivers:
//!
//! * **serial**: [`run_training`] — the golden-reference plan → simulate
//!   loop, where every microsecond of planning sits on the training
//!   timeline;
//! * **pipelined (in-process)**: [`run_training_pipelined_traced`] — the
//!   plan-ahead runtime: a planner pool plans ahead of a bounded window
//!   while the executor runs the current iteration (replicas in
//!   parallel, programs pre-compiled by the lowering stage);
//! * **pipelined (store-backed)**: the cluster runtime
//!   ([`run_training_cluster_traced`]) at its single-host topology — one
//!   planner host with the same worker count and window, one executor
//!   host, free links — so plans cross the instruction store as
//!   serialized wire blobs (the paper's Fig. 9 Redis architecture) and
//!   this arm additionally pays and reports serialize/decode overhead.
//!   Plans cross as Flat blobs, whose executors run engines straight
//!   over the fetched bytes; the arm reports blob bytes and
//!   serialize/deserialize time.
//!
//! Wall-clock is measured on the **training timeline** (simulated GPU
//! execution + real host planning), the same planning-vs-iteration
//! methodology as the `fig17_planning_time` bench: in a real deployment
//! execution occupies the cluster for seconds while planning occupies CPU
//! milliseconds; the simulator compresses execution, so host wall alone
//! cannot exhibit the overlap the paper measures. `serial_wall_us` is
//! Σ(planning + execution); `pipelined_wall_us` is the runtime's virtual
//! clock (the cluster wall for the store arms), which only waits for
//! plans that are not ready yet (`exposed_planning_us`). Host walls of
//! every driver are reported too.
//!
//! Emits `BENCH_runtime.json` with `{serial_wall_us, pipelined_wall_us,
//! exposed_planning_us, hidden_planning_us, overlap_ratio}` plus
//! per-model and per-arm detail (the store arm under `"store"`), and
//! **exits nonzero** if any pipelined `RunReport` — either arm —
//! diverges from the serial driver's (`RunReport::behavior_eq`), or if
//! either arm stops beating the serial timeline — a silent behavior
//! change or a serialization bit-rot must never masquerade as a
//! wall-clock win — or if the Flat wire format leaves its absolute
//! bounds on a controlled per-model microbenchmark
//! ([`dynapipe_bench::flat_wire_bench`]): bytes per instruction record at
//! most 1.25×, and validate-and-wrap per blob under 0.2×, what the retired
//! Binary wire codec measured on the same blob ([`BINARY_REFERENCE`]).
//! `run_all --smoke` runs this bin with one capped iteration, so the
//! store arm's divergence check and both wire gates run in CI in minutes.

use dynapipe_bench::{
    flat_wire_bench, flat_wire_gate, write_json, write_root_artifact, BenchOpts,
    BinaryReference, FlatWireBench, Point,
};
use dynapipe_cluster::{run_training_cluster_traced, ClusterConfig};
use dynapipe_core::{
    run_training, run_training_pipelined_traced, DynaPipePlanner, PlannerConfig, RunConfig,
    RuntimeConfig,
};
use dynapipe_cost::{CostModel, ProfileOptions};
use dynapipe_data::{Dataset, GlobalBatchConfig};
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use dynapipe_sim::Fabric;
use dynapipe_trace::TraceSink;
use std::sync::Arc;
use std::time::Instant;

/// What the retired Binary wire codec measured on each model's
/// [`flat_wire_bench`] blob: bytes per instruction record (exact), and
/// its `StoredPlan::decode` tree rebuild per blob (best of three runs of
/// three passes × 5 reps). Measured at commit 785e38b on a 2-vCPU
/// "Intel(R) Xeon(R) Processor" VM. The Flat gates compare against these
/// constants, so they keep the strength of the flat-vs-binary byte gate
/// they replace. Every `f64` in a Flat blob is 8 raw bytes, so the byte
/// figures do not move with wall-clock `planning_time_us` (pinned by the
/// codec unit tests) and hold in smoke runs too.
const BINARY_REFERENCE: [BinaryReference; 2] = [
    BinaryReference {
        model: "GPT",
        bytes_per_record: 65.9851,
        decode_us_per_blob: 1611.9,
    },
    BinaryReference {
        model: "T5",
        bytes_per_record: 69.3411,
        decode_us_per_blob: 874.4,
    },
];

struct ArmOutcome {
    pipelined_wall_us: f64,
    total_planning_us: f64,
    exposed_us: f64,
    hidden_us: f64,
    /// The library's `RuntimeStats::overlap_ratio` /
    /// `ClusterReport::overlap_ratio` — single definitions.
    overlap_ratio: f64,
    host_us: f64,
    /// Worker-side encode + push time (µs; store arm only).
    serialize_us: f64,
    /// Executor-side decode time (µs; store arm only).
    deserialize_us: f64,
    /// Total wire bytes pushed through the store (store arm only).
    blob_bytes: u64,
    divergence: Option<String>,
}

struct ModelOutcome {
    name: &'static str,
    iterations: usize,
    serial_wall_us: f64,
    serial_host_us: f64,
    in_process: ArmOutcome,
    store_backed: ArmOutcome,
    flat_bench: FlatWireBench,
}

fn run_model(
    name: &'static str,
    model: ModelConfig,
    parallel: ParallelConfig,
    dataset: &Dataset,
    iters: usize,
    runtime: RuntimeConfig,
) -> ModelOutcome {
    let hw = HardwareModel::a100_cluster();
    let cm = Arc::new(CostModel::build(
        hw,
        model,
        parallel,
        &ProfileOptions::default(),
    ));
    let planner = DynaPipePlanner::new(cm, PlannerConfig::default());
    let point = Point {
        model,
        num_gpus: 8,
        max_seq_len: 4096,
        gbs_tokens: 65536,
    };
    let gbs = GlobalBatchConfig {
        tokens_per_batch: point.gbs_tokens,
        max_seq_len: point.max_seq_len,
    };
    let run = RunConfig {
        max_iterations: Some(iters),
        ..Default::default()
    };

    let t0 = Instant::now();
    let serial = run_training(&planner, dataset, gbs, run);
    let serial_host_us = t0.elapsed().as_secs_f64() * 1e6;
    // The serial training timeline: every iteration pays planning, then
    // executes.
    let serial_wall_us: f64 = serial
        .records
        .iter()
        .map(|r| r.planning_time_us + r.measured_time)
        .sum();

    let t1 = Instant::now();
    let (pipelined, stats) = run_training_pipelined_traced(
        &planner,
        dataset,
        gbs,
        run,
        runtime,
        &TraceSink::disabled(),
    );
    let in_process = ArmOutcome {
        pipelined_wall_us: stats.pipelined_wall_us,
        total_planning_us: stats.total_planning_us(),
        exposed_us: stats.exposed_planning_us(),
        hidden_us: stats.hidden_planning_us(),
        overlap_ratio: stats.overlap_ratio(),
        host_us: t1.elapsed().as_secs_f64() * 1e6,
        serialize_us: 0.0,
        deserialize_us: 0.0,
        blob_bytes: 0,
        divergence: serial.behavior_eq(&pipelined).err(),
    };
    let iterations = pipelined.records.len();
    // The store arm: plans cross the instruction store between one
    // planner host and one executor host; free links keep the wire out
    // of the comparison with the in-process arm.
    let store_backed = {
        let cluster = ClusterConfig {
            planner_hosts: 1,
            workers_per_host: runtime.workers,
            executor_hosts: 1,
            plan_ahead: runtime.plan_ahead,
            fabric: Fabric::free(),
            ..Default::default()
        };
        let t1 = Instant::now();
        let (report, stats) = run_training_cluster_traced(
            &planner,
            dataset,
            gbs,
            run,
            cluster,
            &TraceSink::disabled(),
        );
        ArmOutcome {
            pipelined_wall_us: stats.cluster_wall_us,
            total_planning_us: stats.total_planning_us,
            exposed_us: stats.exposed_us,
            hidden_us: stats.hidden_us(),
            overlap_ratio: stats.overlap_ratio,
            host_us: t1.elapsed().as_secs_f64() * 1e6,
            serialize_us: stats.serialize_us,
            deserialize_us: stats.decode_us,
            blob_bytes: stats.planner_hosts.iter().map(|h| h.bytes_pushed).sum(),
            divergence: serial.behavior_eq(&report).err(),
        }
    };
    ModelOutcome {
        name,
        iterations,
        serial_wall_us,
        serial_host_us,
        in_process,
        store_backed,
        flat_bench: flat_wire_bench(&planner),
    }
}

fn arm_json(o: &ArmOutcome) -> serde_json::Value {
    serde_json::json!({
        "pipelined_wall_us": o.pipelined_wall_us,
        "total_planning_us": o.total_planning_us,
        "exposed_planning_us": o.exposed_us,
        "hidden_planning_us": o.hidden_us,
        "overlap_ratio": o.overlap_ratio,
        "host_us": o.host_us,
        "serialize_us": o.serialize_us,
        "deserialize_us": o.deserialize_us,
        "blob_bytes": o.blob_bytes,
        "report_divergence": o.divergence.clone().unwrap_or_default(),
    })
}

fn main() {
    let opts = BenchOpts::default();
    let dataset = Dataset::flanv2(opts.seed, opts.dataset_samples_at_least(6000));
    let iters = opts.capped(opts.iters.max(8), 2);
    let runtime = RuntimeConfig::default();
    println!(
        "plan-ahead runtime — fig17 workload, {iters} iterations, \
         window {} / {} planner worker(s), {} thread(s)\n",
        runtime.plan_ahead,
        runtime.workers,
        rayon::current_num_threads()
    );
    println!(
        "{:>5} {:>6} | {:>12} {:>12} | {:>10} {:>10} {:>8} | {:>10}",
        "model", "arm", "serial (ms)", "pipe (ms)", "plan (ms)", "hidden", "overlap", "serde (ms)"
    );

    let mut outcomes = Vec::new();
    for (name, model, parallel) in [
        ("GPT", ModelConfig::gpt_6_7b(), ParallelConfig::new(1, 2, 4)),
        ("T5", ModelConfig::t5_11b(), ParallelConfig::new(1, 4, 2)),
    ] {
        let o = run_model(name, model, parallel, &dataset, iters, runtime);
        for (arm_name, a) in [("arc", &o.in_process), ("store", &o.store_backed)] {
            println!(
                "{:>5} {:>6} | {:>12.1} {:>12.1} | {:>10.1} {:>10.1} {:>7.1}% | {:>10.2}",
                o.name,
                arm_name,
                o.serial_wall_us / 1e3,
                a.pipelined_wall_us / 1e3,
                a.total_planning_us / 1e3,
                a.hidden_us / 1e3,
                a.overlap_ratio * 100.0,
                (a.serialize_us + a.deserialize_us) / 1e3,
            );
        }
        outcomes.push(o);
    }

    let serial_wall_us: f64 = outcomes.iter().map(|o| o.serial_wall_us).sum();
    let pipelined_wall_us: f64 = outcomes.iter().map(|o| o.in_process.pipelined_wall_us).sum();
    let exposed_planning_us: f64 = outcomes.iter().map(|o| o.in_process.exposed_us).sum();
    let hidden_planning_us: f64 = outcomes.iter().map(|o| o.in_process.hidden_us).sum();
    let total_planning_us: f64 = outcomes.iter().map(|o| o.in_process.total_planning_us).sum();
    let overlap_ratio = if total_planning_us > 0.0 {
        hidden_planning_us / total_planning_us
    } else {
        1.0
    };
    let store_wall_us: f64 = outcomes
        .iter()
        .map(|o| o.store_backed.pipelined_wall_us)
        .sum();
    let store_hidden_us: f64 = outcomes.iter().map(|o| o.store_backed.hidden_us).sum();
    let store_total_us: f64 = outcomes
        .iter()
        .map(|o| o.store_backed.total_planning_us)
        .sum();
    let store_overlap_ratio = if store_total_us > 0.0 {
        store_hidden_us / store_total_us
    } else {
        1.0
    };
    let store_serde_us: f64 = outcomes
        .iter()
        .map(|o| o.store_backed.serialize_us + o.store_backed.deserialize_us)
        .sum();
    let store_blob_bytes: u64 = outcomes.iter().map(|o| o.store_backed.blob_bytes).sum();
    println!(
        "\n  total: serial {:.1} ms vs pipelined {:.1} ms (in-process, {:.1}% hidden) \
         vs {:.1} ms (store-backed, {:.1}% hidden, {:.2} ms serde, {:.1} KB of Flat blobs)",
        serial_wall_us / 1e3,
        pipelined_wall_us / 1e3,
        overlap_ratio * 100.0,
        store_wall_us / 1e3,
        store_overlap_ratio * 100.0,
        store_serde_us / 1e3,
        store_blob_bytes as f64 / 1e3,
    );
    let mut wire_failures = Vec::new();
    for (o, reference) in outcomes.iter().zip(&BINARY_REFERENCE) {
        assert_eq!(o.name, reference.model, "reference order follows the model order");
        let b = &o.flat_bench;
        println!(
            "  flat wire {}: {:.2} B per record (binary reference {:.2}); validate-and-wrap \
             {:.2} µs per blob (binary tree rebuild {:.1} µs)",
            o.name,
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
            .map(|o| {
                (
                    o.name.to_string(),
                    serde_json::json!({
                        "iterations": o.iterations,
                        "serial_wall_us": o.serial_wall_us,
                        "serial_host_us": o.serial_host_us,
                        "in_process": arm_json(&o.in_process),
                        "store": arm_json(&o.store_backed),
                        "flat_bench": serde_json::json!({
                            "bytes": o.flat_bench.bytes,
                            "records": o.flat_bench.records,
                            "bytes_per_record": o.flat_bench.bytes_per_record(),
                            "validate_us_per_blob": o.flat_bench.validate_us_per_blob,
                        }),
                    }),
                )
            })
            .collect(),
    );
    let out = serde_json::Value::Object(vec![
        ("serial_wall_us".to_string(), serde_json::json!(serial_wall_us)),
        (
            "pipelined_wall_us".to_string(),
            serde_json::json!(pipelined_wall_us),
        ),
        (
            "exposed_planning_us".to_string(),
            serde_json::json!(exposed_planning_us),
        ),
        (
            "hidden_planning_us".to_string(),
            serde_json::json!(hidden_planning_us),
        ),
        ("overlap_ratio".to_string(), serde_json::json!(overlap_ratio)),
        (
            "store_pipelined_wall_us".to_string(),
            serde_json::json!(store_wall_us),
        ),
        (
            "store_overlap_ratio".to_string(),
            serde_json::json!(store_overlap_ratio),
        ),
        (
            "store_serde_us".to_string(),
            serde_json::json!(store_serde_us),
        ),
        (
            "store_blob_bytes".to_string(),
            serde_json::json!(store_blob_bytes),
        ),
        ("iterations".to_string(), serde_json::json!(iters)),
        (
            "plan_ahead".to_string(),
            serde_json::json!(runtime.plan_ahead),
        ),
        ("workers".to_string(), serde_json::json!(runtime.workers)),
        (
            "threads".to_string(),
            serde_json::json!(rayon::current_num_threads()),
        ),
        ("per_model".to_string(), per_model),
    ]);
    // The canonical artifact at the repo root (what CI trend-tracks), plus
    // a copy under results/ with the other figure outputs.
    write_root_artifact(&opts, "BENCH_runtime.json", &out);
    write_json("fig17_planahead", &out);

    // Fail loudly on any behavioral divergence: neither pipelined arm is
    // allowed to move anything but wall-clock. The store arm is exactly
    // where serialization bit-rot would surface.
    let mut failed = false;
    for f in &wire_failures {
        eprintln!("error: {f}");
        failed = true;
    }
    for o in &outcomes {
        for (arm_name, a) in [("in-process", &o.in_process), ("store-backed", &o.store_backed)] {
            if let Some(d) = &a.divergence {
                eprintln!(
                    "error: {} {arm_name} report diverged from serial: {d}",
                    o.name
                );
                failed = true;
            }
        }
    }
    for (arm_name, wall) in [("in-process", pipelined_wall_us), ("store-backed", store_wall_us)] {
        if wall >= serial_wall_us {
            eprintln!(
                "error: {arm_name} pipelined wall {wall} µs did not beat serial \
                 {serial_wall_us} µs — planning is no longer being hidden"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
