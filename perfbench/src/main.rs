//! The repository benchmark: DynaPipe's Fig. 9 deployment (planner →
//! instruction store → executor hosts) driven end to end on one named
//! workload, or a traced layer-by-layer replay of the same mini-batches.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gpt-long --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The load is a closed loop in one process: one planner host with one
//! worker, plan-ahead window 4, rayon at the machine's core count. With
//! `--trace 0` the cluster runtime runs tracing off for `--seconds` and
//! the end-to-end metrics are printed; `--trace 1` replays the mini-batches
//! through each layer's public functions for `--seconds` and prints the
//! per-layer metrics. Both modes run the correctness gate (see
//! `replay.rs`) and print, as the last line of standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod adapter;
mod metrics;
mod replay;
mod spans;
mod stats;
mod system;
mod workloads;

use adapter::{self as a, RunReport, Setup};
use serde_json::{json, Value};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Workload, ITERATIONS, WARMUP_ITERATIONS};

/// Version of the results-file layout.
const SCHEMA: u64 = 1;
/// Packed sequences per micro-batch the packing baseline may use; the
/// best throughput among them is the paper's "MLM+DS (C)".
const PACKING_MB_SIZES: [usize; 3] = [1, 2, 4];
/// Iterations of the first replay pass written to the Chrome trace.
const EXPORTED_ITERATIONS: usize = 64;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <gpt-long|gpt-wide> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// What one mode measured, before printing.
struct Measured {
    attempted: usize,
    failed: usize,
    /// `Err` is a correctness-gate failure: no number is reported.
    metrics: Result<Vec<(&'static str, f64)>, String>,
    /// Mode-specific provenance and detail for the results file.
    detail: Vec<(&'static str, Value)>,
}

/// Measure and report; `Ok(false)` when the correctness gate failed.
fn run(args: &Args) -> Result<bool, String> {
    let w = workloads::find(&args.workload)
        .ok_or_else(|| format!("unknown workload {}\n{USAGE}", args.workload))?;
    println!(
        "perfbench: {} (seed {}, {} s, trace {}), {} rayon threads on {} cores",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        a::rayon_threads(),
        system::available_parallelism()
    );
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    let measured = if args.trace {
        let (setup, _) = set_up(&w, args.seed)?;
        traced(
            &setup,
            Instant::now() + Duration::from_secs(args.seconds),
            &stem,
        )?
    } else {
        end_to_end(
            &w,
            args.seed,
            Instant::now() + Duration::from_secs(args.seconds),
        )?
    };
    report(args, &w, &stem, measured)
}

/// Build a set-up (dataset, cost model, planner, cluster, warm-up call);
/// returns it with the time it took.
fn set_up(w: &Workload, seed: u64) -> Result<(Setup, f64), String> {
    let t = Instant::now();
    let setup = a::build_setup(&w.params, seed);
    if !setup.feasible() {
        return Err(format!(
            "{}: the parallelism does not fit in device memory",
            w.name
        ));
    }
    let batches = setup.minibatch_count();
    if batches < ITERATIONS {
        return Err(format!(
            "{}: the dataset yields {batches} mini-batches, need {ITERATIONS}",
            w.name
        ));
    }
    let (warm, _) = setup.run_cluster(WARMUP_ITERATIONS);
    if let Some(f) = a::failure(&warm) {
        return Err(format!("{}: warm-up failed: {f}", w.name));
    }
    Ok((setup, t.elapsed().as_secs_f64()))
}

/// Set-up, a timed cluster-runtime call and a serial-driver run, again
/// and again until `deadline`, then the gate and the packing baseline
/// (both untimed) on the last set-up.
///
/// Each call gets a fresh set-up, so that `setup_s`, the median set-up
/// time, samples the whole run as `iters_per_s` does. One set-up takes
/// only ~0.1-0.2 s: set-ups timed back to back would sample a second or
/// two of a host whose speed drifts. The plan latencies are percentiles
/// over the mini-batches of each one's fastest planning across the serial
/// runs: on a shared host, other tenants slow the planner by up to ~40%
/// for seconds at a time, and a run's own percentiles mix those
/// slowdowns into the tail.
fn end_to_end(w: &Workload, seed: u64, deadline: Instant) -> Result<Measured, String> {
    let (mut attempted, mut failed) = (0, 0);
    let mut setup_s = Vec::new();
    let mut calls_per_s = Vec::new();
    // Per mini-batch: its lowest planner latency over the serial runs, µs.
    let mut best_plan_us: Vec<f64> = Vec::new();
    // Per serial run: (p50, p90) of its planner latencies, µs.
    let mut plan_us = Vec::new();
    let mut first: Option<RunReport> = None;
    let mut mismatch = None;
    let mut last: Option<Setup>;
    loop {
        let round = Instant::now();
        // Drop the previous set-up before building the next.
        last = None;
        let (fresh, secs) = set_up(w, seed)?;
        setup_s.push(secs);
        let setup = last.insert(fresh);
        let t = Instant::now();
        let (report, _) = setup.run_cluster(ITERATIONS);
        let wall = t.elapsed().as_secs_f64();
        // A failed iteration ends the call.
        let fa = usize::from(a::failure(&report).is_some());
        attempted += a::completed(&report) + fa;
        failed += fa;
        calls_per_s.push(a::completed(&report) as f64 / wall);
        // Planner latency comes from the serial driver on the same
        // mini-batches. In the cluster run the planner's rayon threads
        // share the cores with the prefetcher and executor threads, so
        // its latency there measures the scheduler more than the planner.
        let serial = setup.run_serial();
        if let Err(e) = a::behavior_eq(&report, &serial) {
            mismatch.get_or_insert(format!("serial driver vs cluster run: {e}"));
        }
        let latencies: Vec<f64> = a::planning_times_us(&serial).collect();
        if best_plan_us.is_empty() {
            best_plan_us.clone_from(&latencies);
        }
        for (best, &l) in best_plan_us.iter_mut().zip(&latencies) {
            *best = best.min(l);
        }
        // A call cut short by a failure may have too few samples for p90.
        if let (Ok(p50), Ok(p90)) = (
            stats::percentile(&latencies, 0.5),
            stats::percentile(&latencies, 0.9),
        ) {
            plan_us.push((p50, p90));
        }
        match &first {
            None => first = Some(report),
            Some(f) => {
                if let Err(e) = a::behavior_eq(f, &report) {
                    mismatch.get_or_insert(format!(
                        "run call {} diverged from the first: {e}",
                        calls_per_s.len()
                    ));
                }
            }
        }
        // A round takes 4-8 s; start another only if half of it fits, so
        // that a run measures `--seconds` on average.
        if Instant::now() + round.elapsed() / 2 >= deadline {
            break;
        }
    }
    // Read before the gate and the baseline allocate anything. Reported,
    // not gated: glibc's per-thread arenas make it bimodal across
    // processes running the same code.
    let peak_rss_mb = system::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let error_rate = failed as f64 / attempted.max(1) as f64;
    let first = first.ok_or("no run call was made")?;
    let setup = last.ok_or("no run call was made")?;
    println!(
        "timed: {} run calls x {ITERATIONS} iterations; {attempted} attempted, {failed} failed; \
         error_rate {error_rate} ratio; peak_rss_mb {peak_rss_mb} MB",
        calls_per_s.len(),
    );
    let gate = mismatch.map_or_else(|| gate_replay(&setup, &first), Err);
    let metrics = match gate {
        Err(e) => Err(e),
        Ok(()) => {
            let (mb_size, packing) = best_packing(PACKING_MB_SIZES.iter().map(|&mb| {
                let r = setup.run_packing(mb);
                let ok = a::failure(&r).is_none() && a::completed(&r) == ITERATIONS;
                (mb, ok.then(|| a::sim_tokens_per_s(&r)))
            }))
            .ok_or("the packing baseline fails at every mb_size")?;
            let sim = a::sim_tokens_per_s(&first);
            println!("packing baseline: best mb_size {mb_size}, {packing} tok/s");
            Ok(vec![
                ("iters_per_s", median_of(calls_per_s.iter().copied())?),
                ("plan_ms_p50", stats::percentile(&best_plan_us, 0.5)? / 1e3),
                ("plan_ms_p90", stats::percentile(&best_plan_us, 0.9)? / 1e3),
                ("sim_tokens_per_s", sim),
                ("speedup_vs_packing", sim / packing),
                ("setup_s", median_of(setup_s.iter().copied())?),
            ])
        }
    };
    Ok(Measured {
        attempted,
        failed,
        metrics,
        detail: vec![
            ("timed_calls", json!(calls_per_s.len())),
            ("plan_latency_samples_per_call", json!(ITERATIONS)),
            ("error_rate", json!(error_rate)),
            ("peak_rss_mb", json!(peak_rss_mb)),
            ("iters_per_s_per_call", json!(calls_per_s)),
            ("setup_s_per_call", json!(setup_s)),
            (
                "plan_ms_p50_p90_per_call",
                json!(plan_us
                    .iter()
                    .map(|&(p50, p90)| json!([p50 / 1e3, p90 / 1e3]))
                    .collect::<Vec<_>>()),
            ),
        ],
    })
}

/// Median over the timed calls: a call disturbed by the rest of the
/// machine moves it less than a pooled statistic.
fn median_of(per_call: impl Iterator<Item = f64>) -> Result<f64, String> {
    stats::median(&per_call.collect::<Vec<_>>()).ok_or_else(|| "no run call was made".into())
}

/// The best packing throughput and its `mb_size`; `None` when every size
/// fails. Ties keep the smaller size.
fn best_packing(
    candidates: impl IntoIterator<Item = (usize, Option<f64>)>,
) -> Option<(usize, f64)> {
    candidates
        .into_iter()
        .filter_map(|(mb, tps)| tps.map(|t| (mb, t)))
        .fold(None, |best, (mb, t)| match best {
            Some((_, b)) if b >= t => best,
            _ => Some((mb, t)),
        })
}

/// One untimed replay whose report must match the cluster run's.
fn gate_replay(setup: &Setup, reference: &RunReport) -> Result<(), String> {
    let replayed = replay::replay(setup, ITERATIONS, &mut Recorder::new())?;
    match replayed.mismatch {
        Some(e) => Err(e),
        None => a::behavior_eq(&replayed.report, reference)
            .map_err(|e| format!("replay vs cluster run: {e}")),
    }
}

/// One cluster call for the reference report and the cluster counters,
/// then replay passes until `deadline`; per-layer values are per
/// iteration over all passes.
fn traced(setup: &Setup, deadline: Instant, stem: &str) -> Result<Measured, String> {
    let (reference, cluster) = setup.run_cluster(ITERATIONS);
    let c = a::cluster_totals(&cluster);
    let mut rec = Recorder::new();
    let (mut attempted, mut failed, mut passes) = (0, 0, 0usize);
    let mut replay_s = 0.0;
    let mut first_pass: Option<replay::Replay> = None;
    let mut exported = 0;
    let mut gate = Ok(());
    while gate.is_ok() {
        let t = Instant::now();
        let mut pass = replay::replay(setup, ITERATIONS, &mut rec)?;
        replay_s += t.elapsed().as_secs_f64();
        attempted += pass.attempted;
        failed += pass.failed;
        passes += 1;
        gate = match pass.mismatch.take() {
            Some(e) => Err(e),
            None => a::behavior_eq(&pass.report, &reference)
                .map_err(|e| format!("replay vs cluster run: {e}")),
        };
        match &first_pass {
            None => {
                exported = rec.spans().len();
                first_pass = Some(pass);
            }
            Some(f) if f.counts != pass.counts => {
                gate = Err("replay counts differ between passes".into())
            }
            Some(_) => {}
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    println!("traced: {passes} replay passes x {ITERATIONS} iterations; {attempted} attempted, {failed} failed");
    let trace_file = write_file(
        &results_dir(),
        &format!("{stem}-replay.trace.json"),
        &spans::chrome_trace(
            rec.spans()[..exported]
                .iter()
                .take_while(|s| s.iteration < EXPORTED_ITERATIONS),
        ),
    );
    let metrics = gate.and_then(|()| {
        let first = first_pass.ok_or("no replay pass completed")?;
        layer_values(&rec, attempted, replay_s, &first, &c)
    });
    Ok(Measured {
        attempted,
        failed,
        metrics,
        detail: vec![
            ("replay_passes", json!(passes)),
            (
                "chrome_trace",
                json!(trace_file.map(|p| p.display().to_string())),
            ),
        ],
    })
}

/// Per-iteration per-layer values, in the catalogue's order.
fn layer_values(
    rec: &Recorder,
    replayed: usize,
    replay_s: f64,
    first: &replay::Replay,
    c: &a::ClusterTotals,
) -> Result<Vec<(&'static str, f64)>, String> {
    let n = replayed as f64;
    let by_name = spans::self_time_by_name(rec.spans());
    let self_us = |span: &str| {
        by_name
            .iter()
            .find(|(s, _)| *s == span)
            .map_or(0.0, |(_, t)| t / n)
    };
    let covered: f64 = by_name
        .iter()
        .filter(|(s, _)| *s != "replay.iteration")
        .map(|(_, t)| t / n)
        .sum();
    // Counts are those of the first pass (every pass repeats them).
    let counts = &first.counts;
    let per_pass = first.attempted.max(1) as f64;
    let ci = c.iterations.max(1) as f64;
    let values = [
        ("data.batch_us", self_us("data.batch")),
        ("data.samples", counts.samples as f64 / per_pass),
        ("batcher.order_us", self_us("batcher.order")),
        ("batcher.shape_pass_us", self_us("batcher.shape_pass")),
        ("batcher.fwd_cost_us", self_us("batcher.fwd_cost")),
        ("batcher.partition_us", self_us("batcher.partition")),
        ("batcher.kk_us", self_us("batcher.kk")),
        (
            "batcher.distinct_shapes",
            counts.distinct_shapes as f64 / per_pass,
        ),
        (
            "batcher.micro_batches",
            counts.micro_batches as f64 / per_pass,
        ),
        (
            "batcher.padding_efficiency",
            counts.padding_efficiency / per_pass,
        ),
        ("cost.grid_batch_points", counts.grid[0] as f64 / per_pass),
        ("cost.grid_batch_cells", counts.grid[1] as f64 / per_pass),
        ("cost.grid_batch_evals", counts.grid[2] as f64 / per_pass),
        ("cost.schedule_input_us", self_us("cost.schedule_input")),
        ("schedule.reorder_us", self_us("schedule.reorder")),
        ("schedule.build_us", self_us("schedule.build")),
        ("schedule.eval_us", self_us("schedule.eval")),
        ("schedule.idle_share", counts.idle_share / per_pass),
        ("comm.plan_us", self_us("comm.plan")),
        ("comm.verify_us", self_us("comm.verify")),
        ("comm.instructions", counts.instructions as f64 / per_pass),
        ("core.plan_us", self_us("core.plan")),
        ("core.lower_us", self_us("core.lower")),
        ("core.encode_us", self_us("core.encode")),
        ("core.blob_bytes", counts.blob_bytes as f64 / per_pass),
        ("core.store_push_us", self_us("core.store_push")),
        ("core.store_take_us", self_us("core.store_take")),
        ("core.validate_us", self_us("core.validate")),
        ("core.plan_meta_us", self_us("core.plan_meta")),
        ("sim.exec_us", self_us("sim.exec")),
        ("sim.iteration_ms", counts.sim_iteration_us / per_pass / 1e3),
        (
            "sim.allocator_stall_us",
            counts.allocator_stall_us / per_pass,
        ),
        ("cluster.wire_bytes", c.wire_bytes as f64 / ci),
        ("cluster.max_link_bytes", c.max_link_bytes as f64 / ci),
        ("cluster.wire_ms", c.wire_us / ci / 1e3),
        ("cluster.decode_us", c.decode_us / ci),
        ("cluster.serialize_us", c.serialize_us / ci),
        ("replay.wall_us", replay_s * 1e6 / n),
        ("replay.self_sum_us", covered),
    ];
    let names: Vec<&str> = values.iter().map(|(k, _)| *k).collect();
    let catalogue: Vec<&str> = metrics::PER_LAYER.iter().map(|x| x.metric.name).collect();
    if names != catalogue {
        return Err("per-layer values and the metric catalogue disagree".into());
    }
    Ok(values.to_vec())
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Write `value` to `results/<name>`; a failure is reported, not fatal.
fn write_file(dir: &Path, name: &str, value: &Value) -> Option<PathBuf> {
    let path = dir.join(name);
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, value.to_json()));
    match written {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Print the human-readable lines, write the results file, and print the
/// result object as the last line.
fn report(args: &Args, w: &Workload, stem: &str, m: Measured) -> Result<bool, String> {
    let catalogue: Vec<&metrics::Metric> = if args.trace {
        metrics::PER_LAYER.iter().map(|x| &x.metric).collect()
    } else {
        metrics::END_TO_END.iter().collect()
    };
    let provenance = json!({
        "schema": SCHEMA,
        "commit": system::git_commit(&Path::new(env!("CARGO_MANIFEST_DIR")).join("..")),
        "available_parallelism": system::available_parallelism(),
        "rayon_threads": a::rayon_threads(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations_per_call": ITERATIONS,
        "warmup_iterations": WARMUP_ITERATIONS,
        "workload": w.describe(),
    });
    println!("provenance: {}", provenance.to_json());
    let correct = m.metrics.is_ok();
    let metrics_json = match &m.metrics {
        Ok(values) => {
            let mut out = serde_json::Map::new();
            for x in &catalogue {
                let v = values
                    .iter()
                    .find(|(k, _)| *k == x.name)
                    .map(|(_, v)| *v)
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| format!("metric {} was not measured", x.name))?;
                println!("  {:<28} {:>16.4} {}", x.name, v, x.unit);
                out.push((x.name.to_string(), json!({"value": v, "unit": x.unit})));
            }
            Value::Object(out)
        }
        Err(e) => {
            eprintln!("perfbench: CORRECTNESS GATE FAILED: {e}");
            Value::Object(serde_json::Map::new())
        }
    };
    let mut file = vec![
        ("provenance".to_string(), provenance),
        ("correct".to_string(), json!(correct)),
        ("metrics".to_string(), metrics_json.clone()),
        ("layer_targets".to_string(), metrics::targets()),
    ];
    file.extend(m.detail.into_iter().map(|(k, v)| (k.to_string(), v)));
    write_file(
        &results_dir(),
        &format!("{stem}.json"),
        &Value::Object(file),
    );
    let result = json!({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics_json,
    });
    println!("{}", result.to_json());
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_baseline_picks_the_best_feasible_mb_size() {
        assert_eq!(
            best_packing([(1, Some(10.0)), (2, Some(30.0)), (4, Some(20.0))]),
            Some((2, 30.0))
        );
        assert_eq!(
            best_packing([(1, None), (2, Some(5.0)), (4, Some(7.5))]),
            Some((4, 7.5))
        );
        assert_eq!(
            best_packing([(1, Some(3.0)), (2, Some(3.0)), (4, None)]),
            Some((1, 3.0))
        );
        assert_eq!(best_packing([(1, None), (2, None)]), None);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = parse("--workload gpt-long --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("gpt-long", 3, 10, true)
        );
        assert!(parse("--workload gpt-long --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload gpt-long --seed 3 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload gpt-long --seed x --seconds 1 --trace 0").is_err());
        assert!(parse("--workload gpt-long --seed 3 --seconds 1").is_err());
        assert!(parse("--bogus 1").is_err());
    }
}
