//! Run every figure-regeneration binary in sequence — the reproduction's
//! analogue of the paper artifact's `run_all.sh`.
//!
//! Results land in `results/*.json`; console output shows each figure's
//! table and its expected-shape note.
//!
//! A full (default) sweep deliberately regenerates the trend-tracked
//! root artifacts too (`BENCH_planning.json`, `BENCH_runtime.json`) —
//! running a bin *is* regenerating its artifact, same as invoking it
//! directly, so only run the full sweep on the machine class whose
//! numbers you want recorded.
//!
//! `--smoke` runs one capped iteration of every bench bin (tiny dataset,
//! one simulated iteration, workload floors dropped via
//! `DYNAPIPE_BENCH_SMOKE=1`) so CI can catch bin bit-rot — a binary that
//! panics, diverges from its reference, or stops emitting its artifact —
//! in minutes instead of a full regeneration run. Divergence checks
//! (`planning_speed`, `fig17_planahead`) still run and still fail the
//! sweep — including `fig17_planahead`'s store-backed arm (engines
//! running straight over the Flat wire bytes) and `fig09_cluster`'s
//! topology matrix with its absolute Flat bytes-per-record and
//! validate-time gates, so plan-serialization bit-rot fails CI; smoke
//! runs never touch the root artifacts. After the figures, the sweep round-trips
//! `fig09_cluster`'s exported span trace through `trace_report`
//! (parse → validate → reconcile → critical path), so a trace that
//! stops reconciling with the counters also fails the sweep.

use std::process::Command;

const FIGURES: &[&str] = &[
    "fig01_dataset",
    "fig03_layer_time",
    "fig04_packing_vs_dynamic",
    "fig05_microbatching_sweep",
    "fig07_noise_robustness",
    "fig13_seqlen_scaling",
    "fig14_gbs_scaling",
    "fig15_padding_efficiency",
    "fig16_ablation",
    "fig09_cluster",
    "fig17_planning_time",
    "fig17_planahead",
    "fig18_cost_model_accuracy",
    "ablation_recompute",
    "planning_speed",
];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("exe dir");
    let mut failures = Vec::new();
    if smoke {
        println!("run_all --smoke: one capped iteration per bin\n");
    }
    // The static-analysis gate runs first: if the determinism contract
    // is broken at the source level, figure regeneration is meaningless.
    // The lint binary is a workspace sibling, built into the same dir.
    println!("================ dynapipe-lint ================\n");
    match Command::new(dir.join("dynapipe-lint")).status() {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("dynapipe-lint exited with {s}");
            failures.push("dynapipe-lint");
        }
        Err(e) => {
            eprintln!("could not launch dynapipe-lint: {e}");
            failures.push("dynapipe-lint");
        }
    }
    for name in FIGURES {
        println!("\n================ {name} ================\n");
        let mut cmd = Command::new(dir.join(name));
        if smoke {
            cmd.env("DYNAPIPE_BENCH_SMOKE", "1")
                .env("DYNAPIPE_BENCH_SAMPLES", "400")
                .env("DYNAPIPE_BENCH_ITERS", "1")
                .env("DYNAPIPE_BENCH_PROBES", "1");
        }
        let status = cmd.status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name} exited with {s}");
                failures.push(*name);
            }
            Err(e) => {
                eprintln!("could not launch {name}: {e}");
                failures.push(*name);
            }
        }
    }
    // Trace round-trip: fig09_cluster exported its trace arm to
    // results/TRACE_cluster.json; `trace_report` re-parses it, replays
    // validation + counter reconciliation on the file (not the
    // in-memory copy), and recomputes the critical path from the spans
    // — exiting nonzero on malformed JSON, a reconciliation failure, or
    // a critical path that disagrees with the run's exposed-planning
    // accounting.
    println!("\n================ trace_report ================\n");
    match Command::new(dir.join("trace_report"))
        .arg("results/TRACE_cluster.json")
        .status()
    {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("trace_report exited with {s}");
            failures.push("trace_report");
        }
        Err(e) => {
            eprintln!("could not launch trace_report: {e}");
            failures.push("trace_report");
        }
    }
    println!("\n================ summary ================");
    if failures.is_empty() {
        println!(
            "all {} figure binaries completed; results in results/",
            FIGURES.len()
        );
    } else {
        println!("failed: {failures:?}");
        std::process::exit(1);
    }
}
