//! Planning-speed regression bench: serial reference vs optimized hot path.
//!
//! Reuses the Fig. 17 workload (65k-token mini-batches of the FLANv2-like
//! dataset, every §7 recompute mode swept) and times the DP partitioning
//! core — the dominant term in per-iteration planning — two ways:
//!
//! * **serial**: the retained reference path
//!   ([`Partitioner::partition_reference`]): per-mode slice-table rebuild,
//!   full `t_max` candidate sweep, no parallelism, no pruning;
//! * **optimized**: the production path: one mode-independent shape pass
//!   shared across all recompute modes, batched deduplicated cost pricing
//!   (one grid solve per mode against a shared query plan), and the
//!   pruned parallel `t_max` sweep seeded by a golden-section probe.
//!
//! Emits `BENCH_planning.json` with `{serial_us, parallel_us, speedup}`
//! plus per-model breakdowns including **distinct-shape counts** and
//! **grid-query counters** (scalar queries vs batched points/cells), so
//! pricing-layer regressions are visible in the artifact, not just the
//! wall clock. Equivalence of the chosen partitions is checked on every
//! measured mini-batch — the speed-up must never come from choosing
//! different partitions — and any divergence makes the bench exit
//! nonzero after reporting every offending case.
//!
//! The optimized path is timed as the median of [`REPEATS`] passes after
//! one warm-up pass, under `ThreadPool::install(t)` for t = 1, 2, 4, …
//! up to the machine's available parallelism N; `parallel_us` is the
//! N-thread median. A full run exits nonzero if that is slower than the
//! 1-thread median (more cores must never cost time); smoke runs only
//! report.
//! The artifact's `provenance` block names the commit, the thread counts
//! and the warm-up and repeat counts.

use dynapipe_batcher::{sort_samples, DpConfig, Partitioner, SliceFwdCosts};
use dynapipe_bench::{
    git_commit, probe_minibatches, write_json, write_root_artifact, BenchOpts, Point,
};
use dynapipe_cost::{grid_query_stats, CostModel, GridQueryStats, ProfileOptions};
use dynapipe_data::{Dataset, Sample};
use dynapipe_model::memory::RecomputeMode;
use dynapipe_model::{HardwareModel, ModelConfig, ParallelConfig};
use rayon::prelude::*;
use std::ops::Range;
use std::time::Instant;

/// Timed passes of the optimized path per thread count.
const REPEATS: usize = 5;
/// Untimed passes before them.
const WARMUP: usize = 1;

/// Median, min and max of one thread count's timed passes (µs).
#[derive(Debug, Clone, Copy)]
struct Timing {
    threads: usize,
    median_us: f64,
    min_us: f64,
    max_us: f64,
}

impl Timing {
    fn from_samples(threads: usize, mut us: Vec<f64>) -> Self {
        us.sort_by(f64::total_cmp);
        Timing {
            threads,
            median_us: us[us.len() / 2],
            min_us: us[0],
            max_us: us[us.len() - 1],
        }
    }

    fn to_json(self) -> serde_json::Value {
        serde_json::json!({
            "threads": self.threads,
            "median_us": self.median_us,
            "min_us": self.min_us,
            "max_us": self.max_us,
        })
    }
}

struct ModelRun {
    name: &'static str,
    serial_us: f64,
    /// Optimized-path timings, one per entry of the thread sweep.
    optimized: Vec<Timing>,
    distinct_shapes: u64,
    serial_queries: GridQueryStats,
    opt_queries: GridQueryStats,
    divergences: usize,
}

impl ModelRun {
    /// The optimized median at the widest thread count.
    fn parallel_us(&self) -> f64 {
        self.optimized
            .last()
            .expect("thread sweep is non-empty")
            .median_us
    }
}

/// What each path chose for one (mini-batch, mode) case.
type Outcome = Option<(f64, Vec<Range<usize>>)>;

fn dp_config(cm: &CostModel, mode: RecomputeMode) -> DpConfig {
    let mut cfg = DpConfig::new(cm.min_activation_budget());
    cfg.recompute = mode;
    cfg.max_mb_samples = 128;
    cfg
}

/// One pass of the production path: one shared shape pass + batched
/// query plan per mini-batch, the recompute modes swept on the pool as
/// the planner does, each with the pruned parallel `t_max` sweep.
/// Returns the outcomes in (mini-batch, mode) order and the distinct
/// shape count.
fn optimized_pass(cm: &CostModel, ordered: &[Vec<Sample>]) -> (Vec<Outcome>, u64) {
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut distinct_shapes = 0u64;
    for mb in ordered {
        let shapes = Partitioner::new(cm, dp_config(cm, RecomputeMode::None)).shape_pass(mb);
        distinct_shapes += shapes.num_distinct_shapes() as u64;
        let fwd = SliceFwdCosts::build(cm, &shapes);
        let per_mode: Vec<Outcome> = RecomputeMode::ALL
            .par_iter()
            .map(|&mode| {
                Partitioner::new(cm, dp_config(cm, mode))
                    .partition_with_context(&shapes, &fwd, mb)
                    .map(|r| (r.est_iteration_time, r.ranges))
            })
            .collect();
        outcomes.extend(per_mode);
    }
    (outcomes, distinct_shapes)
}

/// Count the cases where the optimized path chose differently from the
/// serial reference, reporting each.
fn count_divergences(name: &str, threads: usize, serial: &[Outcome], fast: &[Outcome]) -> usize {
    let mut divergences = 0usize;
    for (i, (s, f)) in serial.iter().zip(fast).enumerate() {
        match (s, f) {
            (Some((so, sr)), Some((fo, fr))) => {
                if (so - fo).abs() > 1e-9 * so.abs().max(1.0) || sr != fr {
                    divergences += 1;
                    eprintln!(
                        "DIVERGENCE {name} case {i} ({threads} threads): serial obj {so} \
                         ({} ranges) vs optimized obj {fo} ({} ranges)",
                        sr.len(),
                        fr.len()
                    );
                }
            }
            (s, f) => {
                if s.is_none() != f.is_none() {
                    divergences += 1;
                    eprintln!(
                        "DIVERGENCE {name} case {i} ({threads} threads): feasibility \
                         (serial {}, optimized {})",
                        s.is_some(),
                        f.is_some()
                    );
                }
            }
        }
    }
    divergences
}

fn run_model(
    name: &'static str,
    model: ModelConfig,
    parallel: ParallelConfig,
    minibatches: &[Vec<Sample>],
    thread_sweep: &[usize],
) -> ModelRun {
    let hw = HardwareModel::a100_cluster();
    let cm = CostModel::build(hw, model, parallel, &ProfileOptions::default());
    let ordered: Vec<Vec<Sample>> = minibatches
        .iter()
        .map(|mb| {
            let mut s = mb.clone();
            sort_samples(cm.model.arch, &mut s);
            s
        })
        .collect();

    // Serial reference: rebuild the fused slice table per recompute mode,
    // full candidate sweep.
    let stats0 = grid_query_stats();
    let t0 = Instant::now();
    let mut serial_outcomes: Vec<Outcome> = Vec::new();
    for mb in &ordered {
        for mode in RecomputeMode::ALL {
            let p = Partitioner::new(&cm, dp_config(&cm, mode));
            serial_outcomes.push(
                p.partition_reference(mb)
                    .map(|r| (r.est_iteration_time, r.ranges)),
            );
        }
    }
    let serial_us = t0.elapsed().as_secs_f64() * 1e6;
    let stats1 = grid_query_stats();

    // Grid counters and shape count of one optimized pass at the
    // default thread count (it also warms the caches).
    let (_, distinct_shapes) = optimized_pass(&cm, &ordered);
    let opt_queries = grid_query_stats().since(&stats1);

    let mut divergences = 0usize;
    let mut optimized = Vec::new();
    for &threads in thread_sweep {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        let samples: Vec<f64> = pool.install(|| {
            for _ in 0..WARMUP {
                optimized_pass(&cm, &ordered);
            }
            (0..REPEATS)
                .map(|_| {
                    let t = Instant::now();
                    let (outcomes, _) = optimized_pass(&cm, &ordered);
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    divergences += count_divergences(name, threads, &serial_outcomes, &outcomes);
                    us
                })
                .collect()
        });
        optimized.push(Timing::from_samples(threads, samples));
    }

    let run = ModelRun {
        name,
        serial_us,
        optimized,
        distinct_shapes,
        serial_queries: stats1.since(&stats0),
        opt_queries,
        divergences,
    };
    let per_threads: Vec<String> = run
        .optimized
        .iter()
        .map(|t| format!("{:.1} ms @{}t", t.median_us / 1e3, t.threads))
        .collect();
    println!(
        "  {name:>4}: serial {:9.1} ms | optimized median {} | {:5.2}x on {} mini-batches",
        serial_us / 1e3,
        per_threads.join(", "),
        serial_us / run.parallel_us(),
        ordered.len(),
    );
    println!(
        "        {} distinct shapes | serial {} scalar queries | optimized {} scalar + {} batched points -> {} cells",
        run.distinct_shapes,
        run.serial_queries.scalar,
        run.opt_queries.scalar,
        run.opt_queries.batch_points,
        run.opt_queries.batch_cells,
    );
    run
}

fn main() {
    let opts = BenchOpts::default();
    let dataset = Dataset::flanv2(opts.seed, opts.dataset_samples_at_least(6000));
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Powers of two below the core count, then the core count itself.
    let mut thread_sweep: Vec<usize> = std::iter::successors(Some(1usize), |t| Some(t * 2))
        .take_while(|&t| t < available)
        .collect();
    thread_sweep.push(available);
    println!(
        "planning speed — fig17 workload, 65k-token mini-batches, all recompute modes \
         ({WARMUP} warm-up + {REPEATS} timed passes at {thread_sweep:?} threads)\n"
    );
    let mut runs = Vec::new();
    for (name, model, parallel) in [
        ("GPT", ModelConfig::gpt_6_7b(), ParallelConfig::new(1, 2, 4)),
        ("T5", ModelConfig::t5_11b(), ParallelConfig::new(1, 4, 2)),
    ] {
        let point = Point {
            model,
            num_gpus: 8,
            max_seq_len: 4096,
            gbs_tokens: 65536,
        };
        let minibatches = probe_minibatches(&dataset, &point, opts.capped(4, 1));
        runs.push(run_model(
            name,
            model,
            parallel,
            &minibatches,
            &thread_sweep,
        ));
    }

    let serial_us: f64 = runs.iter().map(|r| r.serial_us).sum();
    let parallel_us: f64 = runs.iter().map(ModelRun::parallel_us).sum();
    let speedup = serial_us / parallel_us;
    // Per thread count, the models' medians summed.
    let totals: Vec<(usize, f64)> = thread_sweep
        .iter()
        .enumerate()
        .map(|(k, &t)| (t, runs.iter().map(|r| r.optimized[k].median_us).sum()))
        .collect();
    let (_, one_thread_us) = totals[0];
    println!("\n  total: {speedup:.2}x at {available} threads");
    for &(t, us) in &totals {
        println!(
            "  optimized at {t} thread(s): {:.1} ms ({:.2}x vs 1 thread)",
            us / 1e3,
            one_thread_us / us
        );
    }

    let per_model = serde_json::Value::Object(
        runs.iter()
            .map(|r| {
                let grid_queries = serde_json::json!({
                    "serial_scalar": r.serial_queries.scalar,
                    "optimized_scalar": r.opt_queries.scalar,
                    "optimized_batch_points": r.opt_queries.batch_points,
                    "optimized_batch_cells": r.opt_queries.batch_cells,
                    "optimized_batch_evals": r.opt_queries.batch_evals,
                });
                let optimized: Vec<serde_json::Value> =
                    r.optimized.iter().map(|t| t.to_json()).collect();
                (
                    r.name.to_string(),
                    serde_json::json!({
                        "serial_us": r.serial_us,
                        "parallel_us": r.parallel_us(),
                        "speedup": r.serial_us / r.parallel_us(),
                        "optimized_by_threads": optimized,
                        "distinct_shapes": r.distinct_shapes,
                        "grid_queries": grid_queries,
                    }),
                )
            })
            .collect(),
    );
    let scaling: Vec<serde_json::Value> = totals
        .iter()
        .map(|&(t, us)| {
            serde_json::json!({
                "threads": t,
                "median_us": us,
                "speedup_vs_1_thread": one_thread_us / us,
            })
        })
        .collect();
    let provenance = serde_json::json!({
        "schema_version": 2,
        "commit": git_commit(),
        "available_parallelism": available,
        "pool_threads": rayon::current_num_threads(),
        "thread_sweep": thread_sweep,
        "warmup": WARMUP,
        "repeats": REPEATS,
        "smoke": opts.smoke,
    });
    let out = serde_json::Value::Object(vec![
        ("provenance".to_string(), provenance),
        ("serial_us".to_string(), serde_json::json!(serial_us)),
        ("parallel_us".to_string(), serde_json::json!(parallel_us)),
        ("speedup".to_string(), serde_json::json!(speedup)),
        ("threads".to_string(), serde_json::json!(available)),
        ("thread_scaling".to_string(), serde_json::json!(scaling)),
        ("per_model".to_string(), per_model),
    ]);
    // The canonical artifact at the repo root (what CI trend-tracks), plus
    // a copy under results/ with the other figure outputs.
    write_root_artifact(&opts, "BENCH_planning.json", &out);
    write_json("planning_speed", &out);

    // Fail loudly: a silent partition divergence would let a broken
    // optimization masquerade as a speed-up.
    let divergences: usize = runs.iter().map(|r| r.divergences).sum();
    if divergences > 0 {
        eprintln!("error: {divergences} case(s) diverged from partition_reference");
        std::process::exit(1);
    }
    // Negative scaling gate: more threads must not be slower. Smoke runs
    // time a toy workload, so they only report.
    let (widest, widest_us) = totals[totals.len() - 1];
    if !opts.smoke && widest > 1 && widest_us > one_thread_us {
        eprintln!(
            "error: optimized planning is slower at {widest} threads ({:.1} ms) than at 1 \
             thread ({:.1} ms)",
            widest_us / 1e3,
            one_thread_us / 1e3
        );
        std::process::exit(1);
    }
}
