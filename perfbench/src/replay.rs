//! The traced replay: the end-to-end run's mini-batches pushed serially
//! through each layer's public functions, one benchmark-side span per
//! call, assembling a `RunReport` the way the cluster runtime does.
//!
//! Correctness gate, per iteration: the replay's layer-by-layer plan must
//! equal `plan_iteration`'s bit for bit, and the plan decoded from the
//! Flat blob must equal the plan that was encoded. The caller then
//! requires the replay's report to be `behavior_eq` to the cluster run's.

use crate::adapter::{self as a, IterationPlan, PlanError, RunReport, Sample, Setup};
use crate::spans::Recorder;

/// Per-iteration counts summed over the replay (plan-quality counts are
/// those of the plan the planner chose).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub samples: u64,
    pub distinct_shapes: u64,
    /// `[batch_points, batch_cells, batch_evals]` around the batcher calls.
    pub grid: [u64; 3],
    pub micro_batches: u64,
    pub padding_efficiency: f64,
    pub idle_share: f64,
    pub instructions: u64,
    pub blob_bytes: u64,
    pub sim_iteration_us: f64,
    pub allocator_stall_us: f64,
}

pub struct Replay {
    pub report: RunReport,
    /// Iterations attempted (completed + failed).
    pub attempted: usize,
    pub failed: usize,
    pub counts: Counts,
    /// The first correctness-gate failure; the replay stops there.
    pub mismatch: Option<String>,
}

/// Replay the first `iterations` mini-batches of `setup`. Planner, store,
/// codec and simulator failures end the replay like they end a training
/// run and are counted; a gate failure ends it in `mismatch`. `Err` means
/// the dataset is too small.
pub fn replay(setup: &Setup, iterations: usize, rec: &mut Recorder) -> Result<Replay, String> {
    let p = &setup.planner;
    let store = a::Store::new();
    let mut batches = a::minibatches(&setup.dataset, setup.gbs);
    let mut out = Replay {
        report: setup.empty_report(),
        attempted: 0,
        failed: 0,
        counts: Counts::default(),
        mismatch: None,
    };
    for it in 0..iterations {
        rec.set_iteration(it);
        let root = rec.open("replay.iteration");
        let Some(batch) = rec.time("data.batch", || batches.next()) else {
            return Err(format!(
                "the dataset ran out of mini-batches at iteration {it}"
            ));
        };
        out.attempted += 1;
        out.counts.samples += batch.len() as u64;

        let produced = rec.time("core.plan", || a::plan_iteration(p, &batch));
        let sweep = rec.open("core.sweep");
        let decomposed = decomposed_plan(rec, p, &batch, &mut out.counts);
        rec.close(sweep);
        let idle_share = match check_same_plan(it, decomposed, &produced) {
            Ok(share) => share,
            Err(e) => {
                rec.close(root);
                out.mismatch = Some(e);
                break;
            }
        };

        let stored = match produced {
            Ok(plan) => {
                let lowered = rec.time("core.lower", || a::lower(p, &plan));
                Ok((plan, lowered))
            }
            Err(e) => Err(e),
        };
        let encoded_plan = stored.as_ref().ok().map(|(plan, _)| plan.clone());
        let blob = rec.time("core.encode", || a::encode_flat(it, stored));
        out.counts.blob_bytes += blob.len() as u64;

        match wire_and_execute(rec, setup, &store, it, blob, encoded_plan.as_ref()) {
            Err(e) => {
                rec.close(root);
                out.mismatch = Some(e);
                break;
            }
            Ok(Ok((plan, exec))) => {
                out.counts.micro_batches += plan.num_micro_batches as u64;
                out.counts.padding_efficiency += a::padding_efficiency(&plan);
                out.counts.idle_share += idle_share;
                out.counts.instructions += a::instructions(&plan) as u64;
                out.counts.sim_iteration_us += exec.measured_time_us;
                out.counts.allocator_stall_us += exec.allocator_stall_us;
                a::record(&mut out.report, setup, &plan, exec);
                rec.close(root);
            }
            Ok(Err(failure)) => {
                rec.close(root);
                out.report.failure = Some(format!("iteration {it}: {failure}"));
                out.failed += 1;
                break;
            }
        }
    }
    Ok(out)
}

/// Store round trip, one Flat decode per executor host, and the serial
/// simulation. The outer `Err` is a gate failure; the inner one an
/// iteration failure (stored planner failure, store, codec or simulator).
#[allow(clippy::type_complexity)]
fn wire_and_execute(
    rec: &mut Recorder,
    setup: &Setup,
    store: &a::Store,
    it: usize,
    blob: Vec<u8>,
    encoded_plan: Option<&IterationPlan>,
) -> Result<Result<(IterationPlan, a::Executed), String>, String> {
    let fetched = rec
        .time("core.store_push", || store.push(it, blob))
        .and_then(|()| rec.time("core.store_take", || store.take(it)));
    let blob = match fetched {
        Ok(b) => b,
        Err(e) => return Ok(Err(e)),
    };
    let mut first = None;
    for _host in 0..setup.executor_hosts() {
        let flat = match rec.time("core.validate", || a::flat_validate(blob.clone())) {
            Ok(f) => f,
            Err(e) => return Ok(Err(format!("decode: {e}"))),
        };
        let outcome = match rec.time("core.plan_meta", || flat.plan()) {
            Ok(o) => o,
            Err(e) => return Ok(Err(format!("decode: {e}"))),
        };
        if first.is_none() {
            first = Some((flat, outcome));
        }
    }
    let Some((flat, outcome)) = first else {
        return Err("no executor host decoded the blob".into());
    };
    let plan = match outcome {
        Ok(plan) => plan,
        Err(e) => return Ok(Err(e.to_string())),
    };
    if encoded_plan != Some(&plan) {
        return Err(format!(
            "iteration {it}: the plan decoded from the Flat blob differs from the plan encoded"
        ));
    }
    Ok(rec
        .time("sim.exec", || a::execute(setup, &plan, &flat, it))
        .map(|exec| (plan, exec)))
}

/// The gate on one iteration's plan. Returns the chosen plan's idle share.
fn check_same_plan(
    it: usize,
    decomposed: Result<(IterationPlan, f64), PlanError>,
    produced: &Result<IterationPlan, PlanError>,
) -> Result<f64, String> {
    match (decomposed, produced) {
        (Ok((mut d, idle)), Ok(p)) => {
            // The wall-clock planning time is the one field that may differ.
            d.planning_time_us = p.planning_time_us;
            if d.est_iteration_time.to_bits() == p.est_iteration_time.to_bits() && d == *p {
                Ok(idle)
            } else {
                Err(format!(
                    "iteration {it}: layer-by-layer plan ({} recompute, est {} us, {} micro-batches) \
                     differs from plan_iteration ({} recompute, est {} us, {} micro-batches)",
                    a::mode_label(d.recompute),
                    d.est_iteration_time,
                    d.num_micro_batches,
                    a::mode_label(p.recompute),
                    p.est_iteration_time,
                    p.num_micro_batches
                ))
            }
        }
        (Err(d), Err(p)) if d == *p => Ok(0.0),
        (d, p) => Err(format!(
            "iteration {it}: layer-by-layer outcome {:?} differs from plan_iteration {:?}",
            d.map(|(x, _)| x.est_iteration_time),
            p.as_ref().map(|x| x.est_iteration_time)
        )),
    }
}

fn add_grid(counts: &mut Counts, before: [u64; 3]) {
    let after = a::grid_counters();
    for k in 0..3 {
        counts.grid[k] += after[k].saturating_sub(before[k]);
    }
}

/// `plan_iteration`, one layer call at a time and the recompute modes in
/// order. Returns the chosen plan and the mean idle share of its replicas.
fn decomposed_plan(
    rec: &mut Recorder,
    p: &a::DynaPipePlanner,
    batch: &[Sample],
    counts: &mut Counts,
) -> Result<(IterationPlan, f64), PlanError> {
    let ordered = rec.time("batcher.order", || a::order(p, batch));
    let budget = a::planning_budget(p);
    if budget == 0 {
        return Err(a::infeasible("no activation budget".into()));
    }
    let g = a::grid_counters();
    let shapes = rec.time("batcher.shape_pass", || a::shape_pass(p, &ordered));
    let fwd = rec.time("batcher.fwd_cost", || a::fwd_costs(p, &shapes));
    add_grid(counts, g);
    counts.distinct_shapes += a::distinct_shapes(&shapes) as u64;

    let mut best: Option<(IterationPlan, f64)> = None;
    let mut last_err = String::from("no recompute mode attempted");
    for mode in a::recompute_modes() {
        let g = a::grid_counters();
        let part = rec.time("batcher.partition", || {
            a::partition(p, &shapes, &fwd, &ordered, mode, budget)
        });
        add_grid(counts, g);
        let planned = match part {
            Some(part) => plan_mode(rec, p, &part, &ordered, mode, budget),
            None => Err("no feasible micro-batch split".to_string()),
        };
        match planned {
            Ok(candidate) => {
                if best
                    .as_ref()
                    .is_none_or(|(b, _)| candidate.0.est_iteration_time < b.est_iteration_time)
                {
                    best = Some(candidate);
                }
            }
            Err(e) => last_err = format!("{} recomputation: {e}", a::mode_label(mode)),
        }
    }
    best.ok_or_else(|| a::infeasible(last_err))
}

/// One recompute mode: balance, then schedule, plan communication for and
/// verify each replica.
fn plan_mode(
    rec: &mut Recorder,
    p: &a::DynaPipePlanner,
    part: &a::PartitionResult,
    ordered: &[Sample],
    mode: a::RecomputeMode,
    budget: u64,
) -> Result<(IterationPlan, f64), String> {
    let groups = rec.time("batcher.kk", || a::balance(p, part));
    let mut replicas = Vec::with_capacity(groups.len());
    let mut idle = 0.0;
    for group in &groups {
        let (input, shapes) = rec.time("cost.schedule_input", || {
            let shapes = a::group_shapes(p, part, group);
            (a::schedule_input(p, &shapes, mode, budget), shapes)
        });
        let (input, shapes) = if a::reorders(p, shapes.len()) {
            rec.time("schedule.reorder", || a::reorder(p, &input, &shapes))
        } else {
            (input, shapes)
        };
        let schedule = rec.time("schedule.build", || {
            a::build_schedule(p, &input, shapes.len())
        });
        let (peaks, timeline) = rec.time("schedule.eval", || {
            Ok::<_, String>((
                a::peak_memory(&schedule, &input)?,
                a::evaluate(&schedule, &input)?,
            ))
        })?;
        idle += a::idle_share(&timeline);
        let plan = rec.time("comm.plan", || {
            a::plan_comm(p, &schedule, &timeline, &shapes, mode)
        });
        rec.time("comm.verify", || a::verify(&plan))?;
        replicas.push(a::replica_plan(plan, schedule, &timeline, peaks));
    }
    let n = replicas.len().max(1) as f64;
    Ok((a::assemble(p, part, replicas, mode, ordered), idle / n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::build_setup;
    use crate::workloads::find;

    #[test]
    fn replay_matches_the_cluster_run_and_covers_every_layer() {
        let w = find("gpt-wide").expect("gpt-wide exists");
        let setup = build_setup(&w.params, 5);
        let (cluster_report, _) = setup.run_cluster(3);
        let mut rec = Recorder::new();
        let r = replay(&setup, 3, &mut rec).expect("dataset is large enough");
        assert_eq!((r.attempted, r.failed, r.mismatch), (3, 0, None));
        a::behavior_eq(&r.report, &cluster_report).expect("replay is behavior-equal");
        // A shorter replay is not: the gate compares whole reports.
        let short = replay(&setup, 2, &mut Recorder::new()).expect("dataset is large enough");
        assert!(a::behavior_eq(&short.report, &cluster_report).is_err());

        let layers: Vec<&str> = rec.spans().iter().map(|s| s.layer()).collect();
        for layer in ["data", "batcher", "cost", "schedule", "comm", "core", "sim"] {
            assert!(layers.contains(&layer), "no {layer} span");
        }
        // One validate and one plan-metadata decode per executor host.
        let decodes = rec
            .spans()
            .iter()
            .filter(|s| s.name == "core.plan_meta")
            .count();
        assert_eq!(decodes, 3 * setup.executor_hosts());
        assert_eq!(setup.executor_hosts(), 8);
    }
}
