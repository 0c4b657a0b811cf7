//! The metric catalogue: names, units, direction, and for each per-layer
//! metric the end-to-end metric and workload it is expected to move.
//! `BENCHMARK.json` lists the same metrics (a test keeps them in step);
//! the target map travels in every results file.

use serde_json::{json, Value};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// A per-layer metric and what a change to it should move.
pub struct LayerMetric {
    pub metric: Metric,
    /// End-to-end metric(s) it should move.
    pub moves: &'static str,
    /// Workload(s) on which it should move them.
    pub on: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Reported with `--trace 0`. Two more end-to-end figures are printed and
/// written to the results file but are not metrics here: the error rate,
/// which the result's `attempted` / `failed` counts carry (it is 0, and a
/// spread relative to 0 is undefined), and `peak_rss_mb`, which is not
/// steady enough to bound (see `end_to_end` in `main.rs`).
pub const END_TO_END: &[Metric] = &[
    m("iters_per_s", "it/s", "higher"),
    m("plan_ms_p50", "ms", "lower"),
    m("plan_ms_p90", "ms", "lower"),
    m("sim_tokens_per_s", "tok/s", "higher"),
    m("speedup_vs_packing", "x", "higher"),
    m("setup_s", "s", "lower"),
];

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        metric: m(name, unit, better),
        moves,
        on,
    }
}

const PLAN: &str = "plan_ms_p50, plan_ms_p90, iters_per_s";
const QUALITY: &str = "sim_tokens_per_s, speedup_vs_packing";
const ALL: &str = "gpt-long, gpt-wide";

/// Reported with `--trace 1`, per training iteration. `_us` metrics are
/// host self time from the traced replay, summed over the calls one
/// iteration makes: all recompute modes for the batcher, all replicas for
/// schedule and comm, and all executor hosts for `core.validate_us` and
/// `core.plan_meta_us` (each host decodes its own copy of the blob).
/// `cluster.*` come from the cluster run's report. The rest are counts,
/// shares and simulated quantities, which repeat exactly for a seed —
/// except `cluster.wire_ms`, which sums `arrival − start` over real push
/// times and so repeats only to ~1e-12 relative.
pub const PER_LAYER: &[LayerMetric] = &[
    l("data.batch_us", "us", "lower", "iters_per_s", "gpt-long"),
    l("data.samples", "count", "higher", PLAN, "gpt-long"),
    l("batcher.order_us", "us", "lower", PLAN, "gpt-long"),
    l("batcher.shape_pass_us", "us", "lower", PLAN, "gpt-long"),
    l("batcher.fwd_cost_us", "us", "lower", PLAN, "gpt-long"),
    l(
        "batcher.partition_us",
        "us",
        "lower",
        PLAN,
        "gpt-long (plan_ms_* only on gpt-wide)",
    ),
    l(
        "batcher.kk_us",
        "us",
        "lower",
        PLAN,
        "gpt-long (plan_ms_* only on gpt-wide)",
    ),
    l(
        "batcher.distinct_shapes",
        "count",
        "lower",
        PLAN,
        "gpt-long",
    ),
    l("batcher.micro_batches", "count", "lower", QUALITY, ALL),
    l(
        "batcher.padding_efficiency",
        "ratio",
        "higher",
        QUALITY,
        ALL,
    ),
    l("cost.grid_batch_points", "count", "lower", PLAN, "gpt-long"),
    l("cost.grid_batch_cells", "count", "lower", PLAN, "gpt-long"),
    l("cost.grid_batch_evals", "count", "lower", PLAN, "gpt-long"),
    l(
        "cost.schedule_input_us",
        "us",
        "lower",
        "plan_ms_p50, plan_ms_p90",
        "gpt-wide",
    ),
    l(
        "schedule.reorder_us",
        "us",
        "lower",
        "plan_ms_p50, plan_ms_p90",
        "gpt-wide",
    ),
    l(
        "schedule.build_us",
        "us",
        "lower",
        "plan_ms_p50, plan_ms_p90",
        "gpt-wide",
    ),
    l(
        "schedule.eval_us",
        "us",
        "lower",
        "plan_ms_p50, plan_ms_p90",
        "gpt-wide",
    ),
    l("schedule.idle_share", "ratio", "lower", QUALITY, ALL),
    l(
        "comm.plan_us",
        "us",
        "lower",
        "plan_ms_p50, plan_ms_p90",
        "gpt-wide",
    ),
    l(
        "comm.verify_us",
        "us",
        "lower",
        "plan_ms_p50, plan_ms_p90",
        "gpt-wide",
    ),
    l("comm.instructions", "count", "lower", QUALITY, ALL),
    l("core.plan_us", "us", "lower", PLAN, "gpt-long"),
    l("core.lower_us", "us", "lower", "iters_per_s", "gpt-wide"),
    l("core.encode_us", "us", "lower", "iters_per_s", "gpt-wide"),
    l(
        "core.blob_bytes",
        "bytes",
        "lower",
        "iters_per_s",
        "gpt-wide",
    ),
    l(
        "core.store_push_us",
        "us",
        "lower",
        "iters_per_s",
        "gpt-wide",
    ),
    l(
        "core.store_take_us",
        "us",
        "lower",
        "iters_per_s",
        "gpt-wide",
    ),
    l("core.validate_us", "us", "lower", "iters_per_s", "gpt-wide"),
    l(
        "core.plan_meta_us",
        "us",
        "lower",
        "iters_per_s",
        "gpt-wide",
    ),
    l("sim.exec_us", "us", "lower", "iters_per_s", "gpt-wide"),
    l("sim.iteration_ms", "ms", "lower", QUALITY, ALL),
    l("sim.allocator_stall_us", "us", "lower", QUALITY, ALL),
    l(
        "cluster.wire_bytes",
        "bytes",
        "lower",
        "iters_per_s",
        "gpt-wide",
    ),
    l(
        "cluster.max_link_bytes",
        "bytes",
        "lower",
        "iters_per_s",
        "gpt-wide",
    ),
    l("cluster.wire_ms", "ms", "lower", "iters_per_s", "gpt-wide"),
    l(
        "cluster.decode_us",
        "us",
        "lower",
        "iters_per_s",
        "gpt-wide",
    ),
    l(
        "cluster.serialize_us",
        "us",
        "lower",
        "iters_per_s",
        "gpt-wide",
    ),
    l(
        "replay.wall_us",
        "us",
        "lower",
        "none: replay cost per iteration",
        ALL,
    ),
    l(
        "replay.self_sum_us",
        "us",
        "lower",
        "none: wall_us minus this is recorder overhead and uncovered time",
        ALL,
    ),
];

/// The target map, for the results file.
pub fn targets() -> Value {
    let rows: Vec<Value> = PER_LAYER
        .iter()
        .map(|x| {
            json!({
                "name": x.metric.name,
                "unit": x.metric.unit,
                "better": x.metric.better,
                "moves": x.moves,
                "on": x.on,
            })
        })
        .collect();
    Value::Array(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` of every metric in one BENCHMARK.json section.
    fn listed(spec: &Value, section: &str) -> Vec<(String, String, String)> {
        let rows = spec.get(section).and_then(Value::as_array).expect(section);
        rows.iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn row(x: &Metric) -> (String, String, String) {
        (x.name.into(), x.unit.into(), x.better.into())
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = serde_json::parse_json(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let e2e: Vec<_> = END_TO_END.iter().map(row).collect();
        let layer: Vec<_> = PER_LAYER.iter().map(|x| row(&x.metric)).collect();
        assert_eq!(listed(&spec, "end_to_end"), e2e);
        assert_eq!(listed(&spec, "per_layer"), layer);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter().map(|x| &x.metric))
            .map(|x| x.name)
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate metric {n}");
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
