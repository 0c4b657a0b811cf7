//! The two named workloads. Their parameters are fixed: a later change
//! that claims a gain is measured on exactly these.

use crate::adapter::{Deployment, Model, SetupParams};
use serde_json::{json, Value};

/// Iterations in one end-to-end run call (and in one replay pass). Plan
/// latency and throughput depend on the seed's mini-batches; 512 of them
/// keep that dependence within a few percent, and each call's plan
/// latency p90 has 51 samples beyond it.
pub const ITERATIONS: usize = 512;
/// FLANv2 samples generated per seed: ~590 mini-batches at both sequence
/// lengths, enough for [`ITERATIONS`].
pub const DATASET_SAMPLES: usize = 110_000;
/// Iterations of the warm-up call that ends each set-up (timed in
/// `setup_s`, not in `iters_per_s`).
pub const WARMUP_ITERATIONS: usize = 32;
/// Plan-ahead window of the single planner worker.
pub const PLAN_AHEAD: usize = 4;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub params: SetupParams,
}

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "gpt-long",
            why: "Fig. 17 point: GPT 6.7B at 4096 tokens, one executor host; planner-bound (DP partition), bypasses the wire path",
            params: SetupParams {
                model: Model::Gpt6_7b,
                parallel: (1, 2, 4),
                max_seq_len: 4096,
                tokens_per_batch: 65_536,
                executor_hosts: 1,
                deployment: Deployment::SingleStore,
            },
        },
        Workload {
            name: "gpt-wide",
            why: "GPT 3.35B dp8 at 512 tokens over 8 sharded executor hosts: wire and Flat-decode bound, light planning, DynaPipe near packing",
            params: SetupParams {
                model: Model::Gpt3_35b,
                parallel: (8, 1, 4),
                max_seq_len: 512,
                tokens_per_batch: 32_768,
                executor_hosts: 8,
                deployment: Deployment::ShardedDatacenter {
                    hosts_per_rack: 8,
                    oversubscription: 4.0,
                },
            },
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload's parameters, for the provenance block.
    pub fn describe(&self) -> Value {
        let p = &self.params;
        let (dp, tp, pp) = p.parallel;
        let deployment = match p.deployment {
            Deployment::SingleStore => "single store, uniform fabric".to_string(),
            Deployment::ShardedDatacenter {
                hosts_per_rack,
                oversubscription,
            } => format!(
                "sharded store, datacenter fabric ({hosts_per_rack} hosts/rack, {oversubscription}x oversubscribed)"
            ),
        };
        json!({
            "name": self.name,
            "why": self.why,
            "model": p.model.label(),
            "parallel": format!("dp{dp}xtp{tp}xpp{pp}"),
            "max_seq_len": p.max_seq_len,
            "tokens_per_batch": p.tokens_per_batch,
            "executor_hosts": p.executor_hosts,
            "deployment": deployment,
            "planner": "1 host x 1 worker",
            "plan_ahead": PLAN_AHEAD,
            "codec": "flat",
            "dataset_samples": DATASET_SAMPLES,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{build_setup, minibatches};

    #[test]
    fn workloads_match_benchmark_json() {
        let spec = serde_json::parse_json(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed: Vec<(&str, &str)> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Value::as_str).expect(k);
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(&str, &str)> = all().iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn same_seed_gives_identical_minibatches() {
        let w = find("gpt-wide").expect("gpt-wide exists");
        let (a, b, c) = (
            build_setup(&w.params, 7),
            build_setup(&w.params, 7),
            build_setup(&w.params, 8),
        );
        let batches =
            |s: &crate::adapter::Setup| minibatches(&s.dataset, s.gbs).collect::<Vec<_>>();
        assert!(batches(&a).len() > 10);
        assert_eq!(batches(&a), batches(&b));
        assert_ne!(batches(&a), batches(&c));
    }
}
