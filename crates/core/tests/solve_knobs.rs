//! Knob differential tests: every solve knob of `FaroConfig` means the
//! same thing on the flat, grouped and sharded paths.
//!
//! A one-shard `SolvePlan::Sharded` round solves exactly the global
//! flat problem (one shard, the whole quota, no top-level split), so
//! it must reproduce the global answer byte for byte under every
//! combination of `alpha`, `rho_max`, `latency_model` and
//! `use_shrinking`. Each knob must also actually move the answer, or
//! the equality would hold vacuously. The grouped path shows the same
//! knobs in its objective value. The classed path is the one
//! documented exception: it takes `alpha`, `rho_max` and shrinking,
//! but the upper-bound latency ablation is scalar-only.

use std::sync::Arc;

use faro_core::faro::{FaroAutoscaler, FaroConfig};
use faro_core::opt::{solve_global, JobWorkload, LatencyModel};
use faro_core::policy::Policy;
use faro_core::sharded::{ShardConfig, SolvePlan};
use faro_core::types::{ClusterSnapshot, JobObservation, JobSpec, ResourceModel, Slo};
use faro_core::units::{RatePerMin, ReplicaCount, SimTimeMs};
use faro_core::ClusterObjective;
use faro_solver::Cobyla;

fn snapshot(quota: u32) -> ClusterSnapshot {
    let jobs = [1200.0, 1500.0, 2400.0, 2000.0, 500.0, 300.0]
        .iter()
        .map(|&rate| JobObservation {
            spec: Arc::new(JobSpec::resnet34("job")),
            target_replicas: 1,
            ready_replicas: 1,
            queue_len: 0,
            arrival_rate_history: Arc::new(vec![RatePerMin::new(rate); 15]),
            recent_arrival_rate: rate / 60.0,
            mean_processing_time: 0.180,
            recent_tail_latency: 0.1,
            drop_rate: 0.0,
            class_target: None,
            class_ready: None,
        })
        .collect();
    ClusterSnapshot {
        now: SimTimeMs::from_secs(0.0),
        resources: ResourceModel::replicas(ReplicaCount::new(quota)),
        jobs,
    }
}

/// One cold long-term round: replica targets, drop-rate bits and
/// solver evaluations.
fn round(cfg: FaroConfig, quota: u32) -> (Vec<u32>, Vec<u64>, u64) {
    let mut faro = FaroAutoscaler::new(cfg, Vec::new());
    let ds = faro.decide(&snapshot(quota));
    let intro = faro.introspect();
    assert!(!intro.carried_forward, "the solve must succeed");
    (
        ds.targets().collect(),
        ds.iter().map(|(_, d)| d.drop_rate.to_bits()).collect(),
        intro.solver_evals,
    )
}

#[derive(Clone, Copy, Debug)]
struct Knobs {
    alpha: f64,
    rho_max: f64,
    latency_model: LatencyModel,
    use_shrinking: bool,
}

const DEFAULT: Knobs = Knobs {
    alpha: 4.0,
    rho_max: 0.95,
    latency_model: LatencyModel::MDc,
    use_shrinking: true,
};

fn config(k: Knobs, plan: SolvePlan) -> FaroConfig {
    let mut cfg = FaroConfig::new(ClusterObjective::Sum);
    cfg.samples = 1;
    cfg.alpha = k.alpha;
    cfg.rho_max = k.rho_max;
    cfg.latency_model = k.latency_model;
    cfg.use_shrinking = k.use_shrinking;
    cfg.solve_plan = plan;
    cfg
}

fn one_shard() -> SolvePlan {
    SolvePlan::Sharded(ShardConfig {
        shards: 1,
        parallelism: 1,
        ..ShardConfig::default()
    })
}

#[test]
fn one_shard_equals_the_global_flat_solve_under_every_knob() {
    for quota in [20, 40] {
        for alpha in [1.0, 4.0] {
            for rho_max in [0.7, 0.95] {
                for latency_model in [LatencyModel::MDc, LatencyModel::UpperBound] {
                    for use_shrinking in [true, false] {
                        let k = Knobs {
                            alpha,
                            rho_max,
                            latency_model,
                            use_shrinking,
                        };
                        let global = round(config(k, SolvePlan::Global), quota);
                        let sharded = round(config(k, one_shard()), quota);
                        assert_eq!(global, sharded, "quota {quota}, {k:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn every_knob_moves_the_flat_and_sharded_solves() {
    let moved = [
        (
            Knobs {
                alpha: 1.0,
                ..DEFAULT
            },
            20,
        ),
        (
            Knobs {
                rho_max: 0.7,
                ..DEFAULT
            },
            20,
        ),
        (
            Knobs {
                latency_model: LatencyModel::UpperBound,
                ..DEFAULT
            },
            20,
        ),
        (
            Knobs {
                use_shrinking: false,
                ..DEFAULT
            },
            40,
        ),
    ];
    for (k, quota) in moved {
        for plan in [SolvePlan::Global, one_shard()] {
            let base = round(config(DEFAULT, plan), quota).0;
            let knob = round(config(k, plan), quota).0;
            assert_ne!(base, knob, "{k:?} did not reach {plan:?}");
        }
    }
}

fn workloads(n: usize) -> Vec<JobWorkload> {
    (0..n)
        .map(|i| {
            JobWorkload::constant(4.0 + 3.0 * (i % 5) as f64, 0.180, Slo::paper_default(), 1.0)
        })
        .collect()
}

/// The grouped solve's continuous objective under the given knobs.
fn grouped_objective(k: Knobs) -> f64 {
    let mut cfg = config(k, SolvePlan::Global);
    cfg.hierarchical_threshold = 0;
    cfg.groups = 3;
    let spec = cfg.solve_spec().expect("valid knobs");
    let n = 12;
    solve_global(
        &spec,
        workloads(n),
        ResourceModel::replicas(ReplicaCount::new(30)),
        &Cobyla::fast(),
        &vec![1; n],
        7,
    )
    .expect("grouped solve")
    .objective_value
}

#[test]
fn every_knob_reaches_the_grouped_solve() {
    let base = grouped_objective(DEFAULT);
    for k in [
        Knobs {
            alpha: 1.0,
            ..DEFAULT
        },
        Knobs {
            rho_max: 0.7,
            ..DEFAULT
        },
        Knobs {
            latency_model: LatencyModel::UpperBound,
            ..DEFAULT
        },
    ] {
        let moved = grouped_objective(k);
        assert_ne!(base.to_bits(), moved.to_bits(), "{k:?}: {base} == {moved}");
    }
}
