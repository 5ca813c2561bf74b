//! Golden characterization of the long-term solve paths: the flat
//! solve (with and without shrinking, scalar and drop-rate
//! objectives), the grouped solve, the sharded solve (one and three
//! shards) and the two-class solve.
//!
//! Every line of the committed snapshot holds a path's replica
//! vector, its drop-rate bits and its solver evaluation count, so a
//! refactor of the solve pipeline that moves any of them by one bit
//! fails here. The cases run through the autoscaler's public entry
//! points (`FaroAutoscaler::decide`, `MultiTenantProblem`,
//! `HeteroProblem`) at default knobs.
//!
//! Refresh after an intentional change with:
//! `FARO_UPDATE_GOLDEN=1 cargo test -p faro-core --test solve_golden`

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use faro_core::faro::{FaroAutoscaler, FaroConfig};
use faro_core::hetero::HeteroProblem;
use faro_core::opt::{Fidelity, JobWorkload, MultiTenantProblem};
use faro_core::policy::Policy;
use faro_core::predictor::{FlatPredictor, RatePredictor};
use faro_core::sharded::{ShardConfig, SolvePlan};
use faro_core::types::{
    ClusterSnapshot, JobObservation, JobSpec, ReplicaClass, ResourceModel, Slo,
};
use faro_core::units::{RatePerMin, ReplicaCount, SimTimeMs};
use faro_core::ClusterObjective;
use faro_solver::Cobyla;

fn obs(rate_per_min: f64, target: u32) -> JobObservation {
    JobObservation {
        spec: Arc::new(JobSpec::resnet34("job")),
        target_replicas: target,
        ready_replicas: target,
        queue_len: 0,
        arrival_rate_history: Arc::new(vec![RatePerMin::new(rate_per_min); 15]),
        recent_arrival_rate: rate_per_min / 60.0,
        mean_processing_time: 0.180,
        recent_tail_latency: 0.1,
        drop_rate: 0.0,
        class_target: None,
        class_ready: None,
    }
}

/// Per-minute rates of an `n`-job cluster, varied so jobs differ in
/// need.
fn rates(n: usize, scale: f64) -> Vec<f64> {
    (0..n)
        .map(|i| scale * (300.0 + 350.0 * (i % 5) as f64 + 40.0 * i as f64))
        .collect()
}

fn snapshot(now: f64, quota: u32, rates: &[f64], targets: &[u32]) -> ClusterSnapshot {
    ClusterSnapshot {
        now: SimTimeMs::from_secs(now),
        resources: ResourceModel::replicas(ReplicaCount::new(quota)),
        jobs: rates
            .iter()
            .zip(targets)
            .map(|(&r, &t)| obs(r, t))
            .collect(),
    }
}

fn bits(v: impl IntoIterator<Item = f64>) -> Vec<String> {
    v.into_iter()
        .map(|d| format!("{:x}", d.to_bits()))
        .collect()
}

/// Two long-term rounds (cold, then with the load moved) of a
/// configured autoscaler; one snapshot line per round.
fn autoscaler_case(out: &mut String, name: &str, cfg: FaroConfig, n: usize, quota: u32) {
    let predictors: Vec<Box<dyn RatePredictor>> = (0..n)
        .map(|_| {
            Box::new(FlatPredictor {
                lookback: 3,
                sigma_fraction: 0.1,
            }) as Box<dyn RatePredictor>
        })
        .collect();
    let mut faro = FaroAutoscaler::new(cfg, predictors);
    let mut targets = vec![1u32; n];
    for (round, (now, scale)) in [(0.0, 1.0), (300.0, 1.4)].into_iter().enumerate() {
        let ds = faro.decide(&snapshot(now, quota, &rates(n, scale), &targets));
        let intro = faro.introspect();
        targets = ds.targets().collect();
        writeln!(
            out,
            "{name} r{round} replicas={targets:?} drops={:?} evals={} shards={:?}",
            bits(ds.iter().map(|(_, d)| d.drop_rate)),
            intro.solver_evals,
            intro.shard_record,
        )
        .unwrap();
    }
}

fn config(objective: ClusterObjective) -> FaroConfig {
    let mut cfg = FaroConfig::new(objective);
    cfg.samples = 4;
    cfg.seed = 3;
    cfg
}

fn workloads(n: usize) -> Vec<JobWorkload> {
    rates(n, 1.0)
        .iter()
        .enumerate()
        .map(|(i, &r)| JobWorkload {
            lambda_trajectories: vec![vec![r / 60.0, 1.2 * r / 60.0], vec![0.8 * r / 60.0]],
            processing_time: 0.15 + 0.01 * i as f64,
            slo: Slo::paper_default(),
            priority: 1.0 + (i % 2) as f64,
        })
        .collect()
}

fn flat_problem_case(
    out: &mut String,
    name: &str,
    objective: ClusterObjective,
    quota: u32,
    shrink: bool,
) {
    let problem = MultiTenantProblem::new(
        workloads(6),
        ResourceModel::replicas(ReplicaCount::new(quota)),
        objective,
        Fidelity::Relaxed,
    )
    .expect("valid problem");
    let alloc = problem.solve(&Cobyla::fast(), &[1; 6]).expect("solves");
    let mut xs = problem.integerize(&alloc);
    if shrink {
        problem.shrink(&mut xs, &alloc.drop_rates);
    }
    writeln!(
        out,
        "{name} replicas={xs:?} drops={:?} evals={} objective={:x}",
        bits(alloc.drop_rates.iter().copied()),
        alloc.evals,
        alloc.objective_value.to_bits(),
    )
    .unwrap();
}

fn hetero_case(out: &mut String, objective: ClusterObjective) {
    let jobs = vec![
        JobWorkload::constant(10.0, 0.15, Slo::paper_default(), 1.0),
        JobWorkload::constant(
            4.0,
            0.15,
            Slo {
                latency: 3.0,
                percentile: 0.99,
            },
            1.0,
        ),
        JobWorkload::constant(7.0, 0.12, Slo::paper_default(), 2.0),
    ];
    let resources = ResourceModel::heterogeneous(
        vec![ReplicaClass::gpu("gpu"), ReplicaClass::cpu("cpu", 3.0)],
        16.0,
        4.0,
        28.0,
    );
    let problem =
        HeteroProblem::new(jobs, resources, objective, Fidelity::Relaxed).expect("valid problem");
    let alloc = problem.solve(&Cobyla::fast(), &[2, 2, 2]).expect("solves");
    let mut allocs = problem.integerize(&alloc);
    let integer: Vec<Vec<u32>> = allocs.iter().map(|a| a.as_slice().to_vec()).collect();
    problem.shrink(&mut allocs, &alloc.drop_rates);
    let shrunk: Vec<Vec<u32>> = allocs.iter().map(|a| a.as_slice().to_vec()).collect();
    writeln!(
        out,
        "hetero-{} integer={integer:?} shrunk={shrunk:?} drops={:?} evals={}",
        objective.name(),
        bits(alloc.drop_rates.iter().copied()),
        alloc.evals,
    )
    .unwrap();
}

fn golden_text() -> String {
    let mut out = String::new();
    flat_problem_case(&mut out, "problem-sum", ClusterObjective::Sum, 20, true);
    flat_problem_case(&mut out, "problem-roomy", ClusterObjective::Sum, 40, true);
    flat_problem_case(
        &mut out,
        "problem-noshrink",
        ClusterObjective::Sum,
        40,
        false,
    );
    flat_problem_case(
        &mut out,
        "problem-penalty",
        ClusterObjective::PenaltySum,
        20,
        true,
    );
    flat_problem_case(
        &mut out,
        "problem-tight",
        ClusterObjective::PenaltySum,
        8,
        true,
    );

    autoscaler_case(&mut out, "flat-sum", config(ClusterObjective::Sum), 6, 20);
    autoscaler_case(&mut out, "flat-roomy", config(ClusterObjective::Sum), 6, 40);
    let mut noshrink = config(ClusterObjective::Sum);
    noshrink.use_shrinking = false;
    autoscaler_case(&mut out, "flat-noshrink", noshrink, 6, 40);
    autoscaler_case(
        &mut out,
        "flat-penalty",
        config(ClusterObjective::PenaltySum),
        6,
        10,
    );

    for (objective, quota) in [
        (ClusterObjective::Sum, 40),
        (ClusterObjective::PenaltySum, 18),
    ] {
        let mut grouped = config(objective);
        grouped.hierarchical_threshold = 4;
        grouped.groups = 3;
        let name = format!("grouped-{}", objective.name());
        autoscaler_case(&mut out, &name, grouped, 12, quota);
    }

    for shards in [1usize, 3] {
        let mut sharded = config(ClusterObjective::Sum);
        sharded.solve_plan = SolvePlan::Sharded(ShardConfig {
            shards,
            parallelism: 1,
            ..ShardConfig::default()
        });
        autoscaler_case(&mut out, &format!("sharded-{shards}"), sharded, 12, 40);
    }

    hetero_case(&mut out, ClusterObjective::Sum);
    hetero_case(&mut out, ClusterObjective::PenaltySum);
    out
}

#[test]
fn solve_paths_match_the_committed_snapshot() {
    let got = golden_text();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/solve.txt");
    if std::env::var("FARO_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
        std::fs::write(&path, &got).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).expect(
        "missing golden snapshot; generate with FARO_UPDATE_GOLDEN=1 \
         cargo test -p faro-core --test solve_golden",
    );
    assert_eq!(
        got, want,
        "solve outputs diverged from the committed snapshot. If intentional, \
         refresh with FARO_UPDATE_GOLDEN=1 and include the snapshot diff."
    );
}
