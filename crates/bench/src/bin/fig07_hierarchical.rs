//! Figure 7: hierarchical optimization. (a) solve time against the job
//! count for group counts G; (b) objective value of the grouped solve
//! normalized to the flat (G = jobs) solve.
//!
//! Paper: a few groups speed up the flat solve by up to 64x; with > 50
//! jobs grouping even *improves* utility slightly, while below ~50 jobs
//! the aggregation loses a little. Faro defaults to G = 10.
//!
//! Usage: `cargo run --release -p faro-bench --bin fig07_hierarchical`

use faro_bench::prelude::*;
use faro_core::faro::FaroConfig;
use faro_core::opt::{solve_global, Fidelity, JobWorkload, MultiTenantProblem};
use faro_core::types::ResourceModel;
use faro_solver::Cobyla;
use std::time::Instant;

fn jobs_from(set: &WorkloadSet, minute: usize) -> Vec<JobWorkload> {
    set.jobs
        .iter()
        .zip(&set.eval)
        .map(|(spec, rates)| {
            let window: Vec<f64> = rates[minute..minute + 7].iter().map(|r| r / 60.0).collect();
            JobWorkload {
                lambda_trajectories: vec![window],
                processing_time: spec.processing_time,
                slo: spec.slo,
                priority: spec.priority,
            }
        })
        .collect()
}

fn main() {
    let solver = Cobyla::fast();
    println!(
        "{:>6} {:>4} {:>12} {:>10} {:>14} {:>12}",
        "jobs", "G", "time_ms", "evals", "objective", "normalized"
    );
    for n_jobs in [10usize, 20, 50, 100] {
        let set = WorkloadSet::n_jobs(n_jobs, 11, 1600.0);
        // Constrained quota: the solve must arbitrate, which is where
        // dimensionality bites (and where Faro actually runs).
        let quota = (n_jobs as f64 * 2.2) as u32;
        let resources = ResourceModel::replicas(faro_core::units::ReplicaCount::new(quota));
        let jobs = jobs_from(&set, 180);
        let current = vec![1u32; n_jobs];

        // Flat baseline: every job its own group.
        let flat_problem = MultiTenantProblem::new(
            jobs.clone(),
            resources.clone(),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .expect("valid problem");
        let start = Instant::now();
        let flat = flat_problem.solve(&solver, &current).expect("solves");
        let flat_xs = flat_problem.integerize(&flat);
        let flat_obj = flat_problem.cluster_value_integer(&flat_xs, &flat.drop_rates);
        let flat_ms = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "{n_jobs:>6} {:>4} {flat_ms:>12.1} {:>10} {flat_obj:>14.3} {:>12.3}",
            "flat", flat.evals, 1.0
        );

        for groups in [1usize, 2, 5, 10, 20] {
            if groups >= n_jobs {
                continue;
            }
            // Every job count goes through the grouped path.
            let mut cfg = FaroConfig::new(ClusterObjective::Sum);
            cfg.hierarchical_threshold = 0;
            cfg.groups = groups;
            let spec = cfg.solve_spec().expect("valid knobs");
            let start = Instant::now();
            let out = solve_global(&spec, jobs.clone(), resources.clone(), &solver, &current, 7)
                .expect("solves");
            let ms = start.elapsed().as_secs_f64() * 1e3;
            // Score the grouped allocation with the flat problem for an
            // apples-to-apples objective.
            let obj = flat_problem.cluster_value_integer(&out.replicas, &out.drop_rates);
            println!(
                "{n_jobs:>6} {groups:>4} {ms:>12.1} {:>10} {obj:>14.3} {:>12.3}",
                out.evals,
                obj / flat_obj.max(1e-9)
            );
        }
        println!();
    }
    println!("expect: grouped solves are much faster; normalized objective near 1 (paper Fig. 7)");
}
