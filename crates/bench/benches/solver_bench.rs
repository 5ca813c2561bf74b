//! Criterion benchmarks for the optimization solvers: the paper's
//! timing claims behind Figures 5 and 7a (local solvers sub-second on
//! the relaxed form; grouped solves cut optimization work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use faro_bench::workloads::WorkloadSet;
use faro_core::faro::FaroConfig;
use faro_core::opt::{solve_global, Fidelity, JobWorkload, MultiTenantProblem};
use faro_core::types::ResourceModel;
use faro_core::ClusterObjective;
use faro_solver::{Cobyla, DifferentialEvolution, NelderMead};

fn snapshot(n_jobs: usize) -> Vec<JobWorkload> {
    let set = WorkloadSet::n_jobs(n_jobs, 42, 1600.0);
    set.jobs
        .iter()
        .zip(&set.eval)
        .map(|(spec, rates)| JobWorkload {
            lambda_trajectories: vec![rates[180..187].iter().map(|r| r / 60.0).collect()],
            processing_time: spec.processing_time,
            slo: spec.slo,
            priority: spec.priority,
        })
        .collect()
}

fn bench_solvers_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_relaxed_solvers");
    group.sample_size(10);
    let jobs = snapshot(10);
    let problem = MultiTenantProblem::new(
        jobs,
        ResourceModel::replicas(faro_core::units::ReplicaCount::new(40)),
        ClusterObjective::Sum,
        Fidelity::Relaxed,
    )
    .expect("valid problem");
    let x0 = vec![1u32; 10];
    group.bench_function("cobyla", |b| {
        b.iter(|| problem.solve(&Cobyla::default(), &x0).expect("solves"))
    });
    group.bench_function("neldermead", |b| {
        b.iter(|| problem.solve(&NelderMead::default(), &x0).expect("solves"))
    });
    group.bench_function("differential_evolution", |b| {
        b.iter(|| {
            problem
                .solve(
                    &DifferentialEvolution {
                        max_generations: 100,
                        ..Default::default()
                    },
                    &x0,
                )
                .expect("solves")
        })
    });
    group.finish();
}

fn bench_hierarchical_fig7a(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7a_hierarchical");
    group.sample_size(10);
    let mut cfg = FaroConfig::new(ClusterObjective::Sum);
    cfg.hierarchical_threshold = 0; // Grouped at every job count.
    let grouped = cfg.solve_spec().expect("valid knobs");
    for n_jobs in [20usize, 50] {
        let jobs = snapshot(n_jobs);
        let resources = ResourceModel::replicas(faro_core::units::ReplicaCount::new(
            (n_jobs as f64 * 2.2) as u32,
        ));
        let current = vec![1u32; n_jobs];
        let flat = MultiTenantProblem::new(
            jobs.clone(),
            resources.clone(),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .expect("valid problem");
        group.bench_with_input(BenchmarkId::new("flat", n_jobs), &n_jobs, |b, _| {
            b.iter(|| flat.solve(&Cobyla::fast(), &current).expect("solves"))
        });
        group.bench_with_input(BenchmarkId::new("grouped_g10", n_jobs), &n_jobs, |b, _| {
            b.iter(|| {
                solve_global(
                    &grouped,
                    jobs.clone(),
                    resources.clone(),
                    &Cobyla::fast(),
                    &current,
                    7,
                )
                .expect("solves")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers_fig5, bench_hierarchical_fig7a);
criterion_main!(benches);
