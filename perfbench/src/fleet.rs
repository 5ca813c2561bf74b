//! `fleet1k-sharded`: 1,000 synthetic jobs, `FaroAutoscaler` on the
//! sharded solve plan, driven by a `Reconciler` over an in-memory
//! backend whose `apply` feeds the next snapshot.

use crate::unit::{drive, Unit};
use crate::wrap::{BackendSpans, TimedAdmission, TimedBackend, TimedPolicy};
use crate::{Setup, Workload};
use faro_control::{ActuationReport, BackendError, Clock, ClusterBackend, Reconciler};
use faro_core::admission::{Admission, ClampToQuota};
use faro_core::faro::{FaroAutoscaler, FaroConfig};
use faro_core::opt::{Fidelity, JobWorkload, MultiTenantProblem};
use faro_core::policy::Policy;
use faro_core::rng::SplitMix64;
use faro_core::sharded::{assign_shards, ShardConfig, SolvePlan};
use faro_core::types::{
    ClusterSnapshot, DesiredState, JobObservation, JobSpec, ResourceModel, Slo,
};
use faro_core::units::{RatePerMin, ReplicaCount, SimTimeMs};
use faro_core::ClusterObjective;
use std::sync::Arc;
use std::time::Instant;

const JOBS: usize = 1000;
const SHARDS: usize = 25;
/// Replica quota per job. Tighter than the scale sweep's 3.2x: with
/// slack, nearly every job attains its SLO and predicted quality is
/// decided by a handful of marginal jobs; at 2.0x the quota binds and
/// the solver trades utility across hundreds of jobs.
const QUOTA_PER_JOB: f64 = 2.0;
/// Seed of the fleet's base rates. The fleet is one fixed tenant
/// population; the workload seed drives its drift (jitter and which
/// jobs step).
const FLEET_SEED: u64 = 42;
/// Warm rounds after the cold one. Every third warm round steps ~0.5%
/// of the jobs (a dirty round); the others only jitter within the
/// dirty epsilon (clean rounds).
const WARM_ROUNDS: usize = 6;
/// Per-job processing time, seconds (the scale sweep's jobs).
const PROCESSING_S: f64 = 0.050;
/// Each round is one long-term interval apart, so every round runs the
/// long-term (sharded) path.
const TICK_S: f64 = 300.0;
/// A job's prediction window in Faro's formulation (7 minutes, the
/// first skipped for cold start): the referee scores the same shape.
const TRAJECTORY_STEPS: usize = 6;

/// The fleet: per-round arrival rates for every job.
pub struct Fleet {
    seed: u64,
    spec: Arc<JobSpec>,
    /// `rates[r][j]`: job `j`'s rate in round `r`, requests/second.
    rates: Arc<Vec<Vec<f64>>>,
    quota: u32,
}

/// Synthesizes the fleet and its drift schedule, builds the first
/// 1,000-job snapshot the cold round observes, and partitions it into
/// the sharded plan's shards by offered load.
pub fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let mut rng = SplitMix64::new(FLEET_SEED);
    let base: Vec<f64> = (0..JOBS).map(|_| 10.0 + 40.0 * rng.fraction()).collect();
    let mut levels = vec![1.0; JOBS];
    let mut jitter = SplitMix64::new(SplitMix64::child_seed(seed, 0));
    let hot_per_round = (JOBS / 200).max(1);
    let mut hot_cursor = (SplitMix64::child_seed(seed, 1) % JOBS as u64) as usize;
    let mut rates = Vec::with_capacity(WARM_ROUNDS + 1);
    rates.push(base.clone());
    for r in 0..WARM_ROUNDS {
        if r % 3 == 2 {
            for k in 0..hot_per_round {
                levels[(hot_cursor + k) % JOBS] *= 1.3;
            }
            hot_cursor = (hot_cursor + hot_per_round) % JOBS;
        }
        rates.push(
            base.iter()
                .zip(&levels)
                .map(|(b, l)| b * l * (0.99 + 0.02 * jitter.fraction()))
                .collect(),
        );
    }
    let generate_s = t.elapsed().as_secs_f64();
    let spec = JobSpec {
        processing_time: PROCESSING_S,
        slo: Slo::paper_default(),
        ..JobSpec::resnet34("fleet")
    };
    let fleet = Fleet {
        seed,
        spec: Arc::new(spec),
        rates: Arc::new(rates),
        quota: (JOBS as f64 * QUOTA_PER_JOB).ceil() as u32,
    };
    let mut backend = fleet.backend();
    backend.advance();
    let snapshot = backend.observe().expect("the in-memory backend observes");
    let needs: Vec<f64> = snapshot
        .jobs
        .iter()
        .map(|j| j.recent_arrival_rate * j.mean_processing_time)
        .collect();
    let shards = assign_shards(&needs, SHARDS);
    let setup_s = t.elapsed().as_secs_f64();

    let mut members = vec![0usize; SHARDS];
    for &s in &shards {
        members[s] += 1;
    }
    let mut failures = Vec::new();
    if snapshot.jobs.len() != JOBS || members.contains(&0) {
        failures.push(format!(
            "first snapshot has {} jobs; shard sizes {members:?}",
            snapshot.jobs.len()
        ));
    }
    let fingerprint = format!(
        "{};{members:?}",
        fleet
            .rates
            .iter()
            .map(|r| format!("{:e}", r.iter().sum::<f64>()))
            .collect::<Vec<_>>()
            .join(",")
    );
    Setup {
        workload: Box::new(fleet),
        setup_s,
        generate_s,
        train_s: 0.0,
        fingerprint,
        failures,
    }
}

/// The in-memory cluster: replicas are ready the moment they are
/// applied, and every observation reports the schedule's rate.
struct FleetBackend {
    spec: Arc<JobSpec>,
    history: Arc<Vec<RatePerMin>>,
    rates: Arc<Vec<Vec<f64>>>,
    round: usize,
    targets: Vec<u32>,
    quota: u32,
    violations: Vec<String>,
}

impl Clock for FleetBackend {
    fn now(&self) -> SimTimeMs {
        SimTimeMs::from_secs(TICK_S * self.round.saturating_sub(1) as f64)
    }

    fn advance(&mut self) -> Option<SimTimeMs> {
        if self.round >= self.rates.len() {
            return None;
        }
        self.round += 1;
        Some(self.now())
    }
}

impl ClusterBackend for FleetBackend {
    fn observe(&mut self) -> Result<ClusterSnapshot, BackendError> {
        let rates = &self.rates[self.round - 1];
        let jobs = rates
            .iter()
            .zip(&self.targets)
            .map(|(&rate, &target)| JobObservation {
                spec: Arc::clone(&self.spec),
                target_replicas: target,
                ready_replicas: target,
                queue_len: 0,
                arrival_rate_history: Arc::clone(&self.history),
                recent_arrival_rate: rate,
                mean_processing_time: PROCESSING_S,
                recent_tail_latency: PROCESSING_S,
                drop_rate: 0.0,
                class_target: None,
                class_ready: None,
            })
            .collect();
        Ok(ClusterSnapshot {
            now: self.now(),
            resources: ResourceModel::replicas(ReplicaCount::new(self.quota)),
            jobs,
        })
    }

    fn apply(&mut self, desired: &DesiredState) -> Result<ActuationReport, BackendError> {
        let mut report = ActuationReport::default();
        for (id, d) in desired.iter() {
            let Some(t) = self.targets.get_mut(id.index()) else {
                report.jobs_failed += 1;
                continue;
            };
            report.replicas_started += d.target_replicas.saturating_sub(*t);
            *t = d.target_replicas;
            report.jobs_applied += 1;
        }
        let total: u64 = self.targets.iter().map(|&t| u64::from(t)).sum();
        if total > u64::from(self.quota) {
            self.violations.push(format!(
                "round {}: {total} replicas allocated over a quota of {}",
                self.round, self.quota
            ));
        }
        if let Some(j) = self.targets.iter().position(|&t| t == 0) {
            self.violations.push(format!(
                "round {}: job {j} allocated zero replicas",
                self.round
            ));
        }
        Ok(report)
    }
}

impl Fleet {
    /// A fresh in-memory cluster at one replica per job, before its
    /// first round.
    fn backend(&self) -> FleetBackend {
        FleetBackend {
            spec: Arc::clone(&self.spec),
            history: Arc::new(vec![RatePerMin::ZERO; 1]),
            rates: Arc::clone(&self.rates),
            round: 0,
            targets: vec![1; JOBS],
            quota: self.quota,
            violations: Vec::new(),
        }
    }

    fn policy(&self, traced: bool) -> Box<dyn Policy> {
        let mut cfg = FaroConfig::new(ClusterObjective::Sum);
        cfg.seed = SplitMix64::child_seed(self.seed, 0);
        cfg.samples = 1;
        cfg.solve_plan = SolvePlan::Sharded(ShardConfig {
            shards: SHARDS,
            parallelism: 1,
            ..ShardConfig::default()
        });
        // No predictors: each job's forecast is its observed rate, so
        // the forecaster does no work on this workload.
        let policy: Box<dyn Policy> = Box::new(FaroAutoscaler::new(cfg, Vec::new()));
        if traced {
            Box::new(TimedPolicy::new(policy))
        } else {
            policy
        }
    }

    /// The predicted utility and SLO attainment of the final
    /// allocation, scored on the last round's rates with the flat
    /// relaxed problem (the scale sweep's referee) job by job: under the
    /// Sum objective the cluster value is the sum of the jobs' values,
    /// and one-job problems keep each latency memo as short as the
    /// job's allocation.
    fn referee(&self, targets: &[u32], unit: &mut Unit) {
        let last = self.rates.last().expect("schedule is non-empty");
        let mut utility = 0.0;
        let mut attained = 0usize;
        for (&rate, &x) in last.iter().zip(targets) {
            let job = JobWorkload {
                lambda_trajectories: vec![vec![rate; TRAJECTORY_STEPS]],
                processing_time: PROCESSING_S,
                slo: self.spec.slo,
                priority: self.spec.priority,
            };
            let problem = MultiTenantProblem::new(
                vec![job],
                ResourceModel::replicas(ReplicaCount::new(x.max(1))),
                ClusterObjective::Sum,
                Fidelity::Relaxed,
            )
            .expect("one-job referee problem is valid");
            utility += problem.cluster_value_integer(&[x], &[0.0]);
            if problem.expected_utility(0, f64::from(x), 0.0) >= 0.99 {
                attained += 1;
            }
        }
        let attainment = attained as f64 / JOBS as f64;
        unit.check(
            utility.is_finite() && (0.0..=JOBS as f64).contains(&utility),
            || format!("predicted utility {utility} outside [0, jobs]"),
        );
        unit.quality.insert("predicted_utility", utility);
        unit.quality.insert("predicted_attainment", attainment);
        unit.quality.insert("lost_utility", JOBS as f64 - utility);
        unit.quality.insert("slo_violation_rate", 1.0 - attainment);
    }
}

impl Workload for Fleet {
    fn repeats(&self) -> bool {
        true
    }

    fn min_units(&self) -> usize {
        1
    }

    fn run_unit(&mut self, k: usize, traced: bool) -> Unit {
        let backend = self.backend();
        let admission: Box<dyn Admission> = if traced {
            Box::new(TimedAdmission::new(Box::new(ClampToQuota)))
        } else {
            Box::new(ClampToQuota)
        };
        let mut reconciler = Reconciler::new(self.policy(traced), admission);
        let mut unit = Unit::default();
        let backend = if traced {
            let names = BackendSpans {
                advance: "bench.advance",
                observe: "bench.observe",
                apply: "bench.apply",
                errors: "bench.errors",
            };
            let mut timed = TimedBackend::new(backend, names, false);
            drive(&mut timed, &mut reconciler, true, &mut unit);
            timed.into_inner()
        } else {
            let mut backend = backend;
            drive(&mut backend, &mut reconciler, false, &mut unit);
            backend
        };
        unit.cold_solve_ms = unit.round_ms.first().copied();
        for v in &backend.violations {
            unit.fail(v.clone());
        }
        let granted = backend.targets.iter().map(|&t| u64::from(t)).sum();
        unit.counts.insert("fleet.final_replicas", granted);
        // Every unit repeats unit 0's inputs, so unit 0's score stands
        // for all of them.
        if k == 0 {
            self.referee(&backend.targets, &mut unit);
        }
        unit
    }
}
