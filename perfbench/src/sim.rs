//! `paper10-sim` and `classed-sim`: the paper's 10-job trace through
//! `SimBackend`, a `Reconciler` and a `FaroAutoscaler`.

use crate::unit::{drive, Unit};
use crate::wrap::{BackendSpans, TimedAdmission, TimedBackend, TimedPolicy, TimedPredictor};
use crate::{Setup, Workload};
use faro_bench::workloads::{WorkloadSet, PREDICTOR_INPUT};
use faro_control::Reconciler;
use faro_core::admission::{Admission, ClampToQuota, OutageClamp};
use faro_core::faro::{FaroAutoscaler, FaroConfig};
use faro_core::policy::Policy;
use faro_core::predictor::{FlatPredictor, ProbabilisticPredictor, RatePredictor};
use faro_core::rng::SplitMix64;
use faro_core::types::{ReplicaClass, ResourceModel};
use faro_core::ClusterObjective;
use faro_forecast::nhits::NHits;
use faro_forecast::Forecaster;
use faro_sim::{ClusterReport, SimConfig, Simulation};
use std::time::Instant;

/// The trace seed of the paper's 10-job workload. The trace is one
/// fixed dataset, as in the paper; the workload seed drives the
/// request-level randomness of each simulated trial instead.
const TRACE_SEED: u64 = 42;
/// Seed of the N-HiTS initialisation: the trained predictor is part of
/// the system under test, not of its input.
const TRAIN_SEED: u64 = 1;
/// Training points per job: the last two compressed days of the ten
/// training days. Training on all ten takes ~13 s, too long to repeat
/// inside one run; two days keep the model a trained N-HiTS at a fifth
/// of the cost.
const TRAIN_POINTS: usize = 720;
/// Cluster size of both simulated workloads (replica slots).
const SLOTS: u32 = 32;
/// `classed-sim`: fast GPU slots, slower CPU slots and the CPU
/// slowdown. The classed solve costs ~30x the scalar one, so the
/// workload simulates a window of the day rather than all of it.
const GPU_SLOTS: u32 = 12;
const CPU_SLOTS: u32 = 20;
const CPU_SLOWDOWN: f64 = 3.0;
/// `classed-sim`'s window of the evaluation day, minutes.
const CLASSED_WINDOW: (usize, usize) = (120, 40);
/// `classed-sim`'s replicas per job at the start of the window.
const CLASSED_INITIAL_REPLICAS: u32 = 3;
/// Router tail-drop threshold (the simulator default), for the
/// request-conservation bound.
const QUEUE_THRESHOLD: u64 = 50;

/// Which simulated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The headline scenario: Faro-FairSum with trained N-HiTS.
    Paper10,
    /// Two replica classes: Faro-Sum with flat predictors.
    Classed,
}

/// A set-up simulated workload.
pub struct SimWorkload {
    kind: Kind,
    seed: u64,
    set: WorkloadSet,
    models: Vec<NHits>,
}

/// Sets the workload up: generates the trace and, for `paper10-sim`,
/// trains one N-HiTS per job.
pub fn setup(kind: Kind, seed: u64) -> Setup {
    let t = Instant::now();
    let mut set = WorkloadSet::paper_ten_jobs(TRACE_SEED);
    if kind == Kind::Classed {
        set = set.eval_window(CLASSED_WINDOW.0, CLASSED_WINDOW.1);
    }
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let models = match kind {
        Kind::Paper10 => {
            for series in &mut set.train {
                series.drain(..series.len() - TRAIN_POINTS);
            }
            set.train_predictors(TRAIN_SEED)
        }
        Kind::Classed => Vec::new(),
    };
    let train_s = t.elapsed().as_secs_f64();
    // Fingerprint: the trace plus every model's forecast on a fixed
    // context, so repeated set-ups can be checked for identity.
    let mut fp: Vec<f64> = set.eval.iter().map(|e| e.iter().sum()).collect();
    for (m, series) in models.iter().zip(&set.train) {
        let ctx = &series[series.len() - PREDICTOR_INPUT..];
        fp.extend(m.predict(ctx).expect("fitted model predicts"));
    }
    Setup {
        workload: Box::new(SimWorkload {
            kind,
            seed,
            set,
            models,
        }),
        setup_s: generate_s + train_s,
        generate_s,
        train_s,
        fingerprint: fp
            .iter()
            .map(|v| format!("{v:e}"))
            .collect::<Vec<_>>()
            .join(","),
        failures: Vec::new(),
    }
}

fn classed_cluster() -> ResourceModel {
    ResourceModel::heterogeneous(
        vec![
            ReplicaClass::gpu("gpu"),
            ReplicaClass::cpu("cpu", CPU_SLOWDOWN),
        ],
        f64::from(GPU_SLOTS + CPU_SLOTS),
        f64::from(GPU_SLOTS),
        f64::from(4 * GPU_SLOTS + CPU_SLOTS),
    )
}

impl SimWorkload {
    /// Replicas per job at time zero: the paper's cold cluster for the
    /// whole day; a warm one for the classed window, which starts
    /// mid-day.
    fn initial_replicas(&self) -> u32 {
        match self.kind {
            Kind::Paper10 => 1,
            Kind::Classed => CLASSED_INITIAL_REPLICAS,
        }
    }

    fn policy(&self, sim_seed: u64, traced: bool) -> Box<dyn Policy> {
        let n = self.set.len();
        let wrap = |p: Box<dyn RatePredictor>| -> Box<dyn RatePredictor> {
            if traced {
                Box::new(TimedPredictor::new(p))
            } else {
                p
            }
        };
        let (mut cfg, predictors): (FaroConfig, Vec<Box<dyn RatePredictor>>) = match self.kind {
            Kind::Paper10 => (
                FaroConfig::new(ClusterObjective::FairSum {
                    gamma: ClusterObjective::recommended_gamma(n),
                }),
                self.models
                    .iter()
                    .map(|m| wrap(Box::new(ProbabilisticPredictor::new(Box::new(m.clone())))))
                    .collect(),
            ),
            Kind::Classed => (
                FaroConfig::new(ClusterObjective::Sum),
                (0..n)
                    .map(|_| {
                        wrap(Box::new(FlatPredictor {
                            lookback: 3,
                            sigma_fraction: 0.25,
                        }))
                    })
                    .collect(),
            ),
        };
        cfg.seed = sim_seed;
        let policy: Box<dyn Policy> = Box::new(FaroAutoscaler::new(cfg, predictors));
        if traced {
            Box::new(TimedPolicy::new(policy))
        } else {
            policy
        }
    }

    fn admission(&self, traced: bool) -> Box<dyn Admission> {
        let inner: Box<dyn Admission> = match self.kind {
            // The simulator's own default admission.
            Kind::Paper10 => Box::new(OutageClamp::new(SLOTS)),
            Kind::Classed => Box::new(ClampToQuota),
        };
        if traced {
            Box::new(TimedAdmission::new(inner))
        } else {
            inner
        }
    }
}

impl Workload for SimWorkload {
    fn repeats(&self) -> bool {
        false
    }

    fn min_units(&self) -> usize {
        match self.kind {
            Kind::Paper10 => 6,
            Kind::Classed => 2,
        }
    }

    fn run_unit(&mut self, k: usize, traced: bool) -> Unit {
        let sim_seed = SplitMix64::child_seed(self.seed, k as u64);
        let config = SimConfig {
            total_replicas: SLOTS,
            seed: sim_seed,
            hetero_resources: (self.kind == Kind::Classed).then(classed_cluster),
            ..SimConfig::default()
        };
        let backend = Simulation::new(config, self.set.setups(self.initial_replicas()))
            .expect("valid simulation setup")
            .into_backend()
            .expect("no fault plan to build");
        let mut reconciler = Reconciler::new(self.policy(sim_seed, traced), self.admission(traced));
        let mut unit = Unit::default();
        let name = reconciler.policy_name().to_owned();
        let report = if traced {
            let names = BackendSpans {
                advance: "sim.advance",
                observe: "sim.observe",
                apply: "sim.apply",
                errors: "sim.errors",
            };
            let mut backend = TimedBackend::new(backend, names, false);
            drive(&mut backend, &mut reconciler, true, &mut unit);
            backend.into_inner().finish(&name)
        } else {
            let mut backend = backend;
            drive(&mut backend, &mut reconciler, false, &mut unit);
            backend.finish(&name)
        };
        self.account(&report, &mut unit);
        unit
    }
}

impl SimWorkload {
    /// Request conservation, event counts and decision quality from
    /// the run's [`ClusterReport`].
    fn account(&self, report: &ClusterReport, unit: &mut Unit) {
        let minutes = self.set.eval.first().map_or(0, Vec::len) as u64;
        let mut requests = 0u64;
        let mut drops = 0u64;
        for job in &report.jobs {
            let arrivals: f64 = job.arrivals_per_minute.iter().sum();
            let arrivals = arrivals.round() as u64;
            // Every arrival is completed, dropped, or still queued or
            // in service when the horizon cuts the run.
            let in_flight_bound = QUEUE_THRESHOLD + u64::from(SLOTS);
            unit.check(
                job.total_requests <= arrivals && arrivals - job.total_requests <= in_flight_bound,
                || {
                    format!(
                        "{}: {} arrivals vs {} completed+dropped (in-flight bound {in_flight_bound})",
                        job.name, arrivals, job.total_requests
                    )
                },
            );
            unit.check(
                job.drops <= job.violations && job.violations <= job.total_requests,
                || {
                    format!(
                        "{}: drops {} <= violations {} <= total {} does not hold",
                        job.name, job.drops, job.violations, job.total_requests
                    )
                },
            );
            requests += job.total_requests;
            drops += job.drops;
        }
        unit.check(requests > 0, || "no requests were simulated".into());
        let v = report.cluster_violation_rate;
        let lost = report.avg_lost_cluster_utility;
        unit.check((0.0..=1.0).contains(&v), || {
            format!("violation rate {v} outside [0, 1]")
        });
        unit.check((0.0..=report.jobs.len() as f64).contains(&lost), || {
            format!("lost utility {lost} outside [0, jobs]")
        });
        // Arrivals + completions + policy ticks + minute boundaries,
        // as computed from the report (replica readiness events are not
        // reported and not counted).
        let events = requests + (requests - drops) + unit.rounds + minutes;
        unit.counts.insert("sim.events", events);
        unit.counts.insert("sim.requests", requests);
        unit.quality.insert("slo_violation_rate", v);
        unit.quality.insert("lost_utility", lost);
    }
}
