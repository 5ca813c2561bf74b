//! The multi-tenant cluster optimization (paper Sec. 3.4 and 4.2).
//!
//! Decision variables are per-job continuous replica counts `x_i >= 1`
//! (and, for Penalty objectives, drop rates `d_i` in `[0, 1]`). The
//! objective aggregates per-job expected utilities over the predicted
//! arrival-rate trajectories; constraints cap total vCPU and memory.
//!
//! Two *fidelities* are provided:
//!
//! - [`Fidelity::Precise`]: step utility, raw M/D/c latency (infinite
//!   when unstable), step penalty table — the formulation of Eq. 3.
//!   Plateau-ridden; local solvers stall on it (Figure 5).
//! - [`Fidelity::Relaxed`]: inverse-power utility, relaxed latency with
//!   the `rho_max` knee, piecewise-linear penalty — plateau-free and
//!   solvable in sub-second time by COBYLA.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, OnceLock};

use crate::error::{Error, Result};
use crate::hierarchical::solve_grouped;
use crate::objective::{ClusterObjective, JobUtility};
use crate::penalty::{phi, PenaltyShape};
use crate::types::{ResourceModel, Slo};
use crate::units::ReplicaCount;
use crate::utility::{step_utility, RelaxedUtility};
use faro_queueing::{mdc, upper_bound, RelaxedLatency};
use faro_solver::{Problem, Solution, Solver};

/// Off-table latency memo entries are bounded so a pathological solver
/// cannot grow the map without limit; the map is simply cleared when it
/// fills (entries are cheap to recompute).
const MEMO_CAPACITY: usize = 1 << 20;

/// Dense latency tables are built only while `distinct rates × quota`
/// stays under this entry budget (~134 MB of `f64`); beyond it lookups
/// fall back to the keyed memo, which returns the same bits.
const MAX_TABLE_ENTRIES: usize = 1 << 24;

/// Per-solve latency tables over integer replica counts.
///
/// The predicted arrival rates are fixed for the lifetime of a problem,
/// so for every (job, trajectory rate) pair the latency at *every*
/// integer replica count `1..=quota` can be computed with one Erlang-B
/// recurrence sweep ([`mdc::latency_percentile_sweep`] /
/// [`RelaxedLatency::latency_sweep`]) instead of re-running the O(c)
/// recurrence in the solver's innermost loop. Entries are bit-identical
/// to the direct estimator calls they replace.
#[derive(Debug, Default)]
struct LatencyTables {
    /// `index[job]`: clamped arrival-rate bits -> row id in `dense`.
    /// Ordered map so table internals never depend on hash iteration
    /// order (faro-lint: nondeterministic-iteration).
    index: Vec<BTreeMap<u64, u32>>,
    /// `dense[job][row]`: latency at every integer replica count
    /// (entry `n - 1` is the latency at `n`).
    dense: Vec<Vec<Vec<f64>>>,
    /// `steps[job]`: one row id per trajectory step, flattened in
    /// `lambda_trajectories` iteration order. Lets the zero-drop
    /// utility path walk precomputed rows without hashing the rate
    /// bits on every step of every objective evaluation.
    steps: Vec<Vec<u32>>,
    /// Row length (the replica quota when the tables were built).
    quota: usize,
}

/// Interior-mutable caches shared by every objective evaluation of one
/// problem instance (including parallel solver populations and the
/// hierarchical grouped solve, which borrows the flat problem).
///
/// Cloning a [`MultiTenantProblem`] resets the cache: it is a pure
/// memoization layer, never part of the problem's identity.
#[derive(Debug, Default)]
struct SolveCache {
    /// Lazily built on the first latency evaluation; `None` when the
    /// latency model has nothing worth tabulating (upper bound is O(1)).
    tables: OnceLock<Option<LatencyTables>>,
    /// Keyed memo for rates outside the tables — drop-adjusted
    /// `lambda * (1 - d)` with `d > 0`: `(job, rate bits, servers)`.
    memo: Mutex<BTreeMap<(usize, u64, u32), f64>>,
}

/// One job's share of the optimization input.
#[derive(Debug, Clone, PartialEq)]
pub struct JobWorkload {
    /// Predicted arrival-rate trajectories (requests/second), each
    /// covering the planning window. One trajectory means point
    /// prediction; several mean probabilistic samples.
    pub lambda_trajectories: Vec<Vec<f64>>,
    /// Mean per-request processing time (seconds).
    pub processing_time: f64,
    /// The job's SLO.
    pub slo: Slo,
    /// Priority coefficient.
    pub priority: f64,
}

impl JobWorkload {
    /// A workload with a single constant-rate trajectory.
    pub fn constant(lambda: f64, processing_time: f64, slo: Slo, priority: f64) -> Self {
        Self {
            lambda_trajectories: vec![vec![lambda]],
            processing_time,
            slo,
            priority,
        }
    }
}

/// Whether to evaluate the precise (plateau) or relaxed formulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Step utility + raw M/D/c + step penalty (Eq. 3).
    Precise,
    /// Sloppified, plateau-free variants (Sec. 3.4).
    Relaxed,
}

/// Which latency estimator feeds the utility (ablation knob, Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// The M/D/c queueing model (Faro's default).
    MDc,
    /// The pessimistic upper-bound estimator.
    UpperBound,
}

/// Every knob of the long-term solve, validated once by
/// [`crate::faro::FaroConfig::solve_spec`] and shared by the flat,
/// grouped, sharded and classed paths. It is the only code that turns
/// knobs into a [`MultiTenantProblem`] ([`SolveSpec::problem`]) or a
/// [`crate::hetero::HeteroProblem`] ([`SolveSpec::hetero_problem`]),
/// so a knob means the same thing on every path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveSpec {
    pub(crate) objective: ClusterObjective,
    pub(crate) fidelity: Fidelity,
    pub(crate) latency_model: LatencyModel,
    pub(crate) utility: RelaxedUtility,
    pub(crate) latency: RelaxedLatency,
    /// Stage-3 shrinking after flat solves (grouped solves never
    /// shrink).
    pub(crate) shrink: bool,
    /// Job count above which [`solve_global`] solves grouped.
    pub(crate) flat_threshold: usize,
    /// Group count of the grouped solve.
    pub(crate) groups: usize,
}

impl SolveSpec {
    /// The flat problem over `jobs` with every knob of this spec.
    ///
    /// # Errors
    ///
    /// Fails where [`MultiTenantProblem::new`] does.
    pub fn problem(
        &self,
        jobs: Vec<JobWorkload>,
        resources: ResourceModel,
    ) -> Result<MultiTenantProblem> {
        let mut problem = MultiTenantProblem::new(jobs, resources, self.objective, self.fidelity)?;
        problem.latency_model = self.latency_model;
        problem.relaxed_utility = self.utility;
        problem.relaxed_latency = self.latency;
        Ok(problem)
    }
}

/// An integer long-term allocation: the output of [`solve_global`] on
/// the flat and the grouped path alike, and of every shard solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegerAllocation {
    /// Integer replica counts per job.
    pub replicas: Vec<u32>,
    /// Drop rates per job (zero when unused).
    pub drop_rates: Vec<f64>,
    /// The solved continuous objective (maximize convention): the flat
    /// problem's, or the grouped problem's.
    pub objective_value: f64,
    /// Solver function evaluations spent.
    pub evals: usize,
}

/// The one global long-term solve (paper Sec. 3.4 and 4.2): up to
/// [`SolveSpec`]'s flat threshold, a flat COBYLA solve, integerized
/// and (when the spec says so) shrunk; above it, the grouped solve
/// with [`SolveSpec`]'s group count and a group assignment drawn from
/// `seed`. Grouped solves are integerized but never shrunk.
///
/// # Errors
///
/// Propagates problem-construction and solver failures.
pub fn solve_global(
    spec: &SolveSpec,
    jobs: Vec<JobWorkload>,
    resources: ResourceModel,
    solver: &dyn Solver,
    current: &[u32],
    seed: u64,
) -> Result<IntegerAllocation> {
    if jobs.len() > spec.flat_threshold {
        return solve_grouped(spec, jobs, resources, solver, current, seed);
    }
    let problem = spec.problem(jobs, resources)?;
    let alloc = problem.solve(solver, current)?;
    let mut replicas = problem.integerize(&alloc);
    if spec.shrink {
        problem.shrink(&mut replicas, &alloc.drop_rates);
    }
    Ok(IntegerAllocation {
        replicas,
        drop_rates: alloc.drop_rates,
        objective_value: alloc.objective_value,
        evals: alloc.evals,
    })
}

/// Greedy trim-to-capacity shared by the scalar and classed
/// integerizers. While `overcommit` reports the allocation over
/// capacity (with whatever the candidates need to know, such as the
/// most-overcommitted dimension), it applies the single-replica
/// decrement from `candidates` that costs the least cluster objective;
/// ties keep the first candidate in job order. It stops when no
/// candidate is left (every job at its floor) and leaves the rest to
/// admission.
///
/// Only job `j`'s utility changes when its allocation is decremented,
/// so per-job utilities are cached and a candidate is scored by
/// patching one entry before re-aggregating: the aggregate sees the
/// exact values a full recomputation would produce.
pub(crate) fn trim_to_capacity<A: Copy, D, C: IntoIterator<Item = A>>(
    objective: ClusterObjective,
    allocs: &mut [A],
    mut overcommit: impl FnMut(&[A]) -> Option<D>,
    candidates: impl Fn(usize, &A, &D) -> C,
    utility: impl Fn(usize, &A) -> JobUtility,
) {
    let Some(mut over) = overcommit(allocs) else {
        return;
    };
    let mut utils: Vec<JobUtility> = allocs
        .iter()
        .enumerate()
        .map(|(j, a)| utility(j, a))
        .collect();
    loop {
        let before = objective.aggregate(&utils);
        let mut best: Option<(usize, A, f64, JobUtility)> = None;
        for j in 0..allocs.len() {
            for cand in candidates(j, &allocs[j], &over) {
                let u = utility(j, &cand);
                let saved = std::mem::replace(&mut utils[j], u);
                let after = objective.aggregate(&utils);
                utils[j] = saved;
                let loss = before - after;
                if best.as_ref().is_none_or(|&(_, _, b, _)| loss < b) {
                    best = Some((j, cand, loss, u));
                }
            }
        }
        let Some((j, cand, _, u)) = best else {
            return;
        };
        allocs[j] = cand;
        utils[j] = u;
        match overcommit(allocs) {
            Some(o) => over = o,
            None => return,
        }
    }
}

/// Stage-3 shrinking shared by the scalar and classed problems (paper
/// Sec. 4.3): for each job at (predicted) utility 1, repeatedly applies
/// the first decrement from `candidates` that leaves the cluster
/// objective unchanged. A removal is rejected only when the objective
/// provably drops (`after < before - 1e-9`), so a NaN objective never
/// blocks one.
pub(crate) fn shrink_greedy<A: Copy, C: IntoIterator<Item = A>>(
    objective: ClusterObjective,
    allocs: &mut [A],
    candidates: impl Fn(&A) -> C,
    utility: impl Fn(usize, &A) -> JobUtility,
) {
    let eps = 1e-9;
    let mut utils: Vec<JobUtility> = allocs
        .iter()
        .enumerate()
        .map(|(j, a)| utility(j, a))
        .collect();
    for j in 0..allocs.len() {
        'job: loop {
            let mut cands = candidates(&allocs[j]).into_iter().peekable();
            if cands.peek().is_none() || utils[j].utility < 1.0 - 1e-9 {
                break; // At the floor, or not at (predicted) utility 1.
            }
            let before = objective.aggregate(&utils);
            for cand in cands {
                let u = utility(j, &cand);
                let saved = std::mem::replace(&mut utils[j], u);
                let after = objective.aggregate(&utils);
                if after < before - eps {
                    utils[j] = saved; // Cluster utility changed: keep it.
                    continue;
                }
                allocs[j] = cand;
                continue 'job;
            }
            break;
        }
    }
}

/// The assembled multi-tenant optimization problem.
#[derive(Debug)]
pub struct MultiTenantProblem {
    jobs: Vec<JobWorkload>,
    resources: ResourceModel,
    objective: ClusterObjective,
    fidelity: Fidelity,
    latency_model: LatencyModel,
    relaxed_utility: RelaxedUtility,
    relaxed_latency: RelaxedLatency,
    cache: SolveCache,
}

impl Clone for MultiTenantProblem {
    /// Clones the problem definition with a fresh (empty) solve cache.
    fn clone(&self) -> Self {
        Self {
            jobs: self.jobs.clone(),
            resources: self.resources.clone(),
            objective: self.objective,
            fidelity: self.fidelity,
            latency_model: self.latency_model,
            relaxed_utility: self.relaxed_utility,
            relaxed_latency: self.relaxed_latency,
            cache: SolveCache::default(),
        }
    }
}

impl MultiTenantProblem {
    /// Builds a problem over the given jobs and resources.
    ///
    /// # Errors
    ///
    /// Fails when there are no jobs, a job has no trajectory, or the
    /// quota cannot host one replica per job.
    pub fn new(
        jobs: Vec<JobWorkload>,
        resources: ResourceModel,
        objective: ClusterObjective,
        fidelity: Fidelity,
    ) -> Result<Self> {
        if jobs.is_empty() {
            return Err(Error::InvalidSnapshot("no jobs to optimize".into()));
        }
        for (i, j) in jobs.iter().enumerate() {
            if j.lambda_trajectories.is_empty() || j.lambda_trajectories.iter().any(Vec::is_empty) {
                return Err(Error::InvalidSnapshot(format!("job {i} has no trajectory")));
            }
            if j.processing_time.is_nan() || j.processing_time <= 0.0 {
                return Err(Error::InvalidSnapshot(format!(
                    "job {i} has no processing time"
                )));
            }
        }
        if (resources.replica_quota().get() as usize) < jobs.len() {
            return Err(Error::InvalidSnapshot(format!(
                "quota {} cannot host one replica for each of {} jobs",
                resources.replica_quota(),
                jobs.len()
            )));
        }
        Ok(Self {
            jobs,
            resources,
            objective,
            fidelity,
            latency_model: LatencyModel::MDc,
            relaxed_utility: RelaxedUtility::default(),
            relaxed_latency: RelaxedLatency::default(),
            cache: SolveCache::default(),
        })
    }

    /// Number of jobs.
    pub fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// The job workloads.
    pub fn jobs(&self) -> &[JobWorkload] {
        &self.jobs
    }

    /// The cluster objective in use.
    pub fn objective(&self) -> ClusterObjective {
        self.objective
    }

    /// The resource model in use.
    pub fn resources(&self) -> &ResourceModel {
        &self.resources
    }

    /// The lazily built per-solve latency tables (`None` when the
    /// latency model is not tabulated).
    fn tables(&self) -> Option<&LatencyTables> {
        self.cache
            .tables
            .get_or_init(|| self.build_latency_tables())
            .as_ref()
    }

    /// Builds the per-job latency tables from the fixed trajectory
    /// rates. One recurrence sweep per (job, distinct rate) replaces the
    /// per-evaluation recurrence in the solver's innermost loop.
    fn build_latency_tables(&self) -> Option<LatencyTables> {
        if self.latency_model == LatencyModel::UpperBound {
            return None; // Closed form, O(1): nothing to memoize.
        }
        let quota = self.resources.replica_quota();
        if quota.is_zero() {
            return None;
        }
        // Exact distinct-rate pre-pass: the dense tables hold one
        // quota-length row per (job, distinct rate). At sweep scale
        // (thousands of jobs, five-digit quotas) that product reaches
        // gigabytes, so past a fixed entry budget skip the tables and
        // let the keyed memo serve lookups — bit-identical values,
        // bounded memory.
        let mut rows_total: usize = 0;
        for job in &self.jobs {
            let mut distinct: BTreeSet<u64> = BTreeSet::new();
            for traj in &job.lambda_trajectories {
                for &raw in traj {
                    distinct.insert(raw.max(0.0).to_bits());
                }
            }
            rows_total += distinct.len();
        }
        if rows_total.saturating_mul(quota.get() as usize) > MAX_TABLE_ENTRIES {
            return None;
        }
        let mut index = Vec::with_capacity(self.jobs.len());
        let mut dense = Vec::with_capacity(self.jobs.len());
        let mut steps = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            let k = job.slo.percentile;
            let p = job.processing_time;
            // The knee latency is rate-independent: compute it once per
            // job and share it across every trajectory rate.
            let knees = match self.fidelity {
                Fidelity::Relaxed => Some(self.relaxed_latency.knee_latencies(k, p, quota)),
                Fidelity::Precise => None,
            };
            let mut by_rate: BTreeMap<u64, u32> = BTreeMap::new();
            let mut rows: Vec<Vec<f64>> = Vec::new();
            let mut step_rows: Vec<u32> = Vec::new();
            for traj in &job.lambda_trajectories {
                for &raw in traj {
                    let lambda = raw.max(0.0); // Same clamp as `latency`.
                    let id = *by_rate.entry(lambda.to_bits()).or_insert_with(|| {
                        let row = match &knees {
                            Some(Ok(kn)) => {
                                self.relaxed_latency.latency_sweep(k, p, lambda, kn).ok()
                            }
                            // Knee computation failed (invalid k/p):
                            // the direct path errors for every call.
                            Some(Err(_)) => None,
                            None => mdc::latency_percentile_sweep(k, p, lambda, quota).ok(),
                        };
                        rows.push(row.unwrap_or_else(|| vec![f64::INFINITY; quota.get() as usize]));
                        (rows.len() - 1) as u32
                    });
                    step_rows.push(id);
                }
            }
            index.push(by_rate);
            dense.push(rows);
            steps.push(step_rows);
        }
        Some(LatencyTables {
            index,
            dense,
            steps,
            quota: quota.get() as usize,
        })
    }

    /// M/D/c-family latency for job `i` at an *integer* replica count:
    /// table hit for trajectory rates, keyed memo for drop-adjusted
    /// rates, direct estimator call as the last resort. Every path
    /// returns the same bits the direct call would.
    fn integer_latency(&self, i: usize, k: f64, p: f64, lambda: f64, n: u32) -> f64 {
        if let Some(tables) = self.tables() {
            if let Some(&id) = tables.index[i].get(&lambda.to_bits()) {
                if let Some(&l) = tables.dense[i][id as usize].get((n as usize).wrapping_sub(1)) {
                    return l;
                }
            }
        }
        let key = (i, lambda.to_bits(), n);
        if let Some(&v) = self.cache.memo.lock().expect("latency memo").get(&key) {
            return v;
        }
        let v = match self.fidelity {
            Fidelity::Precise => mdc::latency_percentile(k, p, lambda, ReplicaCount::new(n)),
            Fidelity::Relaxed => self
                .relaxed_latency
                .latency(k, p, lambda, ReplicaCount::new(n)),
        }
        .unwrap_or(f64::INFINITY);
        let mut memo = self.cache.memo.lock().expect("latency memo");
        if memo.len() >= MEMO_CAPACITY {
            memo.clear();
        }
        memo.insert(key, v);
        v
    }

    /// Estimated latency for job `i` at fractional replicas `x` and
    /// arrival rate `lambda` (already drop-adjusted).
    fn latency(&self, i: usize, lambda: f64, x: f64) -> f64 {
        let job = &self.jobs[i];
        let k = job.slo.percentile;
        let p = job.processing_time;
        let lambda = lambda.max(0.0);
        match (self.fidelity, self.latency_model) {
            (_, LatencyModel::UpperBound) => {
                // One second's arrivals treated as a simultaneous burst
                // (the paper's kappa; Sec. 3.3's example uses kappa =
                // lambda = 40 with p = 150 ms and 600 ms SLO -> 10
                // replicas).
                upper_bound::completion_time(
                    p,
                    lambda,
                    ReplicaCount::new(x.max(1.0).round() as u32),
                )
                .map(|w| w.max(p))
                .unwrap_or(f64::INFINITY)
            }
            (Fidelity::Precise, LatencyModel::MDc) => {
                let n = x.max(1.0).round() as u32;
                self.integer_latency(i, k, p, lambda, n)
            }
            (Fidelity::Relaxed, LatencyModel::MDc) => {
                // Mirrors `RelaxedLatency::latency_fractional` over the
                // cached integer entries, arithmetic branch by branch.
                let x = x.max(1.0);
                if !x.is_finite() {
                    return f64::INFINITY; // The direct path rejects it.
                }
                let lo = x.floor();
                let hi = x.ceil();
                let l_lo = self.integer_latency(i, k, p, lambda, lo as u32);
                if lo == hi {
                    return l_lo;
                }
                // The relaxed estimate is finite on valid input, so a
                // non-finite entry means the direct fractional call
                // would have errored as a whole (errors do not depend
                // on the server count here).
                let l_hi = self.integer_latency(i, k, p, lambda, hi as u32);
                if l_lo.is_infinite() || l_hi.is_infinite() {
                    return f64::INFINITY;
                }
                let frac = x - lo;
                l_lo + (l_hi - l_lo) * frac
            }
        }
    }

    /// Expected utility of job `i` at fractional replicas `x`, averaged
    /// over trajectories and window steps (Sec. 4.1), before the drop
    /// multiplier.
    pub fn expected_utility(&self, i: usize, x: f64, drop_rate: f64) -> f64 {
        // Solver hot path: with no drop adjustment every step rate hits
        // its precomputed table row, so skip the hashing entirely.
        if drop_rate.clamp(0.0, 1.0) == 0.0 && self.latency_model == LatencyModel::MDc {
            if let Some(tables) = self.tables() {
                if let Some(v) = self.tabulated_utility(tables, i, x) {
                    return v;
                }
            }
        }
        let job = &self.jobs[i];
        let mut sum = 0.0;
        let mut count = 0usize;
        for traj in &job.lambda_trajectories {
            for &lambda in traj {
                // With `drop_rate == 0` this is exactly `lambda` (the
                // multiplier is 1.0), so the table rows built from the
                // trajectory rates are hit bit-for-bit.
                let lambda_eff = lambda * (1.0 - drop_rate.clamp(0.0, 1.0));
                let l = self.latency(i, lambda_eff, x);
                let u = match self.fidelity {
                    Fidelity::Precise => step_utility(l, job.slo.latency),
                    Fidelity::Relaxed => self.relaxed_utility.value(l, job.slo.latency),
                };
                sum += u;
                count += 1;
            }
        }
        sum / count.max(1) as f64
    }

    /// Zero-drop utility over the precomputed per-step rows: two array
    /// reads plus the interpolation per trajectory step, with the
    /// floor/ceil/frac of `x` hoisted out of the step loop. Returns
    /// `None` when any step would leave the tables (replica count
    /// beyond the quota, non-finite `x`) so the caller falls back to
    /// the general path. Bit-identical to that path: same rows, same
    /// arithmetic, same summation order.
    fn tabulated_utility(&self, tables: &LatencyTables, i: usize, x: f64) -> Option<f64> {
        let job = &self.jobs[i];
        let steps = &tables.steps[i];
        let rows = &tables.dense[i];
        let slo_latency = job.slo.latency;
        let mut sum = 0.0;
        match self.fidelity {
            Fidelity::Precise => {
                let n = x.max(1.0).round();
                if !(n >= 1.0 && n <= tables.quota as f64) {
                    return None;
                }
                let n = n as usize;
                for &id in steps {
                    sum += step_utility(rows[id as usize][n - 1], slo_latency);
                }
            }
            Fidelity::Relaxed => {
                let x = x.max(1.0);
                if !x.is_finite() {
                    return None;
                }
                let lo = x.floor();
                let hi = x.ceil();
                if hi > tables.quota as f64 {
                    return None;
                }
                let lo_i = lo as usize;
                if lo == hi {
                    for &id in steps {
                        sum += self
                            .relaxed_utility
                            .value(rows[id as usize][lo_i - 1], slo_latency);
                    }
                } else {
                    let hi_i = hi as usize;
                    let frac = x - lo;
                    for &id in steps {
                        let row = &rows[id as usize];
                        let l_lo = row[lo_i - 1];
                        let l_hi = row[hi_i - 1];
                        let l = if l_lo.is_infinite() || l_hi.is_infinite() {
                            f64::INFINITY
                        } else {
                            l_lo + (l_hi - l_lo) * frac
                        };
                        sum += self.relaxed_utility.value(l, slo_latency);
                    }
                }
            }
        }
        Some(sum / steps.len().max(1) as f64)
    }

    /// Per-job utility record at an allocation.
    fn job_utility(&self, i: usize, x: f64, d: f64) -> JobUtility {
        let u = self.expected_utility(i, x, d);
        let shape = match self.fidelity {
            Fidelity::Precise => PenaltyShape::Step,
            Fidelity::Relaxed => PenaltyShape::Relaxed,
        };
        JobUtility {
            utility: u,
            effective_utility: phi(d, shape) * u,
            priority: self.jobs[i].priority,
        }
    }

    /// Cluster objective value (maximize convention) at a continuous
    /// allocation. `drops` may be empty when the objective does not use
    /// drop rates.
    pub fn cluster_value(&self, xs: &[f64], drops: &[f64]) -> f64 {
        let utilities: Vec<JobUtility> = (0..self.jobs.len())
            .map(|i| {
                let d = drops.get(i).copied().unwrap_or(0.0);
                self.job_utility(i, xs[i], d)
            })
            .collect();
        self.objective.aggregate(&utilities)
    }

    /// Cluster objective value at an integer allocation.
    pub fn cluster_value_integer(&self, xs: &[u32], drops: &[f64]) -> f64 {
        let xf: Vec<f64> = xs.iter().map(|&x| f64::from(x)).collect();
        self.cluster_value(&xf, drops)
    }

    /// Splits a solver variable vector into `(replicas, drops)`.
    fn split_vars<'a>(&self, v: &'a [f64]) -> (&'a [f64], &'a [f64]) {
        let n = self.jobs.len();
        if self.objective.uses_drop_rates() {
            (&v[..n], &v[n..])
        } else {
            (v, &[])
        }
    }

    /// Solves the continuous problem with the given solver, starting
    /// from the current allocation (replica counts per job).
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn solve(&self, solver: &dyn Solver, current: &[u32]) -> Result<ContinuousAllocation> {
        let n = self.jobs.len();
        let mut x0: Vec<f64> = current.iter().map(|&c| f64::from(c).max(1.0)).collect();
        x0.resize(n, 1.0);
        if self.objective.uses_drop_rates() {
            x0.extend(std::iter::repeat_n(0.0, n));
        }
        let adapter = ProblemAdapter { inner: self };
        let sol: Solution = solver.solve(&adapter, &x0)?;
        let (xs, ds) = self.split_vars(&sol.x);
        Ok(ContinuousAllocation {
            replicas: xs.to_vec(),
            drop_rates: if ds.is_empty() {
                vec![0.0; n]
            } else {
                ds.to_vec()
            },
            objective_value: -sol.objective,
            evals: sol.evals,
        })
    }

    /// Converts a continuous allocation into integer replica counts,
    /// "staying within the cluster size" (Sec. 4.2): round to nearest
    /// (at least 1) and, if the rounding overshoots the quota, trim the
    /// replicas whose removal costs the least cluster objective.
    ///
    /// Deliberately *not* a greedy integer re-optimization: the paper's
    /// post-processing only converts, and a greedy repair would mask
    /// the relaxation's contribution (integer +1 steps can cross the
    /// step utility's threshold even where the continuous problem is a
    /// plateau — see the Figure 16 ablation).
    pub fn integerize(&self, alloc: &ContinuousAllocation) -> Vec<u32> {
        let quota = self.resources.replica_quota().get();
        let mut xs: Vec<u32> = alloc
            .replicas
            .iter()
            .map(|&x| (x.round().max(1.0)) as u32)
            .collect();
        let drop_of = |i: usize| alloc.drop_rates.get(i).copied().unwrap_or(0.0);
        trim_to_capacity(
            self.objective,
            &mut xs,
            |xs| (xs.iter().sum::<u32>() > quota).then_some(()),
            |_, &x, _| (x > 1).then(|| x - 1),
            |i, &x| self.job_utility(i, f64::from(x), drop_of(i)),
        );
        xs
    }

    /// Stage-3 shrinking (paper Sec. 4.3): iteratively removes replicas
    /// from jobs at full predicted utility while the *cluster* objective
    /// stays unchanged.
    pub fn shrink(&self, xs: &mut [u32], drops: &[f64]) {
        let drop_of = |i: usize| drops.get(i).copied().unwrap_or(0.0);
        shrink_greedy(
            self.objective,
            xs,
            |&x| (x > 1).then(|| x - 1),
            |i, &x| self.job_utility(i, f64::from(x), drop_of(i)),
        );
    }
}

/// Result of the continuous solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousAllocation {
    /// Fractional replica counts per job.
    pub replicas: Vec<f64>,
    /// Drop rates per job (zero when unused).
    pub drop_rates: Vec<f64>,
    /// Cluster objective at the solution (maximize convention).
    pub objective_value: f64,
    /// Function evaluations spent.
    pub evals: usize,
}

/// Adapts [`MultiTenantProblem`] to the solver's minimize convention.
struct ProblemAdapter<'a> {
    inner: &'a MultiTenantProblem,
}

impl Problem for ProblemAdapter<'_> {
    fn dim(&self) -> usize {
        let n = self.inner.jobs.len();
        if self.inner.objective.uses_drop_rates() {
            2 * n
        } else {
            n
        }
    }

    fn objective(&self, v: &[f64]) -> f64 {
        let (xs, ds) = self.inner.split_vars(v);
        -self.inner.cluster_value(xs, ds)
    }

    fn num_constraints(&self) -> usize {
        2 // vCPU and memory.
    }

    fn constraints(&self, v: &[f64], out: &mut [f64]) {
        let (xs, _) = self.inner.split_vars(v);
        let r = &self.inner.resources;
        let cpu: f64 = xs.iter().map(|&x| x.max(1.0) * r.cpu_per_replica).sum();
        let mem: f64 = xs.iter().map(|&x| x.max(1.0) * r.mem_per_replica).sum();
        out[0] = r.cluster_cpu - cpu;
        out[1] = r.cluster_mem - mem;
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        let n = self.inner.jobs.len();
        let quota = self.inner.resources.replica_quota().as_f64();
        let mut b = vec![(1.0, quota); n];
        if self.inner.objective.uses_drop_rates() {
            b.extend(std::iter::repeat_n((0.0, 1.0), n));
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faro_solver::Cobyla;

    fn slo() -> Slo {
        Slo::paper_default()
    }

    fn two_job_problem(quota: u32, objective: ClusterObjective) -> MultiTenantProblem {
        // Job 0 needs many replicas (high rate), job 1 few.
        let jobs = vec![
            JobWorkload::constant(40.0, 0.180, slo(), 1.0),
            JobWorkload::constant(5.0, 0.180, slo(), 1.0),
        ];
        MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(ReplicaCount::new(quota)),
            objective,
            Fidelity::Relaxed,
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_input() {
        let r = ResourceModel::replicas(ReplicaCount::new(8));
        assert!(MultiTenantProblem::new(
            vec![],
            r.clone(),
            ClusterObjective::Sum,
            Fidelity::Relaxed
        )
        .is_err());
        let no_traj = JobWorkload {
            lambda_trajectories: vec![],
            processing_time: 0.1,
            slo: slo(),
            priority: 1.0,
        };
        assert!(MultiTenantProblem::new(
            vec![no_traj],
            r,
            ClusterObjective::Sum,
            Fidelity::Relaxed
        )
        .is_err());
        // Quota 1 cannot host 2 jobs.
        let jobs = vec![
            JobWorkload::constant(1.0, 0.1, slo(), 1.0),
            JobWorkload::constant(1.0, 0.1, slo(), 1.0),
        ];
        assert!(MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(ReplicaCount::new(1)),
            ClusterObjective::Sum,
            Fidelity::Relaxed
        )
        .is_err());
    }

    #[test]
    fn expected_utility_monotone_in_replicas() {
        let p = two_job_problem(32, ClusterObjective::Sum);
        let mut prev = 0.0;
        for x in 1..=16 {
            let u = p.expected_utility(0, f64::from(x), 0.0);
            assert!(u >= prev - 1e-9, "x={x}");
            prev = u;
        }
        // Many replicas satisfy the SLO fully.
        assert!((p.expected_utility(0, 16.0, 0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn solver_finds_needy_job() {
        let p = two_job_problem(32, ClusterObjective::Sum);
        let alloc = p.solve(&Cobyla::fast(), &[1, 1]).unwrap();
        let xs = p.integerize(&alloc);
        assert!(xs[0] > xs[1], "needy job should get more replicas: {xs:?}");
        assert!(xs.iter().sum::<u32>() <= 32);
        // Both jobs should end up satisfied in a right-sized cluster.
        assert!(p.expected_utility(0, f64::from(xs[0]), 0.0) > 0.9, "{xs:?}");
        assert!(p.expected_utility(1, f64::from(xs[1]), 0.0) > 0.9, "{xs:?}");
    }

    #[test]
    fn integerize_respects_quota_exactly() {
        let p = two_job_problem(10, ClusterObjective::Sum);
        // Deliberately infeasible continuous allocation.
        let alloc = ContinuousAllocation {
            replicas: vec![9.7, 8.2],
            drop_rates: vec![0.0, 0.0],
            objective_value: 0.0,
            evals: 0,
        };
        let xs = p.integerize(&alloc);
        assert!(xs.iter().sum::<u32>() <= 10, "{xs:?}");
        assert!(xs.iter().all(|&x| x >= 1));
    }

    #[test]
    fn shrink_removes_waste() {
        let p = two_job_problem(32, ClusterObjective::Sum);
        // Grossly overprovisioned allocation: both at utility 1.
        let mut xs = vec![20u32, 10u32];
        p.shrink(&mut xs, &[0.0, 0.0]);
        let total: u32 = xs.iter().sum();
        assert!(total < 30, "shrinking should reclaim replicas: {xs:?}");
        // Utility must still be 1 for both.
        for (i, &x) in xs.iter().enumerate() {
            assert!(
                (p.expected_utility(i, f64::from(x), 0.0) - 1.0).abs() < 1e-9,
                "{xs:?}"
            );
        }
    }

    #[test]
    fn shrink_skips_unsatisfied_jobs() {
        // Tiny quota: nobody reaches utility 1; shrink must not move.
        let jobs = vec![
            JobWorkload::constant(100.0, 0.180, slo(), 1.0),
            JobWorkload::constant(100.0, 0.180, slo(), 1.0),
        ];
        let p = MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(ReplicaCount::new(4)),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        let mut xs = vec![2u32, 2u32];
        let before = xs.clone();
        p.shrink(&mut xs, &[0.0, 0.0]);
        assert_eq!(xs, before);
    }

    #[test]
    fn shrink_accepts_a_removal_that_turns_the_objective_nan() {
        // The shared shrink loop rejects a removal only when the
        // objective provably drops (`after < before - eps`), so a NaN
        // objective never blocks one; `after >= before - eps` would
        // stop at 2.
        let mut xs = [3u32];
        shrink_greedy(
            ClusterObjective::PenaltySum,
            &mut xs,
            |&x| (x > 1).then(|| x - 1),
            |_, &x| JobUtility {
                utility: 1.0,
                effective_utility: if x >= 2 { 1.0 } else { f64::NAN },
                priority: 1.0,
            },
        );
        assert_eq!(xs, [1]);
    }

    #[test]
    fn penalty_objective_adds_drop_variables() {
        let p = two_job_problem(32, ClusterObjective::PenaltySum);
        let alloc = p.solve(&Cobyla::fast(), &[1, 1]).unwrap();
        assert_eq!(alloc.drop_rates.len(), 2);
        for d in &alloc.drop_rates {
            assert!((0.0..=1.0).contains(d));
        }
    }

    #[test]
    fn precise_fidelity_exposes_plateau() {
        // With the step utility and a badly overloaded job, local probes
        // around small x all evaluate to utility 0: a plateau.
        let jobs = vec![JobWorkload::constant(200.0, 0.180, slo(), 1.0)];
        let p = MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(ReplicaCount::new(64)),
            ClusterObjective::Sum,
            Fidelity::Precise,
        )
        .unwrap();
        let u1 = p.expected_utility(0, 1.0, 0.0);
        let u2 = p.expected_utility(0, 3.0, 0.0);
        assert_eq!(u1, 0.0);
        assert_eq!(u2, 0.0);
        // The relaxed version distinguishes them.
        let jobs = vec![JobWorkload::constant(200.0, 0.180, slo(), 1.0)];
        let p = MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(ReplicaCount::new(64)),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        assert!(p.expected_utility(0, 3.0, 0.0) > p.expected_utility(0, 1.0, 0.0));
    }

    /// Replays the pre-table direct arithmetic of `expected_utility`:
    /// estimator call per (trajectory, step), same clamps, same mean.
    fn direct_expected_utility(p: &MultiTenantProblem, i: usize, x: f64, d: f64) -> f64 {
        let job = &p.jobs()[i];
        let (mut sum, mut count) = (0.0, 0usize);
        for traj in &job.lambda_trajectories {
            for &lambda in traj {
                let lambda_eff = (lambda * (1.0 - d.clamp(0.0, 1.0))).max(0.0);
                let l = match p.fidelity {
                    Fidelity::Relaxed => RelaxedLatency::default()
                        .latency_fractional(
                            job.slo.percentile,
                            job.processing_time,
                            lambda_eff,
                            x.max(1.0),
                        )
                        .unwrap_or(f64::INFINITY),
                    Fidelity::Precise => mdc::latency_percentile(
                        job.slo.percentile,
                        job.processing_time,
                        lambda_eff,
                        ReplicaCount::new(x.max(1.0).round() as u32),
                    )
                    .unwrap_or(f64::INFINITY),
                };
                sum += match p.fidelity {
                    Fidelity::Precise => step_utility(l, job.slo.latency),
                    Fidelity::Relaxed => RelaxedUtility::default().value(l, job.slo.latency),
                };
                count += 1;
            }
        }
        sum / count.max(1) as f64
    }

    fn multi_step_problem(fidelity: Fidelity) -> MultiTenantProblem {
        // Rates spanning idle, loaded, and overloaded regimes so the
        // tables carry zeros, finite entries, and (precise) infinities.
        let jobs = vec![
            JobWorkload {
                lambda_trajectories: vec![vec![0.0, 5.0, 40.0, 90.0], vec![12.5, 250.0]],
                processing_time: 0.180,
                slo: slo(),
                priority: 1.0,
            },
            JobWorkload {
                lambda_trajectories: vec![vec![3.0, 8.0, 15.0]],
                processing_time: 0.090,
                slo: slo(),
                priority: 2.0,
            },
        ];
        MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(ReplicaCount::new(24)),
            ClusterObjective::Sum,
            fidelity,
        )
        .unwrap()
    }

    #[test]
    fn cached_latency_matches_direct_path_bitwise() {
        for fidelity in [Fidelity::Relaxed, Fidelity::Precise] {
            let p = multi_step_problem(fidelity);
            for i in 0..p.n_jobs() {
                for x in [1.0, 1.5, 2.0, 3.25, 7.0, 12.5, 23.0, 24.0, 30.0] {
                    for d in [0.0, 0.25, 0.9] {
                        let cached = p.expected_utility(i, x, d);
                        let direct = direct_expected_utility(&p, i, x, d);
                        assert_eq!(
                            cached.to_bits(),
                            direct.to_bits(),
                            "{fidelity:?} i={i} x={x} d={d}: {cached} vs {direct}"
                        );
                        // Second call (memo/table hit) must be stable.
                        assert_eq!(p.expected_utility(i, x, d).to_bits(), cached.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn clone_resets_cache_but_not_results() {
        let p = multi_step_problem(Fidelity::Relaxed);
        let warm = p.expected_utility(0, 5.5, 0.1); // Populates caches.
        let q = p.clone();
        assert_eq!(q.expected_utility(0, 5.5, 0.1).to_bits(), warm.to_bits());
    }

    proptest::proptest! {
        /// The memo tables must be invisible: random rates, replica
        /// counts, and drop rates all evaluate bit-identically to the
        /// direct estimator path.
        #[test]
        fn table_path_is_bitwise_invisible(
            rates in proptest::prop::collection::vec(0.0f64..300.0, 1..6),
            x in 1.0f64..40.0,
            d in 0.0f64..1.0,
        ) {
            let jobs = vec![JobWorkload {
                lambda_trajectories: vec![rates],
                processing_time: 0.150,
                slo: slo(),
                priority: 1.0,
            }];
            let p = MultiTenantProblem::new(
                jobs,
                ResourceModel::replicas(ReplicaCount::new(40)),
                ClusterObjective::Sum,
                Fidelity::Relaxed,
            )
            .unwrap();
            let cached = p.expected_utility(0, x, d);
            let direct = direct_expected_utility(&p, 0, x, d);
            proptest::prop_assert_eq!(cached.to_bits(), direct.to_bits());
        }
    }

    #[test]
    fn upper_bound_model_overprovisions() {
        // Paper Sec. 3.3: the upper-bound estimator demands more
        // replicas than M/D/c for the same utility.
        let mk = |model| {
            let jobs = vec![JobWorkload::constant(
                40.0,
                0.150,
                Slo {
                    latency: 0.6,
                    percentile: 0.9999,
                },
                1.0,
            )];
            let spec = SolveSpec {
                latency_model: model,
                ..crate::faro::FaroConfig::new(ClusterObjective::Sum)
                    .solve_spec()
                    .unwrap()
            };
            spec.problem(jobs, ResourceModel::replicas(ReplicaCount::new(32)))
                .unwrap()
        };
        let mdc_p = mk(LatencyModel::MDc);
        let ub_p = mk(LatencyModel::UpperBound);
        let first_full = |p: &MultiTenantProblem| {
            (1..=32)
                .find(|&x| p.expected_utility(0, f64::from(x), 0.0) > 1.0 - 1e-9)
                .unwrap_or(33)
        };
        assert!(first_full(&mdc_p) < first_full(&ub_p));
    }
}
