//! Timed wrappers around the public traits the control loop composes.
//!
//! Each wrapper forwards to the real implementation inside a span named
//! after the layer that implementation lives in, so the traced run
//! breaks a control round down by crate without touching the program.
//! Only the traced pass builds these; the untraced pass runs the bare
//! types.

use crate::trace;
use faro_control::{ActuationReport, BackendError, Clock, ClusterBackend};
use faro_core::admission::{Admission, AdmissionOutcome};
use faro_core::policy::{Policy, PolicyIntrospection};
use faro_core::predictor::RatePredictor;
use faro_core::types::{ClusterSnapshot, DesiredState};
use faro_core::units::{RatePerMin, SimTimeMs};
use faro_forecast::GaussianForecast;
use faro_telemetry::{Phase, TelemetrySink};

/// Span names for one backend's three calls.
#[derive(Debug, Clone, Copy)]
pub struct BackendSpans {
    /// `Clock::advance`.
    pub advance: &'static str,
    /// `ClusterBackend::observe`.
    pub observe: &'static str,
    /// `ClusterBackend::apply`.
    pub apply: &'static str,
    /// Counter bumped once per failed observe or apply.
    pub errors: &'static str,
}

/// A [`ClusterBackend`] + [`Clock`] whose calls are timed.
pub struct TimedBackend<B> {
    inner: B,
    names: BackendSpans,
    /// The last snapshot a call to `observe` returned, kept when the
    /// caller wants to probe the wire format with it after the round.
    pub last_snapshot: Option<ClusterSnapshot>,
    keep_snapshots: bool,
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`; `keep_snapshots` retains each observed snapshot.
    pub fn new(inner: B, names: BackendSpans, keep_snapshots: bool) -> Self {
        Self {
            inner,
            names,
            last_snapshot: None,
            keep_snapshots,
        }
    }

    /// The wrapped backend, mutably.
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Unwraps the backend.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: Clock> Clock for TimedBackend<B> {
    fn now(&self) -> SimTimeMs {
        self.inner.now()
    }

    fn advance(&mut self) -> Option<SimTimeMs> {
        trace::span(self.names.advance, || self.inner.advance())
    }
}

impl<B: ClusterBackend> ClusterBackend for TimedBackend<B> {
    fn observe(&mut self) -> Result<ClusterSnapshot, BackendError> {
        let out = trace::span(self.names.observe, || self.inner.observe());
        match &out {
            Ok(snapshot) if self.keep_snapshots => self.last_snapshot = Some(snapshot.clone()),
            Ok(_) => {}
            Err(_) => trace::count(self.names.errors, 1),
        }
        out
    }

    fn apply(&mut self, desired: &DesiredState) -> Result<ActuationReport, BackendError> {
        let out = trace::span(self.names.apply, || self.inner.apply(desired));
        if out.is_err() {
            trace::count(self.names.errors, 1);
        }
        out
    }
}

/// A [`Policy`] whose `decide` is timed. The span is named after what
/// the round did, read back through [`Policy::introspect`]:
/// `core.decide_solve` (solver ran), `core.decide_reactive` (no
/// long-term solve), or `core.decide_cached` (long-term round served
/// entirely from the sharded cache).
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
}

impl TimedPolicy {
    /// Wraps a policy.
    pub fn new(inner: Box<dyn Policy>) -> Self {
        Self { inner }
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, snapshot: &ClusterSnapshot) -> DesiredState {
        let h = trace::begin("core.decide");
        let out = self.inner.decide(snapshot);
        let intro = self.inner.introspect();
        let kind = if intro.solver_evals > 0 {
            "core.decide_solve"
        } else if intro.long_term_solve {
            "core.decide_cached"
        } else {
            "core.decide_reactive"
        };
        trace::rename(h, kind);
        trace::end(h);
        if let Some(rec) = intro.shard_record {
            trace::count("core.sharded.shards_solved", u64::from(rec.solved));
            trace::count("core.sharded.cache_hit_jobs", u64::from(rec.cache_hit_jobs));
            trace::count("core.sharded.split_evals", rec.split_evals);
        }
        out
    }

    fn introspect(&self) -> PolicyIntrospection {
        self.inner.introspect()
    }
}

/// A [`RatePredictor`] whose forecasts are timed.
pub struct TimedPredictor {
    inner: Box<dyn RatePredictor>,
}

impl TimedPredictor {
    /// Wraps a predictor.
    pub fn new(inner: Box<dyn RatePredictor>) -> Self {
        Self { inner }
    }
}

impl RatePredictor for TimedPredictor {
    fn predict(&mut self, history: &[RatePerMin], horizon: usize) -> GaussianForecast {
        trace::count("forecast.predict_calls", 1);
        trace::span("forecast.predict", || self.inner.predict(history, horizon))
    }
}

/// An [`Admission`] whose `admit` is timed.
pub struct TimedAdmission {
    inner: Box<dyn Admission>,
}

impl TimedAdmission {
    /// Wraps an admission strategy.
    pub fn new(inner: Box<dyn Admission>) -> Self {
        Self { inner }
    }
}

impl Admission for TimedAdmission {
    fn admit(
        &mut self,
        snapshot: &ClusterSnapshot,
        desired: &mut DesiredState,
    ) -> AdmissionOutcome {
        trace::span("control.admit", || self.inner.admit(snapshot, desired))
    }
}

/// A telemetry sink that records nothing but the per-round work the
/// reconciler reports on its unconditional span calls: solver
/// evaluations (Decide), shards solved (ShardSolve) and replicas
/// trimmed by admission (Admit). It reports `enabled() == false`, so
/// the reconciler skips every optional payload exactly as it does for
/// `NoopSink`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundProbe {
    /// Solver evaluations of the current round.
    pub round_evals: u64,
    /// Solver evaluations since the probe was created.
    pub evals: u64,
    /// Rounds whose decide ran the solver.
    pub solve_rounds: u64,
    /// Sharded solves: shards that entered the solver.
    pub shards_solved: u64,
    /// Replicas trimmed by admission.
    pub trimmed: u64,
}

impl RoundProbe {
    /// Clears the per-round fields before a round.
    pub fn start_round(&mut self) {
        self.round_evals = 0;
    }
}

impl TelemetrySink for RoundProbe {
    fn enabled(&self) -> bool {
        false
    }

    fn span(&mut self, _at: SimTimeMs, phase: Phase, work: u64) {
        match phase {
            Phase::Decide => {
                self.round_evals = work;
                self.evals += work;
                if work > 0 {
                    self.solve_rounds += 1;
                }
            }
            Phase::ShardSolve => self.shards_solved += 1,
            Phase::Admit => self.trimmed += work,
            Phase::Observe | Phase::Actuate => {}
        }
    }
}
