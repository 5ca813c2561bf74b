//! What one unit of work reports, and the round loop every workload
//! shares.

use crate::trace;
use crate::wrap::RoundProbe;
use faro_control::{BackendError, ClusterBackend, Reconciler};
use std::collections::BTreeMap;
use std::time::Instant;

/// One unit of work: a simulated trial, a fleet schedule, or a live
/// episode. Counters and quality are deterministic functions of the
/// workload seed and the unit index; timings are not.
#[derive(Debug, Default)]
pub struct Unit {
    /// Control rounds attempted.
    pub rounds: u64,
    /// Rounds that failed (backend error, or a live round that did not
    /// complete observe→apply cleanly).
    pub failed_rounds: u64,
    /// Wall time of each control round (observe→decide→admit→apply),
    /// milliseconds; excludes the backend's `advance`.
    pub round_ms: Vec<f64>,
    /// Wall time of the rounds whose decide ran the solver.
    pub solve_round_ms: Vec<f64>,
    /// Wall time of the whole unit loop, seconds (advance included).
    pub wall_s: f64,
    /// Wall time the traced pass spent in bench-only probes, seconds;
    /// subtracted before comparing traced and untraced wall times.
    pub probe_s: f64,
    /// Deterministic work counters.
    pub counts: BTreeMap<&'static str, u64>,
    /// Deterministic decision-quality figures.
    pub quality: BTreeMap<&'static str, f64>,
    /// Wall time of the unit's first round when it solves from
    /// scratch (the fleet's cold round), milliseconds.
    pub cold_solve_ms: Option<f64>,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
}

impl Unit {
    /// Records a failed output check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failures.push(msg.into());
    }

    /// Records a check: `ok` or the message.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }
}

/// Drives a plain [`Reconciler`] over `backend` until its clock runs
/// out, timing each round from outside. With `traced`, each round is a
/// `control.round` span whose children come from the timed wrappers.
/// Returns the probe's per-run work counts.
pub fn drive<B: ClusterBackend>(
    backend: &mut B,
    reconciler: &mut Reconciler,
    traced: bool,
    unit: &mut Unit,
) -> RoundProbe {
    let mut probe = RoundProbe::default();
    let start = Instant::now();
    while backend.advance().is_some() {
        unit.rounds += 1;
        if traced {
            trace::set_round(unit.rounds);
        }
        probe.start_round();
        let h = if traced {
            trace::begin("control.round")
        } else {
            None
        };
        let t = Instant::now();
        let res: Result<_, BackendError> = reconciler.reconcile_with(backend, &mut probe);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        trace::end(h);
        unit.round_ms.push(ms);
        if probe.round_evals > 0 {
            unit.solve_round_ms.push(ms);
        }
        match res {
            Ok(out) if out.actuation.jobs_failed == 0 => {}
            Ok(out) => {
                unit.failed_rounds += 1;
                unit.fail(format!(
                    "round {}: {} jobs failed to apply",
                    unit.rounds, out.actuation.jobs_failed
                ));
            }
            Err(e) => {
                unit.failed_rounds += 1;
                unit.fail(format!("round {}: backend error {e}", unit.rounds));
            }
        }
    }
    unit.wall_s = start.elapsed().as_secs_f64();
    record_probe(unit, &probe);
    probe
}

/// Copies the probe's deterministic counts into the unit.
pub fn record_probe(unit: &mut Unit, probe: &RoundProbe) {
    unit.counts.insert("control.rounds", unit.rounds);
    unit.counts.insert("solver.evals_total", probe.evals);
    unit.counts
        .insert("solver.solve_rounds", probe.solve_rounds);
    unit.counts
        .insert("core.sharded.shards_solved", probe.shards_solved);
    unit.counts
        .insert("control.trimmed_replicas", probe.trimmed);
}
