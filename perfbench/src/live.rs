//! `live-chaos`: `ResilientDriver` steering a `ClusterServer` over
//! loopback HTTP through `HttpBackend`, under seeded server-side chaos,
//! with the AIAD baseline as the policy (no solver).

use crate::trace;
use crate::unit::{record_probe, Unit};
use crate::wrap::{BackendSpans, RoundProbe, TimedAdmission, TimedBackend, TimedPolicy};
use crate::{Setup, Workload};
use faro_cluster::{
    ChaosConfig, ClusterConfig, ClusterServer, HttpBackend, JobConfig, LiveConfig, ObserveResponse,
};
use faro_control::{
    ActuationReport, BackendError, Clock, ClusterBackend, Reconciler, ResilienceConfig,
    ResilientDriver, RetryPolicy,
};
use faro_core::admission::{Admission, ClampToQuota};
use faro_core::baselines::Aiad;
use faro_core::policy::Policy;
use faro_core::rng::SplitMix64;
use faro_core::types::{ClusterSnapshot, DesiredState, JobSpec};
use faro_core::units::{DurationMs, RatePerMin, SimTimeMs};
use faro_core::utility::RelaxedUtility;
use std::time::{Duration, Instant};

/// Jobs on the live cluster: twice the demo's two. Each job adds ~0.7 KB
/// to every observe body; with smaller bodies the loop's wall time
/// depends less on the memory traffic other tenants of a shared host
/// add (in interleaved runs, 4 jobs spread 12-15% run to run where 16
/// spread 21-27%).
const JOBS: usize = 4;
const QUOTA: u32 = 24;
const INITIAL_REPLICAS: u32 = 2;
/// Rounds per episode. Fixed: the server re-sends each job's whole
/// arrival history on every observe, so the cost of a round grows with
/// the episode's length.
const ROUNDS: u64 = 512;
/// Logical tick, milliseconds (six rounds per logical minute).
const TICK_MS: u64 = 10_000;
/// Logical minutes of arrival schedule (covers 512 rounds).
const MINUTES: usize = 90;
/// Injected faults: 10% of applies refused, 5% of observes stale.
const APPLY_FAIL_PER_MILLE: u32 = 100;
const STALE_OBSERVE_PER_MILLE: u32 = 50;
/// Apply and observe attempts per round, and the virtual backoff each
/// phase may spend on retries. With the driver's default four attempts
/// a round fails outright when four applies in a row are refused
/// (p = 1e-4 at 10% refusals), so about one seed in twenty loses a
/// round per episode. Ten attempts, with a budget that fits the nine
/// backoffs (at most 11.1 s), make that p = 1e-10: the loop rides out
/// the injected faults and every round completes.
const ATTEMPTS: u32 = 10;
const RETRY_BUDGET_S: f64 = 15.0;
/// The traced pass probes the wire format on every 16th round.
const WIRE_PROBE_EVERY: u64 = 16;
/// Relaxed-utility sharpness the simulator's reports use.
const REPORT_ALPHA: f64 = 4.0;

/// The live cluster's shape; one server is spawned per episode.
pub struct Live {
    seed: u64,
    config: ClusterConfig,
}

/// Builds the cluster configuration (four ResNet34 jobs with staggered
/// triangular surges), then brings a cluster up on it: spawns the
/// loopback server with the run's chaos plan, connects an
/// `HttpBackend` and takes the first observation. The job set is
/// fixed; the workload seed drives the chaos fault streams and the
/// driver's backoff jitter. Every episode spawns a fresh server of its
/// own; this one only times and checks the bring-up.
pub fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let jobs: Vec<JobConfig> = (0..JOBS)
        .map(|j| {
            let base = 120.0 + 60.0 * j as f64;
            let rates = (0..MINUTES)
                .map(|m| {
                    let phase = ((m + 7 * j) % 30) as f64 / 30.0;
                    let bump = if phase < 0.5 {
                        phase * 2.0
                    } else {
                        2.0 - phase * 2.0
                    };
                    RatePerMin::new(base * (0.6 + 0.8 * bump))
                })
                .collect();
            JobConfig {
                spec: JobSpec::resnet34(format!("live-{j}")),
                initial_replicas: INITIAL_REPLICAS,
                rates_per_minute: rates,
            }
        })
        .collect();
    let config = ClusterConfig {
        total_replicas: QUOTA,
        tick_ms: TICK_MS,
        // Zero cold start keeps the run independent of wall-clock
        // timing: replicas started by an apply are ready at the next
        // observe, so drift repairs repeat exactly per seed.
        cold_start_ms: 0,
        jobs,
    };
    let generate_s = t.elapsed().as_secs_f64();
    let live = Live { seed, config };
    let (server, mut http) = live.bring_up();
    let first = http.observe();
    let setup_s = t.elapsed().as_secs_f64();
    server.shutdown();

    let mut failures = Vec::new();
    let targets: Vec<u32> = match &first {
        Ok(snapshot) => snapshot.jobs.iter().map(|j| j.target_replicas).collect(),
        Err(e) => {
            failures.push(format!("first observe of a fresh cluster failed: {e}"));
            Vec::new()
        }
    };
    if targets != [INITIAL_REPLICAS; JOBS] {
        failures.push(format!(
            "a fresh cluster reports targets {targets:?}, configured {INITIAL_REPLICAS} per job"
        ));
    }
    let fingerprint = live
        .config
        .jobs
        .iter()
        .map(|j| {
            format!(
                "{:e}",
                j.rates_per_minute.iter().map(|r| r.get()).sum::<f64>()
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    Setup {
        workload: Box::new(live),
        setup_s,
        generate_s,
        train_s: 0.0,
        fingerprint,
        failures,
    }
}

/// A pass-through backend that scores every fresh snapshot against the
/// jobs' SLOs and remembers the last desired state sent to `apply`.
struct Watch<B> {
    inner: B,
    utility: RelaxedUtility,
    fresh_rounds: u64,
    job_rounds: u64,
    violated: u64,
    lost_utility: f64,
    last_apply: Vec<u32>,
    last_apply_ok: bool,
}

impl<B> Watch<B> {
    fn new(inner: B) -> Self {
        Self {
            inner,
            utility: RelaxedUtility::new(REPORT_ALPHA),
            fresh_rounds: 0,
            job_rounds: 0,
            violated: 0,
            lost_utility: 0.0,
            last_apply: Vec::new(),
            last_apply_ok: false,
        }
    }
}

impl<B: Clock> Clock for Watch<B> {
    fn now(&self) -> SimTimeMs {
        self.inner.now()
    }

    fn advance(&mut self) -> Option<SimTimeMs> {
        self.inner.advance()
    }
}

impl<B: ClusterBackend> ClusterBackend for Watch<B> {
    fn observe(&mut self) -> Result<ClusterSnapshot, BackendError> {
        let out = self.inner.observe();
        if let Ok(snapshot) = &out {
            // Stale replays are re-keyed behind the clock; score each
            // fresh observation once.
            if snapshot.now == self.inner.now() {
                self.fresh_rounds += 1;
                for job in &snapshot.jobs {
                    let slo = job.spec.slo.latency;
                    self.job_rounds += 1;
                    if job.recent_tail_latency > slo {
                        self.violated += 1;
                    }
                    self.lost_utility += 1.0 - self.utility.value(job.recent_tail_latency, slo);
                }
            }
        }
        out
    }

    fn apply(&mut self, desired: &DesiredState) -> Result<ActuationReport, BackendError> {
        let out = self.inner.apply(desired);
        self.last_apply.clear();
        self.last_apply
            .extend(desired.iter().map(|(_, d)| d.target_replicas));
        self.last_apply_ok = out.is_ok();
        out
    }
}

impl Live {
    fn chaos(&self) -> ChaosConfig {
        ChaosConfig {
            seed: SplitMix64::child_seed(self.seed, 1),
            api_latency_ms: 0,
            apply_fail_per_mille: APPLY_FAIL_PER_MILLE,
            stale_observe_per_mille: STALE_OBSERVE_PER_MILLE,
            stale_age_ms: TICK_MS,
        }
    }

    /// Spawns a fresh loopback server for this cluster, with the run's
    /// chaos plan, and connects to it.
    fn bring_up(&self) -> (ClusterServer, HttpBackend) {
        let server = ClusterServer::spawn_with_chaos(self.config.clone(), self.chaos())
            .expect("loopback server binds");
        let http = HttpBackend::connect(
            server.addr(),
            LiveConfig {
                tick_ms: TICK_MS,
                interval: Duration::ZERO,
                horizon_rounds: ROUNDS,
                request_timeout: Duration::from_secs(5),
            },
        );
        (server, http)
    }

    /// One episode over an already-wrapped backend. Returns the watch
    /// so the caller can check the final state.
    fn episode<B: ClusterBackend + ProbeWire>(
        &self,
        backend: Watch<B>,
        traced: bool,
        unit: &mut Unit,
    ) -> Watch<B> {
        let policy: Box<dyn Policy> = Box::new(Aiad::default());
        let admission: Box<dyn Admission> = Box::new(ClampToQuota);
        let (policy, admission): (Box<dyn Policy>, Box<dyn Admission>) = if traced {
            (
                Box::new(TimedPolicy::new(policy)),
                Box::new(TimedAdmission::new(admission)),
            )
        } else {
            (policy, admission)
        };
        let mut reconciler = Reconciler::new(policy, admission);
        let defaults = ResilienceConfig::default();
        let resilience = ResilienceConfig {
            retry: RetryPolicy {
                max_attempts: ATTEMPTS,
                ..defaults.retry
            },
            observe_budget: DurationMs::from_secs(RETRY_BUDGET_S),
            apply_budget: DurationMs::from_secs(RETRY_BUDGET_S),
            jitter_seed: SplitMix64::child_seed(self.seed, 2),
            ..defaults
        };
        let mut driver = ResilientDriver::new(backend, resilience);
        let mut probe = RoundProbe::default();
        let start = Instant::now();
        let mut probe_s = 0.0;
        while driver.backend_mut().advance().is_some() {
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
            driver.round_with(&mut reconciler, &mut probe);
            unit.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
            trace::end(h);
            // Probing every round would evict the loop's working set
            // and inflate the traced rounds; a sample suffices.
            if traced && unit.rounds.is_multiple_of(WIRE_PROBE_EVERY) {
                let t = Instant::now();
                driver.backend_mut().inner.probe_wire();
                probe_s += t.elapsed().as_secs_f64();
            }
        }
        unit.wall_s = start.elapsed().as_secs_f64();
        unit.probe_s = probe_s;
        record_probe(unit, &probe);
        let stats = *driver.stats();
        unit.failed_rounds = stats.rounds - stats.ok_rounds;
        unit.counts.insert(
            "control.resilient.retries",
            stats.observe_retries + stats.apply_retries,
        );
        unit.counts.insert(
            "control.resilient.degraded_rounds",
            stats.stale_tolerated_rounds + stats.carry_forward_rounds + stats.skipped_rounds,
        );
        unit.counts
            .insert("control.resilient.drift_repairs", stats.drift_repairs);
        unit.counts
            .insert("control.resilient.breaker_opens", stats.breaker_opens);
        unit.check(stats.rounds == ROUNDS, || {
            format!("driver saw {} rounds, expected {ROUNDS}", stats.rounds)
        });
        driver.into_inner()
    }
}

/// Access to the HTTP backend under the wrappers, and the wire probe:
/// the traced pass re-serializes and re-parses a sampled observed
/// snapshot with the public wire functions; the bare pass does nothing.
trait ProbeWire {
    fn probe_wire(&mut self);
    fn http(&mut self) -> &mut HttpBackend;
}

impl ProbeWire for HttpBackend {
    fn probe_wire(&mut self) {}

    fn http(&mut self) -> &mut HttpBackend {
        self
    }
}

impl ProbeWire for TimedBackend<HttpBackend> {
    fn probe_wire(&mut self) {
        let Some(snapshot) = self.last_snapshot.take() else {
            return;
        };
        let body = ObserveResponse {
            seq: 0,
            age_ms: 0,
            snapshot,
        };
        let json = trace::span("probe.wire_encode", || {
            serde_json::to_string(&body).expect("snapshot serializes")
        });
        trace::sample("probe.observe_bytes", json.len() as f64);
        let parsed = trace::span("probe.wire_decode", || {
            serde_json::from_str(&json)
                .ok()
                .as_ref()
                .and_then(ObserveResponse::from_json)
        });
        if parsed.as_ref() != Some(&body) {
            trace::count("probe.wire_mismatches", 1);
        }
    }

    fn http(&mut self) -> &mut HttpBackend {
        self.inner_mut()
    }
}

impl Live {
    /// Scores the episode and checks the final state: with chaos
    /// switched off, the server's observed targets must equal the last
    /// desired state the driver sent, when that apply landed.
    fn settle<B: ProbeWire>(&self, mut w: Watch<B>, unit: &mut Unit) {
        unit.check(w.job_rounds > 0, || "no fresh snapshot was observed".into());
        let jobs = w.job_rounds.max(1) as f64;
        let rounds = w.fresh_rounds.max(1) as f64;
        unit.quality
            .insert("slo_violation_rate", w.violated as f64 / jobs);
        unit.quality.insert("lost_utility", w.lost_utility / rounds);
        let http = w.inner.http();
        if let Err(e) = http.configure_chaos(ChaosConfig::none()) {
            unit.fail(format!("switching chaos off failed: {e}"));
            return;
        }
        match http.observe() {
            Ok(snapshot) => {
                let observed: Vec<u32> = snapshot.jobs.iter().map(|j| j.target_replicas).collect();
                if w.last_apply_ok {
                    unit.check(observed == w.last_apply, || {
                        format!(
                            "final observed targets {observed:?} differ from the last desired {:?}",
                            w.last_apply
                        )
                    });
                }
                let total: u32 = observed.iter().sum();
                unit.check(total <= QUOTA, || {
                    format!("{total} replicas over quota {QUOTA}")
                });
            }
            Err(e) => unit.fail(format!("final observe failed: {e}")),
        }
    }
}

impl Workload for Live {
    fn repeats(&self) -> bool {
        true
    }

    fn min_units(&self) -> usize {
        1
    }

    fn run_unit(&mut self, _k: usize, traced: bool) -> Unit {
        let (server, http) = self.bring_up();
        let mut unit = Unit::default();
        if traced {
            let names = BackendSpans {
                advance: "cluster.advance",
                observe: "cluster.observe",
                apply: "cluster.apply",
                errors: "cluster.http_errors",
            };
            let timed = Watch::new(TimedBackend::new(http, names, true));
            let w = self.episode(timed, true, &mut unit);
            self.settle(w, &mut unit);
        } else {
            let w = self.episode(Watch::new(http), false, &mut unit);
            self.settle(w, &mut unit);
        }
        server.shutdown();
        unit
    }
}
