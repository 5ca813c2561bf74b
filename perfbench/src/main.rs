//! The Faro control-loop benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
//! ```
//!
//! Sets the workload up, then runs whole units of work until
//! `--seconds` have passed, setting it up again between units (the
//! set-up time is the median over those set-up batches).
//! With `--trace 0` it prints the end-to-end metrics, measured with no
//! wrapper in the loop; with `--trace 1` it runs each unit twice, bare
//! and wrapped in timed spans, checks the two agree, and prints the
//! per-layer breakdown. Human-readable lines come first; the last line
//! of standard output is one JSON object. A failed output check makes
//! `correct` false and the exit code 1. See `README.md` for the
//! workloads and metrics.

mod fleet;
mod live;
mod sim;
mod trace;
mod unit;
mod wrap;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use unit::Unit;

/// A set-up workload: runs unit `k` of its work, bare or traced.
pub trait Workload {
    /// Units every run completes, whatever `--seconds` says; quality
    /// and work counters are averaged over exactly these.
    fn min_units(&self) -> usize;
    /// Runs unit `k`. Unit `k` takes the same inputs in every pass and
    /// every run with the same seed.
    fn run_unit(&mut self, k: usize, traced: bool) -> Unit;
    /// Whether every unit runs the same inputs (so every unit must do
    /// the same work).
    fn repeats(&self) -> bool;
}

/// What one set-up produced.
pub struct Setup {
    /// The ready workload.
    pub workload: Box<dyn Workload>,
    /// Seconds of set-up work, as the workload measures it (output
    /// checks and tear-down excluded).
    pub setup_s: f64,
    /// Seconds spent generating traces and schedules.
    pub generate_s: f64,
    /// Seconds spent training forecasters.
    pub train_s: f64,
    /// A digest of the set-up's outputs; repeated set-ups must match.
    pub fingerprint: String,
    /// Failed set-up checks, one line each.
    pub failures: Vec<String>,
}

struct Spec {
    name: &'static str,
    /// Set-ups per batch: enough that a batch takes milliseconds.
    batch: usize,
    /// One batch runs before the first unit, and one more before every
    /// `every`-th unit after it, so that the set-up times sample the
    /// whole run: the host's speed drifts within seconds, and batches
    /// run back to back catch one moment of it. `setup_s` is the
    /// median over batches of the mean set-up time within a batch.
    every: usize,
    setup: fn(u64) -> Setup,
}

/// The set-up batches of one run: their times, and the checks that
/// every set-up produced the same outputs.
struct Setups {
    spec: &'static Spec,
    seed: u64,
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
    train_s: Vec<f64>,
    fingerprint: Option<String>,
    failures: Vec<String>,
}

impl Setups {
    fn new(spec: &'static Spec, seed: u64) -> Self {
        Self {
            spec,
            seed,
            setup_s: Vec::new(),
            generate_s: Vec::new(),
            train_s: Vec::new(),
            fingerprint: None,
            failures: Vec::new(),
        }
    }

    /// Runs one batch of set-ups, records the batch's mean times, and
    /// returns the batch's first workload.
    fn batch(&mut self) -> Box<dyn Workload> {
        let mut first = None;
        let mut sums = (0.0, 0.0, 0.0);
        for _ in 0..self.spec.batch {
            let s = (self.spec.setup)(self.seed);
            sums.0 += s.setup_s;
            sums.1 += s.generate_s;
            sums.2 += s.train_s;
            self.failures.extend(s.failures);
            match &self.fingerprint {
                Some(f) if *f != s.fingerprint => self
                    .failures
                    .push("repeated set-ups produced different outputs".into()),
                Some(_) => {}
                None => self.fingerprint = Some(s.fingerprint),
            }
            first.get_or_insert(s.workload);
        }
        let n = self.spec.batch as f64;
        self.setup_s.push(sums.0 / n);
        self.generate_s.push(sums.1 / n);
        self.train_s.push(sums.2 / n);
        first.expect("a batch holds at least one set-up")
    }

    /// Medians over the batches.
    fn times(&self) -> SetupTimes {
        SetupTimes {
            batches: self.setup_s.len(),
            setup_s: percentile(&self.setup_s, 0.5),
            generate_s: percentile(&self.generate_s, 0.5),
            train_s: percentile(&self.train_s, 0.5),
        }
    }
}

const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "paper10-sim",
        batch: 1,
        every: 3,
        setup: |seed| sim::setup(sim::Kind::Paper10, seed),
    },
    Spec {
        name: "fleet1k-sharded",
        batch: 25,
        every: 1,
        setup: fleet::setup,
    },
    Spec {
        name: "classed-sim",
        batch: 1,
        every: 1,
        setup: |seed| sim::setup(sim::Kind::Classed, seed),
    },
    Spec {
        name: "live-chaos",
        batch: 10,
        every: 4,
        setup: live::setup,
    },
];

/// The seed kept out of tuning, for confirming later claims.
const HELD_OUT_SEED: u64 = 9001;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_out) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_out,
    })
}

/// Linear-interpolated percentile of sorted data (0 when empty).
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// The p99 when at least ten samples lie beyond it, else `None`.
fn p99(values: &[f64]) -> Option<f64> {
    (values.len() >= 1000).then(|| percentile(values, 0.99))
}

/// Metrics in print order: name, value, unit, and a note.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str, String)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) {
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
        self.0.push((name, value + 0.0, unit, note.into()));
    }

    fn print(&self, title: &str) {
        println!("{title}");
        for (name, value, unit, note) in &self.0 {
            println!("  {name:<36} {value:>14.6} {unit:<6} {note}");
        }
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit, _)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

fn sum<'a>(units: impl IntoIterator<Item = &'a Unit>, f: impl Fn(&Unit) -> f64) -> f64 {
    units.into_iter().map(f).sum()
}

fn count(unit: &Unit, name: &str) -> u64 {
    unit.counts.get(name).copied().unwrap_or(0)
}

/// Runs units until the time budget is spent: another unit starts only
/// while the expected finish stays within half a unit of the budget.
fn run_for(seconds: f64, min_units: usize, mut one: impl FnMut(usize)) {
    let start = Instant::now();
    let mut k = 0;
    let mut last = 0.0;
    while k < min_units || start.elapsed().as_secs_f64() + 0.5 * last < seconds {
        let t = Instant::now();
        one(k);
        last = t.elapsed().as_secs_f64();
        k += 1;
    }
}

/// The loop timings are taken over the run's fastest units: the
/// 10th percentile of the units' mean rounds, and the 90th of their
/// round rates. A shared host slows a whole stretch of seconds at a
/// time (other tenants' load; the simulated workloads' ~20 us median
/// round flips between about 16 and 24 us), so the run's median and
/// every percentile over all its rounds move with the share of the
/// run that such stretches cover. The fast units measure the same code
/// at the host's unloaded speed, and a slower program makes them
/// slower too. The mean round, unlike the median, weighs every round
/// by its cost, so it follows the solves each workload was chosen for
/// rather than the fleet's cached rounds (a median that flips between
/// about 0.22 and 0.32 ms with the host's phase).
const FAST_UNITS: f64 = 0.1;

/// End-to-end metrics from the untraced units. Every metric applies to
/// every workload; the informational lines that follow apply only
/// where the workload has them.
fn end_to_end(setups: &SetupTimes, units: &[Unit], min_units: usize) -> (Metrics, Metrics) {
    let rounds: Vec<f64> = units
        .iter()
        .flat_map(|u| u.round_ms.iter().copied())
        .collect();
    let wall = sum(units, |u| u.wall_s);
    let n_rounds = sum(units, |u| u.rounds as f64);
    let unit_rates: Vec<f64> = units
        .iter()
        .map(|u| u.rounds as f64 / u.wall_s.max(1e-12))
        .collect();
    let quality_units = &units[..min_units.min(units.len())];
    let quality = |key: &str| {
        sum(quality_units, |u| {
            u.quality.get(key).copied().unwrap_or(0.0)
        }) / quality_units.len().max(1) as f64
    };
    let mut m = Metrics::default();
    m.put(
        "setup_s",
        setups.setup_s,
        "s",
        format!("median over {} set-up batches", setups.batches),
    );
    let unit_means: Vec<f64> = units
        .iter()
        .map(|u| u.round_ms.iter().sum::<f64>() / u.round_ms.len().max(1) as f64)
        .collect();
    m.put(
        "round_mean_ms",
        percentile(&unit_means, FAST_UNITS),
        "ms",
        format!(
            "each unit's mean round, fast-units percentile over {} units",
            units.len()
        ),
    );
    m.put(
        "rounds_per_s",
        percentile(&unit_rates, 1.0 - FAST_UNITS),
        "1/s",
        format!(
            "fast-units percentile over {} units ({n_rounds} rounds in {wall:.3} s)",
            units.len()
        ),
    );
    m.put(
        "slo_violation_rate",
        quality("slo_violation_rate"),
        "share",
        format!("mean over the first {} units", quality_units.len()),
    );
    m.put(
        "lost_utility",
        quality("lost_utility"),
        "util",
        format!("mean over the first {} units", quality_units.len()),
    );

    let mut info = Metrics::default();
    info.put(
        "round_p50_ms",
        percentile(&rounds, 0.5),
        "ms",
        format!("median of all {} control rounds", rounds.len()),
    );
    if let Some(v) = p99(&rounds) {
        info.put(
            "round_p99_ms",
            v,
            "ms",
            format!("p99 of {} rounds", rounds.len()),
        );
    }
    let solves: Vec<f64> = units
        .iter()
        .flat_map(|u| u.solve_round_ms.iter().copied())
        .collect();
    if !solves.is_empty() {
        info.put(
            "solve_round_p50_ms",
            percentile(&solves, 0.5),
            "ms",
            format!("median of {} rounds with solver evals > 0", solves.len()),
        );
    }
    let colds: Vec<f64> = units.iter().filter_map(|u| u.cold_solve_ms).collect();
    if !colds.is_empty() {
        info.put(
            "cold_solve_ms",
            percentile(&colds, 0.5),
            "ms",
            format!("median of {} cold rounds", colds.len()),
        );
    }
    let events = sum(units, |u| count(u, "sim.events") as f64);
    if events > 0.0 {
        info.put(
            "sim_events_per_s",
            events / wall.max(1e-12),
            "1/s",
            "events computed from ClusterReport, over unit wall time",
        );
    }
    for key in ["predicted_utility", "predicted_attainment"] {
        if quality_units.iter().any(|u| u.quality.contains_key(key)) {
            info.put(key, quality(key), "", "referee: cluster_value_integer");
        }
    }
    let failed = sum(units, |u| u.failed_rounds as f64);
    info.put(
        "failed_round_share",
        failed / n_rounds.max(1.0),
        "share",
        format!("{failed} of {n_rounds} rounds"),
    );
    (m, info)
}

/// Per-layer metrics from paired (untraced, traced) units.
fn per_layer(
    setups: &SetupTimes,
    pairs: &[(Unit, Unit)],
    spans: &[trace::Span],
    samples: &BTreeMap<&'static str, Vec<f64>>,
) -> Metrics {
    let first = &pairs[0].1;
    let traced_units = pairs.len() as f64;
    let own = trace::self_ns(spans);
    let durations = |name: &str, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / scale)
            .collect()
    };
    let self_of = |pred: &dyn Fn(&trace::Span) -> bool| -> f64 {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| pred(s))
            .map(|(_, &ns)| ns as f64)
            .sum()
    };
    const US: f64 = 1e3;
    const MS: f64 = 1e6;
    let p50 = |name: &str, scale: f64| percentile(&durations(name, scale), 0.5);
    let p99_or_zero = |name: &str, scale: f64| p99(&durations(name, scale)).unwrap_or(0.0);
    let c = |name: &str| count(first, name) as f64;

    let mut m = Metrics::default();
    m.put(
        "trace.generate_s",
        setups.generate_s,
        "s",
        "median over set-up batches",
    );
    m.put(
        "nn.train_s",
        setups.train_s,
        "s",
        "median over set-up batches",
    );
    m.put(
        "forecast.predict_us_p50",
        p50("forecast.predict", US),
        "us",
        "",
    );
    m.put(
        "forecast.predict_calls",
        c("forecast.predict_calls"),
        "count",
        "unit 0",
    );
    m.put(
        "core.decide_solve_ms_p50",
        p50("core.decide_solve", MS),
        "ms",
        "decides with evals > 0",
    );
    m.put(
        "core.decide_reactive_us_p50",
        p50("core.decide_reactive", US),
        "us",
        "decides without a long-term solve",
    );
    let decide_self = self_of(&|s| s.layer() == "core");
    m.put(
        "core.decide_self_ms_total",
        decide_self / MS / traced_units,
        "ms",
        "per unit, forecast excluded",
    );
    let evals = c("solver.evals_total");
    m.put("solver.evals_total", evals, "count", "unit 0");
    m.put(
        "solver.evals_per_solve",
        evals / c("solver.solve_rounds").max(1.0),
        "count",
        "unit 0",
    );
    let solve_self = self_of(&|s| s.name == "core.decide_solve");
    let all_evals: f64 = pairs
        .iter()
        .map(|(_, t)| count(t, "solver.evals_total") as f64)
        .sum();
    m.put(
        "solver.us_per_eval",
        if all_evals > 0.0 {
            solve_self / US / all_evals
        } else {
            0.0
        },
        "us",
        "solve-decide self time per evaluation",
    );
    m.put(
        "core.sharded.shards_solved",
        c("core.sharded.shards_solved"),
        "count",
        "unit 0",
    );
    m.put(
        "core.sharded.cache_hit_jobs",
        c("core.sharded.cache_hit_jobs"),
        "count",
        "unit 0",
    );
    m.put(
        "core.sharded.split_evals",
        c("core.sharded.split_evals"),
        "count",
        "unit 0",
    );
    m.put("control.admit_us_p50", p50("control.admit", US), "us", "");
    m.put(
        "control.trimmed_replicas",
        c("control.trimmed_replicas"),
        "count",
        "unit 0",
    );
    let round_self: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "control.round")
        .map(|(_, &ns)| ns as f64 / US)
        .collect();
    m.put(
        "control.round_overhead_us_p50",
        percentile(&round_self, 0.5),
        "us",
        "round self time",
    );
    for key in [
        "control.resilient.retries",
        "control.resilient.degraded_rounds",
        "control.resilient.drift_repairs",
        "control.resilient.breaker_opens",
    ] {
        m.put(key, c(key), "count", "unit 0");
    }
    let advance_ns: f64 = durations("sim.advance", 1.0).iter().sum();
    m.put(
        "sim.advance_s_total",
        advance_ns / 1e9 / traced_units,
        "s",
        "per unit",
    );
    m.put(
        "sim.events",
        c("sim.events"),
        "count",
        "unit 0, computed from ClusterReport",
    );
    let all_events: f64 = pairs
        .iter()
        .map(|(_, t)| count(t, "sim.events") as f64)
        .sum();
    m.put(
        "sim.ns_per_event",
        if all_events > 0.0 {
            advance_ns / all_events
        } else {
            0.0
        },
        "ns",
        "advance time per event",
    );
    m.put("sim.observe_us_p50", p50("sim.observe", US), "us", "");
    m.put("sim.apply_us_p50", p50("sim.apply", US), "us", "");
    m.put(
        "cluster.observe_ms_p50",
        p50("cluster.observe", MS),
        "ms",
        "",
    );
    m.put(
        "cluster.observe_ms_p99",
        p99_or_zero("cluster.observe", MS),
        "ms",
        "0 below 1000 calls",
    );
    m.put("cluster.apply_ms_p50", p50("cluster.apply", MS), "ms", "");
    m.put(
        "cluster.apply_ms_p99",
        p99_or_zero("cluster.apply", MS),
        "ms",
        "0 below 1000 calls",
    );
    m.put(
        "cluster.wire_encode_us_p50",
        p50("probe.wire_encode", US),
        "us",
        "re-serialized snapshot",
    );
    m.put(
        "cluster.wire_decode_us_p50",
        p50("probe.wire_decode", US),
        "us",
        "re-parsed snapshot",
    );
    m.put(
        "cluster.observe_bytes_p50",
        samples
            .get("probe.observe_bytes")
            .map_or(0.0, |v| percentile(v, 0.5)),
        "bytes",
        "computed: snapshot re-serialized with the core serializer",
    );
    m.put(
        "cluster.http_errors",
        c("cluster.http_errors"),
        "count",
        "unit 0",
    );

    // Tracing overhead: traced against untraced wall time of the same
    // units, bench-only probes excluded.
    let bare = sum(pairs.iter().map(|(u, _)| u), |u| u.wall_s);
    let traced = sum(pairs.iter().map(|(_, t)| t), |t| t.wall_s - t.probe_s);
    m.put(
        "bench.tracing_overhead_pct",
        100.0 * (traced - bare) / bare.max(1e-12),
        "%",
        format!("{} unit pairs", pairs.len()),
    );

    // Self time by layer. Time inside the unit loop that no span
    // covers is the benchmark's own loop.
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == u32::MAX && s.layer() != "probe")
        .map(|s| s.ns() as f64)
        .sum();
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(&own) {
        if s.layer() != "probe" {
            *layers.entry(s.layer()).or_insert(0.0) += ns as f64;
        }
    }
    *layers.entry("bench").or_insert(0.0) += (traced * 1e9 - covered).max(0.0);
    for (layer, self_name, share_name) in [
        ("sim", "layer.sim.self_s", "layer.sim.share_pct"),
        ("core", "layer.core.self_s", "layer.core.share_pct"),
        (
            "forecast",
            "layer.forecast.self_s",
            "layer.forecast.share_pct",
        ),
        ("control", "layer.control.self_s", "layer.control.share_pct"),
        ("cluster", "layer.cluster.self_s", "layer.cluster.share_pct"),
        ("bench", "layer.bench.self_s", "layer.bench.share_pct"),
    ] {
        let ns = layers.get(layer).copied().unwrap_or(0.0);
        m.put(
            self_name,
            ns / 1e9 / traced_units,
            "s",
            "self time per unit",
        );
        m.put(
            share_name,
            100.0 * ns / (traced * 1e9).max(1.0),
            "%",
            "of traced unit wall time",
        );
    }
    m
}

struct SetupTimes {
    batches: usize,
    setup_s: f64,
    generate_s: f64,
    train_s: f64,
}

/// Checks that a traced unit did exactly what its untraced twin did:
/// tracing observes a run, it must never steer one.
fn same_work(bare: &Unit, traced: &Unit, k: usize) -> Vec<String> {
    let mut out = Vec::new();
    if bare.rounds != traced.rounds {
        out.push(format!(
            "unit {k}: {} rounds bare, {} traced",
            bare.rounds, traced.rounds
        ));
    }
    for (key, v) in &bare.counts {
        if traced.counts.get(key) != Some(v) {
            out.push(format!(
                "unit {k}: {key} = {v} bare, {:?} traced",
                traced.counts.get(key)
            ));
        }
    }
    if bare.quality.len() != traced.quality.len() {
        out.push(format!("unit {k}: quality figures differ in kind"));
    }
    for (key, v) in &bare.quality {
        if traced.quality.get(key).map(|t| t.to_bits()) != Some(v.to_bits()) {
            out.push(format!(
                "unit {k}: {key} = {v} bare, {:?} traced",
                traced.quality.get(key)
            ));
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.seed == HELD_OUT_SEED {
            " (the held-out seed)"
        } else {
            ""
        }
    );
    let mut failures: Vec<String> = Vec::new();

    let mut setups = Setups::new(spec, args.seed);
    let mut workload = setups.batch();
    let min_units = workload.min_units();

    let (metrics, attempted, failed) = if args.trace {
        trace::install();
        let mut pairs: Vec<(Unit, Unit)> = Vec::new();
        run_for(args.seconds, 1, |k| {
            if k > 0 && k % spec.every == 0 {
                setups.batch();
            }
            let bare = workload.run_unit(k, false);
            let mut traced = workload.run_unit(k, true);
            traced.counts.extend(trace::take_counters());
            failures.extend(same_work(&bare, &traced, k));
            pairs.push((bare, traced));
        });
        let samples = trace::take_samples();
        let spans = trace::finish();
        if let Some(path) = &args.spans_out {
            if let Err(e) = trace::write_tsv(path, &spans) {
                failures.push(format!("writing spans to {}: {e}", path.display()));
            } else {
                println!("{} spans written to {}", spans.len(), path.display());
            }
        }
        if pairs
            .iter()
            .any(|(_, t)| count(t, "probe.wire_mismatches") > 0)
        {
            failures.push("a re-serialized snapshot did not parse back equal".into());
        }
        let m = per_layer(&setups.times(), &pairs, &spans, &samples);
        m.print("per-layer metrics (traced pass; counts from unit 0):");
        let units = pairs.iter().flat_map(|(a, b)| [a, b]);
        let attempted = units.clone().map(|u| u.rounds).sum::<u64>();
        let failed = units.clone().map(|u| u.failed_rounds).sum::<u64>();
        for u in units {
            failures.extend(u.failures.iter().cloned());
        }
        (m, attempted, failed)
    } else {
        let mut units = Vec::new();
        run_for(args.seconds, min_units, |k| {
            if k > 0 && k % spec.every == 0 {
                setups.batch();
            }
            units.push(workload.run_unit(k, false));
        });
        for (k, u) in units.iter().enumerate() {
            println!(
                "unit {k}: {} rounds in {:.4} s, round p50 {:.4} ms",
                u.rounds,
                u.wall_s,
                percentile(&u.round_ms, 0.5)
            );
        }
        let (m, info) = end_to_end(&setups.times(), &units, min_units);
        m.print("end-to-end metrics:");
        info.print("workload-specific metrics (informational):");
        let mut counts = Metrics::default();
        for (key, v) in &units[0].counts {
            counts.put(key, *v as f64, "count", "unit 0");
        }
        counts.print("deterministic work counters:");
        if workload.repeats() {
            for (k, u) in units.iter().enumerate().skip(1) {
                if units[0].counts != u.counts {
                    failures.push(format!("unit {k} did different work than unit 0"));
                }
            }
        }
        let attempted = units.iter().map(|u| u.rounds).sum::<u64>();
        let failed = units.iter().map(|u| u.failed_rounds).sum::<u64>();
        for u in &units {
            failures.extend(u.failures.iter().cloned());
        }
        (m, attempted, failed)
    };

    failures.extend(setups.failures);
    for (name, value, _, _) in &metrics.0 {
        if !value.is_finite() {
            failures.push(format!("{name} is not a finite number"));
        }
    }
    failures.dedup();
    for f in failures.iter().take(20) {
        println!("CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
