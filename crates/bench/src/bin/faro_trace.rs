//! faro-trace: replay a fig15-style constrained-cluster run with the
//! telemetry layer attached and dump the control plane's decision
//! trace.
//!
//! The paper's ten-job workload runs under Faro-Sum at 32 replicas
//! (the constrained regime where admission clamping and drop control
//! actually bite) with a crash/outage fault schedule, a
//! [`TraceSink`] + [`AggregateSink`] tee listening. The bin then:
//!
//! - writes the full event trace as JSONL to `results/faro_trace.jsonl`,
//! - writes the Prometheus text snapshot to `results/faro_trace.prom`,
//! - prints phase-work stats, per-kind event counts, per-job SLO
//!   attainment, and a decision-trace excerpt,
//! - times the same single-threaded size sweep with [`NoopSink`]
//!   (implicit default) vs [`TraceSink`] and appends the overhead
//!   numbers to `BENCH_perf.json`.
//!
//! Usage: `cargo run --release -p faro-bench --bin faro-trace`
//!   FARO_QUICK=1        shorter eval and a smaller sweep (CI smoke)
//!   FARO_BENCH_LABEL=x  BENCH_perf.json entry label (default "dev")
//!   FARO_BENCH_OUT=path BENCH_perf.json path override
//!   FARO_TRACE_OUT=dir  trace/snapshot output dir (default results/)

use faro_bench::prelude::*;
use faro_core::types::JobId;
use faro_sim::{MetricOutage, MetricOutageMode, NodeOutage, ReplicaCrashes, SimRun};
use faro_telemetry::{Phase, Tee};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct TracePerfEntry {
    /// Entry label (e.g. "pr5-telemetry", "ci-quick").
    label: String,
    /// Unix timestamp (seconds) when the entry was recorded.
    unix_time_secs: u64,
    /// Whether FARO_QUICK=1 shrank the workload.
    quick: bool,
    /// Events captured by the trace run (decision records + lifecycle).
    trace_events: u64,
    /// Single-threaded fig15-style size sweep, NoopSink (seconds).
    fig15_noop_secs: f64, // faro-lint: allow(raw-time-arith): serialized wire format
    /// The same sweep with a TraceSink attached (seconds).
    fig15_traced_secs: f64, // faro-lint: allow(raw-time-arith): serialized wire format
    /// Tracing overhead: `traced / noop - 1`, in percent.
    trace_overhead_pct: f64,
}

/// The fig15-style cell the trace replays: paper workload, Faro-Sum,
/// flat predictors (training cost excluded), constrained cluster.
fn fig15_cell(quick: bool) -> (WorkloadSet, SimConfig) {
    let minutes = if quick { 30 } else { 90 };
    let set = WorkloadSet::paper_ten_jobs(42).truncated_eval(minutes);
    let cfg = SimConfig {
        total_replicas: 32,
        seed: 7,
        ..Default::default()
    };
    (set, cfg)
}

/// A fault schedule that exercises every lifecycle event kind inside
/// the first 30 minutes (so quick mode sees them too).
fn faults() -> FaultPlan {
    FaultPlan {
        replica_crashes: Some(ReplicaCrashes { mttf_secs: 600.0 }),
        node_outage: Some(NodeOutage {
            start_secs: 600.0,
            duration_secs: 120.0,
            quota_fraction: 0.25,
        }),
        metric_outage: Some(MetricOutage {
            start_secs: 1200.0,
            duration_secs: 120.0,
            jobs: vec![JobId::new(3)],
            mode: MetricOutageMode::Stale,
        }),
        ..FaultPlan::none()
    }
}

/// Runs the traced replay and dumps JSONL + Prometheus artifacts.
fn replay_and_dump(set: &WorkloadSet, cfg: &SimConfig, out_dir: &str) -> u64 {
    let policy = PolicyKind::faro(ClusterObjective::Sum).build(set, None, cfg.seed);
    let mut tee = Tee::new(TraceSink::new(), AggregateSink::new());
    let outcome = Simulation::new(cfg.clone(), set.setups(1))
        .expect("valid setup")
        .with_faults(faults())
        .unwrap()
        .driver()
        .unwrap()
        .policy(policy)
        .telemetry(&mut tee)
        .run()
        .expect("traced replay completes")
        .into_outcome();
    let (trace, agg) = tee.into_parts();

    let jsonl_path = format!("{out_dir}/faro_trace.jsonl");
    let prom_path = format!("{out_dir}/faro_trace.prom");
    std::fs::write(&jsonl_path, trace.to_jsonl()).expect("trace output dir is writable");
    std::fs::write(&prom_path, agg.prometheus_snapshot()).expect("trace output dir is writable");

    println!(
        "replay: {} rounds, {} replicas started, {} trace events ({} evicted)",
        outcome.stats.rounds,
        outcome.stats.replicas_started,
        trace.len(),
        trace.evicted(),
    );

    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    for entry in trace.entries() {
        *kinds.entry(entry.event.kind()).or_insert(0) += 1;
    }
    println!("\nevents by kind:");
    for (kind, count) in &kinds {
        println!("  {kind:<18} {count:>6}");
    }

    println!("\nphase work per round (deterministic units, not wall time):");
    println!(
        "  {:<10} {:>8} {:>12} {:>10}",
        "phase", "rounds", "total_work", "max_work"
    );
    for phase in Phase::ALL {
        let s = agg.span_stats(phase);
        println!(
            "  {:<10} {:>8} {:>12} {:>10}",
            phase.as_str(),
            s.rounds,
            s.total_work,
            s.max_work
        );
    }

    println!("\nper-job SLO attainment (mean of per-minute ratios):");
    for (j, job) in set.jobs.iter().enumerate() {
        let series = agg.attainment_series(j);
        let mean = if series.is_empty() {
            0.0
        } else {
            series.iter().sum::<f64>() / series.len() as f64
        };
        println!("  {:<12} {mean:>6.3}", job.name);
    }

    println!("\ndecision-trace excerpt (first 2 JSONL records):");
    for line in trace.to_jsonl().lines().take(2) {
        let shown = if line.len() > 200 { &line[..200] } else { line };
        println!("  {shown}...");
    }
    println!("\nwrote {jsonl_path}\nwrote {prom_path}");
    trace.len() as u64
}

/// Times a single-threaded fig15-style size sweep twice — NoopSink
/// (the `Driver` default) vs TraceSink — so the ratio isolates tracing
/// overhead with no thread-scheduling noise.
fn measure_overhead(set: &WorkloadSet, quick: bool) -> (f64, f64) {
    let sizes: Vec<u32> = if quick {
        vec![16, 32, 44]
    } else {
        vec![16, 24, 32, 36, 44]
    };
    let run = |size: u32, traced: bool| {
        let cfg = SimConfig {
            total_replicas: size,
            seed: 7,
            ..Default::default()
        };
        let policy = PolicyKind::faro(ClusterObjective::Sum).build(set, None, cfg.seed);
        let runner = Simulation::new(cfg, set.setups(1))
            .expect("valid setup")
            .driver()
            .unwrap()
            .policy(policy);
        let report = if traced {
            let mut sink = TraceSink::new();
            let report = runner
                .telemetry(&mut sink)
                .run()
                .expect("traced sweep cell completes")
                .into_outcome()
                .report;
            assert!(!sink.is_empty(), "traced cell recorded events");
            report
        } else {
            runner
                .run()
                .expect("sweep cell completes")
                .into_outcome()
                .report
        };
        assert!(!report.jobs.is_empty());
    };
    // Warm-up (page in code and workload history once).
    run(sizes[0], false);
    let start = Instant::now();
    for &s in &sizes {
        run(s, false);
    }
    let noop_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for &s in &sizes {
        run(s, true);
    }
    let traced_secs = start.elapsed().as_secs_f64();
    (noop_secs, traced_secs)
}

fn main() {
    let quick = quick_mode();
    let label = std::env::var("FARO_BENCH_LABEL").unwrap_or_else(|_| "dev".to_string());
    let default_bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    let bench_path = std::env::var("FARO_BENCH_OUT").unwrap_or_else(|_| default_bench.to_string());
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let out_dir = std::env::var("FARO_TRACE_OUT").unwrap_or_else(|_| default_out.to_string());

    let (set, cfg) = fig15_cell(quick);
    eprintln!("replaying fig15-style cell with telemetry attached...");
    let trace_events = replay_and_dump(&set, &cfg, &out_dir);

    eprintln!("\nmeasuring tracing overhead (NoopSink vs TraceSink sweep)...");
    let (fig15_noop_secs, fig15_traced_secs) = measure_overhead(&set, quick);
    let trace_overhead_pct = (fig15_traced_secs / fig15_noop_secs - 1.0) * 100.0;
    eprintln!(
        "  noop {fig15_noop_secs:.2}s, traced {fig15_traced_secs:.2}s ({trace_overhead_pct:+.1}% overhead)"
    );

    let entry = TracePerfEntry {
        label,
        unix_time_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        quick,
        trace_events,
        fig15_noop_secs,
        fig15_traced_secs,
        trace_overhead_pct,
    };
    let json = serde_json::to_string(&entry).expect("entry serializes");
    append_bench_entry(&bench_path, &json).expect("BENCH_perf.json is writable");
    println!("\n{json}");
    eprintln!("appended entry to {bench_path}");
}
