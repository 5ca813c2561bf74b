//! Wall-clock spans recorded from the benchmark's side of each layer
//! boundary.
//!
//! The tracer lives in a thread-local so the timed wrappers (which the
//! control loop owns as `Box<dyn Policy>` and friends, all `Send`) need
//! no shared handle. Every workload drives its control loop from one
//! thread; the live workload's server thread is never traced. When no
//! tracer is installed, [`begin`] and [`end`] are a thread-local read
//! and a branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Sentinel parent index for root spans.
const NO_PARENT: u32 = u32::MAX;

/// One closed span: a layer call, timed from the caller's side.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.advance` or `core.decide`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was installed.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was installed.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Control round the span belongs to (0 before the first round).
    pub round: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u64,
    counters: BTreeMap<&'static str, u64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs a fresh tracer on this thread; spans recorded from now on
/// are kept until [`finish`].
pub fn install() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            round: 0,
            counters: BTreeMap::new(),
            samples: BTreeMap::new(),
        });
    });
}

/// Removes this thread's tracer and returns its closed spans in start
/// order.
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|tr| tr.spans).unwrap_or_default())
}

/// Sets the round id stamped on spans opened from now on.
pub fn set_round(round: u64) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.round = round;
        }
    });
}

/// Opens a span; returns its handle, or `None` when tracing is off.
pub fn begin(name: &'static str) -> Option<u32> {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let tr = guard.as_mut()?;
        let idx = u32::try_from(tr.spans.len()).expect("fewer than 2^32 spans per run");
        let start_ns = tr.epoch.elapsed().as_nanos() as u64;
        let parent = tr.open.last().copied().unwrap_or(NO_PARENT);
        tr.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round: tr.round,
        });
        tr.open.push(idx);
        Some(idx)
    })
}

/// Closes the span `begin` returned. Spans close in LIFO order.
pub fn end(handle: Option<u32>) {
    let Some(idx) = handle else { return };
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            let end_ns = tr.epoch.elapsed().as_nanos() as u64;
            let popped = tr.open.pop();
            debug_assert_eq!(popped, Some(idx), "spans close innermost first");
            tr.spans[idx as usize].end_ns = end_ns;
        }
    });
}

/// Renames an open span (a wrapper that learns what kind of call it
/// timed only after the call returns).
pub fn rename(handle: Option<u32>, name: &'static str) {
    let Some(idx) = handle else { return };
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.spans[idx as usize].name = name;
        }
    });
}

/// Adds `delta` to a named work counter recorded at a layer boundary.
pub fn count(name: &'static str, delta: u64) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            *tr.counters.entry(name).or_insert(0) += delta;
        }
    });
}

/// Returns the counters recorded since the last call and clears them.
pub fn take_counters() -> BTreeMap<&'static str, u64> {
    TRACER.with(|t| {
        t.borrow_mut()
            .as_mut()
            .map(|tr| std::mem::take(&mut tr.counters))
            .unwrap_or_default()
    })
}

/// Records one observation of a named quantity (not a duration).
pub fn sample(name: &'static str, value: f64) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.samples.entry(name).or_default().push(value);
        }
    });
}

/// Returns every sample recorded so far and clears them.
pub fn take_samples() -> BTreeMap<&'static str, Vec<f64>> {
    TRACER.with(|t| {
        t.borrow_mut()
            .as_mut()
            .map(|tr| std::mem::take(&mut tr.samples))
            .unwrap_or_default()
    })
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let h = begin(name);
    let out = f();
    end(h);
    out
}

/// Each span's self time: its duration minus the part its direct
/// children cover (children never overlap in a single-threaded trace).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            out[p] = out[p].saturating_sub(s.ns());
        }
    }
    out
}

/// Writes spans as tab-separated lines: name, start_ns, end_ns,
/// parent (-1 for roots), round.
///
/// # Errors
///
/// Propagates file creation and write errors.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tparent\tround")?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, parent, s.round
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        install();
        let outer = begin("core.decide");
        span("forecast.predict", || std::hint::black_box(1 + 1));
        end(outer);
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        let own = self_ns(&spans);
        assert_eq!(own[0], spans[0].ns() - spans[1].ns());
        assert_eq!(spans[0].layer(), "core");
    }

    #[test]
    fn spans_are_dropped_when_no_tracer_is_installed() {
        assert_eq!(begin("sim.advance"), None);
        end(None);
        assert!(finish().is_empty());
    }
}
