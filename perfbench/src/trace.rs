//! In-memory span recorder for the traced run (`--trace 1`).
//!
//! Each span is one call from the benchmark into a layer's public function:
//! name, start, end and the span that caused it. Spans stay in memory and
//! are written out once, when the run ends. With tracing off, [`span`] is a
//! plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: usize,
    /// Layer-qualified name, e.g. `embed.knn`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// The enclosing span on the same thread.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicUsize = AtomicUsize::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name` and returns its result together with
/// the span id (`0` when tracing is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, usize) {
    if !enabled() {
        return (f(), 0);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| s.borrow().last().copied());
    STACK.with(|s| s.borrow_mut().push(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    SPANS
        .lock()
        .expect("span recorder poisoned by a panicking workload thread")
        .push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
        });
    (out, id)
}

/// A copy of every span recorded so far, in completion order.
pub fn spans() -> Vec<Span> {
    SPANS
        .lock()
        .expect("span recorder poisoned by a panicking workload thread")
        .clone()
}

/// Spans in the subtree rooted at `root` (inclusive).
pub fn subtree(spans: &[Span], root: usize) -> Vec<Span> {
    let mut keep = std::collections::BTreeSet::from([root]);
    // Children complete before their parents, so walking in reverse
    // completion order visits every parent before its children.
    for s in spans.iter().rev() {
        if s.parent.is_some_and(|p| keep.contains(&p)) {
            keep.insert(s.id);
        }
    }
    spans
        .iter()
        .filter(|s| keep.contains(&s.id))
        .cloned()
        .collect()
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of its interval covered by its child spans.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_default() += own as f64 * 1e-9;
    }
    out
}

/// Writes every span as one JSON object per line.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string())
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: usize, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            id,
            name: if parent.is_some() { "child" } else { "root" },
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            mk(2, 10, 30, Some(1)),
            mk(3, 40, 70, Some(1)),
            mk(1, 0, 100, None),
        ];
        let st = self_seconds(&spans);
        assert!((st["root"] - 50e-9).abs() < 1e-15);
        assert!((st["child"] - 50e-9).abs() < 1e-15);
        assert_eq!(subtree(&spans, 1).len(), 3);
        assert_eq!(subtree(&spans, 2).len(), 1);
    }
}
