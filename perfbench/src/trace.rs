//! Benchmark-side spans: name, layer, start, end, parent and the job or
//! point they belong to, recorded around calls into each layer's public
//! functions. Spans stay in memory and are written out once, when the run
//! ends; nothing here runs in the untraced runs that produce the
//! end-to-end metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The enclosing span (0 for a root).
    pub parent: u64,
    pub layer: &'static str,
    pub name: &'static str,
    /// The job, point or repetition the span works for.
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder shared by the worker threads of one run.
pub struct Tracer {
    /// Off: spans run their closure and record nothing, so the same code
    /// can run untraced to measure the tracing overhead.
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: true,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::new()
        }
    }

    /// Nanoseconds since the epoch, for spans recorded from timestamps.
    pub fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a new span; `f` receives the span's id so the calls
    /// it makes can record children.
    pub fn span<R>(
        &self,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        job: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            layer,
            name,
            job,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a span whose ends were observed as timestamps (a protocol
    /// event seen by the client, for instance).
    pub fn record(
        &self,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        job: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.on {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            layer,
            name,
            job,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the span list")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span recorder panicked while holding the span list")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-layer self time in seconds: each span's duration minus the part of
/// its interval that its children cover, summed per layer. Children on
/// several worker threads overlap, so their union is what is subtracted;
/// leaf spans on parallel workers add up, so a layer's self time is busy
/// time summed over threads and can exceed the wall time.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let (mut lo, mut hi) = (0u64, 0u64);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                if a > hi {
                    covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = hi.max(b);
                }
            }
            covered += hi - lo;
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_default() += own as f64 * 1e-9;
    }
    out
}

/// Writes the spans as NDJSON, one object per span.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut text = String::new();
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.layer, s.name, s.job, s.start_ns, s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "t",
            job: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "bench", 0, 100),
            // Two overlapping children on different threads: union 10..70.
            span(2, 1, "cpu", 10, 50),
            span(3, 1, "cpu", 30, 70),
            span(4, 1, "sim", 80, 90),
        ];
        let t = self_time_by_layer(&spans);
        assert!((t["bench"] - 30e-9).abs() < 1e-15);
        assert!((t["cpu"] - 80e-9).abs() < 1e-15);
        assert!((t["sim"] - 10e-9).abs() < 1e-15);
    }
}
