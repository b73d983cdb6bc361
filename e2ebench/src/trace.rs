//! In-memory spans around the benchmark's calls into the program's layers.
//!
//! Spans are recorded on the benchmark's own threads, kept in memory and
//! written out once the run ends. A span's self time is its duration minus
//! the part of its interval that its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span: a named interval and the span that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. Disabled, it records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        r
    }

    /// Record an already-measured interval as a child of the innermost
    /// open span (used where the timed call runs inside a closure the
    /// tracer cannot be borrowed into).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// `(count, total ns, self ns)` over every span named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64, u64) {
        self.summary()
            .into_iter()
            .find(|&(n, ..)| n == name)
            .map_or((0, 0, 0), |(_, c, t, s)| (c, t, s))
    }

    /// `(name, count, total ns, self ns)` per span name, in order of first
    /// appearance.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self_times(&self.spans)) {
            let i = match out.iter().position(|e| e.0 == s.name) {
                Some(i) => i,
                None => {
                    out.push((s.name, 0, 0, 0));
                    out.len() - 1
                }
            };
            out[i].1 += 1;
            out[i].2 += s.end_ns - s.start_ns;
            out[i].3 += own;
        }
        out
    }

    /// Write every span as one CSV line: `id,parent,name,start_ns,end_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(w, "{i},{parent},{},{},{}", s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("round", ROOT, 0, 100),
            span("run", 0, 10, 40),
            span("run", 0, 50, 70),
            span("inner", 1, 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("p", ROOT, 100, 200),
            span("a", 0, 90, 150),
            span("b", 0, 120, 160),
            span("c", 0, 190, 250),
        ];
        // Covered: 100..160 and 190..200 = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_totals() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let (n, total, own) = t.totals("outer");
        let (_, inner, _) = t.totals("inner");
        assert_eq!(n, 1);
        assert!(inner >= 2_000_000 && total >= inner);
        assert_eq!(own, total - inner);
        assert_eq!(t.spans[1].parent, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        t.record("y", Instant::now(), Instant::now());
        assert!(t.spans.is_empty());
    }
}
