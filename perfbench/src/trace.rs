//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and end time, the span that caused it,
//! and the id of the request it belongs to (spans of one request share
//! it). Spans are recorded around calls into the workspace's public
//! APIs from the benchmark's own code, kept in memory, and written out
//! once when the run ends.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let start_s = self.now();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (which must be the innermost open one) and
    /// return its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_s = self.now();
        self.spans[id].duration()
    }

    /// Record `f` as one span; returns its result and duration.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.open(name, request);
        let out = f();
        let d = self.close(id);
        (out, d)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time of every span called `name`: its duration minus
    /// the part its direct children cover (children run sequentially,
    /// so their durations add).
    pub fn self_time(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(Span::duration)
                    .sum();
                s.duration() - children
            })
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                s.name, s.request, s.start_s, s.end_s
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let root = t.open("root", 1);
        let ((), child) = t.time("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let total = t.close(root);
        assert!(child >= 0.02);
        assert!((t.self_time("root") - (total - child)).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.request == 1));
    }
}
