//! In-memory spans recorded around every call the benchmark makes into a
//! layer. Spans are kept in memory during the run and written out at its
//! end; a span's self time is its duration minus the time its children
//! cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::metrics::json_str;

/// One timed interval. `key` groups the spans of one solve or one job.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one thread, timed against a shared origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::with_capacity(4096),
        }
    }

    /// An empty recorder on the same origin, for another thread; merge it
    /// back with [`absorb`](Self::absorb).
    pub fn sibling(&self) -> Recorder {
        Recorder::new(self.origin)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        key: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            key,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len() - 1
    }

    /// Opens a span whose end is set later by [`close`](Self::close), so
    /// children can name it as their parent.
    pub fn open(&mut self, name: &'static str, key: u64, start: Instant) -> usize {
        self.record(name, key, None, start, start)
    }

    pub fn close(&mut self, id: usize, end: Instant) {
        let end = self.ns(end);
        self.spans[id].end_ns = end;
    }

    /// Appends a sibling's spans, re-basing parent ids.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Bytes the span buffer holds (the tracing memory overhead).
    pub fn memory_bytes(&self) -> usize {
        self.spans.capacity() * std::mem::size_of::<Span>()
    }

    /// Self time of every span, by span id.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Durations (ms) of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times (ms) of the spans named `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"key\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                json_str(s.name),
                s.key,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut rec = Recorder::new(t0);
        let parent = rec.open("solve", 0, at(0));
        rec.record("init", 0, Some(parent), at(1), at(4));
        rec.record("drive", 0, Some(parent), at(4), at(9));
        rec.close(parent, at(10));
        assert_eq!(rec.self_ms("solve"), vec![2.0]);
        assert_eq!(rec.self_ms("drive"), vec![5.0]);

        let mut other = Recorder::new(t0);
        let job = other.open("job", 7, at(0));
        other.record("poll", 7, Some(job), at(1), at(2));
        other.close(job, at(3));
        rec.absorb(other);
        assert_eq!(rec.spans()[4].parent, Some(3));
        assert_eq!(rec.self_ms("job"), vec![2.0]);
    }
}
