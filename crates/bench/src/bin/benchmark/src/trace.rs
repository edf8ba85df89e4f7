//! Benchmark-side spans for the traced run: one record per call into a
//! layer, kept in memory and written to `trace.ndjson` when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` indexes the span that caused it; spans of one
/// job share `job`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    pub job: usize,
}

/// Collects spans against one clock. Shared by reference between the client
/// threads of a workload.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_micros() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &str,
        parent: Option<usize>,
        job: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        let mut spans = self
            .spans
            .lock()
            .expect("tracer lock is never poisoned: push only");
        spans.push(Span {
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            job,
        });
        spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        job: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, job, start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("tracer lock is never poisoned: push only")
            .clone()
    }

    /// Writes one JSON object per span, with its self time.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let self_us = self_times(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, self_us)) in spans.iter().zip(self_us).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":{},\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"job\":{},\"self_us\":{self_us}}}",
                serde_json::to_string(&span.name).expect("a string serializes"),
                span.start_us,
                span.end_us,
                span.job
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children may overlap each other — two
/// evaluations of one round — and are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let (lo, hi) = (spans[parent].start_us, spans[parent].end_us);
            let clipped = (span.start_us.clamp(lo, hi), span.end_us.clamp(lo, hi));
            children[parent].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = span.start_us;
            for (start, end) in covered {
                if end > reach {
                    union += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_us - span.start_us) - union
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".to_string(),
            start_us,
            end_us,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_coverage() {
        let spans = vec![
            span(0, 100, None),
            // Two overlapping children cover 10..60 once.
            span(10, 50, Some(0)),
            span(30, 60, Some(0)),
            // A child that outlives its parent is clipped to it.
            span(90, 130, Some(0)),
            // A grandchild counts against its own parent only.
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 40 - 10, 30, 40, 10]);
    }

    #[test]
    fn spans_round_trip_through_the_ndjson_file() {
        let tracer = Tracer::new();
        tracer.time("job", None, 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let parent = tracer.spans().len() - 1;
        let now = Instant::now();
        tracer.record("phase \"x\"", Some(parent), 3, now, now);
        let path =
            std::env::temp_dir().join(format!("wootz-bench-trace-{}.ndjson", std::process::id()));
        tracer.write_ndjson(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0]["name"], "job");
        assert_eq!(lines[1]["name"], "phase \"x\"");
        assert_eq!(lines[1]["parent"].as_u64(), Some(0));
        assert_eq!(lines[1]["job"].as_u64(), Some(3));
        assert!(lines[0]["self_us"].as_u64().unwrap() >= 2000);
    }
}
