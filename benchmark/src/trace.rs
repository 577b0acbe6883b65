//! Harness-side spans, recorded around the calls into each layer.
//!
//! Spans live in memory and are written as JSONL when the run ends, so the
//! act of tracing costs a `Vec::push` per span. A disabled trace records
//! nothing. Each line carries `self_us`: the span's duration minus the part
//! of its interval that its child spans cover (children of one parent may
//! overlap — two workers of one epoch — so coverage is the union).
//!
//! Reading a trace: `{"span":"train","id":2,"parent":1,...}` lines form the
//! tree `workload → train → epochN → w0.pull/compute/push, sync`, followed
//! by `save`, `load_build`, `first_answer`, `serve_closed → reload`,
//! `serve_batch`, `open_nominal`, `open_overload` and
//! `open_ladder_and_drain` under `workload`;
//! `{"query":17,"phase":"open_nominal",...}` lines give one query's `due`,
//! `submit` and `answer` instants, all in µs since the run began.

use std::io::Write;
use std::time::Instant;

/// Handle of a recorded span; `SpanId(0)` is "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u32);

impl SpanId {
    pub const ROOT: SpanId = SpanId(0);
}

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: u32,
    start_us: f64,
    end_us: f64,
}

/// One open-loop query as the generator and collector saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpan {
    pub phase: &'static str,
    pub id: u32,
    pub due_us: f64,
    pub submit_us: f64,
    /// `None`: shed at the door or answered with an error.
    pub answer_us: Option<f64>,
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    queries: Vec<QuerySpan>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            queries: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds from the run's origin to `t`.
    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span.
    pub fn span(&mut self, name: &str, parent: SpanId, start: Instant, end: Instant) -> SpanId {
        let (s, e) = (self.us(start), self.us(end));
        self.span_us(name, parent, s, e)
    }

    /// Records a finished span given in µs since the origin (for spans
    /// rebuilt from durations the program reports).
    pub fn span_us(&mut self, name: &str, parent: SpanId, start_us: f64, end_us: f64) -> SpanId {
        if !self.enabled {
            return SpanId::ROOT;
        }
        self.spans.push(Span {
            name: name.to_string(),
            parent: parent.0,
            start_us,
            end_us,
        });
        SpanId(self.spans.len() as u32)
    }

    pub fn queries(&mut self, spans: impl IntoIterator<Item = QuerySpan>) {
        if self.enabled {
            self.queries.extend(spans);
        }
    }

    /// Self time of every span: duration minus the union of its children's
    /// intervals, clipped to the span.
    fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len() + 1];
        for s in &self.spans {
            children[s.parent as usize].push((s.start_us, s.end_us));
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let kids = &mut children[i + 1];
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start_us;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_us));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_us - s.start_us - covered).max(0.0)
            })
            .collect()
    }

    /// Writes the trace as JSONL. A disabled trace writes nothing.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self.self_times();
        for (i, (s, self_us)) in self.spans.iter().zip(selfs).enumerate() {
            writeln!(
                out,
                "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{:.1}}}",
                s.name,
                i + 1,
                s.parent,
                s.start_us,
                s.end_us,
                self_us
            )?;
        }
        for q in &self.queries {
            let answer = q
                .answer_us
                .map_or_else(|| "null".to_string(), |a| format!("{a:.1}"));
            writeln!(
                out,
                "{{\"query\":{},\"phase\":\"{}\",\"due_us\":{:.1},\"submit_us\":{:.1},\"answer_us\":{}}}",
                q.id, q.phase, q.due_us, q.submit_us, answer
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new(true);
        let root = t.span_us("epoch", SpanId::ROOT, 0.0, 100.0);
        // Two overlapping workers cover [10, 70]; sync covers [80, 90].
        t.span_us("w0", root, 10.0, 50.0);
        t.span_us("w1", root, 30.0, 70.0);
        t.span_us("sync", root, 80.0, 90.0);
        let s = t.self_times();
        assert_eq!(s[0], 100.0 - 60.0 - 10.0);
        assert_eq!(s[1], 40.0);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        assert_eq!(t.span_us("x", SpanId::ROOT, 0.0, 1.0), SpanId::ROOT);
        assert!(t.self_times().is_empty());
    }
}
