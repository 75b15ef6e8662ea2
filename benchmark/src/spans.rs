//! Spans around the benchmark's own calls into the system's layers.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Spans::timed`], which always returns the call's host seconds (that is
//! how the metrics are measured, traced or not) and, when recording is on,
//! also keeps a span: name, start, end, parent. Spans stay in memory and
//! are written as Chrome trace-event JSON when the run ends. A span's
//! *layer* is its name up to the last `.` (`ps.sim.run_cluster` belongs to
//! `ps.sim`); its *self time* is its duration minus its children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
pub struct Span {
    /// `<layer>.<call>`, e.g. `ps.sim.run_cluster`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span recorder.
pub struct Spans {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts now. With `recording` off,
    /// [`Spans::timed`] only measures.
    pub fn new(recording: bool) -> Self {
        Spans {
            origin: Instant::now(),
            recording,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch span storage on or off (the traced run alternates, to measure
    /// what recording costs).
    pub fn set_recording(&mut self, on: bool) {
        assert!(self.open.is_empty(), "recording toggled inside a span");
        self.recording = on;
    }

    /// Seconds since the recorder was created (process start, near enough).
    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f`, returning its result and its host seconds; record a span
    /// named `name` around it when recording is on. `f` gets the recorder
    /// back so calls it makes nest under this span.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let start = self.origin.elapsed();
        let slot = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start_ns: start.as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = self.origin.elapsed();
        if let Some(i) = slot {
            self.spans[i].end_ns = end.as_nanos() as u64;
            self.open.pop();
        }
        (out, (end - start).as_secs_f64())
    }

    /// Self seconds per layer, summed over the spans nested (at any depth)
    /// under spans named `root`; the roots' own self time is reported under
    /// their layer too, so the values sum to the roots' total duration.
    pub fn self_seconds_under(&self, root: &str) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        // Spans are stored in start order, so a parent precedes its children.
        let mut inside = vec![false; self.spans.len()];
        let mut by_layer = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = s.name == root || s.parent.is_some_and(|p| inside[p]);
            if inside[i] {
                let self_s = (s.dur_ns() - child_ns[i]) as f64 / 1e9;
                *by_layer.entry(layer_of(s.name).to_string()).or_insert(0.0) += self_s;
            }
        }
        by_layer
    }

    /// Total seconds of the spans named `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as Chrome trace-event JSON (loadable in Perfetto or
    /// `chrome://tracing`): one complete (`"ph":"X"`) event per span, in
    /// microseconds, with the span's index, parent and workload in `args`.
    pub fn to_chrome_trace(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"workload\":\"{workload}\"}}}}",
                s.name,
                layer_of(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// The layer a span name belongs to: everything before its last `.`.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new(true);
        s.timed("bench.pass", |s| {
            s.timed("ps.sim.run_cluster", |_| std::hint::black_box(1));
            s.timed("ps.chaos.check_plan", |_| std::hint::black_box(2));
        });
        s.timed("bench.setup", |_| ());
        let by_layer = s.self_seconds_under("bench.pass");
        assert_eq!(
            by_layer.keys().map(String::as_str).collect::<Vec<_>>(),
            ["bench", "ps.chaos", "ps.sim"]
        );
        let sum: f64 = by_layer.values().sum();
        assert!((sum - s.total_seconds("bench.pass")).abs() < 1e-9);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[3].parent, None);
    }

    #[test]
    fn recording_off_keeps_nothing_but_still_times() {
        let mut s = Spans::new(false);
        let (v, secs) = s.timed("ps.sim.run_cluster", |_| 7);
        assert_eq!((v, s.len()), (7, 0));
        assert!(secs >= 0.0);
    }

    #[test]
    fn chrome_trace_has_one_event_per_span() {
        let mut s = Spans::new(true);
        s.timed("bench.pass", |s| s.timed("net.drive", |_| ()));
        let json = s.to_chrome_trace("sim_scale");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"parent\":0") && json.contains("\"cat\":\"net\""));
    }
}
