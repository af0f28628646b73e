//! Benchmark-side spans around calls into the library's layers.
//!
//! Every timed call goes through [`Recorder::span`], which always measures
//! the call with `Instant` and, when tracing is on, also records a span:
//! name, start, end, parent span and the run id shared by all spans of the
//! run. Spans stay in memory until the run ends and are then written out
//! as JSON lines. The untraced and traced runs therefore differ only in
//! the recording itself, which is what `trace.overhead_pct` measures.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the recorder was made.
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    run_id: String,
    origin: Instant,
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Recorder {
    pub fn new(run_id: String, enabled: bool) -> Self {
        Self {
            run_id,
            origin: Instant::now(),
            enabled,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f`, returning its value and wall time; records a span named
    /// `name` (a child of the innermost open span) when tracing is on.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        if !self.enabled {
            let t = Instant::now();
            let v = f();
            return (v, t.elapsed());
        }
        let id = self.spans.borrow().len() as u32;
        let parent = self.open.borrow().last().copied();
        let start = Instant::now();
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: 0,
        });
        self.open.borrow_mut().push(id);
        let v = f();
        let end = Instant::now();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id as usize].end_ns =
            end.duration_since(self.origin).as_nanos() as u64;
        (v, end - start)
    }

    #[cfg(test)]
    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover, summed over spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// The spans as JSON lines, followed by one self-time line per name.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"run":"{}","id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                self.run_id, s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        for (name, ns) in self.self_times() {
            let _ = writeln!(
                out,
                r#"{{"run":"{}","self_time":"{}","ns":{}}}"#,
                self.run_id, name, ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let r = Recorder::new("t".into(), true);
        r.span("outer", || {
            r.span("inner", || std::thread::sleep(Duration::from_millis(2)));
            std::thread::sleep(Duration::from_millis(2));
        });
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(0));
        let st = r.self_times();
        assert_eq!(st["outer"] + st["inner"], spans[0].dur_ns());
        assert!(st["inner"] >= 2_000_000);
    }
}
