//! The benchmark's own span recorder. Spans are opened around calls into
//! the program's public functions, kept in memory, and written out as
//! JSON lines when the run ends; nothing is recorded inside the program.

use std::io::Write;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name, e.g. `drive.gehrd` or `replay.lahr2`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Round the span belongs to.
    pub round: usize,
    /// Start, microseconds since the recorder was created.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
}

/// In-memory span store with an explicit stack of open spans.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: usize,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Sets the round stamped on spans opened from now on.
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            round: self.round,
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn close(&mut self) -> f64 {
        let Some(id) = self.open.pop() else {
            return 0.0;
        };
        let now = self.epoch.elapsed().as_secs_f64() * 1e6;
        let s = &mut self.spans[id];
        s.dur_us = now - s.start_us;
        s.dur_us * 1e-6
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        self.open(name);
        let r = f(self);
        let secs = self.close();
        (r, secs)
    }

    /// Self time of every span in microseconds: its duration minus the
    /// time its direct children cover.
    pub fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_us;
            }
        }
        own
    }

    /// Writes every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let own = self.self_us();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"round\":{},\
                 \"start_us\":{:.3},\"dur_us\":{:.3},\"self_us\":{:.3}}}",
                s.name, s.round, s.start_us, s.dur_us, own[id]
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut r = Recorder::new();
        r.set_round(3);
        let outer = r.open("outer");
        let inner = r.open("inner");
        std::hint::black_box((0..10_000).sum::<u64>());
        r.close();
        r.close();
        let spans = &r.spans;
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[outer].parent, None);
        assert_eq!(spans[inner].round, 3);
        let own = r.self_us();
        assert!(own[outer] >= 0.0 && own[outer] <= spans[outer].dur_us);
        assert!((own[outer] + spans[inner].dur_us - spans[outer].dur_us).abs() < 1e-6);
        assert_eq!(own[inner], spans[inner].dur_us);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut r = Recorder::new();
        r.time("a", |r| r.time("b", |_| ()));
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).expect("write to memory");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"b\""));
        assert!(text.contains("\"parent\":0"));
    }
}
