//! Metric collection and the result lines the benchmark prints.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Check failures that make the run's result incorrect.
    pub errors: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
        });
    }

    /// Records a check failure (kept to the first few for the printout).
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        } else if self.errors.len() == 20 {
            self.errors.push("further errors suppressed".to_string());
        }
    }

    /// Human-readable table: one metric per line with unit and samples.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "  {:<34} {:>14.6e} {:<14} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its value and unit.
    pub fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number with all its digits (non-finite values, which
/// JSON cannot hold, become 0 and are caught by the checks that produced
/// them).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_result_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.put("latency_ms", "ms", 1.25, 3);
        let j = r.json();
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.error("boom".to_string());
        assert!(r.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(0.1234567890123), "0.1234567890123");
        assert_eq!(json_number(1e-20), "1e-20");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0.0");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
