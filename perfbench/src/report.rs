//! Metrics, provenance and the JSON the benchmark prints and writes.

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Provenance printed and written with every result.
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub nproc: usize,
    pub pool: usize,
    pub input_hash: u64,
    pub rustc: &'static str,
    pub seconds: u64,
    pub trace: bool,
}

impl Provenance {
    pub fn json(&self) -> String {
        format!(
            "{{\"workload\":{},\"seed\":{},\"nproc\":{},\"pool\":{},\"input_hash\":\"{:016x}\",\"rustc\":{},\"seconds\":{},\"trace\":{}}}",
            string(&self.workload),
            self.seed,
            self.nproc,
            self.pool,
            self.input_hash,
            string(self.rustc),
            self.seconds,
            self.trace
        )
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}` with every digit of each value.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                string(&m.name),
                m.value,
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let line = result_line(true, 3, 0, &[Metric::new("run_s", 0.123456789012, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"run_s\":{\"value\":0.123456789012,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
