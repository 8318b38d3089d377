//! What one workload run produces, how it is printed, and how the parent
//! process reads a child's result line back.

use crate::spec::{self, MetricSpec};

/// The result of one run of one workload.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations whose outcome was wrong (see README, "Output checks").
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Checks that exactly the metrics of `table` were emitted, once each,
    /// and that every value is a finite number.
    pub fn validate(&self, table: &[MetricSpec]) -> Result<(), String> {
        for m in table {
            match self.metrics.iter().filter(|(n, _)| *n == m.name).count() {
                1 => {}
                n => return Err(format!("metric {} emitted {n} times", m.name)),
            }
        }
        for (name, value) in &self.metrics {
            if !table.iter().any(|m| m.name == *name) {
                return Err(format!("metric {name} is not in the benchmark's tables"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".to_owned());
        }
        Ok(())
    }

    /// The result line the contract asks for: one JSON object with exactly
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = spec::metric(name).map_or("", |m| m.unit);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints every metric by name with its unit, then the result line.
    pub fn print(&self, workload: &str) {
        print_table(
            workload,
            self.metrics.iter().map(|&(n, v)| (n, v)),
            self.attempted,
            self.failed,
        );
        println!("{}", self.result_line());
    }
}

/// One line per metric — workload, name, value, unit — and the share of
/// checked operations that failed.
pub fn print_table<'a>(
    workload: &str,
    metrics: impl Iterator<Item = (&'a str, f64)>,
    attempted: u64,
    failed: u64,
) {
    for (name, value) in metrics {
        let unit = spec::metric(name).map_or("", |m| m.unit);
        println!("{workload:<22} {name:<38} {value:>18.6} {unit}");
    }
    println!(
        "{workload:<22} {:<38} {:>18.6} share ({failed} of {attempted})",
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
    );
}

/// A child's result line, read back.
#[derive(Debug, Clone)]
pub struct ParsedRun {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl ParsedRun {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

fn number_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Parses a line written by [`Outcome::result_line`] (not general JSON).
pub fn parse_result_line(line: &str) -> Option<ParsedRun> {
    let attempted = number_after(line, "\"attempted\": ")?.parse().ok()?;
    let failed = number_after(line, "\"failed\": ")?.parse().ok()?;
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut metrics = Vec::new();
    for entry in body.split("\"}") {
        let Some(open) = entry.find('"') else {
            continue;
        };
        let entry = &entry[open + 1..];
        let Some(close) = entry.find('"') else {
            continue;
        };
        let name = &entry[..close];
        let Some(value) = number_after(entry, "\"value\": ") else {
            continue;
        };
        metrics.push((name.to_owned(), value.parse().ok()?));
    }
    Some(ParsedRun {
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut outcome = Outcome {
            attempted: 12,
            failed: 1,
            ..Outcome::default()
        };
        outcome.set("ops_per_s", 1234.5678);
        outcome.set("setup_s", 0.25);
        let parsed = parse_result_line(&outcome.result_line()).expect("parses");
        assert_eq!((parsed.attempted, parsed.failed), (12, 1));
        assert_eq!(parsed.get("ops_per_s"), Some(1234.5678));
        assert_eq!(parsed.get("setup_s"), Some(0.25));
        assert!(outcome.result_line().starts_with("{\"correct\": false"));
    }
}
