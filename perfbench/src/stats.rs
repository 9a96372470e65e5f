//! Order statistics for the ledger's repeated measurements.

/// A sorted sample of one timing, summarised the way the ledger reports
/// every timing: median, sample count, and the highest percentile that
/// still has at least ten samples above it.
#[derive(Debug, Clone)]
pub struct Summary {
    sorted: Vec<f64>,
}

/// Samples that must lie above a reported tail percentile.
const TAIL_SAMPLES: usize = 10;

impl Summary {
    pub fn new(values: &[f64]) -> Summary {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        Summary { sorted }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Median (mean of the middle two for an even count); 0 when empty.
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.sorted[n / 2],
            _ => (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0,
        }
    }

    /// `(percentile, value)` of the highest sample with at least ten
    /// samples above it, or `None` below eleven samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.sorted.len();
        let k = n.checked_sub(TAIL_SAMPLES + 1)?;
        Some(((k + 1) as f64 / n as f64 * 100.0, self.sorted[k]))
    }

    /// One human-readable line: `median (n=…), p… …`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail() {
            Some((p, v)) => format!("p{p:.0} {v:.4} {unit}"),
            None => format!("no tail percentile (n<{})", TAIL_SAMPLES + 1),
        };
        format!(
            "median {:.4} {unit} (n={}), {tail}",
            self.median(),
            self.count()
        )
    }

    /// JSON object with the same content as [`Summary::describe`].
    pub fn to_json(&self) -> String {
        let tail = match self.tail() {
            Some((p, v)) => format!("{{\"percentile\": {p}, \"value\": {v}}}"),
            None => "null".into(),
        };
        let samples: Vec<String> = self.sorted.iter().map(|v| v.to_string()).collect();
        format!(
            "{{\"median\": {}, \"n\": {}, \"tail\": {tail}, \"samples\": [{}]}}",
            self.median(),
            self.count(),
            samples.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        let s = Summary::new(&[3.0, 1.0, 2.0]);
        assert_eq!(s.median(), 2.0);
        assert!(s.tail().is_none());
        let many: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = Summary::new(&many);
        assert_eq!(s.median(), 10.5);
        // Ten samples (11..=20) lie above the 10th value: p50.
        assert_eq!(s.tail(), Some((50.0, 10.0)));
        assert_eq!(Summary::new(&[]).median(), 0.0);
    }
}
