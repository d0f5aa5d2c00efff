//! Order statistics and the named-metric list every run ends with.

/// Median of the samples (mean of the middle two for an even count).
/// Panics on an empty slice: every caller measures at least one op.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` in (0, 1] of the samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many timed samples (or counted items) stand behind `value`.
    pub samples: usize,
}

/// Metrics in the order they were measured.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(value.is_finite(), "metric {name} is not a finite number");
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// `"name":{"value":v,"unit":"u"},...` — the `metrics` object of the
    /// result line. `{:?}` prints every digit of an `f64`.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }
}
