//! Order statistics and the result line.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// `None` when there are none.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of unsorted samples, 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// `num / den`, 0 when the denominator is 0 (a layer the workload does
/// not use).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Renders the result object the benchmark prints as its last line. A
/// metric that is not a finite number is an error: no stand-in value
/// could say which way it is wrong.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[Metric {
                name: "p50_ms",
                value: 1.25,
                unit: "ms",
            }],
        );
        assert_eq!(
            line.as_deref(),
            Ok("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}")
        );
        let inf = Metric {
            name: "p99_ms",
            value: f64::INFINITY,
            unit: "ms",
        };
        assert!(result_json(true, 1, 0, &[inf]).is_err());
    }
}
