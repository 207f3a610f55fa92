//! Order statistics over host-time samples.

/// Cut points dividing `values` into `parts` equal-probability groups,
/// with the same "exclusive" interpolation as Python's
/// `statistics.quantiles(values, n=parts)`, so the benchmark's quartiles
/// agree with the ones computed over its results. A single sample is its
/// own every quantile; no samples give no cut points.
pub fn quantiles(values: &[f64], parts: usize) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => return Vec::new(),
        1 => return vec![data[0]; parts - 1],
        _ => {}
    }
    let m = n + 1;
    (1..parts)
        .map(|i| {
            let j = (i * m / parts).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * parts) as f64;
            (data[j - 1] * (parts as f64 - delta) + data[j] * delta) / parts as f64
        })
        .collect()
}

/// The median (0 for no samples).
pub fn median(values: &[f64]) -> f64 {
    quantiles(values, 2).first().copied().unwrap_or(0.0)
}

/// Summary of one host timing: median, quartiles, 90th percentile and
/// the number of samples they rest on.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
    pub samples: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let q = quantiles(values, 4);
        let d = quantiles(values, 10);
        if q.is_empty() {
            return Summary::default();
        }
        Summary {
            p25: q[0],
            p50: median(values),
            p75: q[2],
            p90: d[8],
            samples: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&v, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantiles(&[3.0, 1.0, 2.0], 4), vec![1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond the samples.
        assert_eq!(quantiles(&[1.0, 2.0], 4), vec![0.75, 1.5, 2.25]);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s = Summary::of(&[7.0]);
        assert_eq!((s.p25, s.p50, s.p90, s.samples), (7.0, 7.0, 7.0, 1));
    }
}
