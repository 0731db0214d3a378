//! Order statistics over latency samples.

/// Nearest-rank quantile `q` in `[0, 1]` of `samples` (need not be
/// sorted). Returns NaN for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples strictly above `threshold`.
pub fn count_above(samples: &[f64], threshold: f64) -> usize {
    samples.iter().filter(|&&x| x > threshold).count()
}

/// Median wall time of `reps` calls of `f`, which returns an error
/// message on failure (the first failure aborts the measurement).
pub fn median_time(reps: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = std::time::Instant::now();
        f()?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(count_above(&v, quantile(&v, 0.9)), 10);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
