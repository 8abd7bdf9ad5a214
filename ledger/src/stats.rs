//! Percentiles, quartiles, and the result line.

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Percentiles the ledger may report, in parts per million.
const LADDER_PPM: [u64; 6] = [500_000, 900_000, 990_000, 999_000, 999_900, 999_990];

/// The highest percentile on the ladder (p50 … p99.999) that has at
/// least ten of `n` samples beyond it, or `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER_PPM
        .iter()
        .rev()
        .find(|&&ppm| n as u64 * (1_000_000 - ppm) / 1_000_000 >= 10)
        .map(|&ppm| ppm as f64 / 10_000.0)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The best quartile of per-slice values: the upper quartile when
/// higher is better, the lower one otherwise. Contention on a shared
/// host only ever slows a slice down, so the fast end of a run is what
/// repeats from run to run.
pub fn best_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, if higher_is_better { 75.0 } else { 25.0 })
}

/// Percentile `p` of every run of `chunk` consecutive samples (a short
/// trailing run is left out, unless it is all there is), then the best
/// quartile of those.
pub fn chunked(samples: &[f64], chunk: usize, p: f64) -> f64 {
    let runs: Vec<&[f64]> = if samples.len() < chunk {
        vec![samples]
    } else {
        samples.chunks_exact(chunk).collect()
    };
    let per: Vec<f64> = runs
        .into_iter()
        .map(|c| {
            let mut c = c.to_vec();
            c.sort_by(f64::total_cmp);
            percentile(&c, p)
        })
        .collect();
    best_quartile(&per, false)
}

/// First and third quartiles, as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(99_999), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.999));
        assert_eq!(tail_percentile(1_200_000), Some(99.999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn chunked_takes_the_best_quartile_of_run_percentiles() {
        // Runs of 4: nearest-rank medians 2, 12, 22, 32; the lower
        // quartile of those is the first. The trailing 99 is left out.
        let v: Vec<f64> = [
            1.0, 2.0, 3.0, 4.0, 11.0, 12.0, 13.0, 14.0, 21.0, 22.0, 23.0, 24.0,
        ]
        .iter()
        .chain(&[31.0, 32.0, 33.0, 34.0, 99.0])
        .copied()
        .collect();
        assert_eq!(chunked(&v, 4, 50.0), 2.0);
        assert_eq!(chunked(&[5.0, 1.0], 4, 50.0), 1.0, "one short run");
        assert_eq!(chunked(&[], 4, 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2, 5], n=4) == [1.25, 2.5, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0]), (1.25, 4.5));
        assert_eq!(median(&[3.0, 1.0, 2.0, 5.0]), 2.5);
    }
}
