//! Statistical summaries used by the evaluation (geometric means, the
//! Table 2 triple, box-plot quantiles, performance profiles, CDFs).

/// First-occurrence-order unique values (unlike `Vec::dedup`, which only
/// collapses *consecutive* duplicates).
pub fn unique_stable<T: Clone + PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for it in items {
        if !out.contains(&it) {
            out.push(it);
        }
    }
    out
}

/// Geometric mean of strictly positive values (`None` if empty or any ≤ 0).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// The Table 2 summary of a speedup population: geometric mean over all
/// inputs, fraction with speedup > 1, and geometric mean over only the
/// positive cases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupSummary {
    /// Geometric mean over every input (`GM`).
    pub gm: f64,
    /// Percentage of inputs with speedup > 1 (`Pos.%`).
    pub pos_pct: f64,
    /// Geometric mean over positive inputs only (`+GM`); 0 when none.
    pub pos_gm: f64,
    /// Population size.
    pub n: usize,
}

/// Computes the Table 2 triple for a set of speedups.
pub fn summarize_speedups(speedups: &[f64]) -> SpeedupSummary {
    let n = speedups.len();
    let gm = geomean(speedups).unwrap_or(0.0);
    let pos: Vec<f64> = speedups.iter().copied().filter(|&s| s > 1.0).collect();
    SpeedupSummary {
        gm,
        pos_pct: if n == 0 { 0.0 } else { 100.0 * pos.len() as f64 / n as f64 },
        pos_gm: geomean(&pos).unwrap_or(0.0),
        n,
    }
}

/// Box-plot quantiles (min, q1, median, q3, max) — the Fig. 2/3 boxes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes box-plot quantiles (linear interpolation). `None` when empty.
pub fn quantiles(values: &[f64]) -> Option<Quantiles> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        let idx = p * (v.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        if lo == hi {
            v[lo]
        } else {
            v[lo] + (idx - lo as f64) * (v[hi] - v[lo])
        }
    };
    Some(Quantiles { min: v[0], q1: q(0.25), median: q(0.5), q3: q(0.75), max: *v.last().unwrap() })
}

/// A performance-profile curve (paper Fig. 10): for each threshold `x`,
/// the fraction of problems whose metric is ≤ `x`.
pub fn performance_profile(values: &[f64], thresholds: &[f64]) -> Vec<(f64, f64)> {
    if values.is_empty() {
        return thresholds.iter().map(|&x| (x, 0.0)).collect();
    }
    thresholds
        .iter()
        .map(|&x| {
            let frac = values.iter().filter(|&&v| v <= x).count() as f64 / values.len() as f64;
            (x, frac)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[1.0, 4.0]), Some(2.0));
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        let g = geomean(&[2.0, 2.0, 2.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_matches_definitions() {
        let s = summarize_speedups(&[2.0, 0.5, 4.0, 0.25]);
        assert!((s.gm - 1.0).abs() < 1e-12); // 2*0.5*4*0.25 = 1
        assert!((s.pos_pct - 50.0).abs() < 1e-12);
        assert!((s.pos_gm - (8.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.n, 4);
    }

    #[test]
    fn summary_empty_and_all_negative() {
        let s = summarize_speedups(&[]);
        assert_eq!(s.pos_pct, 0.0);
        let s2 = summarize_speedups(&[0.5, 0.9]);
        assert_eq!(s2.pos_pct, 0.0);
        assert_eq!(s2.pos_gm, 0.0);
    }

    #[test]
    fn quantiles_of_known_set() {
        let q = quantiles(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(q.min, 1.0);
        assert_eq!(q.median, 3.0);
        assert_eq!(q.q1, 2.0);
        assert_eq!(q.q3, 4.0);
        assert_eq!(q.max, 5.0);
        assert!(quantiles(&[]).is_none());
    }

    #[test]
    fn profile_is_monotone_cdf() {
        let vals = vec![1.0, 3.0, 5.0, 20.0];
        let prof = performance_profile(&vals, &[0.0, 1.0, 4.0, 10.0, 100.0]);
        let fracs: Vec<f64> = prof.iter().map(|&(_, f)| f).collect();
        assert_eq!(fracs, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }
}
