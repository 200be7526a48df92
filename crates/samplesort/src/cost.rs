//! Analytic cost model of the three sample-sort phases (Section 3.1).
//!
//! Costs are in abstract comparison units:
//!
//! * Step 1 (master): sort the sample — `s·p · log₂(s·p)`;
//! * Step 2 (master): classify every key — `N · log₂ p`;
//! * Step 3 (workers): sort bucket `i` on worker `i` —
//!   `w_i · n_i · log₂ n_i`, in parallel, so the phase costs the maximum.
//!
//! [`CostModel::master_share`], `(step1 + step2) / makespan`, is the
//! master's share of the modelled makespan. It is not the paper's
//! non-divisible fraction `log p / log N`, which compares the
//! preprocessing with the sequential work `N log N`: the makespan's
//! parallel phase is only `(N/p)·log(N/p)`, so the master's share is the
//! larger, and it grows with `p` towards 1 (0.30, 0.79 and 0.96 at
//! `N = 2^20` and `p = 4, 16, 64`, where `log p / log N` reads 0.10, 0.20
//! and 0.30).

/// Cost-model evaluation of one sample-sort instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Master-side sample sort cost.
    pub step1: f64,
    /// Master-side classification cost.
    pub step2: f64,
    /// Parallel local-sort cost, `max_i w_i·n_i·log₂ n_i`.
    pub step3: f64,
    /// Hypothetical sequential sort cost `N log₂ N` (the work `W`).
    pub sequential: f64,
}

fn nlog2n(x: f64) -> f64 {
    if x <= 1.0 {
        0.0
    } else {
        x * x.log2()
    }
}

impl CostModel {
    /// Evaluates the model for `n` keys, oversampling `s`, bucket sizes
    /// `bucket_sizes` and per-worker `w_i = 1/s_i` (pass `&[1.0; p]` for
    /// homogeneous workers).
    pub fn evaluate(n: usize, s: usize, bucket_sizes: &[usize], w: &[f64]) -> Self {
        let p = bucket_sizes.len();
        assert_eq!(p, w.len());
        assert!(p > 0 && s > 0);
        let sp = (s * p) as f64;
        let step1 = nlog2n(sp);
        let step2 = n as f64 * (p as f64).log2();
        let step3 = bucket_sizes
            .iter()
            .zip(w)
            .map(|(&ni, &wi)| wi * nlog2n(ni as f64))
            .fold(0.0, f64::max);
        CostModel {
            step1,
            step2,
            step3,
            sequential: nlog2n(n as f64),
        }
    }

    /// Makespan of the parallel algorithm under the model (preprocessing is
    /// sequential on the master, then the buckets run in parallel).
    pub fn makespan(&self) -> f64 {
        self.step1 + self.step2 + self.step3
    }

    /// The master's share of the modelled makespan: the fraction spent
    /// in the sequential preprocessing, Steps 1 and 2.
    pub fn master_share(&self) -> f64 {
        let m = self.makespan();
        if m == 0.0 {
            0.0
        } else {
            (self.step1 + self.step2) / m
        }
    }

    /// Parallel speedup over the sequential sort predicted by the model.
    pub fn speedup(&self) -> f64 {
        let m = self.makespan();
        if m == 0.0 {
            1.0
        } else {
            self.sequential / m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_homogeneous_instance() {
        let n = 1 << 16;
        let p = 16;
        let s = 64;
        let sizes = vec![n / p; p];
        let w = vec![1.0; p];
        let m = CostModel::evaluate(n, s, &sizes, &w);
        // Step 2 = N log2 p = 65536·4.
        assert!((m.step2 - 65536.0 * 4.0).abs() < 1e-9);
        // Step 3 = (N/p) log2(N/p) = 4096·12.
        assert!((m.step3 - 4096.0 * 12.0).abs() < 1e-9);
        assert!(m.speedup() > 1.0);
    }

    #[test]
    fn master_share_shrinks_with_n() {
        let p = 64;
        let frac = |n: usize| {
            let sizes = vec![n / p; p];
            CostModel::evaluate(n, 16, &sizes, &vec![1.0; p]).master_share()
        };
        assert!(frac(1 << 26) < frac(1 << 16));
    }

    #[test]
    fn master_share_grows_with_p_above_log_p_over_log_n() {
        // At fixed N, more workers shrink the parallel phase while the
        // master's classification grows, so the master's share of the
        // makespan rises with p and stays above log p / log N.
        let n = 1usize << 20;
        let mut prev = 0.0;
        for p in [4usize, 16, 64] {
            let sizes = vec![n / p; p];
            let share = CostModel::evaluate(n, 400, &sizes, &vec![1.0; p]).master_share();
            let log_ratio = (p as f64).log2() / (n as f64).log2();
            assert!(share > prev, "p = {p}: share {share} not above {prev}");
            assert!(share > log_ratio, "p = {p}: share {share} vs {log_ratio}");
            prev = share;
        }
    }

    #[test]
    fn slow_worker_dominates_step3() {
        let sizes = vec![100, 100];
        let m = CostModel::evaluate(200, 4, &sizes, &[1.0, 10.0]);
        assert!((m.step3 - 10.0 * nlog2n(100.0)).abs() < 1e-9);
    }

    #[test]
    fn tiny_inputs_do_not_panic() {
        let m = CostModel::evaluate(1, 1, &[1], &[1.0]);
        assert_eq!(m.step3, 0.0);
        assert_eq!(m.sequential, 0.0);
        assert_eq!(m.master_share(), 0.0);
        let m0 = CostModel::evaluate(0, 1, &[0], &[1.0]);
        assert_eq!(m0.speedup(), 1.0);
    }

    #[test]
    fn speedup_approaches_p_for_large_n() {
        // The makespan is dominated by Step 3 only once log N ≫ p·log p
        // (the paper's asymptotic regime), so use a small p and a huge N.
        let p = 4;
        let n = 1usize << 52;
        let sizes = vec![n / p; p];
        let m = CostModel::evaluate(n, 900, &sizes, &vec![1.0; p]);
        // Step2/W = log p / log N = 2/52: speedup ≥ ~0.85·p here.
        assert!(m.speedup() > 0.75 * p as f64, "speedup {}", m.speedup());
        assert!(m.speedup() <= p as f64 + 1e-9);
    }
}
