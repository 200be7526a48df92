//! Section 3: sorting as an almost-divisible load — sample-sort balance
//! and the vanishing non-divisible fraction.

use dlt_platform::{PlatformSpec, SpeedDistribution};
use dlt_samplesort::{max_bucket_bound, sample_sort, CostModel, SampleSortConfig};
use dlt_stats::{Summary, Table};
use rand::Rng;

fn random_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = dlt_platform::rng::seeded(seed);
    (0..n).map(|_| rng.gen()).collect()
}

/// Input-key distributions for the robustness experiment. Sample sort's
/// analysis promises the running time is "almost independent of the input
/// distribution of keys" (Section 3.1); these exercise the usual
/// adversaries of quicksort-style pivoting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyDistribution {
    /// Uniform random 64-bit keys.
    Uniform,
    /// Already sorted ascending.
    Sorted,
    /// Sorted descending.
    Reversed,
    /// Heavy-tailed: key `⌊n/(rank+1)⌋`-style Zipf-flavoured skew (many
    /// distinct values, strongly non-uniform density).
    Zipf,
    /// Nearly sorted: ascending with 1% random swaps.
    NearlySorted,
}

impl KeyDistribution {
    /// All distributions, in table order.
    fn all() -> [KeyDistribution; 5] {
        [
            KeyDistribution::Uniform,
            KeyDistribution::Sorted,
            KeyDistribution::Reversed,
            KeyDistribution::Zipf,
            KeyDistribution::NearlySorted,
        ]
    }

    /// Short name for tables.
    fn name(&self) -> &'static str {
        match self {
            KeyDistribution::Uniform => "uniform",
            KeyDistribution::Sorted => "sorted",
            KeyDistribution::Reversed => "reversed",
            KeyDistribution::Zipf => "zipf",
            KeyDistribution::NearlySorted => "nearly_sorted",
        }
    }

    /// Materializes `n` keys.
    fn generate(&self, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = dlt_platform::rng::seeded(seed);
        match self {
            KeyDistribution::Uniform => random_keys(n, seed),
            KeyDistribution::Sorted => (0..n as u64).collect(),
            KeyDistribution::Reversed => (0..n as u64).rev().collect(),
            KeyDistribution::Zipf => (0..n)
                .map(|_| {
                    // Inverse-power sampling: heavy mass near 0, long tail.
                    let u: f64 = rng.gen_range(1e-9..1.0f64);
                    (n as f64 * u.powi(3)) as u64
                })
                .collect(),
            KeyDistribution::NearlySorted => {
                let mut keys: Vec<u64> = (0..n as u64).collect();
                for _ in 0..n / 100 {
                    let i = rng.gen_range(0..n);
                    let j = rng.gen_range(0..n);
                    keys.swap(i, j);
                }
                keys
            }
        }
    }
}

/// Section 3.1 robustness claim: the randomized sample sort balances its
/// buckets regardless of the input key distribution. For each
/// distribution: sorts `trials` arrays and reports the bucket overload.
pub fn run_distribution_robustness(n: usize, p: usize, trials: usize, seed: u64) -> Table {
    let mut t = Table::new(&[
        "N",
        "p",
        "distribution",
        "mean_overload",
        "max_overload",
        "sorted_ok",
    ])
    .with_title("Section 3.1: bucket balance is (almost) input-distribution independent");
    for dist in KeyDistribution::all() {
        let mut overload = Summary::new();
        let mut all_sorted = true;
        for trial in 0..trials {
            let data = dist.generate(n, seed.wrapping_add(trial as u64));
            let out = sample_sort(data, &SampleSortConfig::homogeneous(p, seed ^ trial as u64));
            overload.push(out.stats.max_overload());
            all_sorted &= out.sorted.windows(2).all(|w| w[0] <= w[1]);
        }
        t.row([
            n.into(),
            p.into(),
            dist.name().into(),
            overload.mean().into(),
            overload.max().into(),
            (if all_sorted { "yes" } else { "NO" }).into(),
        ]);
    }
    t
}

/// Section 3.1 experiment: homogeneous sample sort. For each `(N, p)`:
/// really sorts `trials` random arrays with the paper's oversampling
/// `s = log²N`, and reports
///
/// * the analytic non-divisible fraction `log p / log N`
///   (`frac_logp_logN`);
/// * the master's share of the cost model's makespan, Steps 1+2 over the
///   makespan (`frac_cost_model`): it grows with `p`, and it is not the
///   paper's fraction;
/// * the observed max-bucket overload vs the Theorem-B.4 bound;
/// * how often the bound held (it should, with high probability).
pub fn run_sample_sort(ns: &[usize], ps: &[usize], trials: usize, seed: u64) -> Table {
    let mut t = Table::new(&[
        "N",
        "p",
        "s",
        "frac_logp_logN",
        "frac_cost_model",
        "mean_overload",
        "max_overload",
        "bound_overload",
        "bound_violations",
    ])
    .with_title("Section 3.1: sample sort — balance, log p / log N and the master's share");
    for &n in ns {
        for &p in ps {
            let mut overload = Summary::new();
            let mut violations = 0usize;
            let mut s_used = 0usize;
            let mut cost_frac = 0.0;
            for trial in 0..trials {
                let data = random_keys(n, seed.wrapping_add(trial as u64));
                let out = sample_sort(data, &SampleSortConfig::homogeneous(p, seed ^ trial as u64));
                s_used = out.oversampling;
                overload.push(out.stats.max_overload());
                if (out.stats.max_size() as f64) > max_bucket_bound(n, p) {
                    violations += 1;
                }
                let w = vec![1.0; p];
                let model = CostModel::evaluate(n, out.oversampling, &out.stats.sizes, &w);
                cost_frac = model.master_share();
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "reporting column log_n(p), one evaluation per row; the committed CSVs pin these bits"
            )]
            let frac_logp_logn = (p as f64).ln() / (n as f64).ln();
            t.row([
                n.into(),
                p.into(),
                s_used.into(),
                frac_logp_logn.into(),
                cost_frac.into(),
                overload.mean().into(),
                overload.max().into(),
                (max_bucket_bound(n, p) / (n as f64 / p as f64)).into(),
                violations.into(),
            ]);
        }
    }
    t
}

/// Section 3.2 experiment: heterogeneous sample sort. Buckets must track
/// the workers' relative speeds; reports the worst relative deviation of
/// bucket size from the ideal share `N·x_i`.
pub fn run_hetero_sort(
    n: usize,
    ps: &[usize],
    profile: &SpeedDistribution,
    trials: usize,
    seed: u64,
) -> Table {
    let mut t = Table::new(&[
        "N",
        "p",
        "profile",
        "mean_overload",
        "max_overload",
        "sorted_ok",
    ])
    .with_title("Section 3.2: heterogeneous sample sort — bucket size vs speed share");
    for &p in ps {
        let mut overload = Summary::new();
        let mut all_sorted = true;
        for trial in 0..trials {
            let platform = PlatformSpec::new(p, profile.clone())
                .generate_stream(seed, trial as u64)
                .unwrap();
            let data = random_keys(n, seed.wrapping_add(1000 + trial as u64));
            let out = sample_sort(
                data,
                &SampleSortConfig::heterogeneous(platform.speeds(), seed ^ trial as u64),
            );
            overload.push(out.stats.max_overload());
            all_sorted &= out.sorted.windows(2).all(|w| w[0] <= w[1]);
        }
        t.row([
            n.into(),
            p.into(),
            profile.name().into(),
            overload.mean().into(),
            overload.max().into(),
            (if all_sorted { "yes" } else { "NO" }).into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_is_distribution_independent() {
        // The paper's Section 3.1 robustness claim: every input
        // distribution yields bounded bucket overload and a sorted output.
        let t = run_distribution_robustness(1 << 15, 8, 2, 11);
        assert_eq!(t.n_rows(), 5);
        for v in t.column("max_overload").unwrap() {
            assert!(v < 1.35, "overload {v}");
        }
        assert_eq!(t.to_csv().matches("yes").count(), 5);
    }

    #[test]
    fn key_distributions_have_expected_shapes() {
        let sorted = KeyDistribution::Sorted.generate(100, 1);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let rev = KeyDistribution::Reversed.generate(100, 1);
        assert!(rev.windows(2).all(|w| w[0] >= w[1]));
        let zipf = KeyDistribution::Zipf.generate(10_000, 1);
        // Heavy head: far more than 10% of mass below 10% of the range.
        let small = zipf.iter().filter(|&&k| k < 1000).count();
        assert!(small > 4000, "zipf head {small}");
    }

    #[test]
    fn fraction_shrinks_with_n() {
        let t = run_sample_sort(&[1 << 12, 1 << 16], &[8], 2, 1);
        let frac = t.column("frac_logp_logN").unwrap();
        assert!(frac[1] < frac[0]);
    }

    #[test]
    fn bound_rarely_violated() {
        let t = run_sample_sort(&[1 << 14], &[4, 16], 3, 2);
        let v = t.column("bound_violations").unwrap();
        // w.h.p. bound: allow at most one violation across the few trials.
        assert!(v.iter().sum::<f64>() <= 1.0, "violations {v:?}");
    }

    #[test]
    fn hetero_overload_stays_moderate() {
        let t = run_hetero_sort(1 << 14, &[4, 8], &SpeedDistribution::paper_uniform(), 2, 3);
        let max = t.column("max_overload").unwrap();
        for m in max {
            assert!(m < 1.6, "overload {m}");
        }
        // Everything must actually be sorted.
        assert!(t.to_csv().matches("yes").count() >= 2);
    }
}
