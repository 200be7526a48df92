//! Sorting as an almost-divisible load (Section 3): really sorts 4M keys
//! with the three-phase sample sort, on homogeneous and heterogeneous
//! bucket shares, and prints the phase breakdown and bucket balance.
//!
//! ```text
//! cargo run --release --example sample_sort
//! ```

// Example code: prints log ratios with the std transcendentals.
#![allow(clippy::disallowed_methods)]

use nonlinear_dlt::platform::rng::seeded;
use nonlinear_dlt::samplesort::{max_bucket_bound, sample_sort, CostModel, SampleSortConfig};
use rand::Rng;

fn main() {
    let n = 1 << 22; // 4M keys
    let p = 8;
    let mut rng = seeded(42);
    let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();

    println!("sample sort: N = {n}, p = {p}, s = log²N (paper's oversampling)\n");

    // --- Homogeneous -------------------------------------------------------
    let out = sample_sort(data.clone(), &SampleSortConfig::homogeneous(p, 7));
    assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]));
    println!("homogeneous buckets:");
    println!("  oversampling s = {}", out.oversampling);
    println!(
        "  phase times: step1 {:.4}s (sample+splitters), step2 {:.4}s (scatter), step3 {:.4}s (local sorts)",
        out.t_step1, out.t_step2, out.t_step3
    );
    println!(
        "  measured non-divisible wall-clock fraction: {:.2}%",
        100.0 * out.nondivisible_fraction()
    );
    println!(
        "  analytic fraction log p / log N = {:.2}%",
        100.0 * (p as f64).ln() / (n as f64).ln()
    );
    println!("  bucket sizes: {:?}", out.stats.sizes);
    println!(
        "  max bucket = {} vs w.h.p. bound {:.0} (overload {:.4})",
        out.stats.max_size(),
        max_bucket_bound(n, p),
        out.stats.max_overload()
    );
    let model = CostModel::evaluate(n, out.oversampling, &out.stats.sizes, &vec![1.0; p]);
    println!(
        "  cost model: predicted speedup {:.2}× on {p} workers\n",
        model.speedup()
    );

    // --- Heterogeneous (Section 3.2) ---------------------------------------
    let speeds = vec![1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 8.0, 8.0];
    let out = sample_sort(data, &SampleSortConfig::heterogeneous(speeds.clone(), 7));
    assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]));
    println!("heterogeneous buckets (speeds {speeds:?}):");
    let total: f64 = speeds.iter().sum();
    for (i, &size) in out.stats.sizes.iter().enumerate() {
        let ideal = n as f64 * speeds[i] / total;
        println!(
            "  worker {i}: bucket {size:8} keys, ideal {ideal:9.0} ({:+.2}%)",
            100.0 * (size as f64 - ideal) / ideal
        );
    }
    println!(
        "  max overload vs speed share: {:.4} — sorting stays DLT-friendly on heterogeneous platforms",
        out.stats.max_overload()
    );
}
