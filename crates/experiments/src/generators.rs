//! Adversarial arrival and platform-degradation generators for the
//! competitive-ratio experiments.
//!
//! Three arrival **regimes** stress the online schedulers in different
//! ways, all deterministic in the seed:
//!
//! * [`Regime::Poisson`] — the smooth baseline: exponential inter-arrival
//!   gaps, sizes `U[0.25, 1] · base_size`. Draw-for-draw the same
//!   distribution as [`crate::service::arrival_trace`].
//! * [`Regime::MmppBurst`] — a two-state Markov-modulated Poisson
//!   process: a *burst* state packs arrivals 6× tighter than the nominal
//!   spacing, a *sparse* state spreads them 2× wider, and the chain
//!   flips state with probability 1/8 per arrival. Same size law as the
//!   baseline, so only the arrival correlation changes.
//! * [`Regime::HeavyTail`] — Poisson arrivals with bounded-Pareto sizes
//!   (shape 1.5, scale `0.25 · base_size`, capped at 64× the scale):
//!   most loads are small, a few are enormous — the classic
//!   stretch-metric stressor.
//!
//! [`degradation_trace`] draws the correlated platform-failure side: at
//! exponential wave times, a contiguous span of workers degrades
//! together — usually a shared slow-down (factor `U[1.5, 3)`),
//! occasionally a permanent drop-out of the first span worker — so
//! failures hit neighboring workers the way a rack power event would,
//! not as independent coin flips. Drop-outs are capped at half the
//! platform so the degraded schedules stay feasible.

use dlt_multiload::{FailureEvent, FailureTrace, LoadSpec};
use dlt_platform::rng::seeded_stream;
use rand::Rng;

/// Salt mixed into the base seed for arrival-regime streams, keeping the
/// draws independent of the platform and plain-trace streams that share
/// the seed.
const REGIME_SEED_SALT: u64 = 0x6164_7665_7273_6172; // "adversar"

/// Salt for the degradation-trace streams.
const FAILURE_SEED_SALT: u64 = 0x6661_696C_7761_7665; // "failwave"

/// Pareto shape of the heavy-tail size law. `1 < shape < 2`: finite
/// mean, infinite variance before the cap.
const PARETO_SHAPE: f64 = 1.5;

/// Heavy-tail sizes are capped at this multiple of the Pareto scale
/// (`0.25 · base_size`), keeping single loads within the solver's
/// comfortable range while preserving a three-decade size spread.
const PARETO_CAP: f64 = 64.0;

/// Per-arrival probability that the MMPP chain flips between its burst
/// and sparse states — mean sojourn of 8 arrivals per state.
const MMPP_FLIP: f64 = 0.125;

/// Burst-state gap shrink: arrivals come 6× faster than nominal.
const MMPP_BURST_SPEEDUP: f64 = 6.0;

/// Sparse-state gap stretch: arrivals come 2× slower than nominal.
const MMPP_SPARSE_SLOWDOWN: f64 = 2.0;

/// One arrival regime of the competitive-ratio sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Smooth Poisson arrivals, uniform sizes — the baseline.
    Poisson,
    /// Markov-modulated bursts: tight clumps separated by lulls.
    MmppBurst,
    /// Poisson arrivals with bounded-Pareto (heavy-tailed) sizes.
    HeavyTail,
}

impl Regime {
    /// Every regime, in sweep order.
    pub const ALL: [Regime; 3] = [Regime::Poisson, Regime::MmppBurst, Regime::HeavyTail];

    /// CSV label.
    pub fn name(&self) -> &'static str {
        match self {
            Regime::Poisson => "poisson",
            Regime::MmppBurst => "mmpp_burst",
            Regime::HeavyTail => "heavy_tail",
        }
    }
}

/// Draws one deterministic batch of `n` loads under `regime`: sizes and
/// exponents per the regime's law, releases accumulated from its gap
/// process with nominal mean `spacing`. Releases are non-decreasing by
/// construction, so the batch doubles as a sorted service-engine trace.
pub fn regime_loads(
    regime: Regime,
    n: usize,
    base_size: f64,
    alphas: &[f64],
    spacing: f64,
    seed: u64,
    stream: u64,
) -> Vec<LoadSpec> {
    assert!(!alphas.is_empty(), "alpha list must be non-empty");
    let mut rng = seeded_stream(seed ^ REGIME_SEED_SALT, stream);
    let mut release = 0.0f64;
    let mut burst = false;
    let mut loads = Vec::with_capacity(n);
    for _ in 0..n {
        let size = match regime {
            Regime::Poisson | Regime::MmppBurst => base_size * rng.gen_range(0.25..1.0),
            #[expect(
                clippy::disallowed_methods,
                reason = "scenario sampling, not an engine path; the committed competitive CSVs pin these std-powf bits"
            )]
            Regime::HeavyTail => {
                // Inverse-CDF bounded Pareto: xm · u^{-1/shape}, capped.
                let u: f64 = rng.gen_range(0.0..1.0);
                let xm = base_size * 0.25;
                (xm * (1.0 - u).powf(-1.0 / PARETO_SHAPE)).min(xm * PARETO_CAP)
            }
        };
        let alpha = alphas[rng.gen_range(0..alphas.len())];
        let mean_gap = match regime {
            Regime::Poisson | Regime::HeavyTail => spacing,
            Regime::MmppBurst => {
                if rng.gen_range(0.0..1.0) < MMPP_FLIP {
                    burst = !burst;
                }
                if burst {
                    spacing / MMPP_BURST_SPEEDUP
                } else {
                    spacing * MMPP_SPARSE_SLOWDOWN
                }
            }
        };
        // Inverse-CDF exponential gap; 1 − u > 0 because u ∈ [0, 1).
        let u: f64 = rng.gen_range(0.0..1.0);
        #[expect(
            clippy::disallowed_methods,
            reason = "arrival-time sampling; the committed CSVs pin these std-ln bits"
        )]
        let gap = -(1.0 - u).ln() * mean_gap;
        release += gap;
        loads.push(LoadSpec::new(size, alpha, release).expect("valid generated load"));
    }
    loads
}

/// Draws a correlated platform-degradation scenario: failure *waves* at
/// exponential times (mean gap `horizon / rate`, so `rate` is the
/// expected wave count over the horizon), each hitting a contiguous span
/// of up to `p/4` workers. A wave is usually a shared slow-down (factor
/// `U[1.5, 3)` applied to every span worker); with probability 1/4 it
/// also takes the first not-yet-down span worker out permanently —
/// capped at `p/2` total drop-outs so the platform never empties.
/// `rate <= 0` returns the empty trace.
pub fn degradation_trace(
    p: usize,
    horizon: f64,
    rate: f64,
    seed: u64,
    stream: u64,
) -> FailureTrace {
    assert!(p > 0, "platform must have workers");
    assert!(
        horizon.is_finite() && horizon > 0.0,
        "horizon must be finite and positive"
    );
    if rate <= 0.0 {
        return FailureTrace::none();
    }
    let mut rng = seeded_stream(seed ^ FAILURE_SEED_SALT, stream);
    let mean_gap = horizon / rate;
    let max_downs = p / 2;
    let mut down = vec![false; p];
    let mut downs = 0usize;
    let mut events = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        #[expect(
            clippy::disallowed_methods,
            reason = "failure-wave time sampling; the committed CSVs pin these std-ln bits"
        )]
        let gap = -(1.0 - u).ln() * mean_gap;
        t += gap;
        if t >= horizon {
            break;
        }
        let span_start = rng.gen_range(0..p);
        let span_len = rng.gen_range(1..=(p / 4).max(1));
        let lethal = rng.gen_range(0.0..1.0) < 0.25 && downs < max_downs;
        let factor = rng.gen_range(1.5..3.0);
        let mut killed = false;
        for i in 0..span_len {
            let w = (span_start + i) % p;
            if lethal && !killed && !down[w] {
                down[w] = true;
                downs += 1;
                killed = true;
                events.push(FailureEvent::down(t, w));
            } else if !down[w] {
                events.push(FailureEvent::slow(t, w, factor));
            }
        }
    }
    FailureTrace::new(events).expect("generated degradation trace is sorted and valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlt_multiload::FailureKind;

    #[test]
    fn regimes_are_deterministic_sorted_and_in_range() {
        for regime in Regime::ALL {
            let a = regime_loads(regime, 128, 100.0, &[1.0, 1.5, 2.0], 3.0, 7, 2);
            let b = regime_loads(regime, 128, 100.0, &[1.0, 1.5, 2.0], 3.0, 7, 2);
            assert_eq!(a, b, "{} must replay from its seed", regime.name());
            assert_eq!(a.len(), 128);
            for w in a.windows(2) {
                assert!(w[0].release <= w[1].release, "releases must be sorted");
            }
            for l in &a {
                assert!(l.size > 0.0 && l.size.is_finite());
                assert!(l.release >= 0.0);
            }
            let c = regime_loads(regime, 128, 100.0, &[1.0, 1.5, 2.0], 3.0, 7, 3);
            assert_ne!(a, c, "different streams must draw different batches");
        }
    }

    #[test]
    fn poisson_regime_sizes_match_the_baseline_law() {
        let a = regime_loads(Regime::Poisson, 256, 100.0, &[1.0], 2.0, 11, 0);
        for l in &a {
            assert!(l.size >= 25.0 && l.size < 100.0);
        }
    }

    #[test]
    fn heavy_tail_sizes_are_pareto_bounded_and_actually_tailed() {
        let a = regime_loads(Regime::HeavyTail, 512, 100.0, &[1.0], 2.0, 11, 0);
        let xm = 25.0;
        let mut over_4x = 0usize;
        for l in &a {
            assert!(l.size >= xm && l.size <= xm * PARETO_CAP + 1e-9);
            if l.size > 4.0 * xm {
                over_4x += 1;
            }
        }
        // P(X > 4·xm) = 4^{-1.5} = 12.5%: the tail must actually show up.
        assert!(
            over_4x > 512 / 20,
            "expected a heavy tail, got {over_4x}/512 loads above 4x the scale"
        );
    }

    #[test]
    fn mmpp_bursts_cluster_harder_than_poisson() {
        let spacing = 4.0;
        let mmpp = regime_loads(Regime::MmppBurst, 512, 100.0, &[1.0], spacing, 13, 0);
        // Burst states (1/8-spacing gaps on average when bursting) push
        // far more gaps under spacing/4 than a plain exponential would
        // (P ≈ 22%); sparse states stretch the total span.
        let tight = mmpp
            .windows(2)
            .filter(|w| w[1].release - w[0].release < spacing / 4.0)
            .count();
        assert!(
            tight > 512 / 3,
            "expected clustered arrivals, got {tight}/511 tight gaps"
        );
    }

    #[test]
    fn degradation_trace_is_deterministic_capped_and_valid() {
        let p = 8;
        let a = degradation_trace(p, 1000.0, 6.0, 9, 1);
        let b = degradation_trace(p, 1000.0, 6.0, 9, 1);
        assert_eq!(a, b, "same seed must replay the same scenario");
        assert!(!a.is_empty(), "rate 6 over a long horizon must fire");
        a.validate_for(p).expect("all workers in range");
        let downs = a
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FailureKind::Down { .. }))
            .count();
        assert!(downs <= p / 2, "drop-outs must leave half the platform");
        for e in a.events() {
            if let FailureKind::Slow { factor, .. } = e.kind {
                assert!((1.5..3.0).contains(&factor));
            }
        }
    }

    #[test]
    fn zero_rate_degradation_is_the_empty_trace() {
        assert!(degradation_trace(4, 100.0, 0.0, 9, 0).is_empty());
    }
}
