#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # dlt-samplesort
//!
//! **Sample sort** with oversampling — the paper's Section 3
//! demonstration that *almost linear* workloads (sorting costs
//! `N log N`) become divisible-load friendly after a cheap preprocessing
//! phase.
//!
//! The algorithm (Frazer–McKellar sample sort, as analyzed by Blelloch et
//! al. and used in the paper, Figure 1):
//!
//! 1. **Step 1** — draw a random sample of `s·p` keys (`s` is the
//!    oversampling ratio, `s = log²N` in the paper), sort it on the
//!    master, and keep `p−1` splitters;
//! 2. **Step 2** — classify every key into one of the `p` buckets by
//!    binary search over the splitters (cost `N log p` on the master);
//! 3. **Step 3** — sort each bucket independently, one worker per bucket
//!    (the perfectly divisible phase).
//!
//! Steps 1–2 are the *non-divisible* preprocessing; their share of the
//! total work is `log p / log N`, which vanishes for large `N` — that is
//! the "sorting is almost divisible" claim this crate lets you measure.
//!
//! Heterogeneous platforms are supported by placing splitters at sample
//! ranks proportional to **cumulative relative speed** (Section 3.2), so
//! worker `i` receives a bucket of expected size `N·x_i`.
//!
//! The implementation really sorts, on the caller's thread (Step 3 sorts
//! the buckets one after another), and reports the bucket statistics.
//! What each step costs on `p` workers comes from the analytic
//! [`CostModel`], whose numbers the experiment harness reports.

pub mod buckets;
pub mod cost;
pub mod parallel;
pub mod splitters;
pub mod stats;

pub use cost::CostModel;
pub use parallel::{sample_sort, SampleSortConfig, SortOutcome};
pub use splitters::{heterogeneous_splitters, homogeneous_splitters, sample_keys};
pub use stats::{max_bucket_bound, paper_oversampling, BucketStats};
