#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # dlt-platform
//!
//! Model of the heterogeneous master–worker *star* platform used throughout
//! the paper "Non-Linear Divisible Loads: There is No Free Lunch"
//! (Beaumont, Larchevêque, Marchal, IPDPS 2013), Section 1.2.
//!
//! A platform is a master `P0` plus `p` workers `P1..Pp`. Worker `Pi` is
//! described by two quantities:
//!
//! * `c_i` — the **inverse bandwidth**: time needed to send one unit of data
//!   from the master to `Pi`;
//! * `s_i = 1/w_i` — the **processing speed**: `w_i` is the time spent by
//!   `Pi` to process one unit of computation.
//!
//! Communications from the master to distinct workers may proceed in
//! parallel (each limited only by the worker's incoming bandwidth) or under
//! the classical *one-port* model where the master serializes its sends; the
//! simulator in `dlt-sim` supports both.
//!
//! The crate also provides the three random speed profiles used by the
//! paper's evaluation (Section 4.3): homogeneous, uniform over `[1, 100]`,
//! and log-normal with `µ = 0`, `σ = 1`, together with seeded generators so
//! every experiment in this workspace is reproducible.
//!
//! ## Example
//!
//! ```
//! use dlt_platform::{Platform, PlatformSpec, SpeedDistribution};
//!
//! // An explicit 3-worker platform: speeds 1, 2 and 4; unit bandwidth.
//! let platform = Platform::from_speeds(&[1.0, 2.0, 4.0]).unwrap();
//! assert_eq!(platform.len(), 3);
//! assert!((platform.total_speed() - 7.0).abs() < 1e-12);
//!
//! // A random 100-worker platform drawn from the paper's uniform profile.
//! let spec = PlatformSpec::new(100, SpeedDistribution::paper_uniform());
//! let random = spec.generate(42).unwrap();
//! assert_eq!(random.len(), 100);
//! ```

pub mod distribution;
pub mod error;
pub mod generator;
pub mod platform;
pub mod processor;
pub mod rng;

pub use distribution::SpeedDistribution;
pub use error::PlatformError;
pub use generator::PlatformSpec;
pub use platform::Platform;
pub use processor::Processor;
