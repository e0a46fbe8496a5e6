//! Monte-Carlo harness: deterministic RNG fan-out, parallel trial runners,
//! and streaming statistics.
//!
//! Every simulation in this workspace is driven through this crate so that
//! results are (a) reproducible from a single master seed — bit-for-bit
//! identical for any worker-thread count, because trials are tiled into
//! fixed-width chunks whose RNG streams depend only on `(seed, chunk)` —
//! and (b) cheap to parallelise: work is dispatched through a persistent
//! process-wide [`pool`] instead of spawning threads per run. The
//! statistical layer provides Wilson confidence intervals
//! for proportions, Welford accumulators for means, and a chi-square
//! goodness-of-fit test (against the exact laws from the `analytic` crate).
//!
//! # Example
//!
//! ```
//! use montecarlo::{BernoulliEstimate, Runner, Seed};
//! use rand::Rng;
//!
//! // Estimate Pr[coin == heads] with a deterministic seed.
//! let runner = Runner::new(Seed(42)).with_threads(2);
//! let est: BernoulliEstimate = runner.run(10_000, |rng| rng.gen_bool(0.5));
//! let (lo, hi) = est.wilson_ci(0.999);
//! assert!(lo < 0.5 && 0.5 < hi);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chi2;
mod converge;
mod error;
pub mod fault;
mod hist;
pub mod pool;
mod rng;
mod runner;
mod stats;
mod telemetry;

pub use chi2::{chi_square_gof, GofResult};
pub use converge::EstimatorStats;
pub use error::Error;
pub use hist::Histogram;
pub use rng::{task_rng, trial_seed, Seed};
pub use runner::{Accumulator, ChunkPrefix, RunReport, Runner, CHUNK_WIDTH};
pub use stats::{normal_quantile, BernoulliEstimate, Welford};
