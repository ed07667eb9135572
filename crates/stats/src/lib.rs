//! # qcs-stats
//!
//! Statistics utilities for the `qcs` quantum-cloud study: descriptive
//! summaries and quantiles, Pearson correlation, OLS, a
//! Levenberg–Marquardt fit of the paper's product-of-linear-terms runtime
//! model ([`ProductModel`]), and seeded train/test splitting.
//!
//! # Examples
//!
//! ```
//! use qcs_stats::{median, pearson, Summary};
//!
//! let waits = [30.0, 60.0, 3600.0, 90.0, 45.0];
//! assert_eq!(median(&waits), 60.0);
//! let s = Summary::of(&waits);
//! assert_eq!(s.max, 3600.0);
//! assert!(pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) > 0.99);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

mod correlation;
mod descriptive;
mod regression;
mod split;
mod streaming;

pub use correlation::pearson;
pub use descriptive::{
    coefficient_of_variation, fraction_where, mean, median, quantile, quantile_sorted, std_dev,
    variance, Summary,
};
pub use regression::{linear_fit, ProductModel};
pub use split::train_test_split;
pub use streaming::{P2Quantile, ReservoirSample, StreamingMoments, StreamingSummary};
