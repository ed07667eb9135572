//! # qcs-predictor
//!
//! Job runtime prediction for the `qcs` quantum-cloud study: the paper's
//! product-of-linear-terms model over execution, circuit, and
//! machine-overhead features (§VI-C), with 70/30 train/test evaluation and
//! per-machine Pearson correlations (Figs 15–16).
//!
//! Queue-wait prediction (Recommendation ⑤) has one estimator,
//! [`OnlinePredictor`]: it folds terminal records one at a time on the
//! record tap and serves the gateway's `PREDICT`. A batch reader observes
//! its training split with it and scores the held-out split with
//! [`evaluate_queue_prediction`].
//!
//! # Examples
//!
//! ```
//! use qcs_predictor::{JobFeatures, RuntimePredictor};
//!
//! // Fit on (features, runtime) pairs; here a trivial single-feature law.
//! let rows = vec![vec![1.0], vec![2.0], vec![3.0]];
//! let runtimes = vec![10.0, 20.0, 30.0];
//! let predictor = RuntimePredictor::fit(&rows, &runtimes);
//! let p = predictor.predict(&[2.5]);
//! assert!((p - 25.0).abs() < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
// The online predictor sits on the gateway's serving path: like the
// gateway itself, non-test code must map bad input to typed errors
// instead of panicking.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod features;
mod online;
mod predictor;
mod queue;

pub use features::{memory_slots, JobFeatures, FEATURE_NAMES, NUM_FEATURES};
pub use online::{
    OnlinePredictor, PredictError, Refit, RefitJob, WaitEstimate, ONLINE_REFIT_EVERY,
    ONLINE_WINDOW,
};
pub use predictor::{run_prediction_study, MachineEvaluation, PredictionStudy, RuntimePredictor};
pub use queue::{evaluate_queue_prediction, QueuePredictionReport};
