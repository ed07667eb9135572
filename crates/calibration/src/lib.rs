//! # qcs-calibration
//!
//! The machine calibration model for the `qcs` quantum-cloud study:
//! per-qubit/per-edge calibrated parameters ([`CalibrationSnapshot`]), a
//! deterministic generative [`NoiseProfile`] with spatial and temporal
//! variation plus intra-day drift, and the daily [`CalibrationSchedule`]
//! behind the paper's calibration-crossover analysis (Fig 12).
//!
//! # Examples
//!
//! ```
//! use qcs_calibration::{CalibrationSchedule, NoiseProfile};
//! use qcs_topology::families;
//!
//! let profile = NoiseProfile::with_seed(42);
//! let graph = families::ibm_falcon_27q();
//! let today = profile.snapshot(&graph, 0);
//! let tomorrow = profile.snapshot(&graph, 1);
//! assert_ne!(today, tomorrow); // calibrations differ day to day
//!
//! let schedule = CalibrationSchedule::default();
//! assert!(schedule.crossover(23.0, 27.0)); // overnight queue goes stale
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod distributions;
mod profile;
mod schedule;
mod snapshot;

pub use profile::NoiseProfile;
pub use schedule::CalibrationSchedule;
pub use snapshot::{
    CalibrationSnapshot, EdgeCalibration, QubitCalibration, DEFAULT_CX_NS, MEASURE_NS, RESET_NS,
    SINGLE_QUBIT_NS,
};
