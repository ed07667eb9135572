//! # qcs-transpiler
//!
//! A device-aware quantum circuit transpiler for the `qcs` quantum-cloud
//! study. The pipeline — basis translation, layout, routing, swap
//! decomposition, peephole optimization, ASAP scheduling — mirrors the
//! pass structure whose compile-time scaling the paper measures (Fig 5),
//! and its noise-aware layout is the mechanism behind calibration-staleness
//! effects (Fig 12b).
//!
//! # Examples
//!
//! ```
//! use qcs_circuit::library;
//! use qcs_machine::Fleet;
//! use qcs_transpiler::{transpile, Target, TranspileOptions};
//!
//! let fleet = Fleet::ibm_like();
//! let target = Target::from_machine(fleet.get("casablanca").unwrap(), 12.0);
//! let result = transpile(&library::qft(4), &target, TranspileOptions::full())?;
//! assert!(result.output_metrics.cx_total > 0);
//! println!("compile took {:?}", result.timings.total());
//! # Ok::<(), qcs_transpiler::TranspileError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod basis;
mod cache;
mod error;
pub mod layout;
pub mod multiprog;
pub mod optimize;
pub mod routing;
pub mod schedule;
mod target;
mod transpile;

pub use cache::{CacheStats, TranspileCache, TranspileKey};
pub use error::TranspileError;
pub use layout::Layout;
pub use routing::RoutingResult;
pub use schedule::{schedule_asap, ScheduledCircuit};
pub use target::Target;
pub use transpile::{
    transpile, LayoutMethod, PassTimings, RoutingMethod, TranspileOptions, TranspileResult,
};
