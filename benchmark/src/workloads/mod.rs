//! The six workloads. Each is set up afresh for every unit of a fixed input
//! size; every unit reports how many operations it attempted, how many
//! failed, each operation's latency, and a digest of the outputs where the
//! outputs are a pure function of the seed.

pub mod compile_fleet;
pub mod fleet_stream;
pub mod gateway;
pub mod sim_fleet;
pub mod study_batch;

use crate::trace::Tracer;

/// Input sizes: the comparable ones, or the `--quick` smoke's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    /// Choose from a `[full, quick]` pair of sizes.
    pub fn of<T: Copy>(self, sizes: [T; 2]) -> T {
        match self {
            Scale::Full => sizes[0],
            Scale::Quick => sizes[1],
        }
    }
}

/// What one unit did.
#[derive(Debug, Default)]
pub struct UnitOutcome {
    /// Operations attempted (jobs, requests or circuits).
    pub ops: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Wall time of each operation, nanoseconds. `ops` may be a multiple of
    /// the length: `fleet_stream` counts jobs and times 20k-job chunks.
    pub op_ns: Vec<u32>,
    /// Digest of the unit's outputs, when they are deterministic.
    pub digest: Option<String>,
    /// Failures in words, for the log.
    pub notes: Vec<String>,
}

impl UnitOutcome {
    /// Record a failed check that spoils every operation of the unit.
    pub fn fail_all(&mut self, note: String) {
        self.failed = self.ops;
        self.notes.push(note);
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// What one operation is, for the metric legend.
    const OP: &'static str;
    /// The request mix, for the two workloads that cross threads and a
    /// wire: their timings mean nothing unpinned, and the traced run's
    /// gateway probe follows their mix.
    const GATEWAY_MIX: Option<gateway::Mix> = None;

    /// Digest of the size constants at `scale`, so two outputs can be told
    /// to have measured the same thing.
    fn config_digest(scale: Scale) -> String;

    /// Build everything a unit needs from `seed`, including one warm-up
    /// pass. Timed as `setup_s`.
    fn setup(seed: u64, scale: Scale) -> Self;

    /// Run one unit on the fixed input.
    fn unit(&mut self, tracer: &mut Tracer) -> UnitOutcome;

    /// Stop what `setup` started and run the end-of-session checks; returns
    /// the failures in words.
    fn finish(self) -> Vec<String> {
        Vec::new()
    }
}

/// Nanoseconds as the `u32` the latency vectors hold (saturating at 4.29 s,
/// far beyond any single operation here).
pub fn ns_u32(elapsed: std::time::Duration) -> u32 {
    u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX)
}
