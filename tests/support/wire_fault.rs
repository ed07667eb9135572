// The chaos proxy's per-line fault roll. `tests/chaos_gateway.rs` loads it
// as a module and the `qcs` library's test build includes it (see
// `src/fault/tests.rs`), so the roll every chaos prediction rests on is
// unit-tested on its own. Plain comments only: `include!` takes no inner
// doc attributes.

use std::time::Duration;

use qcs_exec::splitmix64;

/// One wire fault, rolled per request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// Close both sides before the line reaches the gateway: the client
    /// sees EOF, the simulator never sees the job.
    Drop,
    /// Forward the line with every other character replaced by `#`: the
    /// gateway must answer a typed `ERR`.
    Garble,
    /// Forward the line, pass on the first half of the reply, then close:
    /// the job was processed but the client sees a truncated frame.
    Truncate,
    /// Forward the line and pass on the reply in two halves with a stall
    /// between them.
    PartialWrite,
}

impl Fault {
    /// Every kind, in the order of [`FaultRates::permille`].
    pub(crate) const ALL: [Fault; 4] = [
        Fault::Drop,
        Fault::Garble,
        Fault::Truncate,
        Fault::PartialWrite,
    ];
}

/// Seeded per-mille rates of each [`Fault`], drawn from disjoint ranges of
/// one roll per line, so they must sum to at most 1000.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultRates {
    pub(crate) seed: u64,
    /// Indexed as [`Fault::ALL`].
    pub(crate) permille: [u64; 4],
    /// The stall inside a [`Fault::PartialWrite`] reply.
    pub(crate) stall: Duration,
}

impl FaultRates {
    /// The fault (if any) for one request line, newline stripped: FNV-1a
    /// over the bytes, scrambled with the seed through SplitMix64. The
    /// same line under the same seed always draws the same fault.
    pub(crate) fn decide(&self, line: &str) -> Option<Fault> {
        let hash = line.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        let roll = splitmix64(self.seed ^ hash) % 1000;
        let mut edge = 0;
        Fault::ALL.into_iter().zip(self.permille).find_map(|(fault, rate)| {
            edge += rate;
            (roll < edge).then_some(fault)
        })
    }
}

/// The [`Fault::Garble`] transformation: every other character becomes
/// `#`, which breaks the verb while keeping the line valid UTF-8.
pub(crate) fn garble(line: &str) -> String {
    line.chars()
        .enumerate()
        .map(|(i, c)| if i % 2 == 0 { '#' } else { c })
        .collect()
}
