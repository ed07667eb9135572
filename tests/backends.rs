//! Cross-backend equivalence properties for the multi-backend simulator.
//!
//! The backend subsystem's contract (DESIGN.md §4i) is that every engine
//! agrees with the dense statevector oracle on the domains where they
//! overlap:
//!
//! - the stabilizer tableau reproduces the dense noisy `Counts`
//!   bit-for-bit on Clifford circuits (shared trajectory draw discipline
//!   plus aligned dyadic shot sampling),
//! - the sparse statevector reproduces dense *amplitudes* bit-for-bit
//!   (it runs the same kernel arithmetic over a map instead of an array),
//! - and the dispatcher's choice is unobservable: forcing any eligible
//!   backend yields the same `Counts` as `Auto`.

use proptest::prelude::*;
use std::f64::consts::FRAC_PI_2;

use qcs::calibration::NoiseProfile;
use qcs::circuit::Circuit;
use qcs::sim::{
    sparse_amplitudes, BackendChoice, BackendKind, Complex, NoisySimulator, Statevector,
};
use qcs::topology::families;

/// Build a random all-Clifford circuit from a gate-op script. Rotation
/// angles are exact `k · π/2` multiples computed the same way the
/// classifier matches them, so every instruction classifies as Clifford.
fn clifford_circuit(width: usize, ops: &[(u8, usize, usize, u8)]) -> Circuit {
    let mut c = Circuit::new(width);
    for &(kind, a, b, k) in ops {
        let a = a % width;
        let mut b = b % width;
        if b == a {
            b = (b + 1) % width;
        }
        let theta = f64::from(i32::from(k) - 8) * FRAC_PI_2;
        match kind {
            0 => {
                c.h(a);
            }
            1 => {
                c.x(a);
            }
            2 => {
                c.y(a);
            }
            3 => {
                c.s(a);
            }
            4 => {
                c.rz(theta, a);
            }
            5 => {
                c.rx(theta, a);
            }
            6 => {
                c.ry(theta, a);
            }
            7 if width > 1 => {
                c.cx(a, b);
            }
            8 if width > 1 => {
                c.cz(a, b);
            }
            9 if width > 1 => {
                c.swap(a, b);
            }
            _ => {
                c.z(a);
            }
        }
    }
    c.measure_all();
    c
}

/// Build a random general (not necessarily Clifford) circuit: the same
/// op alphabet plus T gates and arbitrary-angle rotations/phases.
fn general_circuit(width: usize, ops: &[(u8, usize, usize, f64)], measure: bool) -> Circuit {
    let mut c = Circuit::new(width);
    for &(kind, a, b, theta) in ops {
        let a = a % width;
        let mut b = b % width;
        if b == a {
            b = (b + 1) % width;
        }
        match kind {
            0 => {
                c.h(a);
            }
            1 => {
                c.x(a);
            }
            2 => {
                c.t(a);
            }
            3 => {
                c.rz(theta, a);
            }
            4 => {
                c.rx(theta, a);
            }
            5 => {
                c.ry(theta, a);
            }
            6 if width > 1 => {
                c.cx(a, b);
            }
            7 if width > 1 => {
                c.cz(a, b);
            }
            8 if width > 1 => {
                c.cp(theta, a, b);
            }
            9 if width > 1 => {
                c.swap(a, b);
            }
            _ => {
                c.s(a);
            }
        }
    }
    if measure {
        c.measure_all();
    }
    c
}

/// A calibration snapshot over a complete graph of `width` qubits, with
/// gate/readout error rates scaled by one of three regimes (weak,
/// nominal, strong).
fn noisy_snapshot(
    width: usize,
    seed: u64,
    scale_pick: u8,
) -> qcs::calibration::CalibrationSnapshot {
    let scale = [0.2, 1.0, 6.0][scale_pick as usize % 3];
    NoiseProfile::with_seed(seed ^ 0xBEEF)
        .scaled_errors(scale)
        .snapshot(&families::complete(width), 0)
}

/// A simulator with a fixed trajectory count; decoherence stays off
/// (the analytic damping pass is a dense-only feature, so enabling it
/// would make the forced tableau/sparse runs unsupported by design).
fn simulator(seed: u64, threads: usize) -> NoisySimulator {
    let sim = NoisySimulator {
        trajectories: 3,
        seed,
        ..NoisySimulator::default()
    };
    sim.with_threads(threads)
}

#[test]
fn dispatcher_choice_is_unobservable_at_width_zero() {
    // The properties below draw widths from 1: an empty register has no
    // instructions (so it is Clifford and every engine is eligible) and
    // every engine must answer `shots` x the zero word.
    let circuit = Circuit::new(0);
    let snap = noisy_snapshot(2, 7, 1);
    let auto = simulator(7, 1).run(&circuit, &snap, 160).unwrap();
    assert_eq!(auto.count(0), 160);
    for kind in [
        BackendKind::Dense,
        BackendKind::Stabilizer,
        BackendKind::Sparse,
    ] {
        let forced = simulator(7, 1)
            .with_backend(BackendChoice::Force(kind))
            .run(&circuit, &snap, 160)
            .unwrap();
        assert_eq!(auto, forced, "forced {kind} diverged from Auto");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn stabilizer_counts_match_dense(
        width in 1usize..21,
        ops in proptest::collection::vec((0u8..11, 0usize..20, 0usize..20, 0u8..17), 1..40),
        seed in 0u64..10_000,
        scale_pick in 0u8..3,
        threads in 1usize..4,
    ) {
        // The headline tentpole property: on its native Clifford domain
        // the tableau backend reproduces the dense noisy Counts
        // bit-for-bit — same Pauli trajectories, same shot draws, same
        // readout flips — at every thread count.
        let circuit = clifford_circuit(width, &ops);
        let snap = noisy_snapshot(width, seed, scale_pick);
        let dense = simulator(seed, threads)
            .with_backend(BackendChoice::Force(BackendKind::Dense))
            .run(&circuit, &snap, 192)
            .unwrap();
        let stab = simulator(seed, threads)
            .with_backend(BackendChoice::Force(BackendKind::Stabilizer))
            .run(&circuit, &snap, 192)
            .unwrap();
        prop_assert_eq!(&dense, &stab);
    }

    #[test]
    fn sparse_amplitudes_match_dense_bit_for_bit(
        width in 1usize..11,
        ops in proptest::collection::vec((0u8..11, 0usize..10, 0usize..10, -3.0f64..3.0), 1..30),
    ) {
        // The sparse engine performs the exact same float operations as
        // the dense sweep, just over a map — so its amplitudes must be
        // bitwise equal wherever dense is nonzero, and absent exactly
        // where dense holds (±)0.
        let circuit = general_circuit(width, &ops, false);
        let sparse = sparse_amplitudes(&circuit).unwrap();
        let dense = Statevector::from_circuit(&circuit).unwrap();
        let mut rebuilt = vec![Complex::ZERO; 1 << width];
        for &(basis, amp) in &sparse {
            prop_assert!(
                amp.re != 0.0 || amp.im != 0.0,
                "sparse state stored an exact zero at basis {}", basis
            );
            rebuilt[basis as usize] = amp;
        }
        // Complex PartialEq treats -0.0 == 0.0, which is exactly the
        // freedom the sparse representation claims (it never stores
        // signed zeros); every other amplitude must match bitwise.
        prop_assert_eq!(dense.amps(), &rebuilt[..]);
    }

    #[test]
    fn dispatcher_choice_is_unobservable_on_cliffords(
        width in 1usize..11,
        ops in proptest::collection::vec((0u8..11, 0usize..10, 0usize..10, 0u8..17), 1..30),
        seed in 0u64..10_000,
        scale_pick in 0u8..3,
    ) {
        // On a noiseless-dispatch-eligible Clifford circuit every engine
        // is eligible; forcing each must reproduce Auto's Counts
        // exactly, so callers cannot observe which backend ran.
        let circuit = clifford_circuit(width, &ops);
        let snap = noisy_snapshot(width, seed, scale_pick);
        let auto = simulator(seed, 1).run(&circuit, &snap, 160).unwrap();
        for kind in [BackendKind::Dense, BackendKind::Stabilizer, BackendKind::Sparse] {
            let forced = simulator(seed, 1)
                .with_backend(BackendChoice::Force(kind))
                .run(&circuit, &snap, 160)
                .unwrap();
            prop_assert_eq!(&auto, &forced, "forced {} diverged from Auto", kind);
        }
    }

    #[test]
    fn sparse_counts_match_dense_beyond_clifford(
        width in 1usize..11,
        ops in proptest::collection::vec((0u8..11, 0usize..10, 0usize..10, -3.0f64..3.0), 1..30),
        seed in 0u64..10_000,
        scale_pick in 0u8..3,
        threads in 1usize..4,
    ) {
        // Sparse is not limited to Cliffords: on arbitrary (small)
        // circuits with noise it must still match the dense Counts
        // bit-for-bit, because both run identical kernel arithmetic and
        // identical sampling over the same RNG stream.
        let circuit = general_circuit(width, &ops, true);
        let snap = noisy_snapshot(width, seed, scale_pick);
        let dense = simulator(seed, threads)
            .with_backend(BackendChoice::Force(BackendKind::Dense))
            .run(&circuit, &snap, 192)
            .unwrap();
        let sparse = simulator(seed, threads)
            .with_backend(BackendChoice::Force(BackendKind::Sparse))
            .run(&circuit, &snap, 192)
            .unwrap();
        prop_assert_eq!(&dense, &sparse);
    }
}
