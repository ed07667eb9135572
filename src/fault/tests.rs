use super::*;
use crate::gateway::Request;

fn rates(seed: u64, permille: [u64; 4]) -> FaultRates {
    FaultRates {
        seed,
        permille,
        stall: Duration::ZERO,
    }
}

fn noisy_rates() -> FaultRates {
    rates(7, [150; 4])
}

#[test]
fn inactive_plan_never_faults() {
    let rates = rates(7, [0; 4]);
    for i in 0..200 {
        assert_eq!(rates.decide(&format!("SUBMIT 0 1 {i} 1024 20 3")), None);
    }
}

#[test]
fn decisions_are_deterministic_and_content_keyed() {
    let rates = noisy_rates();
    let mut faulted = 0;
    for i in 0..400 {
        let line = format!("SUBMIT 0 1 {i} 1024 20 3");
        let first = rates.decide(&line);
        assert_eq!(first, rates.decide(&line), "decision must be pure");
        faulted += usize::from(first.is_some());
    }
    // 60% aggregate rate over 400 lines: statistically impossible to
    // miss by this much if the hash is sane.
    assert!((160..=320).contains(&faulted), "faulted {faulted}/400");
    // Every kind fires somewhere in a sample this large.
    for fault in Fault::ALL {
        assert!(
            (0..400).any(|i| rates.decide(&format!("SUBMIT 0 1 {i} 1024 20 3")) == Some(fault)),
            "kind {fault:?} never fired"
        );
    }
}

#[test]
fn rates_partition_the_roll_space() {
    // With rates summing to 1000, every line draws some fault.
    let rates = rates(3, [250; 4]);
    for i in 0..100 {
        assert!(rates.decide(&format!("STATUS {i}")).is_some());
    }
}

#[test]
fn garble_is_deterministic_and_breaks_the_verb() {
    let garbled = garble("SUBMIT 0 1 10 1024 20 3");
    assert_eq!(garbled, garble("SUBMIT 0 1 10 1024 20 3"));
    assert!(garbled.starts_with('#'));
    assert!(Request::parse(&garbled).is_err());
}

#[test]
fn seed_changes_the_fault_pattern() {
    let (a, b) = (
        FaultRates {
            seed: 1,
            ..noisy_rates()
        },
        FaultRates {
            seed: 2,
            ..noisy_rates()
        },
    );
    let differs = (0..200).any(|i| {
        let line = format!("CANCEL {i}");
        a.decide(&line) != b.decide(&line)
    });
    assert!(differs, "seed must influence decisions");
}
