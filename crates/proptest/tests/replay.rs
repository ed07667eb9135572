//! `PROPTEST_CASE` replay. One test in this binary: it sets the variable,
//! which every property in the process reads.

use std::sync::Mutex;

use proptest::prelude::*;

static SEEN: Mutex<Vec<(u64, Vec<u8>)>> = Mutex::new(Vec::new());

proptest! {
    fn records_its_inputs(x in 0u64..u64::MAX, v in proptest::collection::vec(0u8..255, 0..6)) {
        SEEN.lock().unwrap().push((x, v));
    }

    fn fails_on_some_input(x in 0u32..1000) {
        prop_assert!(x % 7 != 3, "x = {}", x);
    }
}

fn take_seen() -> Vec<(u64, Vec<u8>)> {
    std::mem::take(&mut *SEEN.lock().unwrap())
}

fn failure_message(property: fn()) -> String {
    let payload = std::panic::catch_unwind(property).expect_err("the property must fail");
    payload
        .downcast_ref::<String>()
        .cloned()
        .expect("a formatted message")
}

#[test]
fn a_case_index_replays_that_case_alone() {
    std::env::remove_var("PROPTEST_CASE");
    records_its_inputs();
    let all = take_seen();
    assert_eq!(all.len(), 64);

    std::env::set_var("PROPTEST_CASE", "17");
    records_its_inputs();
    assert_eq!(take_seen(), [all[17].clone()]);

    // Past the case count the stream simply runs on.
    std::env::set_var("PROPTEST_CASE", "90");
    records_its_inputs();
    assert_eq!(take_seen().len(), 1);

    // A failure names the property, its seed and the case; replaying that
    // case fails the same way, on the same input.
    std::env::remove_var("PROPTEST_CASE");
    let failed = failure_message(fails_on_some_input);
    let seed = format!("(seed {:#018x})", proptest::seed_for("fails_on_some_input"));
    assert!(
        failed.starts_with("property fails_on_some_input "),
        "{failed}"
    );
    assert!(failed.contains(&seed), "{failed}");
    let case: u32 = failed
        .split("PROPTEST_CASE=")
        .nth(1)
        .and_then(|rest| rest.split(':').next())
        .and_then(|k| k.parse().ok())
        .expect("the replay variable");
    assert!(
        failed.contains(&format!("failed at case {case};")),
        "{failed}"
    );
    assert!(failed.contains("x = "), "{failed}");

    std::env::set_var("PROPTEST_CASE", case.to_string());
    assert_eq!(failure_message(fails_on_some_input), failed);

    std::env::set_var("PROPTEST_CASE", "first");
    let refused = failure_message(records_its_inputs);
    assert!(
        refused.contains("PROPTEST_CASE must be a case index"),
        "{refused}"
    );
    std::env::remove_var("PROPTEST_CASE");
}
