//! Machine maintenance / outage windows.
//!
//! Real cloud machines go offline for recalibration, upgrades, and faults;
//! jobs keep arriving while the machine is down, producing the day-plus
//! queue-time tail the paper observes (Fig 3: ~10 % of jobs waited a day
//! or longer). The simulator pauses a machine's dispatch during its
//! windows (in-flight jobs finish).

use qcs_calibration::distributions::lognormal_with_cov;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outage windows for every machine of a fleet, as
/// `(start_s, end_s)` pairs sorted by start.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutagePlan {
    windows: Vec<Vec<(f64, f64)>>,
}

impl OutagePlan {
    /// No outages for `machines` machines.
    #[must_use]
    pub fn none(machines: usize) -> Self {
        OutagePlan {
            windows: vec![Vec::new(); machines],
        }
    }

    /// Build from explicit windows (one vector per machine; each window is
    /// `(start_s, end_s)` with `start < end`).
    ///
    /// # Panics
    ///
    /// Panics if a window is inverted.
    #[must_use]
    pub fn from_windows(windows: Vec<Vec<(f64, f64)>>) -> Self {
        for machine_windows in &windows {
            for &(start, end) in machine_windows {
                assert!(start < end, "inverted outage window {start}..{end}");
            }
        }
        let mut windows = windows;
        for w in &mut windows {
            w.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        OutagePlan { windows }
    }

    /// Sample a realistic maintenance plan: each machine goes down roughly
    /// every `mean_interval_days` for a lognormal duration with the given
    /// mean (hours).
    #[must_use]
    pub fn sample(
        machines: usize,
        days: f64,
        mean_interval_days: f64,
        mean_duration_hours: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut windows = Vec::with_capacity(machines);
        for _ in 0..machines {
            let mut machine_windows = Vec::new();
            let mut t_days = 0.0;
            loop {
                // Exponential inter-outage gap.
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                t_days += -mean_interval_days * u.ln();
                if t_days >= days {
                    break;
                }
                let duration_h = lognormal_with_cov(&mut rng, mean_duration_hours, 0.8);
                let start = t_days * 86_400.0;
                machine_windows.push((start, start + duration_h * 3600.0));
            }
            windows.push(machine_windows);
        }
        OutagePlan { windows }
    }

    /// Number of machines covered.
    #[must_use]
    pub fn num_machines(&self) -> usize {
        self.windows.len()
    }

    /// The windows of one machine.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range.
    #[must_use]
    pub fn windows(&self, machine: usize) -> &[(f64, f64)] {
        &self.windows[machine]
    }

    /// If `machine` is down at `t_s`, the end time of the covering window.
    #[must_use]
    pub fn down_until(&self, machine: usize, t_s: f64) -> Option<f64> {
        self.down_until_from(machine, t_s, &mut 0)
    }

    /// [`down_until`](Self::down_until) for a caller whose query times
    /// never decrease: `cursor` (start it at 0) skips the leading windows
    /// that ended at or before an earlier query, so a run over a machine's
    /// whole plan scans each window about once. A window that ends at or
    /// before `t_s` cannot cover it or any later time.
    #[must_use]
    pub fn down_until_from(&self, machine: usize, t_s: f64, cursor: &mut usize) -> Option<f64> {
        let windows = self.windows.get(machine)?;
        while windows.get(*cursor).is_some_and(|&(_, end)| end <= t_s) {
            *cursor += 1;
        }
        windows[*cursor..]
            .iter()
            .take_while(|&&(start, _)| start <= t_s)
            .find(|&&(_, end)| t_s < end)
            .map(|&(_, end)| end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Total downtime of a machine, seconds.
    fn downtime_s(plan: &OutagePlan, machine: usize) -> f64 {
        plan.windows(machine)
            .iter()
            .map(|&(start, end)| end - start)
            .sum()
    }

    #[test]
    fn none_has_no_downtime() {
        let plan = OutagePlan::none(3);
        assert_eq!(plan.num_machines(), 3);
        assert_eq!(plan.down_until(0, 100.0), None);
        assert_eq!(downtime_s(&plan, 1), 0.0);
    }

    #[test]
    fn explicit_windows_query() {
        let plan = OutagePlan::from_windows(vec![vec![(100.0, 200.0), (500.0, 600.0)]]);
        assert_eq!(plan.down_until(0, 150.0), Some(200.0));
        assert_eq!(plan.down_until(0, 250.0), None);
        assert_eq!(plan.down_until(0, 500.0), Some(600.0));
        assert_eq!(plan.down_until(0, 600.0), None); // end-exclusive
        assert_eq!(downtime_s(&plan, 0), 200.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Windows and query times on a half-second grid, so windows
        // overlap, touch end to start and nest, and queries land on
        // starts and ends exactly; a zero step repeats a time.
        #[test]
        fn cursor_lookup_is_the_linear_find(
            raw in proptest::collection::vec((0u32..80, 1u32..24), 0..14),
            steps in proptest::collection::vec(0u32..5, 1..120),
        ) {
            let windows: Vec<(f64, f64)> = raw
                .iter()
                .map(|&(start, len)| (f64::from(start) / 2.0, f64::from(start + len) / 2.0))
                .collect();
            let plan = OutagePlan::from_windows(vec![windows]);
            let mut cursor = 0;
            let mut t_s = 0.0;
            for &step in &steps {
                t_s += f64::from(step) / 2.0;
                let linear = plan
                    .windows(0)
                    .iter()
                    .find(|&&(start, end)| start <= t_s && t_s < end)
                    .map(|&(_, end)| end);
                prop_assert_eq!(plan.down_until_from(0, t_s, &mut cursor), linear, "t {}", t_s);
                prop_assert_eq!(plan.down_until(0, t_s), linear, "t {}", t_s);
            }
            prop_assert_eq!(plan.down_until_from(1, t_s, &mut cursor), None);
        }
    }

    #[test]
    #[should_panic(expected = "inverted outage window")]
    fn inverted_window_rejected() {
        let _ = OutagePlan::from_windows(vec![vec![(200.0, 100.0)]]);
    }

    #[test]
    fn sampled_plan_plausible() {
        let plan = OutagePlan::sample(25, 730.0, 21.0, 12.0, 1);
        assert_eq!(plan.num_machines(), 25);
        // Expect roughly 730/21 ~ 35 outages per machine on average.
        let total: usize = (0..25).map(|m| plan.windows(m).len()).sum();
        let avg = total as f64 / 25.0;
        assert!((20.0..55.0).contains(&avg), "avg outages {avg}");
        // Downtime fraction should be modest (~2-4%).
        let down_frac = downtime_s(&plan, 0) / (730.0 * 86_400.0);
        assert!(down_frac < 0.10, "downtime fraction {down_frac}");
        // Windows sorted and within the horizon start.
        for m in 0..25 {
            let w = plan.windows(m);
            assert!(w.windows(2).all(|p| p[0].0 <= p[1].0));
            assert!(w.iter().all(|&(s, _)| s < 730.0 * 86_400.0));
        }
    }

    #[test]
    fn sample_is_deterministic() {
        assert_eq!(
            OutagePlan::sample(5, 100.0, 20.0, 10.0, 9),
            OutagePlan::sample(5, 100.0, 20.0, 10.0, 9)
        );
    }
}
