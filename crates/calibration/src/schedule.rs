//! Calibration cycle timing.
//!
//! IBM machines "are usually calibrated once a day, likely around
//! 12:00am–2:00am" (paper §V-D). A [`CalibrationSchedule`] maps virtual
//! study time (hours since study start) to calibration cycle indices and
//! answers the Fig 12a question: did a job's queuing span a calibration
//! boundary between compile time and execute time?

/// Daily calibration schedule for one machine.
///
/// Time is measured in hours since the study epoch; day 0 starts at t = 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSchedule {
    /// Hour-of-day at which recalibration completes (e.g. 1.5 = 01:30).
    pub calibration_hour: f64,
    /// Hours between calibrations (24 for daily).
    pub period_hours: f64,
}

impl Default for CalibrationSchedule {
    fn default() -> Self {
        CalibrationSchedule {
            calibration_hour: 1.5,
            period_hours: 24.0,
        }
    }
}

impl CalibrationSchedule {
    /// A daily schedule calibrating at the given hour-of-day.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= hour < 24`.
    #[must_use]
    pub fn daily_at(hour: f64) -> Self {
        assert!((0.0..24.0).contains(&hour), "hour must be in [0, 24)");
        CalibrationSchedule {
            calibration_hour: hour,
            period_hours: 24.0,
        }
    }

    /// The calibration cycle in effect at time `t_hours`.
    ///
    /// Cycle `k` is in effect from the k-th calibration until the next.
    /// Times before the very first calibration report cycle 0 (the machine
    /// boots with an initial calibration).
    #[must_use]
    pub fn cycle_at(&self, t_hours: f64) -> u64 {
        let shifted = t_hours - self.calibration_hour;
        if shifted < 0.0 {
            return 0;
        }
        // The cast is `floor` here: a non-negative quotient truncates to
        // its floor, and a negative or NaN one saturates to 0 either way.
        // It runs twice per dispatch, and an x86-64 baseline build has no
        // `floor` instruction (SSE4.1) and calls a software one.
        (shifted / self.period_hours) as u64 + 1
    }

    /// Time (hours) of the most recent calibration at or before `t_hours`;
    /// `0.0` before the first calibration.
    #[must_use]
    pub fn last_calibration(&self, t_hours: f64) -> f64 {
        let cycle = self.cycle_at(t_hours);
        if cycle == 0 {
            0.0
        } else {
            self.calibration_hour + (cycle - 1) as f64 * self.period_hours
        }
    }

    /// Hours elapsed since the last calibration — the drift age used by
    /// [`crate::NoiseProfile::drifted_snapshot`].
    #[must_use]
    pub fn hours_since_calibration(&self, t_hours: f64) -> f64 {
        (t_hours - self.last_calibration(t_hours)).max(0.0)
    }

    /// Whether a calibration ran strictly between `t_compile` and
    /// `t_execute` — i.e. the compiled circuit is stale at execution (the
    /// paper estimates this affects > 20 % of jobs, Fig 12a).
    #[must_use]
    pub fn crossover(&self, t_compile_hours: f64, t_execute_hours: f64) -> bool {
        if t_execute_hours <= t_compile_hours {
            return false;
        }
        self.cycle_at(t_compile_hours) != self.cycle_at(t_execute_hours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_advance_daily() {
        let s = CalibrationSchedule::daily_at(1.5);
        assert_eq!(s.cycle_at(0.0), 0);
        assert_eq!(s.cycle_at(1.0), 0);
        assert_eq!(s.cycle_at(2.0), 1);
        assert_eq!(s.cycle_at(25.0), 1);
        assert_eq!(s.cycle_at(26.0), 2);
        assert_eq!(s.cycle_at(24.0 * 10.0 + 2.0), 11);
    }

    #[test]
    fn last_calibration_times() {
        let s = CalibrationSchedule::daily_at(1.5);
        assert_eq!(s.last_calibration(1.0), 0.0);
        assert!((s.last_calibration(5.0) - 1.5).abs() < 1e-12);
        assert!((s.last_calibration(30.0) - 25.5).abs() < 1e-12);
    }

    #[test]
    fn drift_age() {
        let s = CalibrationSchedule::daily_at(1.0);
        assert!((s.hours_since_calibration(13.0) - 12.0).abs() < 1e-12);
        assert!((s.hours_since_calibration(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn crossover_detection() {
        let s = CalibrationSchedule::daily_at(1.5);
        // Compile at 23:00, execute at 03:00 next day: crosses.
        assert!(s.crossover(23.0, 27.0));
        // Compile and execute within the same cycle: no crossing.
        assert!(!s.crossover(3.0, 20.0));
        // Degenerate interval.
        assert!(!s.crossover(10.0, 10.0));
        assert!(!s.crossover(10.0, 9.0));
    }

    #[test]
    fn exact_boundary_counts_as_new_cycle() {
        let s = CalibrationSchedule::daily_at(2.0);
        assert_eq!(s.cycle_at(2.0), 1);
        assert!(s.crossover(1.9, 2.0));
    }

    #[test]
    fn cycle_cast_is_the_floor() {
        let schedules = [
            CalibrationSchedule::daily_at(0.0),
            CalibrationSchedule::daily_at(1.5),
            CalibrationSchedule {
                calibration_hour: 0.0,
                period_hours: 1.0,
            },
            CalibrationSchedule {
                calibration_hour: 0.0,
                period_hours: -24.0,
            },
            CalibrationSchedule {
                calibration_hour: 0.0,
                period_hours: f64::INFINITY,
            },
            CalibrationSchedule {
                calibration_hour: 0.0,
                period_hours: f64::NAN,
            },
        ];
        let mut times = vec![
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            -0.5,
            -1.0,
            -1.5,
            1e300,
        ];
        let wholes: [f64; 8] = [1.0, 2.0, 24.0, 25.5, 48.0, 1e6, 1e15, 1e18];
        for whole in wholes {
            times.extend([whole, whole.next_down(), whole.next_up()]);
        }
        for s in schedules {
            for &t in &times {
                let quotient = (t - s.calibration_hour) / s.period_hours;
                if quotient.floor() >= u64::MAX as f64 {
                    continue; // `+ 1` overflows with `floor` too
                }
                let floored = if t - s.calibration_hour < 0.0 {
                    0
                } else {
                    quotient.floor() as u64 + 1
                };
                assert_eq!(s.cycle_at(t), floored, "{s:?} at {t:e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "hour must be in")]
    fn invalid_hour_rejected() {
        let _ = CalibrationSchedule::daily_at(24.0);
    }
}
