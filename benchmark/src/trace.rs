//! In-memory spans around the benchmark's calls across layer boundaries.
//!
//! A span has a name (`<layer>.<what>`), start and end in nanoseconds since
//! the tracer was made, the span that caused it, and the unit it belongs
//! to. A layer's self time is its spans' duration minus what their direct
//! children cover. Spans are recorded only by the traced run; the untraced
//! run takes the same code path with a tracer that is switched off.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

const NO_PARENT: u32 = u32::MAX;

/// The most raw spans a trace file carries; the per-name totals always
/// cover every span.
pub const MAX_SPANS_WRITTEN: usize = 50_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub unit: u32,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    unit: u32,
}

impl Tracer {
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Spans recorded from now on belong to `unit`.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    /// Run `f` inside a span named `name`; spans `f` opens through the
    /// tracer it is handed become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            unit: self.unit,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, nanoseconds, over the units in `units`
    /// (`None` = all).
    pub fn self_time_ns(&self, units: Option<&[u32]>) -> BTreeMap<&'static str, SelfTime> {
        self_time_ns(&self.spans, units)
    }

    /// The trace as JSON: per-name totals over every span plus the first
    /// [`MAX_SPANS_WRITTEN`] raw spans.
    pub fn to_json(&self, workload: &str) -> Json {
        let totals = self.self_time_ns(None);
        Json::obj([
            ("workload", Json::str(workload)),
            ("spans_total", Json::Num(self.spans.len() as f64)),
            (
                "self_time_ns",
                Json::obj(totals.iter().map(|(name, t)| {
                    (
                        *name,
                        Json::obj([
                            ("count", Json::Num(t.count as f64)),
                            ("total_ns", Json::Num(t.total_ns as f64)),
                            ("self_ns", Json::Num(t.self_ns as f64)),
                        ]),
                    )
                })),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .take(MAX_SPANS_WRITTEN)
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    if s.parent == NO_PARENT {
                                        Json::Null
                                    } else {
                                        Json::Num(f64::from(s.parent))
                                    },
                                ),
                                ("unit", Json::Num(f64::from(s.unit))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Count, total and self time of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

fn self_time_ns(spans: &[Span], units: Option<&[u32]>) -> BTreeMap<&'static str, SelfTime> {
    let wanted = |s: &Span| units.is_none_or(|u| u.contains(&s.unit));
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            child_ns[span.parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        if !wanted(span) {
            continue;
        }
        let total = span.end_ns - span.start_ns;
        let entry = by_name.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += total;
        // Children run inside their parent on one thread, so they can never
        // cover more than it; saturate against clock granularity only.
        entry.self_ns += total.saturating_sub(children);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, unit: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            unit,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // unit(0..100) > a(10..60) > b(20..30), and unit > a(70..90).
        let spans = [
            span("unit", 0, 100, NO_PARENT, 0),
            span("a", 10, 60, 0, 0),
            span("b", 20, 30, 1, 0),
            span("a", 70, 90, 0, 0),
            span("unit", 100, 150, NO_PARENT, 1),
        ];
        let all = self_time_ns(&spans, None);
        assert_eq!(
            all["unit"],
            SelfTime {
                count: 2,
                total_ns: 150,
                self_ns: 80
            }
        );
        assert_eq!(
            all["a"],
            SelfTime {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(
            all["b"],
            SelfTime {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        // Self times partition the root spans' wall time.
        let summed: u64 = all.values().map(|t| t.self_ns).sum();
        assert_eq!(summed, 150);
        let first = self_time_ns(&spans, Some(&[0]));
        assert_eq!(
            first["unit"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
    }

    #[test]
    fn tracer_nests_and_the_switched_off_one_records_nothing() {
        let mut tracer = Tracer::on();
        tracer.set_unit(3);
        let out = tracer.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(out, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].unit),
            ("outer", NO_PARENT, 3)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
