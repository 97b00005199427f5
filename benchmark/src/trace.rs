//! Spans recorded by the harness around each call into a layer.
//!
//! Spans live in memory and are written once, at exit, as Chrome
//! trace-event JSON (the family the repo's lineage and telemetry
//! exports use; loadable in Perfetto). A disabled tracer records
//! nothing, which is how the end-to-end metrics are measured.

use std::time::Instant;

use cmi_obs::{Json, ToJson};

/// One timed call: name, start, end, the span that caused it and the
/// repetition it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder with an open-span stack for parent links.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off between repetitions.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled with a span open");
        self.enabled = enabled;
    }

    /// Sets the repetition id stamped on the spans recorded next.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f`; when recording, under a span named `name`, child of
    /// the innermost open span. `f` gets the tracer back so it can open
    /// children. Returns `f`'s result and its seconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start_ns = self.now_ns();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                rep: self.rep,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let result = f(self);
        let end_ns = self.now_ns();
        if let Some(index) = index {
            self.open.pop();
            self.spans[index].end_ns = end_ns;
        }
        (result, (end_ns - start_ns) as f64 / 1e9)
    }

    /// [`timed`](Self::timed) without the seconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.timed(name, f).0
    }

    /// Closes every span a panic left open (at the current instant).
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        for index in self.open.drain(..) {
            self.spans[index].end_ns = now;
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of every span named `name`, in recording order.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Self time of span `index`: its duration minus its direct children.
    pub fn self_seconds(&self, index: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::seconds)
            .sum();
        self.spans[index].seconds() - children
    }

    /// Self seconds of every span named `name`, in recording order.
    pub fn self_seconds_of(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_seconds(i))
            .collect()
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span,
    /// one `tid` per repetition so repetitions stack as separate rows.
    pub fn to_chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("cat", Json::Str(workload.into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", 0u64.to_json()),
                    ("tid", u64::from(s.rep).to_json()),
                    (
                        "args",
                        Json::obj([
                            ("span", (i as u64).to_json()),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| (p as u64).to_json()),
                            ),
                            ("self_us", Json::Num(self.self_seconds(i) * 1e6)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer over hand-placed spans (no clock involved).
    fn fixed(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans;
        t
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90); c is
        // a sibling outside the root.
        let t = fixed(vec![
            span("root", 0, 100_000_000_000, None),
            span("a", 10_000_000_000, 40_000_000_000, Some(0)),
            span("a1", 15_000_000_000, 25_000_000_000, Some(1)),
            span("b", 50_000_000_000, 90_000_000_000, Some(0)),
            span("c", 100_000_000_000, 130_000_000_000, None),
        ]);
        assert_eq!(t.self_seconds(0), 30.0); // 100 − (30 + 40); a1 not double-counted
        assert_eq!(t.self_seconds(1), 20.0); // 30 − 10
        assert_eq!(t.self_seconds(2), 10.0);
        assert_eq!(t.self_seconds(4), 30.0); // sibling: untouched by root's children
        assert_eq!(t.self_seconds_of("root"), vec![30.0]);
    }

    #[test]
    fn nesting_links_parents_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        let got = t.span("root", |t| {
            t.span("child", |_| 1) + t.span("child", |t| t.span("leaf", |_| 2))
        });
        assert_eq!(got, 3);
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("root", None),
                ("child", Some(0)),
                ("child", Some(0)),
                ("leaf", Some(2))
            ]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert_eq!(t.seconds_of("child").len(), 2);

        t.set_enabled(false);
        assert_eq!(t.span("off", |_| 7), 7);
        assert_eq!(t.spans().len(), 4);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let t = fixed(vec![
            span("e2e", 0, 2_000, None),
            span("core.run.run_s", 500, 1_500, Some(0)),
        ]);
        let json = Json::parse(&t.to_chrome_trace("w").to_pretty()).unwrap();
        let events = json.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("ts").unwrap().as_f64(), Some(0.5));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(1.0));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(0));
    }
}
