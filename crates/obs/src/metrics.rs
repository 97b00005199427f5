//! Named counters, gauges and fixed-bucket latency histograms.
//!
//! The registry is the single sink for everything a run counts or times:
//! the sim engine, channels, memory protocols and IS-processes all write
//! here, and [`MetricsRegistry::to_json`] snapshots the lot into one
//! diffable artifact. Names are dot-separated paths
//! (`"engine.events_dispatched"`, `"channel.a0->a1.messages"`); the
//! registry stores them in sorted order so output is deterministic.

use std::collections::BTreeMap;

use crate::json::{Json, ToJson};

/// Default histogram bucket upper bounds, in nanoseconds: a 1-2-5 ladder
/// from 1 µs to 1000 s. Wide enough for every virtual-time latency the
/// simulator produces and for wall-clock check latencies.
const DEFAULT_BOUNDS: [f64; 28] = [
    1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8, 1e9,
    2e9, 5e9, 1e10, 2e10, 5e10, 1e11, 2e11, 5e11, 1e12,
];

/// A fixed-bucket histogram with exact count/sum/min/max and
/// bucket-resolution quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(&DEFAULT_BOUNDS)
    }
}

impl Histogram {
    /// A histogram over the given ascending bucket upper bounds (an
    /// overflow bucket is added implicitly).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (exact), or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (exact), or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) at bucket resolution: the upper
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`, clamped to the exact observed min/max. The
    /// extremes are exact: rank 1 is the tracked min, the last rank the
    /// tracked max. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank == 1 {
            // The first order statistic is the minimum — the bucket's
            // upper bound would overstate it.
            return self.min;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = self.bounds.get(i).copied().unwrap_or(self.max);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// Folds `other` into `self` (cross-shard aggregation).
    ///
    /// Identical bucket layouts merge exactly (bucket-wise addition).
    /// Differing layouts refold each of `other`'s buckets into `self` at
    /// the bucket's representative value (its upper bound, clamped to
    /// `other`'s observed range) — quantiles then carry the coarser of
    /// the two resolutions, while `count`, `sum`, `min` and `max` stay
    /// exact in every case.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.bounds == other.bounds {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
        } else {
            for (i, &c) in other.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let rep = other
                    .bounds
                    .get(i)
                    .copied()
                    .unwrap_or(other.max)
                    .clamp(other.min, other.max);
                let idx = self
                    .bounds
                    .iter()
                    .position(|&b| rep <= b)
                    .unwrap_or(self.bounds.len());
                self.counts[idx] += c;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// JSON snapshot: count, sum, mean, min, max, p50/p95/p99.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("count", self.count.to_json()),
            ("sum", self.sum.to_json()),
            ("mean", self.mean().to_json()),
            ("min", self.min().to_json()),
            ("p50", self.quantile(0.50).to_json()),
            ("p95", self.quantile(0.95).to_json()),
            ("p99", self.quantile(0.99).to_json()),
            ("max", self.max().to_json()),
        ])
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        self.snapshot()
    }
}

/// An interned metric key: a handle returned by
/// [`MetricsRegistry::key`] that turns every subsequent counter bump,
/// gauge update or histogram observation into a plain `Vec` index —
/// no hashing, no tree walk, no string allocation on the hot path.
///
/// Ids are registry-local: a `MetricId` is only meaningful with the
/// registry that issued it (same names interned in the same order yield
/// the same ids, which is what lets cloned registries share handles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(u32);

impl MetricId {
    /// Slot index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A registry of named counters, gauges and histograms.
///
/// Names are interned: [`key`](MetricsRegistry::key) resolves a name to
/// a [`MetricId`] once, and the `*_id` methods are index lookups. The
/// `&str` methods remain as thin compatibility wrappers (resolve, then
/// delegate), so existing call sites and the JSON snapshot are
/// unchanged. A name that was interned but never written does not
/// appear in snapshots — interning is free.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// Name → id, sorted — the sorted iteration order of every snapshot.
    ids: BTreeMap<String, MetricId>,
    /// One slot per id; `None` = interned but never written.
    counters: Vec<Option<u64>>,
    gauges: Vec<Option<f64>>,
    histograms: Vec<Option<Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Resolves `name` to its interned id, interning it on first use.
    /// Interning alone records nothing: the name stays out of snapshots
    /// until a counter/gauge/histogram write touches it.
    pub fn key(&mut self, name: &str) -> MetricId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = MetricId(u32::try_from(self.counters.len()).expect("too many metric names"));
        self.ids.insert(name.to_string(), id);
        self.counters.push(None);
        self.gauges.push(None);
        self.histograms.push(None);
        id
    }

    /// The interned name of `id`, if `id` came from this registry.
    pub fn name(&self, id: MetricId) -> Option<&str> {
        self.ids
            .iter()
            .find(|(_, &i)| i == id)
            .map(|(k, _)| k.as_str())
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        let id = self.key(name);
        self.inc_id(id);
    }

    /// Increments counter `name` by `delta`.
    pub fn add(&mut self, name: &str, delta: u64) {
        let id = self.key(name);
        self.add_id(id, delta);
    }

    /// Increments the counter behind `id` by one (index lookup).
    #[inline]
    pub fn inc_id(&mut self, id: MetricId) {
        self.add_id(id, 1);
    }

    /// Increments the counter behind `id` by `delta` (index lookup).
    #[inline]
    pub fn add_id(&mut self, id: MetricId, delta: u64) {
        let slot = &mut self.counters[id.index()];
        *slot = Some(slot.unwrap_or(0) + delta);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.ids
            .get(name)
            .and_then(|id| self.counters[id.index()])
            .unwrap_or(0)
    }

    /// Current value of the counter behind `id` (0 if never touched).
    pub fn counter_id(&self, id: MetricId) -> u64 {
        self.counters[id.index()].unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.ids
            .iter()
            .filter_map(|(k, id)| self.counters[id.index()].map(|v| (k.as_str(), v)))
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        let id = self.key(name);
        self.set_gauge_id(id, v);
    }

    /// Sets the gauge behind `id` to `v` (index lookup).
    #[inline]
    pub fn set_gauge_id(&mut self, id: MetricId, v: f64) {
        self.gauges[id.index()] = Some(v);
    }

    /// Raises gauge `name` to `v` if `v` is larger (high-water marks).
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        let id = self.key(name);
        self.gauge_max_id(id, v);
    }

    /// Raises the gauge behind `id` to `v` if `v` is larger.
    #[inline]
    pub fn gauge_max_id(&mut self, id: MetricId, v: f64) {
        let slot = &mut self.gauges[id.index()];
        if v > slot.unwrap_or(f64::NEG_INFINITY) {
            *slot = Some(v);
        }
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.ids.get(name).and_then(|id| self.gauges[id.index()])
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.ids
            .iter()
            .filter_map(|(k, id)| self.gauges[id.index()].map(|v| (k.as_str(), v)))
    }

    /// Records `v` into histogram `name` (created on first use with the
    /// default latency buckets).
    pub fn observe(&mut self, name: &str, v: f64) {
        let id = self.key(name);
        self.observe_id(id, v);
    }

    /// Records `v` into the histogram behind `id` (index lookup; the
    /// histogram is created on first observation with the default
    /// latency buckets).
    #[inline]
    pub fn observe_id(&mut self, id: MetricId, v: f64) {
        self.histograms[id.index()]
            .get_or_insert_with(Histogram::default)
            .observe(v);
    }

    /// Histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.ids
            .get(name)
            .and_then(|id| self.histograms[id.index()].as_ref())
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.ids.iter().filter_map(|(k, id)| {
            self.histograms[id.index()]
                .as_ref()
                .map(|h| (k.as_str(), h))
        })
    }

    /// `true` if nothing has been recorded (interned-but-unwritten names
    /// do not count).
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(Option::is_none)
            && self.gauges.iter().all(Option::is_none)
            && self.histograms.iter().all(Option::is_none)
    }

    /// Folds every metric of `other` into `self` (counters add, gauges
    /// take the maximum, histograms merge bucket-wise when shaped alike).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, oid) in &other.ids {
            if let Some(v) = other.counters[oid.index()] {
                self.add(k, v);
            }
            if let Some(v) = other.gauges[oid.index()] {
                self.gauge_max(k, v);
            }
            if let Some(h) = &other.histograms[oid.index()] {
                let id = self.key(k);
                self.histograms[id.index()]
                    .get_or_insert_with(|| Histogram::new(&h.bounds))
                    .merge(h);
            }
        }
    }

    /// JSON snapshot of the whole registry:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters()
                        .map(|(k, v)| (k.to_string(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges()
                        .map(|(k, v)| (k.to_string(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms()
                        .map(|(k, h)| (k.to_string(), h.snapshot()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Logical equality: two registries are equal when they record the same
/// values under the same names, regardless of interning order.
impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.counters().eq(other.counters())
            && self.gauges().eq(other.gauges())
            && self.histograms().eq(other.histograms())
    }
}

impl ToJson for MetricsRegistry {
    fn to_json(&self) -> Json {
        self.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.inc("x");
        m.add("x", 4);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counters().collect::<Vec<_>>(), vec![("x", 5)]);
    }

    #[test]
    fn gauges_set_and_high_water() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("depth", 3.0);
        m.gauge_max("depth", 1.0);
        assert_eq!(m.gauge("depth"), Some(3.0));
        m.gauge_max("depth", 7.0);
        assert_eq!(m.gauge("depth"), Some(7.0));
    }

    #[test]
    fn histogram_quantiles_on_a_known_distribution() {
        // 100 observations: 1µs..100µs in 1µs steps (nanoseconds).
        let mut h = Histogram::default();
        for i in 1..=100 {
            h.observe(i as f64 * 1e3);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1e3);
        assert_eq!(h.max(), 1e5);
        assert!((h.mean() - 50.5e3).abs() < 1.0);
        // p50 → rank 50 → the (..=50µs] bucket; p99 → rank 99 → (..=100µs].
        assert_eq!(h.quantile(0.50), 5e4);
        assert_eq!(h.quantile(0.99), 1e5);
        // p100 is the exact max even though the bucket bound is higher.
        assert_eq!(h.quantile(1.0), 1e5);
    }

    #[test]
    fn histogram_single_value_is_exact_everywhere() {
        let mut h = Histogram::default();
        h.observe(1234.0);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 1234.0, "q={q}");
        }
    }

    #[test]
    fn histogram_overflow_bucket_reports_max() {
        let mut h = Histogram::new(&[10.0, 20.0]);
        h.observe(5.0);
        h.observe(1000.0);
        assert_eq!(h.quantile(1.0), 1000.0);
        // Rank 1 is the exact minimum, not its bucket's upper bound.
        assert_eq!(h.quantile(0.25), 5.0);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero_at_every_q() {
        let h = Histogram::default();
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.0, "q={q}");
        }
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn exact_bucket_boundary_values_land_in_their_bucket() {
        // A value equal to a bound belongs to that bound's bucket
        // (observe uses v <= b), so the quantile readout is exact for
        // boundary observations — no off-by-one into the next bucket.
        let mut h = Histogram::new(&[10.0, 20.0, 50.0]);
        h.observe(10.0);
        h.observe(20.0);
        h.observe(50.0);
        assert_eq!(h.count(), 3);
        // rank 1 → (..=10], rank 2 → (..=20], rank 3 → (..=50].
        assert_eq!(h.quantile(1.0 / 3.0), 10.0);
        assert_eq!(h.quantile(2.0 / 3.0), 20.0);
        assert_eq!(h.quantile(1.0), 50.0);
    }

    #[test]
    fn quantile_rank_one_is_the_exact_min() {
        let mut h = Histogram::new(&[10.0, 20.0]);
        h.observe(7.0);
        h.observe(15.0);
        // q=0 and q=0.5 both rank the first of two observations — the
        // exact minimum, not its bucket's upper bound (10).
        assert_eq!(h.quantile(0.0), 7.0);
        assert_eq!(h.quantile(0.5), 7.0);
        assert_eq!(h.quantile(0.75), 15.0);
        assert_eq!(h.quantile(1.0), 15.0);
    }

    #[test]
    fn single_sample_on_a_boundary_is_exact_everywhere() {
        let mut h = Histogram::new(&[10.0, 20.0]);
        h.observe(20.0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 20.0, "q={q}");
        }
        assert_eq!((h.min(), h.max(), h.mean()), (20.0, 20.0, 20.0));
    }

    #[test]
    fn quantiles_are_monotonic_in_q() {
        let mut h = Histogram::default();
        for v in [500.0, 1e3, 1.5e3, 2e3, 7e3, 1e4, 3e5, 1e13] {
            h.observe(v);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        for w in qs.windows(2) {
            assert!(
                h.quantile(w[0]) <= h.quantile(w[1]),
                "quantile not monotonic between q={} and q={}",
                w[0],
                w[1]
            );
        }
        // Overflow-bucket observation caps at the exact max.
        assert_eq!(h.quantile(1.0), 1e13);
        // Below-first-bound observation clamps to the exact min.
        assert_eq!(h.quantile(0.0), 500.0);
    }

    #[test]
    fn merge_combines_counters_gauges_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add("n", 2);
        b.add("n", 3);
        b.add("only_b", 1);
        a.set_gauge("g", 1.0);
        b.set_gauge("g", 4.0);
        a.observe("h", 1e3);
        b.observe("h", 2e3);
        a.merge(&b);
        assert_eq!(a.counter("n"), 5);
        assert_eq!(a.counter("only_b"), 1);
        assert_eq!(a.gauge("g"), Some(4.0));
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 2e3);
    }

    #[test]
    fn merging_an_empty_histogram_is_a_no_op() {
        let mut a = Histogram::default();
        a.observe(5e3);
        let before = a.clone();
        a.merge(&Histogram::default());
        assert_eq!(a, before);
        // And merging into an empty histogram copies the other exactly.
        let mut empty = Histogram::default();
        empty.merge(&before);
        assert_eq!(empty, before);
        assert_eq!(empty.min(), 5e3);
        assert_eq!(empty.max(), 5e3);
    }

    #[test]
    fn same_bounds_merge_is_exact_bucketwise() {
        let mut a = Histogram::new(&[10.0, 20.0, 50.0]);
        let mut b = Histogram::new(&[10.0, 20.0, 50.0]);
        for v in [5.0, 15.0, 45.0] {
            a.observe(v);
        }
        for v in [8.0, 18.0, 1000.0] {
            b.observe(v);
        }
        a.merge(&b);
        // Equivalent to observing all six values in one histogram.
        let mut all = Histogram::new(&[10.0, 20.0, 50.0]);
        for v in [5.0, 15.0, 45.0, 8.0, 18.0, 1000.0] {
            all.observe(v);
        }
        assert_eq!(a, all);
        assert_eq!(a.count(), 6);
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.quantile(1.0), 1000.0);
    }

    #[test]
    fn differing_bounds_merge_keeps_exact_aggregates() {
        let mut coarse = Histogram::new(&[100.0, 1000.0]);
        let mut fine = Histogram::new(&[10.0, 20.0, 50.0, 500.0]);
        coarse.observe(80.0);
        for v in [5.0, 15.0, 400.0, 9000.0] {
            fine.observe(v);
        }
        coarse.merge(&fine);
        assert_eq!(coarse.count(), 5);
        assert_eq!(coarse.sum(), 80.0 + 5.0 + 15.0 + 400.0 + 9000.0);
        assert_eq!(coarse.min(), 5.0);
        assert_eq!(coarse.max(), 9000.0);
        // Refolded buckets land where their representative value falls:
        // 5 and 15 (bounds 10, 20) → (..=100]; 400 (bound 500) → (..=1000];
        // 9000 (overflow, clamped to max) → overflow.
        assert_eq!(coarse.quantile(0.0), 5.0);
        assert_eq!(coarse.quantile(1.0), 9000.0);
    }

    #[test]
    fn merged_quantiles_are_stable_at_bucket_resolution() {
        // Splitting one observation stream across two histograms and
        // merging must yield the same quantiles as observing the whole
        // stream in one histogram (same bounds → exact merge).
        let mut whole = Histogram::default();
        let mut left = Histogram::default();
        let mut right = Histogram::default();
        for i in 1..=1000u64 {
            let v = (i * 977 % 100_000) as f64 + 1.0;
            whole.observe(v);
            if i % 2 == 0 {
                left.observe(v);
            } else {
                right.observe(v);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.sum(), whole.sum());
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(left.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn registry_merge_uses_histogram_merge_across_bounds() {
        // Registry merge no longer silently drops histograms with a
        // different bucket layout — counts and sums survive.
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.observe("h", 1e3);
        let mut custom = Histogram::new(&[10.0]);
        custom.observe(5.0);
        let id = b.key("h");
        b.histograms[id.index()] = Some(custom);
        a.merge(&b);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 5.0);
        assert_eq!(h.max(), 1e3);
    }

    #[test]
    fn interned_and_str_apis_agree() {
        let mut m = MetricsRegistry::new();
        let id = m.key("events");
        assert_eq!(m.key("events"), id, "key() is idempotent");
        m.inc_id(id);
        m.inc("events");
        m.add_id(id, 3);
        assert_eq!(m.counter("events"), 5);
        assert_eq!(m.counter_id(id), 5);
        assert_eq!(m.name(id), Some("events"));
        let g = m.key("depth");
        m.gauge_max_id(g, 2.0);
        m.gauge_max("depth", 1.0);
        assert_eq!(m.gauge("depth"), Some(2.0));
        m.set_gauge_id(g, 0.5);
        assert_eq!(m.gauge("depth"), Some(0.5));
        let h = m.key("lat");
        m.observe_id(h, 1e3);
        m.observe("lat", 2e3);
        assert_eq!(m.histogram("lat").unwrap().count(), 2);
    }

    #[test]
    fn interning_alone_records_nothing() {
        let mut m = MetricsRegistry::new();
        let _ = m.key("channel.a0->a1.dropped");
        let _ = m.key("zzz.gauge");
        assert!(m.is_empty());
        assert_eq!(m.counters().count(), 0);
        // The snapshot of a registry with only interned names is the
        // empty snapshot — pre-resolving keys can never change output.
        assert_eq!(m.snapshot(), MetricsRegistry::new().snapshot());
        assert_eq!(m, MetricsRegistry::new());
    }

    #[test]
    fn snapshot_ordering_is_sorted_regardless_of_intern_order() {
        // Intern/write names in reverse order; the snapshot must come
        // out sorted by name exactly as the old BTreeMap layout did.
        let mut m = MetricsRegistry::new();
        for name in ["z.last", "m.middle", "a.first"] {
            m.inc(name);
        }
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
        let json = m.snapshot().to_pretty();
        let (a, z) = (json.find("a.first").unwrap(), json.find("z.last").unwrap());
        assert!(a < z, "JSON members sorted by name");
    }

    #[test]
    fn seeded_randomized_interleaving_of_both_apis() {
        // A SplitMix64-style stream drives a random interleaving of the
        // id and str APIs over the same names; a shadow model using only
        // the str API must end up logically equal.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let names = ["alpha", "beta", "gamma", "delta", "epsilon"];
        let mut fast = MetricsRegistry::new();
        let mut shadow = MetricsRegistry::new();
        let ids: Vec<MetricId> = names.iter().map(|n| fast.key(n)).collect();
        for _ in 0..2000 {
            let r = next();
            let i = (r as usize) % names.len();
            let delta = (r >> 8) % 7;
            match (r >> 32) % 6 {
                0 => {
                    fast.inc_id(ids[i]);
                    shadow.inc(names[i]);
                }
                1 => {
                    fast.inc(names[i]);
                    shadow.inc(names[i]);
                }
                2 => {
                    fast.add_id(ids[i], delta);
                    shadow.add(names[i], delta);
                }
                3 => {
                    fast.gauge_max_id(ids[i], delta as f64);
                    shadow.gauge_max(names[i], delta as f64);
                }
                4 => {
                    fast.observe_id(ids[i], (delta + 1) as f64 * 1e3);
                    shadow.observe(names[i], (delta + 1) as f64 * 1e3);
                }
                _ => {
                    fast.observe(names[i], (delta + 1) as f64 * 1e3);
                    shadow.observe(names[i], (delta + 1) as f64 * 1e3);
                }
            }
        }
        assert_eq!(fast, shadow);
        assert_eq!(
            fast.snapshot().to_pretty(),
            shadow.snapshot().to_pretty(),
            "byte-identical artifacts from either API"
        );
    }

    #[test]
    fn cloned_registry_shares_ids() {
        let mut m = MetricsRegistry::new();
        let id = m.key("n");
        m.inc_id(id);
        let mut c = m.clone();
        c.inc_id(id);
        assert_eq!(c.counter("n"), 2);
        assert_eq!(m.counter("n"), 1);
    }

    #[test]
    fn snapshot_serializes_and_parses() {
        let mut m = MetricsRegistry::new();
        m.add("events", 10);
        m.set_gauge("queue_depth_max", 4.0);
        m.observe("latency_ns", 5e6);
        let json = m.snapshot();
        let parsed = Json::parse(&json.to_pretty()).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("events"))
                .and_then(Json::as_u64),
            Some(10)
        );
        let h = parsed
            .get("histograms")
            .and_then(|h| h.get("latency_ns"))
            .unwrap();
        assert_eq!(h.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(h.get("max").and_then(Json::as_f64), Some(5e6));
    }
}
