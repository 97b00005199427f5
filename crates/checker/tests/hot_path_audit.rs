//! Source audit of the monitor's per-op path — the same landmine
//! discipline the simulator's dispatch path follows, pointed at
//! `online.rs`: the region between `AUDIT:HOT-BEGIN` and
//! `AUDIT:HOT-END` runs once per observed op, so no allocation-heavy
//! formatting and no string-keyed metric lookups may land there.
//! Metric ids must be interned once (`MonitorIds`) and used through the
//! `*_id` fast calls; anything that formats belongs in the `#[cold]`
//! violation path below the end marker.
//!
//! Clocks live in flat tables and are joined row to row, so the region
//! also never copies one into a fresh vector (`.clone()`, `.to_vec()`,
//! `.collect`); the rare growth paths (a new chain, a new variable, a
//! new watcher) are `#[cold]` fns below the end marker.

use std::path::Path;

fn hot_region() -> (String, usize) {
    let src_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/online.rs");
    let src = std::fs::read_to_string(&src_path).expect("read online.rs");
    let marker = src
        .find("AUDIT:HOT-BEGIN")
        .expect("online.rs must keep the AUDIT:HOT-BEGIN marker");
    // Start after the marker's own comment line (it names the banned
    // constructs); the closing marker is the *last* occurrence, since
    // the opening comment mentions it too.
    let begin = marker + src[marker..].find('\n').expect("newline") + 1;
    let end = src.rfind("AUDIT:HOT-END").expect("AUDIT:HOT-END marker");
    assert!(begin < end, "markers out of order");
    let first_line = src[..begin].lines().count() + 1;
    (src[begin..end].to_string(), first_line)
}

#[track_caller]
fn assert_absent(region: &str, base: usize, needle: &str, why: &str) {
    for (i, line) in region.lines().enumerate() {
        // Comments may *name* the banned constructs; code may not.
        let code = line.split("//").next().unwrap_or("");
        assert!(
            !code.contains(needle),
            "`{needle}` on the per-op monitor path (online.rs:{}): {why}\n  {line}",
            base + i,
        );
    }
}

#[test]
fn per_op_monitor_path_never_formats_or_resolves_metric_names() {
    let (region, base) = hot_region();
    assert_absent(&region, base, "format!", "allocates per op");
    assert_absent(&region, base, "to_string", "allocates per op");
    assert_absent(&region, base, "String::", "allocates per op");
    // String-keyed registry lookups: the interned-id calls end in `_id`.
    assert_absent(
        &region,
        base,
        ".key(",
        "metric ids are interned once in MonitorIds",
    );
    assert_absent(&region, base, ".counter(", "use counter_id");
    assert_absent(&region, base, ".inc(", "use inc_id");
    assert_absent(&region, base, ".add(", "use add_id");
    assert_absent(&region, base, ".set_gauge(", "use set_gauge_id");
    assert_absent(&region, base, ".gauge_max(", "use gauge_max_id");
    assert_absent(&region, base, ".observe(", "use observe_id");
    assert_absent(
        &region,
        base,
        "\"monitor.",
        "metric names resolve once, not per op",
    );
}

#[test]
fn per_op_monitor_path_never_copies_a_clock_into_a_fresh_vector() {
    let (region, base) = hot_region();
    let why = "clocks are rows of flat tables: join or copy into a row";
    assert_absent(&region, base, ".clone()", why);
    assert_absent(&region, base, ".to_vec()", why);
    assert_absent(&region, base, ".collect", why);
}

#[test]
fn hot_region_covers_the_observe_entry_point() {
    let (region, _) = hot_region();
    for must_have in [
        "fn observe",
        "fn insert_write",
        "fn insert_read",
        "fn apply_rule",
        "fn propagate",
        "fn add_edge_all",
    ] {
        assert!(
            region.contains(must_have),
            "`{must_have}` moved outside the audited hot region — move the marker with it"
        );
    }
}

#[test]
fn growth_paths_sit_below_the_hot_region_as_cold_fns() {
    let src_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/online.rs");
    let src = std::fs::read_to_string(&src_path).expect("read online.rs");
    let end = src.rfind("AUDIT:HOT-END").expect("AUDIT:HOT-END marker");
    for name in [
        "fn new_chain",
        "fn restride",
        "fn new_var",
        "fn create_watcher",
    ] {
        let at = src
            .find(name)
            .unwrap_or_else(|| panic!("online.rs lost `{name}`"));
        assert!(at > end, "`{name}` belongs below AUDIT:HOT-END");
        assert!(
            src[..at].trim_end().ends_with("#[cold]"),
            "`{name}` must be #[cold]"
        );
    }
}
