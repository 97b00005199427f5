//! Source audit of the simulator's event hot path — the landmine
//! discipline from PR 4, extended to the calendar-queue scheduler: every
//! region between `AUDIT:HOT-BEGIN` and `AUDIT:HOT-END` in `engine.rs`,
//! `sched.rs` and `stats.rs` runs once per event (push, channel
//! resolution, send accounting, pop, dispatch), so no allocation-heavy
//! formatting and no string-keyed metric lookups may land there. Metric
//! ids must be interned once (`EngineIds`) and used through the `*_id`
//! fast calls; anything that formats belongs outside the markers (e.g.
//! `render_debug`, trace sinks). Nor may a send walk a keyed table
//! (`TrafficStats` is folded from dense counters when `run` returns) or
//! the scheduler insert into the middle of a vector (a same-window push
//! goes to a heap).
//!
//! Unlike the checker's single-region audit, a source file here may hold
//! *several* audited regions — `engine.rs` brackets the send/push path
//! and the dispatch loop separately, with the (cold, allocating)
//! `render_debug` landmine deliberately between them.

use std::path::Path;

/// Extract every `AUDIT:HOT-BEGIN` .. `AUDIT:HOT-END` region of `file`,
/// returning `(region_source, first_line_number)` pairs.
fn hot_regions(file: &str) -> Vec<(String, usize)> {
    let src_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src").join(file);
    let src = std::fs::read_to_string(&src_path).unwrap_or_else(|e| panic!("read {file}: {e}"));
    let mut regions = Vec::new();
    let mut cursor = 0usize;
    while let Some(rel) = src[cursor..].find("AUDIT:HOT-BEGIN") {
        let marker = cursor + rel;
        // Start after the marker's own comment line — it may name the
        // banned constructs.
        let begin = marker + src[marker..].find('\n').expect("newline after BEGIN") + 1;
        let rel_end = src[begin..]
            .find("AUDIT:HOT-END")
            .unwrap_or_else(|| panic!("{file}: AUDIT:HOT-BEGIN without matching END"));
        let end = begin + rel_end;
        let first_line = src[..begin].lines().count() + 1;
        regions.push((src[begin..end].to_string(), first_line));
        cursor = end + "AUDIT:HOT-END".len();
    }
    assert!(
        !regions.is_empty(),
        "{file} must keep at least one AUDIT:HOT-BEGIN/END region"
    );
    regions
}

#[track_caller]
fn assert_absent(file: &str, region: &str, base: usize, needle: &str, why: &str) {
    for (i, line) in region.lines().enumerate() {
        // Comments may *name* the banned constructs; code may not.
        let code = line.split("//").next().unwrap_or("");
        assert!(
            !code.contains(needle),
            "`{needle}` on the per-event path ({file}:{}): {why}\n  {line}",
            base + i,
        );
    }
}

fn audit_file(file: &str) {
    for (region, base) in hot_regions(file) {
        assert_absent(file, &region, base, "format!", "allocates per event");
        assert_absent(file, &region, base, "to_string", "allocates per event");
        assert_absent(file, &region, base, "String::", "allocates per event");
        // String-keyed registry lookups: the interned-id calls end in `_id`.
        assert_absent(
            file,
            &region,
            base,
            ".key(",
            "metric ids are interned once in EngineIds",
        );
        assert_absent(file, &region, base, ".counter(", "use counter_id");
        assert_absent(file, &region, base, ".inc(", "use inc_id");
        assert_absent(file, &region, base, ".add(", "use add_id");
        assert_absent(file, &region, base, ".set_gauge(", "use set_gauge_id");
        assert_absent(file, &region, base, ".gauge_max(", "use gauge_max_id");
        assert_absent(file, &region, base, ".observe(", "use observe_id");
        // HashMap lookups keyed by (from, to) were the pre-PR-9 channel
        // path; the dense adjacency table replaced them.
        assert_absent(
            file,
            &region,
            base,
            "HashMap",
            "channel lookups go through the dense adjacency table",
        );
        assert_absent(
            file,
            &region,
            base,
            "BTreeMap",
            "sends are counted by dense channel index and folded after the run",
        );
        assert_absent(file, &region, base, ".entry(", "keyed-table walk per event");
        // A same-window push used to be a positional `Vec::insert` into
        // the sorted live batch: O(batch) per push on a wide window.
        assert_absent(
            file,
            &region,
            base,
            ".insert(",
            "keyed-table walk, or shifts the rest of a vector",
        );
    }
}

#[test]
fn engine_event_path_never_formats_or_resolves_metric_names() {
    audit_file("engine.rs");
}

#[test]
fn scheduler_never_formats_or_resolves_metric_names() {
    audit_file("sched.rs");
}

#[test]
fn send_accounting_never_walks_a_keyed_table() {
    audit_file("stats.rs");
}

#[test]
fn audited_regions_cover_the_event_entry_points() {
    let engine: String = hot_regions("engine.rs")
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    for must_have in ["fn push", "fn channel_index", "fn send", "fn count_send"] {
        assert!(
            engine.contains(must_have),
            "`{must_have}` moved outside the audited engine regions — move the marker with it"
        );
    }
    assert!(
        engine.contains("loop {"),
        "the dispatch loop moved outside the audited engine regions"
    );

    let sched: String = hot_regions("sched.rs")
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    for must_have in ["fn push", "fn pop", "fn peek", "fn prepare", "fn promote"] {
        assert!(
            sched.contains(must_have),
            "`{must_have}` moved outside the audited sched region — move the marker with it"
        );
    }

    let stats: String = hot_regions("stats.rs")
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    assert!(
        stats.contains("fn on_send"),
        "`fn on_send` moved outside the audited stats region — move the marker with it"
    );
}

#[test]
fn engine_keeps_the_cold_debug_landmine_outside_the_regions() {
    // `render_debug` is the deliberate allocating landmine between the
    // two engine regions: it must exist, and must NOT be audited (it
    // formats by design, and the audit would fail if it slipped inside).
    let src_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/engine.rs");
    let src = std::fs::read_to_string(src_path).expect("read engine.rs");
    assert!(
        src.contains("fn render_debug"),
        "the render_debug landmine disappeared from engine.rs"
    );
    let audited: String = hot_regions("engine.rs")
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    assert!(
        !audited.contains("fn render_debug"),
        "render_debug is allocating by design and must stay outside AUDIT regions"
    );
}
