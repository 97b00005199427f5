//! `report_digest`: a hash of the report bytes that repeats exactly per
//! `(workload, seed)`.
//!
//! A report is byte-identical across runs except one documented
//! host-wall-clock field, the `monitor.check_latency_ns` histogram of
//! monitored runs. Its object body is skipped; every other byte counts.

/// The one wall-clock member of a run report.
const WALL_CLOCK_KEY: &str = "\"monitor.check_latency_ns\"";

/// FNV-1a (64-bit) folded over `bytes` from state `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of `report` with the body of every `monitor.check_latency_ns`
/// object masked out.
pub fn report_digest(report: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut rest = report;
    while let Some(at) = rest.find(WALL_CLOCK_KEY) {
        let after_key = at + WALL_CLOCK_KEY.len();
        // The histogram snapshot is a flat object of numbers: the first
        // '}' after its '{' closes it.
        let Some(open) = rest[after_key..].find('{').map(|i| after_key + i) else {
            break;
        };
        let Some(close) = rest[open..].find('}').map(|i| open + i) else {
            break;
        };
        h = fnv1a(h, &rest.as_bytes()[..=open]);
        rest = &rest[close..];
    }
    fnv1a(h, rest.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(latency_sum: u64, checked: u64) -> String {
        format!(
            "{{\n  \"monitor\": {{\n    \"ops_checked\": {checked},\n    \"histograms\": {{\n      \
             \"monitor.check_latency_ns\": {{\n        \"count\": 80,\n        \"sum\": \
             {latency_sum}\n      }}\n    }}\n  }},\n  \"tail\": 1\n}}\n"
        )
    }

    #[test]
    fn wall_clock_histogram_is_masked_and_nothing_else() {
        // Different check latencies: same digest.
        assert_eq!(
            report_digest(&report(126_521, 80)),
            report_digest(&report(9, 80))
        );
        // Any other byte: different digest.
        assert_ne!(
            report_digest(&report(126_521, 80)),
            report_digest(&report(126_521, 81))
        );
        assert_ne!(
            report_digest(&report(1, 80)),
            report_digest(&report(1, 80).replace("\"tail\": 1", "\"tail\": 2"))
        );
    }

    #[test]
    fn unmonitored_reports_hash_every_byte() {
        assert_eq!(report_digest(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(report_digest("{\"a\": 1}"), report_digest("{\"a\": 2}"));
    }
}
