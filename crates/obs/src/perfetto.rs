//! Chrome-trace/Perfetto export of the recorded region spans.
//!
//! Emits the Chrome Trace Event JSON object format (`traceEvents` + metadata)
//! that both `chrome://tracing` and <https://ui.perfetto.dev> load directly.
//! The simulator has no wall clock, so the trace timebase is **one trace
//! microsecond per simulated cycle** — durations read as cycle counts.

use crate::{escape_json, TimelineBuilder};
use lsv_vengine::RegionProfile;

/// Render the profile's span log as a Chrome-trace JSON document.
///
/// Every recorded span becomes one complete (`"ph": "X"`) event on a single
/// track; nesting is reconstructed by the viewer from the timestamps. The
/// event `args` carry the full `root;...` path so flamegraph-style queries
/// work inside Perfetto.
pub fn perfetto_trace_json(profile: &RegionProfile) -> String {
    let mut tl = TimelineBuilder::new();
    tl.process(0, "lsv-vengine core");
    for span in &profile.spans {
        let path = format!("\"{}\"", escape_json(&profile.full_name(span.path)));
        tl.span(
            0,
            0,
            "region",
            profile.paths[span.path as usize].name,
            span.start as f64,
            (span.end - span.start) as f64,
            &[("path", path)],
        );
    }
    tl.finish(
        "1us = 1 cycle",
        &[
            ("total_cycles", format!("\"{}\"", profile.total.cycles)),
            ("dropped_spans", format!("\"{}\"", profile.dropped_spans)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_json;
    use lsv_arch::presets::sx_aurora;
    use lsv_vengine::{ExecutionMode, VCore};

    fn sample_profile() -> RegionProfile {
        let arch = sx_aurora();
        let mut core = VCore::new(&arch, ExecutionMode::TimingOnly, 1);
        core.enable_profiler();
        core.region_enter("outer");
        core.scalar_ops(4);
        core.region_enter("inner");
        core.scalar_ops(8);
        core.region_exit();
        core.region_exit();
        core.take_profile().expect("profiler enabled")
    }

    #[test]
    fn trace_is_valid_json_with_one_event_per_span() {
        let profile = sample_profile();
        let doc = parse_json(&perfetto_trace_json(&profile)).expect("valid JSON");
        let events = match doc.get("traceEvents") {
            Some(crate::JsonValue::Arr(events)) => events,
            other => panic!("traceEvents missing: {other:?}"),
        };
        // One metadata record plus one "X" event per recorded span.
        assert_eq!(events.len(), 1 + profile.spans.len());
        let first_span = &events[1];
        assert_eq!(
            first_span.get("ph"),
            Some(&crate::JsonValue::Str("X".to_string()))
        );
        assert!(first_span.get("dur").is_some());
    }
}
