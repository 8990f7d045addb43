//! Trace-level differential testing against the oracle over every
//! committed scenario.
//!
//! The engine core promises [`ReferenceEmulator`]'s report and trace, and
//! the `.sbt` binary format promises a lossless round trip. This suite
//! drives both promises end to end on every `models/` and `corpus/`
//! scenario, under every arbitration × release pair at 1 and 3 frames:
//! the fast core streams its trace to an `.sbt` file, the file is
//! decoded, and
//!
//! * the report equals the reference's (trace aside);
//! * the decoded events equal the reference's as per-instant multisets —
//!   both sorted by the canonical key `(at, kind, flow, package, process,
//!   segment)`, [`TraceEvent`]'s `Ord`. Emission order inside one instant
//!   is engine-specific; the fast core's is pinned by
//!   `tests/trace_order_golden.rs`;
//! * every analytics counter derived from the events (utilisation, waits,
//!   gaps, BU occupancy, latencies) equals the reference's, which shows
//!   the analytics are insensitive to same-instant order.

use segbus_core::{
    analyze_trace, read_trace, trace_latency_stats, trace_package_latencies, ArbitrationPolicy,
    EmulatorConfig, Engine, ProducerRelease, ReferenceEmulator, SbtWriter, TraceEvent, TraceLog,
};
use segbus_model::mapping::Psm;

/// The committed `models/` and `corpus/` scenarios (one family directory
/// deep), as (name, parsed PSM) pairs.
fn scenarios() -> Vec<(String, Psm)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("models")];
    for e in std::fs::read_dir(root.join("corpus")).expect("corpus/ directory") {
        let p = e.expect("corpus entry").path();
        if p.is_dir() {
            dirs.push(p);
        }
    }
    let mut files: Vec<std::path::PathBuf> = dirs
        .iter()
        .flat_map(|dir| {
            std::fs::read_dir(dir)
                .expect("scenario directory")
                .filter_map(|e| {
                    let p = e.ok()?.path();
                    (p.extension()? == "sbd").then_some(p)
                })
        })
        .collect();
    files.sort();
    assert!(files.len() >= 19, "models/ and corpus/ must hold scenarios");
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable scenario");
            let psm = segbus_dsl::parse_system(&text).expect("committed scenario parses");
            (p.display().to_string(), psm)
        })
        .collect()
}

fn sorted(log: &TraceLog) -> Vec<TraceEvent> {
    let mut events = log.events().to_vec();
    events.sort_unstable();
    events
}

/// Every analytics counter of the two logs must agree.
fn assert_same_analytics(a: &TraceLog, b: &TraceLog, nseg: usize, label: &str) {
    let x = analyze_trace(a, nseg);
    let y = analyze_trace(b, nseg);
    assert_eq!(x.makespan, y.makespan, "{label}: analysis makespan");
    for (s, t) in x.segments.iter().zip(y.segments.iter()) {
        let seg = s.segment;
        assert_eq!(s.busy, t.busy, "{label}: {seg} busy");
        assert_eq!(s.serves, t.serves, "{label}: {seg} serves");
        assert_eq!(s.total_wait, t.total_wait, "{label}: {seg} wait");
        assert_eq!(s.wait.count(), t.wait.count(), "{label}: {seg} waits");
        assert_eq!(
            s.wait.nonzero_buckets(),
            t.wait.nonzero_buckets(),
            "{label}: {seg} wait histogram"
        );
        assert_eq!(s.gaps, t.gaps, "{label}: {seg} gaps");
        assert_eq!(s.gap_total, t.gap_total, "{label}: {seg} gap total");
        assert_eq!(s.gap_max, t.gap_max, "{label}: {seg} gap max");
    }
    assert_eq!(x.bus_units, y.bus_units, "{label}: BU occupancy");
    assert_eq!(
        trace_package_latencies(a),
        trace_package_latencies(b),
        "{label}: package latencies"
    );
    assert_eq!(
        trace_latency_stats(a),
        trace_latency_stats(b),
        "{label}: latency stats"
    );
}

#[test]
fn fast_core_sbt_traces_match_reference_on_scenario_matrix() {
    let arbs = [
        ArbitrationPolicy::Fifo,
        ArbitrationPolicy::FixedPriority,
        ArbitrationPolicy::FairRoundRobin,
    ];
    let rels = [
        ProducerRelease::AfterDelivery,
        ProducerRelease::AfterLocalPhase,
    ];
    let dir = std::env::temp_dir().join(format!("segbus-trace-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scenario.sbt");
    for (name, psm) in scenarios() {
        let nseg = psm.platform().segment_count();
        for arbitration in arbs {
            for producer_release in rels {
                for frames in [1u64, 3] {
                    let label = format!("{name} {arbitration:?}/{producer_release:?}/f{frames}");
                    let config = EmulatorConfig {
                        arbitration,
                        producer_release,
                        ..EmulatorConfig::traced()
                    };
                    let mut reference = ReferenceEmulator::new(config)
                        .try_run_frames(&psm, frames)
                        .unwrap_or_else(|e| panic!("{label}: reference: {e}"));
                    let ref_log = reference.trace.take().expect("reference trace");

                    // Stream the fast core's trace to disk and decode it.
                    let mut writer = SbtWriter::create(
                        &path,
                        nseg as u32,
                        psm.application().process_count() as u32,
                    )
                    .unwrap();
                    let streamed = Engine::new(config)
                        .try_run_frames_with_sink(&psm, frames, &mut writer)
                        .unwrap_or_else(|e| panic!("{label}: fast: {e}"));
                    writer.finish().unwrap();
                    let decoded =
                        read_trace(&path).unwrap_or_else(|e| panic!("{label}: read_trace: {e}"));
                    assert!(!decoded.truncated, "{label}: fresh file must not truncate");

                    assert_eq!(streamed, reference, "{label}: report");
                    assert_eq!(
                        sorted(&decoded.log),
                        sorted(&ref_log),
                        "{label}: per-instant event multisets"
                    );
                    assert_same_analytics(&decoded.log, &ref_log, nseg, &label);
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
