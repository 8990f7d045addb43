//! Golden emission order of the fast core's traced event stream.
//!
//! Cross-engine trace comparisons (`tests/trace_differential.rs`) treat
//! the events of one instant as a multiset, because the oracle breaks
//! same-timestamp ties differently. Emission order itself is still a
//! contract: `.sbt` files and the line order inside one `--vcd`
//! timestamp follow it. This test pins it as one FNV-64 digest per
//! committed scenario, over the traced stream of every arbitration ×
//! release pair at 1 and 3 frames.
//!
//! Regenerate `GOLDEN` only on purpose — when a change to the fast core
//! is meant to reorder same-instant events — by running
//! `cargo test --test trace_order_golden -- --nocapture` and copying the
//! printed `actual` values; say why in the change log.

use segbus_core::{ArbitrationPolicy, EmulatorConfig, Engine, ProducerRelease, TraceEvent};
use segbus_model::Fnv64;

/// `(scenario, digest)`, sorted by scenario path. Generated when the
/// interpreter core was retired, from a run that also asserted the fast
/// core's stream equal to the interpreter's, event for event.
/// (`video-s2` and `video-s3` compile to the same model.)
const GOLDEN: &[(&str, u64)] = &[
    ("corpus/grid/grid-s1.sbd", 0x67b4c88c810bcded),
    ("corpus/grid/grid-s2.sbd", 0xc9383e6b4a29b3ec),
    ("corpus/mp3/mp3-s1.sbd", 0x07af8274b6f5da32),
    ("corpus/mp3/mp3-s2.sbd", 0x5c7b29becb6fc1c3),
    ("corpus/mp3/mp3-s3.sbd", 0x537ea69385ee9ba9),
    ("corpus/ring/ring-s1.sbd", 0x900a0b55e846cce2),
    ("corpus/ring/ring-s2.sbd", 0x024a510587f4552e),
    ("corpus/star/star-s1.sbd", 0x78159f24c139a6e1),
    ("corpus/star/star-s2.sbd", 0x7ceecaab17e2ec11),
    ("corpus/telecom/telecom-s1.sbd", 0x5ea696af813fe641),
    ("corpus/telecom/telecom-s2.sbd", 0x2d83fb28fd9ce8f1),
    ("corpus/telecom/telecom-s4.sbd", 0xcfb5b232267b1778),
    ("corpus/video/video-s1.sbd", 0x37ec33595e11170f),
    ("corpus/video/video-s2.sbd", 0x36a32970dd26b197),
    ("corpus/video/video-s3.sbd", 0x36a32970dd26b197),
    ("models/gsm_encoder.sbd", 0x6f77e10acbd673ad),
    ("models/jpeg_encoder.sbd", 0x367060816fe57450),
    ("models/mp3_three_segments.sbd", 0xde64fcdbe48ba8c4),
    ("models/ring_hub.sbd", 0x58e1786547fe1dbb),
];

fn scenarios() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("models")];
    for e in std::fs::read_dir(root.join("corpus")).expect("corpus/ directory") {
        let p = e.expect("corpus entry").path();
        if p.is_dir() {
            dirs.push(p);
        }
    }
    let mut out = Vec::new();
    for dir in dirs {
        for e in std::fs::read_dir(&dir).expect("scenario directory") {
            let p = e.expect("scenario entry").path();
            if p.extension().is_some_and(|x| x == "sbd") {
                // Forward slashes on every OS, so names match `GOLDEN`.
                let rel = p.strip_prefix(root).expect("scenario under the root");
                let name: Vec<String> = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect();
                let name = name.join("/");
                out.push((
                    name,
                    std::fs::read_to_string(&p).expect("readable scenario"),
                ));
            }
        }
    }
    out.sort();
    out
}

fn absorb(h: &mut Fnv64, e: &TraceEvent) {
    h.write_u64(e.at.0);
    h.write_u8(e.kind as u8);
    let opt = |h: &mut Fnv64, v: Option<u64>| match v {
        Some(v) => {
            h.write_u8(1);
            h.write_u64(v);
        }
        None => h.write_u8(0),
    };
    opt(h, e.flow.map(|f| f.0 as u64));
    opt(h, e.package);
    opt(h, e.process.map(|p| p.0 as u64));
    opt(h, e.segment.map(|s| s.0 as u64));
}

#[test]
fn fast_core_emission_order_matches_golden_digests() {
    let arbs = [
        ArbitrationPolicy::Fifo,
        ArbitrationPolicy::FixedPriority,
        ArbitrationPolicy::FairRoundRobin,
    ];
    let rels = [
        ProducerRelease::AfterDelivery,
        ProducerRelease::AfterLocalPhase,
    ];
    let mut actual = Vec::new();
    for (name, text) in scenarios() {
        let psm = segbus_dsl::parse_system(&text).expect("committed scenario parses");
        let mut h = Fnv64::new();
        for (ai, &arbitration) in arbs.iter().enumerate() {
            for (ri, &producer_release) in rels.iter().enumerate() {
                for frames in [1u64, 3] {
                    let cfg = EmulatorConfig {
                        arbitration,
                        producer_release,
                        ..EmulatorConfig::traced()
                    };
                    let fast = Engine::new(cfg)
                        .try_run_frames(&psm, frames)
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                    let events = fast.trace.as_ref().expect("traced run").events();
                    h.write_u8(ai as u8);
                    h.write_u8(ri as u8);
                    h.write_u64(frames);
                    h.write_u64(events.len() as u64);
                    for e in events {
                        absorb(&mut h, e);
                    }
                }
            }
        }
        println!("    (\"{name}\", 0x{:016x}),", h.finish());
        actual.push((name, h.finish()));
    }
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(
        actual, expected,
        "the fast core's traced emission order changed (see the module docs)"
    );
}
