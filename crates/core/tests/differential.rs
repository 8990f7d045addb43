//! Differential tests of the engine core against the oracle: on full
//! system runs — the paper's E2 MP3 configuration and a spread of
//! generated graph shapes — the engine must reproduce the vendored
//! pre-optimisation [`ReferenceEmulator`] report for report (including
//! under every arbitration and flow-control policy, which gate its
//! internal shortcuts), and the sweep pool must not depend on its thread
//! count.

use segbus_apps::generators::{
    block_allocation, chain, diamond, random_layered, round_robin_allocation, uniform_platform,
    GeneratorConfig,
};
use segbus_apps::mp3;
use segbus_core::{
    ArbitrationPolicy, Emulator, EmulatorConfig, ProducerRelease, ReferenceEmulator, SweepPool,
};
use segbus_model::mapping::Psm;

/// Every observable of the run must agree, not just the makespan: the
/// whole report of the engine equals the reference's.
fn assert_identical(psm: &Psm, label: &str) {
    assert_identical_under(psm, EmulatorConfig::default(), label);
}

fn assert_identical_under(psm: &Psm, config: EmulatorConfig, label: &str) {
    let a = Emulator::new(config).run(psm);
    let r = ReferenceEmulator::new(config).run(psm);
    assert_eq!(a, r, "{label}");
}

/// The engine specialises its event flow per arbitration policy (FIFO
/// dispatches on the arrival edge inline); every policy and producer
/// release mode must still reproduce the reference engine exactly.
#[test]
fn all_policies_match_the_reference_engine() {
    let psm = mp3::three_segment_psm();
    for arbitration in [
        ArbitrationPolicy::Fifo,
        ArbitrationPolicy::FixedPriority,
        ArbitrationPolicy::FairRoundRobin,
    ] {
        for producer_release in [
            ProducerRelease::AfterDelivery,
            ProducerRelease::AfterLocalPhase,
        ] {
            let config = EmulatorConfig {
                arbitration,
                producer_release,
                ..EmulatorConfig::default()
            };
            assert_identical_under(
                &psm,
                config,
                &format!("{arbitration:?}/{producer_release:?}"),
            );
        }
    }
}

/// The paper's experiment-2 system: the MP3 decoder on three segments.
#[test]
fn mp3_runs_match_the_reference() {
    assert_identical(&mp3::three_segment_psm(), "mp3 E2");
    assert_identical(&mp3::two_segment_psm(), "mp3 two-segment");
    assert_identical(&mp3::three_segment_p9_moved_psm(), "mp3 P9 moved");
}

/// Chains stress sequential dependencies; diamonds (fork-join) stress
/// simultaneous arbitration, where tie-breaking order is most fragile.
#[test]
fn generated_graphs_match_the_reference() {
    let cfg = GeneratorConfig::default();
    for segments in [2usize, 3] {
        let app = chain(8, cfg);
        let psm = Psm::new(
            uniform_platform(segments, 36),
            app.clone(),
            block_allocation(&app, segments),
        )
        .unwrap();
        assert_identical(&psm, &format!("chain/{segments}"));

        let app = diamond(4, cfg);
        let psm = Psm::new(
            uniform_platform(segments, 36),
            app.clone(),
            round_robin_allocation(&app, segments),
        )
        .unwrap();
        assert_identical(&psm, &format!("diamond/{segments}"));
    }
    for seed in 0..6u64 {
        let app = random_layered(3, 3, seed, cfg);
        let psm = Psm::new(
            uniform_platform(3, 36),
            app.clone(),
            round_robin_allocation(&app, 3),
        )
        .unwrap();
        assert_identical(&psm, &format!("layered/{seed}"));
    }
}

/// Streaming runs exercise frame pipelining.
#[test]
fn streaming_runs_match_the_reference() {
    let psm = mp3::three_segment_psm();
    for frames in [2u64, 5] {
        let a = Emulator::default().run_frames(&psm, frames);
        let r = ReferenceEmulator::default().run_frames(&psm, frames);
        assert_eq!(a, r, "frames {frames}");
    }
}

/// The pool computes, the thread count only schedules: sweeping the same
/// jobs on 1, 4 and 16 workers yields byte-for-byte equal reports.
#[test]
fn sweep_pool_is_thread_count_invariant_on_mp3_sweeps() {
    let cfg = GeneratorConfig::default();
    let mut psms = vec![
        mp3::one_segment_psm(),
        mp3::two_segment_psm(),
        mp3::three_segment_psm(),
        mp3::three_segment_p9_moved_psm(),
    ];
    for seed in 0..8u64 {
        let app = random_layered(3, 2, seed, cfg);
        psms.push(
            Psm::new(
                uniform_platform(2, 36),
                app.clone(),
                block_allocation(&app, 2),
            )
            .unwrap(),
        );
    }
    let reference = SweepPool::with_threads(EmulatorConfig::default(), 1).sweep(&psms);
    for threads in [4usize, 16] {
        let out = SweepPool::with_threads(EmulatorConfig::default(), threads).sweep(&psms);
        for (i, (a, b)) in reference.iter().zip(&out).enumerate() {
            assert_eq!(a.makespan, b.makespan, "job {i} on {threads} threads");
            assert_eq!(a.sas, b.sas, "job {i} on {threads} threads");
            assert_eq!(a.ca, b.ca, "job {i} on {threads} threads");
            assert_eq!(a.bus, b.bus, "job {i} on {threads} threads");
            assert_eq!(a.fus, b.fus, "job {i} on {threads} threads");
        }
    }
}
