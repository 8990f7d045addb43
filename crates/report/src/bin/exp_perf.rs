//! P1 — engine throughput: a 256-run package-size × clock sweep on the
//! MP3 decoder, timing three engine generations against each other.
//!
//! * **baseline** — exactly the pre-optimisation sweep shape: every row
//!   builds its platform/PSM from scratch and runs the vendored
//!   [`ReferenceEmulator`] (the seed engine, binary-heap queue, all
//!   lookup tables rebuilt per run), sequentially.
//! * **interpreter** — the general event-loop interpreter with every
//!   shipped optimisation: one [`EnginePlan`] compiled per distinct
//!   configuration and reused across the repetitions by a pool worker's
//!   persistent engine (indexed calendar queue, scratch state reset
//!   between runs), fanned out on [`SweepPool`].
//! * **fast** — the specialised core (`segbus_core::fast`, the default
//!   engine): same plan/pool harness as the interpreter leg, with the
//!   monomorphised arbitration/release loop, SoA scratch and precomputed
//!   schedule slices.
//!
//! The three legs are interleaved in rounds so machine-speed drift hits
//! all equally, the whole sweep is repeated for a handful of passes and
//! the median pass is recorded (one pass is only ~30 ms per leg — short
//! enough for a scheduler hiccup to swing the ratio), and every triple of
//! reports is asserted identical — the harness doubles as a coarse
//! differential test. The result lands in `BENCH_engine.json` next to a
//! human-readable summary on stdout; `runs_per_sec` remains the
//! interpreter number (comparable with the file's history) and
//! `fast_runs_per_sec` is the fast core, both gated by
//! `scripts/bench_gate.sh`.
//!
//! A front-end leg rides along: a 100 × 100 toroidal grid (10,000
//! processes, ~1.4 MB of DSL) is generated in-process with `grid` +
//! `to_dsl` — not committed to the corpus — and the median of
//! [`PASSES`] passes of `parse_source` + `into_psm` + `strict_validate`
//! is recorded as `parse_mb_per_sec`, gated next to the engine keys. A
//! quadratic pass anywhere in the front end shows up here as a collapse
//! of MB/s (to ~1 MB/s on this input).

use std::time::{Duration, Instant};

use segbus_apps::generators::{block_allocation, grid, uniform_platform, GeneratorConfig};
use segbus_apps::mp3;
use segbus_core::{
    strict_validate, EmulatorConfig, EngineKind, EnginePlan, QueueKind, ReferenceEmulator,
    SweepPool,
};
use segbus_model::mapping::Psm;
use segbus_model::time::ClockDomain;

const SIZES: [u32; 4] = [9, 18, 36, 72];
const FACTORS: [f64; 8] = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5];
const REPS: usize = 8;
/// Distinct configurations interleaved per timing round.
const ROUND: usize = 4;
/// Full-sweep measurement passes; the median pass is recorded.
const PASSES: usize = 5;

fn build_psm(size: u32, factor: f64) -> Psm {
    let platform = segbus_model::platform::Platform::builder("scaled")
        .package_size(size)
        .ca_clock(ClockDomain::from_mhz(111.0))
        .segment("S1", ClockDomain::from_mhz(91.0 * factor))
        .segment("S2", ClockDomain::from_mhz(98.0 * factor))
        .segment("S3", ClockDomain::from_mhz(89.0 * factor))
        .build()
        .expect("valid platform");
    Psm::new(
        platform,
        mp3::mp3_decoder(),
        mp3::three_segment_allocation(),
    )
    .expect("valid system")
}

/// Side of the front-end leg's square toroidal grid.
const FRONT_END_SIDE: usize = 100;

/// The front-end leg: source bytes and the median wall time of
/// parse → resolve/validate → strict pre-flight on a generated grid.
fn front_end_leg() -> (usize, Duration) {
    let app = grid(
        FRONT_END_SIDE,
        FRONT_END_SIDE,
        GeneratorConfig {
            items_per_flow: 36,
            ticks_per_package: 40,
        },
    );
    let alloc = block_allocation(&app, 8);
    let psm = Psm::new(uniform_platform(8, 36), app, alloc).expect("grid model validates");
    let source = segbus_dsl::printer::to_dsl(&psm);
    let cfg = EmulatorConfig::default();
    let mut times: Vec<Duration> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            let parsed = segbus_dsl::parse_source(&source)
                .and_then(|p| p.into_psm())
                .expect("generated grid parses");
            strict_validate(&parsed, 1, &cfg).expect("generated grid passes pre-flight");
            let elapsed = t.elapsed();
            assert_eq!(parsed, psm, "front end must reproduce the generated model");
            elapsed
        })
        .collect();
    times.sort();
    (source.len(), times[PASSES / 2])
}

fn main() {
    let grid: Vec<(u32, f64)> = SIZES
        .iter()
        .flat_map(|&s| FACTORS.iter().map(move |&f| (s, f)))
        .collect();
    let runs = grid.len() * REPS;

    let heap_cfg = EmulatorConfig {
        queue: QueueKind::BinaryHeap,
        ..EmulatorConfig::default()
    };
    let interp_pool = SweepPool::new(EmulatorConfig {
        engine: EngineKind::Interpreter,
        ..EmulatorConfig::default()
    });
    let fast_pool = SweepPool::new(EmulatorConfig {
        engine: EngineKind::Fast,
        ..EmulatorConfig::default()
    });

    // Warm-up pass so no leg pays first-touch costs.
    {
        let psm = build_psm(SIZES[0], FACTORS[0]);
        let _ = ReferenceEmulator::new(heap_cfg).run(&psm);
        let _ = interp_pool.sweep(std::slice::from_ref(&psm));
        let _ = fast_pool.sweep(std::slice::from_ref(&psm));
    }

    let mut timings = Vec::with_capacity(PASSES);
    for pass in 0..PASSES {
        let mut baseline = Vec::with_capacity(runs);
        let mut interp = Vec::with_capacity(runs);
        let mut fast = Vec::with_capacity(runs);
        let mut baseline_time = Duration::ZERO;
        let mut interp_time = Duration::ZERO;
        let mut fast_time = Duration::ZERO;

        for round in grid.chunks(ROUND) {
            // Baseline leg: the pre-change harness rebuilt the PSM for
            // every row and ran a fresh emulator on it.
            let t = Instant::now();
            for &(s, f) in round {
                for _ in 0..REPS {
                    let psm = build_psm(s, f);
                    baseline.push(ReferenceEmulator::new(heap_cfg).run(&psm));
                }
            }
            baseline_time += t.elapsed();

            // Interpreter leg: each pool job compiles one plan and reuses
            // it (and the worker's engine scratch) for all repetitions.
            let t = Instant::now();
            let reports = interp_pool.sweep_with(round, |engine, &(s, f)| {
                let psm = build_psm(s, f);
                let plan = EnginePlan::new(&psm);
                (0..REPS)
                    .map(|_| engine.run_plan(&plan, 1))
                    .collect::<Vec<_>>()
            });
            interp_time += t.elapsed();
            interp.extend(reports.into_iter().flatten());

            // Fast leg: identical harness, specialised core.
            let t = Instant::now();
            let reports = fast_pool.sweep_with(round, |engine, &(s, f)| {
                let psm = build_psm(s, f);
                let plan = EnginePlan::new(&psm);
                (0..REPS)
                    .map(|_| engine.run_plan(&plan, 1))
                    .collect::<Vec<_>>()
            });
            fast_time += t.elapsed();
            fast.extend(reports.into_iter().flatten());
        }

        assert_eq!(baseline.len(), runs);
        for (i, ((a, b), c)) in baseline.iter().zip(&interp).zip(&fast).enumerate() {
            assert_eq!(a.makespan, b.makespan, "run {i} diverged (interpreter)");
            assert_eq!(a.sas, b.sas, "run {i} diverged (interpreter)");
            assert_eq!(a.ca, b.ca, "run {i} diverged (interpreter)");
            assert_eq!(a.bus, b.bus, "run {i} diverged (interpreter)");
            assert_eq!(a.fus, b.fus, "run {i} diverged (interpreter)");
            assert_eq!(b.makespan, c.makespan, "run {i} diverged (fast)");
            assert_eq!(b.sas, c.sas, "run {i} diverged (fast)");
            assert_eq!(b.ca, c.ca, "run {i} diverged (fast)");
            assert_eq!(b.bus, c.bus, "run {i} diverged (fast)");
            assert_eq!(b.fus, c.fus, "run {i} diverged (fast)");
        }

        let ratio = interp_time.as_secs_f64() / fast_time.as_secs_f64();
        println!("  pass {pass}: fast {ratio:.2}x over interpreter");
        timings.push((baseline_time, interp_time, fast_time));
    }

    // Median pass by fast-over-interpreter ratio — robust to a scheduler
    // hiccup landing in any leg of a single pass.
    timings.sort_by(|a, b| {
        let ra = a.1.as_secs_f64() / a.2.as_secs_f64();
        let rb = b.1.as_secs_f64() / b.2.as_secs_f64();
        ra.partial_cmp(&rb).unwrap()
    });
    let (baseline_time, interp_time, fast_time) = timings[PASSES / 2];

    let baseline_ms = baseline_time.as_secs_f64() * 1e3;
    let total_ms = interp_time.as_secs_f64() * 1e3;
    let fast_ms = fast_time.as_secs_f64() * 1e3;
    let baseline_rps = runs as f64 / (baseline_ms / 1e3);
    let runs_per_sec = runs as f64 / (total_ms / 1e3);
    let fast_rps = runs as f64 / (fast_ms / 1e3);
    let speedup = runs_per_sec / baseline_rps;
    let fast_speedup = fast_rps / runs_per_sec;

    println!("P1 — engine throughput ({} workers)\n", fast_pool.threads());
    println!("  baseline    (per-row PSM build, reference engine, heap queue):");
    println!("      {runs} runs in {baseline_ms:.1} ms = {baseline_rps:.0} runs/s");
    println!("  interpreter (plan reuse, indexed queue, sweep pool):");
    println!("      {runs} runs in {total_ms:.1} ms = {runs_per_sec:.0} runs/s");
    println!("  fast        (monomorphised core, SoA scratch, sweep pool):");
    println!("      {runs} runs in {fast_ms:.1} ms = {fast_rps:.0} runs/s");
    println!("  interpreter over baseline: {speedup:.2}x");
    println!("  fast over interpreter:     {fast_speedup:.2}x");

    let (parse_bytes, parse_time) = front_end_leg();
    let parse_ms = parse_time.as_secs_f64() * 1e3;
    let parse_mbps = parse_bytes as f64 / 1e6 / parse_time.as_secs_f64();
    println!(
        "  front end ({FRONT_END_SIDE}x{FRONT_END_SIDE} grid, parse + validate + pre-flight):"
    );
    println!("      {parse_bytes} bytes in {parse_ms:.1} ms = {parse_mbps:.1} MB/s");

    let json = format!(
        "{{\n  \"runs\": {runs},\n  \"total_ms\": {total_ms:.3},\n  \"runs_per_sec\": {runs_per_sec:.1},\n  \"fast_total_ms\": {fast_ms:.3},\n  \"fast_runs_per_sec\": {fast_rps:.1},\n  \"fast_speedup\": {fast_speedup:.2},\n  \"baseline_total_ms\": {baseline_ms:.3},\n  \"baseline_runs_per_sec\": {baseline_rps:.1},\n  \"speedup\": {speedup:.2},\n  \"parse_bytes\": {parse_bytes},\n  \"parse_ms\": {parse_ms:.3},\n  \"parse_mb_per_sec\": {parse_mbps:.1},\n  \"threads\": {}\n}}\n",
        fast_pool.threads()
    );
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("\nwrote BENCH_engine.json");
}
