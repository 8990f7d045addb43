//! Batched sweep throughput: `SweepPool` versus a sequential map, and
//! engine-with-scratch-reuse versus a fresh emulator per run.
//!
//! Compiled only with the `criterion` feature (which additionally needs
//! the `criterion` crate restored on a networked machine); the offline
//! perf harness `segbus-report/exp_perf` covers the same scenarios with a
//! plain `std::time` timer.

use criterion::{criterion_group, criterion_main, Criterion};
use segbus_apps::generators::{self, GeneratorConfig};
use segbus_core::{Emulator, EmulatorConfig, Engine, SweepPool};
use segbus_model::mapping::Psm;
use segbus_model::platform::Platform;
use segbus_model::time::ClockDomain;

/// The package-size × clock-factor grid exp_perf times (256 runs).
fn sweep_jobs() -> Vec<Psm> {
    let cfg = GeneratorConfig::default();
    let app = generators::chain(12, cfg);
    let alloc = generators::block_allocation(&app, 4);
    let sizes = [6u32, 9, 12, 18, 24, 36, 72, 144];
    let factors = [0.5f64, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0];
    let mut jobs = Vec::new();
    for &s in &sizes {
        for &f in &factors {
            for rep in 0..4 {
                let platform = Platform::builder(format!("sweep-{s}-{f}-{rep}"))
                    .package_size(s)
                    .ca_clock(ClockDomain::from_mhz(111.0 * f))
                    .uniform_segments(4, ClockDomain::from_mhz(100.0 * f))
                    .build()
                    .unwrap();
                jobs.push(Psm::new(platform, app.clone(), alloc.clone()).unwrap());
            }
        }
    }
    jobs
}

fn bench_sweep(c: &mut Criterion) {
    let jobs = sweep_jobs();
    let mut g = c.benchmark_group("sweep/256");
    g.sample_size(10);
    g.bench_function("fresh_emulator_seq", |b| {
        let emulator = Emulator::default();
        b.iter(|| {
            jobs.iter()
                .map(|p| emulator.run(p).makespan)
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("engine_reuse_seq", |b| {
        let mut engine = Engine::new(EmulatorConfig::default());
        b.iter(|| {
            jobs.iter()
                .map(|p| engine.run(p).makespan)
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("sweep_pool", |b| {
        let pool = SweepPool::new(EmulatorConfig::default());
        b.iter(|| pool.sweep(&jobs))
    });
    g.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
