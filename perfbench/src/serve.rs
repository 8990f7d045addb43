//! The two serve workloads: `serve_warm` (closed loop, cache hits) and
//! `serve_cold` (open loop, distinct jobs with large grids mixed in),
//! both against an in-process `segbus_serve::Server` over loopback.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use segbus_model::mapping::Psm;
use segbus_model::rng::SmallRng;
use segbus_model::stochastic::mix_seed;
use segbus_serve::{ServeOptions, Server};

use crate::client::{self, Conn, LoadResult, LoadSpec, Sample, Stop};
use crate::inputs::{self, Job};
use crate::metrics::RunReport;
use crate::oracle::{self, Expected};
use crate::replay::Replay;
use crate::stats::{mean, median, quantile};
use crate::trace::{Layer, Tracer};
use crate::{Args, SETUP_REPEATS};

/// `serve_warm`: distinct models in the rotating set (each of the five
/// families at each of frames 1–4, twice).
pub const WARM_MODELS: usize = 40;
/// `serve_warm`: client connections, one generator thread each.
pub const WARM_CONNS: usize = 2;
/// `serve_warm`: requests each connection keeps in flight (the server's
/// default window).
pub const WARM_WINDOW: usize = 8;
/// `serve_warm` traced run: requests replayed per connection.
pub const TRACE_WARM_PER_CONN: usize = 4000;
/// `serve_cold`: offered rate, requests per second.
pub const COLD_RATE: f64 = 100.0;
/// `serve_cold`: one request in this many is a large grid.
pub const LARGE_EVERY: usize = 32;
/// `serve_cold`: the server window, large enough never to throttle the
/// schedule.
pub const COLD_WINDOW: usize = 4096;
/// `serve_cold` validity: the run is invalid if more requests than this
/// many seconds of the schedule are ever due and unanswered.
pub const BACKLOG_BOUND_S: f64 = 0.5;
/// `serve_cold`: small jobs compared against the RTL simulator.
pub const RTL_SUBSET: usize = 40;
/// The traced run fails unless the in-process layer spans cover at least
/// this share of the in-process request time (the rest is the replay's
/// own glue between calls).
pub const RECONCILE_TOLERANCE: f64 = 0.10;

fn warm_options() -> ServeOptions {
    ServeOptions {
        port: 0,
        window: WARM_WINDOW,
        ..ServeOptions::default()
    }
}

fn cold_options(dir: &Path) -> ServeOptions {
    ServeOptions {
        port: 0,
        window: COLD_WINDOW,
        cache_dir: Some(dir.to_path_buf()),
        ..ServeOptions::default()
    }
}

/// A fresh, empty directory under the benchmark's work directory.
fn fresh_dir(name: &str) -> Result<PathBuf, String> {
    let dir = crate::work_dir().join(format!("{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot clear {dir:?}: {e}"))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    Ok(dir)
}

fn expected_all(jobs: &[Job]) -> Vec<Expected> {
    jobs.iter().map(|j| j.expected).collect()
}

/// `(model, frames, estimated execution time)` of up to `limit` small
/// jobs, for the RTL comparison.
fn rtl_cases(jobs: &[Job], limit: usize) -> Vec<(&Psm, u64, u64)> {
    jobs.iter()
        .filter_map(|j| {
            j.psm
                .as_ref()
                .map(|m| (m, j.frames, j.expected.execution_ps))
        })
        .take(limit)
        .collect()
}

/// Fold one client's accounting into the run's: its failed checks,
/// its unanswered requests and any connection error.
fn account(report: &mut RunReport, load: &LoadResult) {
    report.attempted += load.sent as u64;
    report.failed += load.failed as u64;
    for e in &load.failures {
        report.error(e.clone());
    }
    for _ in 0..load.missing {
        report.fail("a request was never answered");
    }
    if let Some(e) = &load.error {
        report.error(format!("connection error: {e}"));
    }
}

/// Median of latencies given in ns, in `unit_ns` units (0 when empty).
fn median_ns(ns: &[u32], unit_ns: f64) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| f64::from(n) / unit_ns).collect();
    median(&v)
}

struct Warm {
    server: Server,
    conns: Vec<Conn>,
}

impl Warm {
    /// Start the server, connect, and send every model once so the timed
    /// pass sees only memory-cache hits. Every warm-up response is
    /// checked (a first sight of each model must be a miss).
    fn start(
        tails: &[String],
        expected: &[Expected],
        report: &mut RunReport,
    ) -> Result<Warm, String> {
        let server = Server::start(warm_options()).map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr();
        let mut conns = (0..WARM_CONNS)
            .map(|_| Conn::open(addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        for (c, conn) in conns.iter_mut().enumerate() {
            let items: Vec<(u64, &str)> = (c..tails.len())
                .step_by(WARM_CONNS)
                .map(|j| (j as u64, tails[j].as_str()))
                .collect();
            let resps = conn
                .round_trip_all(&items)
                .map_err(|e| format!("warm-up: {e}"))?;
            report.attempted += items.len() as u64;
            for r in resps {
                let Some(want) = expected.get(r.id as usize) else {
                    report.fail(format!("warm-up response for unknown id {}", r.id));
                    continue;
                };
                if let Err(e) = oracle::check(&r, want, false) {
                    report.fail(format!("warm-up: {e}"));
                }
            }
        }
        Ok(Warm { server, conns })
    }

    fn stop(mut self) -> Option<String> {
        let stats = self.conns[0].stats().ok();
        drop(self.conns);
        self.server.shutdown();
        stats
    }
}

/// Run the closed loop on every connection, one thread each; connection
/// `c` draws its jobs from its own seeded stream.
fn warm_pass(
    warm: &mut Warm,
    tails: &[String],
    spec: &LoadSpec,
    seed: u64,
    stop: Stop,
) -> Vec<LoadResult> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = warm
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(mix_seed(seed, 100 + c as u64));
                    client::closed_loop(conn, tails, spec, &mut rng, WARM_WINDOW, stop)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread does not panic"))
            .collect()
    })
}

/// The jobs whose source is in the largest quarter by size.
fn largest_quarter(jobs: &[Job]) -> Vec<bool> {
    let sizes: Vec<f64> = jobs.iter().map(|j| j.source.len() as f64).collect();
    let cut = quantile(&sizes, 0.75);
    sizes.iter().map(|&s| s >= cut).collect()
}

fn large_latency(report: &mut RunReport, large_ns: &[u32]) {
    if large_ns.is_empty() {
        report.error("no large request was answered");
    }
    report.set("large_latency_p50_ms", median_ns(large_ns, 1e6), "ms");
}

fn p99_us(samples: &[&Sample]) -> f64 {
    let us: Vec<f64> = samples.iter().map(|s| s.latency_ns as f64 / 1e3).collect();
    quantile(&us, 0.99)
}

/// Set `sim_makespan_us` (the mean simulated makespan over the jobs)
/// and `estimate_error_pct` (over up to `rtl_limit` small jobs).
fn set_simulated(report: &mut RunReport, jobs: &[Job], rtl_limit: usize) {
    let makespans: Vec<f64> = jobs
        .iter()
        .map(|j| j.expected.makespan_ps as f64 / 1e6)
        .collect();
    report.set("sim_makespan_us", mean(&makespans), "us");
    oracle::set_rtl_error(report, &rtl_cases(jobs, rtl_limit));
}

/// Run `start` [`SETUP_REPEATS`] times, stopping every instance but the
/// last, which it returns; `setup_s` is the median time of `start`.
fn repeated_setup<T>(
    report: &mut RunReport,
    mut start: impl FnMut(&mut RunReport) -> Result<T, String>,
    stop: impl Fn(T),
) -> Result<T, String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            stop(previous);
        }
        let t = Instant::now();
        last = Some(start(report)?);
        times.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&times), "s");
    Ok(last.expect("at least one set-up"))
}

/// `serve_warm` with tracing off.
pub fn warm(args: &Args, report: &mut RunReport) -> Result<(), String> {
    let jobs = inputs::warm_models(args.seed, WARM_MODELS)?;
    let expected = expected_all(&jobs);
    let tails: Vec<String> = jobs.iter().map(Job::request_tail).collect();

    let mut warm = repeated_setup(
        report,
        |r| Warm::start(&tails, &expected, r),
        |w| {
            w.stop();
        },
    )?;

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let large = largest_quarter(&jobs);
    let spec = LoadSpec {
        expected: &expected,
        large: &large,
        cached: true,
        keep_samples: false,
    };
    let loads = warm_pass(&mut warm, &tails, &spec, args.seed, Stop::At(deadline));
    report.set_peak_rss();
    warm.stop();
    for load in &loads {
        account(report, load);
    }

    // Throughput is the median over whole one-second windows, so a short
    // burst of outside load on the host moves it less than a whole-run
    // figure would.
    let whole = (args.seconds.floor() as usize).max(1);
    let rps: Vec<f64> = (0..whole)
        .map(|w| {
            loads
                .iter()
                .map(|l| l.per_second.get(w).map_or(0.0, |&n| f64::from(n)))
                .sum()
        })
        .collect();
    report.set("throughput_rps", median(&rps), "1/s");
    let all: Vec<u32> = loads
        .iter()
        .flat_map(|l| l.latency_ns.iter().chain(&l.large_ns).copied())
        .collect();
    report.set("latency_p50_us", median_ns(&all, 1e3), "us");
    let large_ns: Vec<u32> = loads
        .iter()
        .flat_map(|l| l.large_ns.iter().copied())
        .collect();
    large_latency(report, &large_ns);
    set_simulated(report, &jobs, WARM_MODELS);
    Ok(())
}

/// `serve_cold`'s stream length for a run of `seconds`.
fn cold_count(seconds: f64) -> usize {
    ((COLD_RATE * seconds).round() as usize).max(LARGE_EVERY)
}

struct Cold {
    server: Server,
    conn: Conn,
    dir: PathBuf,
}

impl Cold {
    fn start() -> Result<Cold, String> {
        let dir = fresh_dir("cold-cache")?;
        let server = Server::start(cold_options(&dir)).map_err(|e| format!("server start: {e}"))?;
        let conn = Conn::open(server.addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Cold { server, conn, dir })
    }

    fn stop(mut self) -> Option<String> {
        let stats = self.conn.stats().ok();
        drop(self.conn);
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
        stats
    }
}

/// Run the open loop and check it: every response against the oracle,
/// and the schedule's validity (no growing backlog).
fn cold_pass(
    cold: &mut Cold,
    tails: &[String],
    spec: &LoadSpec,
    report: &mut RunReport,
) -> Result<client::OpenResult, String> {
    let open = client::open_loop(&mut cold.conn, tails, spec, COLD_RATE)
        .map_err(|e| format!("open loop: {e}"))?;
    account(report, &open.load);
    let bound = (COLD_RATE * BACKLOG_BOUND_S).ceil() as usize;
    if open.max_backlog > bound {
        report.error(format!(
            "invalid open-loop run: {} requests due and unanswered at once (bound {bound}); \
             the offered rate exceeds what the server sustains",
            open.max_backlog
        ));
    }
    Ok(open)
}

/// `serve_cold` with tracing off.
pub fn cold(args: &Args, report: &mut RunReport) -> Result<(), String> {
    let jobs = inputs::cold_stream(args.seed, cold_count(args.seconds), LARGE_EVERY)?;
    let expected = expected_all(&jobs);
    let tails: Vec<String> = jobs.iter().map(Job::request_tail).collect();

    let mut cold = repeated_setup(
        report,
        |_| Cold::start(),
        |c| {
            c.stop();
        },
    )?;

    let large: Vec<bool> = jobs.iter().map(|j| j.large).collect();
    let spec = LoadSpec {
        expected: &expected,
        large: &large,
        cached: false,
        keep_samples: false,
    };
    let open = cold_pass(&mut cold, &tails, &spec, report)?;
    report.set_peak_rss();
    cold.stop();
    let ok = open.load.answered - open.load.failed;
    report.set(
        "throughput_rps",
        ok as f64 / open.load.elapsed.as_secs_f64(),
        "1/s",
    );
    report.set(
        "latency_p50_us",
        median_ns(&open.load.latency_ns, 1e3),
        "us",
    );
    large_latency(report, &open.load.large_ns);
    set_simulated(report, &jobs, RTL_SUBSET);
    Ok(())
}

/// One request of a traced replay, tied to its socket-pass twin.
struct Replayed {
    /// Index into the socket samples' `(connection, seq)` space.
    key: (usize, usize),
    layers_ns: u64,
    server_ns: u64,
}

/// Replay `lines` in-process on two replays side by side — one timed
/// only as a whole, one with a span per layer call — alternating which
/// goes first on each request, so both see the same cache and CPU state.
/// Checks every traced outcome; returns the traced replay with its
/// per-request accounting, and sets `trace.overhead_ratio`.
fn replay_both(
    lines: &[((usize, usize), usize, String)],
    warm_up: &[String],
    expected: &[Expected],
    cached: bool,
    disk: bool,
    tracer: &mut Tracer,
    report: &mut RunReport,
) -> Result<(Vec<Replayed>, Replay), String> {
    let mut dirs = Vec::new();
    let mut replays = Vec::new();
    for pass in 0..2 {
        let dir = if disk {
            Some(fresh_dir(&format!("replay-cache-{pass}"))?)
        } else {
            None
        };
        let mut replay = Replay::new(dir.as_deref())?;
        for line in warm_up {
            replay.request(line.trim_end(), 0, None)?;
        }
        replays.push(replay);
        dirs.extend(dir);
    }
    let mut traced = replays.pop().expect("two replays");
    let mut plain = replays.pop().expect("two replays");
    let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
    let mut rows = Vec::with_capacity(lines.len());
    for (req, (key, job, line)) in lines.iter().enumerate() {
        let line = line.trim_end();
        if req % 2 == 0 {
            plain_ns += plain.request(line, req as u32, None)?.total_ns;
        }
        let out = traced.request(line, req as u32, Some(&mut *tracer))?;
        traced_ns += out.total_ns;
        if req % 2 == 1 {
            plain_ns += plain.request(line, req as u32, None)?.total_ns;
        }
        let want = &expected[*job];
        if out.makespan_ps != want.makespan_ps || out.cached != cached {
            report.fail(format!(
                "in-process replay of job {job}: makespan {} cached {}, reference {} cached {cached}",
                out.makespan_ps, out.cached, want.makespan_ps
            ));
        }
        rows.push(Replayed {
            key: *key,
            layers_ns: out.layers_ns,
            server_ns: out.server_ns,
        });
    }
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    report.set(
        "trace.overhead_ratio",
        traced_ns as f64 / plain_ns.max(1) as f64,
        "ratio",
    );
    Ok((rows, traced))
}

/// Set every per-layer metric a serve replay measures.
fn serve_layer_metrics(
    report: &mut RunReport,
    tracer: &Tracer,
    replay: &Replay,
    rows: &[Replayed],
    socket: &[((usize, usize), u64)],
    stats_line: Option<String>,
) {
    let e2e_ns: f64 = socket.iter().map(|&(_, ns)| ns as f64).sum();
    for layer in Layer::REPORTED {
        let mut s = tracer.layer_summary(layer);
        if layer == Layer::ServeEncode {
            let net: Vec<f64> = replay.encode_net_ns.iter().map(|&n| n as f64).collect();
            s.self_ns = net.iter().sum();
            s.p50_ns = median(&net);
        }
        report.set_layer(layer, &s, s.self_ns / e2e_ns.max(1.0));
    }
    let parse_s = tracer.layer_summary(Layer::DslParse).self_ns / 1e9;
    report.set(
        "dsl.parse.mb_per_s",
        replay.source_bytes as f64 / 1e6 / parse_s.max(1e-9),
        "MB/s",
    );
    let c = replay.cache_counts();
    report.set(
        "core.cache.hit_ratio",
        c.hits as f64 / c.reads.max(1) as f64,
        "ratio",
    );
    report.set("core.cache.reads", c.reads as f64, "count");
    report.set("core.cache.writes", c.writes as f64, "count");
    report.set("core.cache.evictions", c.evictions as f64, "count");
    report.set("core.report.bytes", replay.report_bytes as f64, "bytes");
    report.set("serve.encode.bytes", replay.encode_bytes as f64, "bytes");

    // serve.tier: the socket round trip minus the in-process layer sum of
    // the same request.
    let layers: std::collections::HashMap<(usize, usize), u64> =
        rows.iter().map(|r| (r.key, r.layers_ns)).collect();
    let tier: Vec<f64> = socket
        .iter()
        .filter_map(|(key, ns)| layers.get(key).map(|&l| ns.saturating_sub(l) as f64))
        .collect();
    if tier.len() != rows.len() {
        report.error(format!(
            "{} of {} replayed requests have no socket twin",
            rows.len() - tier.len(),
            rows.len()
        ));
    }
    let tier_sum: f64 = tier.iter().sum();
    report.set("serve.tier.calls", tier.len() as f64, "count");
    report.set("serve.tier.self_ms", tier_sum / 1e6, "ms");
    report.set("serve.tier.p50_us", median(&tier) / 1e3, "us");
    report.set("serve.tier.p99_us", quantile(&tier, 0.99) / 1e3, "us");
    report.set("serve.tier.share", tier_sum / e2e_ns.max(1.0), "ratio");
    let tier_stats = match stats_line.as_deref().map(client::tier_stats) {
        Some(Ok(t)) => t,
        Some(Err(e)) => {
            report.error(e);
            client::TierStats::default()
        }
        None => {
            report.error("the stats request failed");
            client::TierStats::default()
        }
    };
    report.set("serve.tier.sheds", tier_stats.sheds as f64, "count");
    report.set("serve.tier.in_flight", tier_stats.in_flight as f64, "count");
    report.set(
        "serve.tier.queue_depth_max",
        tier_stats.queue_depth_max as f64,
        "count",
    );

    // Reconciliation: the layer spans must cover the in-process request.
    let layer_sum: f64 = rows.iter().map(|r| r.layers_ns as f64).sum();
    let server_sum: f64 = rows.iter().map(|r| r.server_ns as f64).sum();
    let ratio = layer_sum / server_sum.max(1.0);
    report.set("trace.reconcile_ratio", ratio, "ratio");
    if !(1.0 - RECONCILE_TOLERANCE..=1.0 + 1e-9).contains(&ratio) {
        report.error(format!(
            "layer spans cover {:.1} % of in-process request time, outside the {:.0} % tolerance",
            ratio * 100.0,
            RECONCILE_TOLERANCE * 100.0
        ));
    }
}

/// `serve_warm` traced: replay the socket stream in-process, then send
/// the same stream over the socket.
pub fn warm_traced(args: &Args, report: &mut RunReport, tracer: &mut Tracer) -> Result<(), String> {
    let jobs = inputs::warm_models(args.seed, WARM_MODELS)?;
    let expected = expected_all(&jobs);
    let tails: Vec<String> = jobs.iter().map(Job::request_tail).collect();

    // The socket clients' job choices, reproduced from their seeds and
    // interleaved the way the two connections share the server.
    let mut per_conn: Vec<Vec<usize>> = (0..WARM_CONNS)
        .map(|c| {
            let mut rng = SmallRng::seed_from_u64(mix_seed(args.seed, 100 + c as u64));
            (0..TRACE_WARM_PER_CONN)
                .map(|_| rng.below(tails.len() as u64) as usize)
                .collect()
        })
        .collect();
    let mut lines = Vec::with_capacity(WARM_CONNS * TRACE_WARM_PER_CONN);
    for k in 0..TRACE_WARM_PER_CONN {
        for (c, seq) in per_conn.iter_mut().enumerate() {
            let job = seq[k];
            lines.push(((c, k), job, jobs[job].request_line(k as u64)));
        }
    }
    let warm_up: Vec<String> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| j.request_line(i as u64))
        .collect();
    let (rows, replay) = replay_both(&lines, &warm_up, &expected, true, false, tracer, report)?;

    let mut warm = Warm::start(&tails, &expected, report)?;
    let large = largest_quarter(&jobs);
    let spec = LoadSpec {
        expected: &expected,
        large: &large,
        cached: true,
        keep_samples: true,
    };
    let loads = warm_pass(
        &mut warm,
        &tails,
        &spec,
        args.seed,
        Stop::After(TRACE_WARM_PER_CONN),
    );
    let stats = warm.stop();
    for load in &loads {
        account(report, load);
    }
    let socket: Vec<((usize, usize), u64)> = loads
        .iter()
        .enumerate()
        .flat_map(|(c, l)| {
            l.samples
                .iter()
                .map(move |s| ((c, s.seq as usize), s.latency_ns))
        })
        .collect();
    let samples: Vec<&Sample> = loads.iter().flat_map(|l| &l.samples).collect();
    report.set("latency_p99_us", p99_us(&samples), "us");
    serve_layer_metrics(report, tracer, &replay, &rows, &socket, stats);
    Ok(())
}

/// `serve_cold` traced: replay the open-loop stream in-process (with a
/// fresh report store, as the server has), then send it over the socket.
pub fn cold_traced(args: &Args, report: &mut RunReport, tracer: &mut Tracer) -> Result<(), String> {
    let jobs = inputs::cold_stream(args.seed, cold_count(args.seconds), LARGE_EVERY)?;
    let expected = expected_all(&jobs);
    let tails: Vec<String> = jobs.iter().map(Job::request_tail).collect();
    let lines: Vec<((usize, usize), usize, String)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| ((0, i), i, j.request_line(i as u64)))
        .collect();
    let (rows, replay) = replay_both(&lines, &[], &expected, false, true, tracer, report)?;

    let mut cold = Cold::start()?;
    let large: Vec<bool> = jobs.iter().map(|j| j.large).collect();
    let spec = LoadSpec {
        expected: &expected,
        large: &large,
        cached: false,
        keep_samples: true,
    };
    let open = cold_pass(&mut cold, &tails, &spec, report)?;
    let stats = cold.stop();
    let socket: Vec<((usize, usize), u64)> = open
        .load
        .samples
        .iter()
        .map(|s| ((0, s.seq as usize), s.latency_ns))
        .collect();
    let small: Vec<&Sample> = open
        .load
        .samples
        .iter()
        .filter(|s| !jobs[s.job as usize].large)
        .collect();
    report.set("latency_p99_us", p99_us(&small), "us");
    serve_layer_metrics(report, tracer, &replay, &rows, &socket, stats);
    let lag_us: Vec<f64> = open.lag_ns.iter().map(|&n| n as f64 / 1e3).collect();
    report.set("bench.gen.lag_p99_us", quantile(&lag_us, 0.99), "us");
    report.set("bench.gen.backlog_max", open.max_backlog as f64, "count");
    Ok(())
}
