//! `place_grid`: the in-process portfolio makespan search on a seeded
//! 120-process toroidal grid.

use std::time::{Duration, Instant};

use segbus_core::{
    job_digest, strict_validate, EmulationReport, EmulatorConfig, Engine, EnginePlan,
    LowerBoundScratch, ReferenceEmulator,
};
use segbus_model::ids::{ProcessId, SegmentId};
use segbus_model::mapping::Psm;
use segbus_model::rng::SmallRng;
use segbus_model::stochastic::mix_seed;
use segbus_place::portfolio::PortfolioStats;
use segbus_place::{PlaceTool, Placement, Portfolio};

use crate::inputs;
use crate::metrics::RunReport;
use crate::oracle;
use crate::stats::{mean, median, quantile};
use crate::trace::{Layer, Tracer, NO_PARENT};
use crate::{Args, SETUP_REPEATS};

/// Segments the grid is placed onto.
pub const SEGMENTS: usize = 2;
/// Portfolio worker threads.
pub const THREADS: usize = 2;
/// Portfolio rounds (a maximum: a round that does not improve the
/// incumbent ends the search).
pub const ROUNDS: usize = 3;
/// Search seeds per run; each run times whole cycles over all of them.
pub const SEARCHES: usize = 4;
/// Traced run: steps of the seeded move walk over the grid plan.
pub const WALK_STEPS: usize = 4000;
/// Traced run: repetitions of each front-end and plan call.
pub const FRONT_REPEATS: usize = 20;

fn search_seeds(seed: u64) -> Vec<u64> {
    (0..SEARCHES as u64)
        .map(|j| mix_seed(seed, 0x5EA2C + j))
        .collect()
}

fn portfolio<'a>(tool: &PlaceTool<'a>) -> Portfolio<'a> {
    tool.portfolio(THREADS).with_rounds(ROUNDS)
}

/// Re-check every placement from scratch: rebuild the model with the
/// placement's allocation, print and re-parse it, and run the reference
/// emulator; its makespan must equal the reported cost, and the cost may
/// not exceed the greedy placement's. Returns the engine's estimate of
/// the best placement's execution time, for the RTL comparison.
fn check_placements(
    report: &mut RunReport,
    psm: &Psm,
    greedy: u64,
    found: &[Placement],
) -> Option<(Psm, u64)> {
    let mut best: Option<(Psm, u64, u64)> = None;
    for p in found {
        let moved = match Psm::new(
            psm.platform().clone(),
            psm.application().clone(),
            p.allocation.clone(),
        ) {
            Ok(m) => m,
            Err(e) => {
                report.fail(format!("search returned an invalid allocation: {e}"));
                continue;
            }
        };
        let reparsed = match segbus_dsl::parse_system(&segbus_dsl::printer::to_dsl(&moved)) {
            Ok(m) => m,
            Err(e) => {
                report.fail(format!("placed model does not re-parse: {e}"));
                continue;
            }
        };
        let reference = ReferenceEmulator::new(EmulatorConfig::default()).run(&reparsed);
        if reference.makespan.0 != p.cost {
            report.fail(format!(
                "placement cost {} but the reference emulates {}",
                p.cost, reference.makespan.0
            ));
        } else if p.cost > greedy {
            report.fail(format!(
                "placement cost {} is worse than the greedy placement's {greedy}",
                p.cost
            ));
        } else if best.as_ref().is_none_or(|b| p.cost < b.1) {
            let estimate = Engine::new(EmulatorConfig::default())
                .run(&reparsed)
                .execution_time()
                .0;
            best = Some((reparsed, p.cost, estimate));
        }
    }
    best.map(|(m, _, est)| (m, est))
}

/// `place_grid` with tracing off.
pub fn run(args: &Args, report: &mut RunReport) -> Result<(), String> {
    let text = segbus_dsl::printer::to_dsl(&inputs::place_grid_model(args.seed));
    let seeds = search_seeds(args.seed);

    // Set-up: parse, build the tool and a portfolio, compile the plan.
    let mut setups = Vec::new();
    for _ in 1..SETUP_REPEATS {
        let t = Instant::now();
        let psm = segbus_dsl::parse_system(&text).map_err(|e| format!("parse: {e}"))?;
        let tool = PlaceTool::new(psm.application(), SEGMENTS).with_makespan(psm.platform());
        let port = portfolio(&tool);
        let plan = EnginePlan::try_new(&psm).map_err(|e| format!("plan: {e}"))?;
        std::hint::black_box((&port, &plan));
        setups.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let psm = segbus_dsl::parse_system(&text).map_err(|e| format!("parse: {e}"))?;
    let tool = PlaceTool::new(psm.application(), SEGMENTS).with_makespan(psm.platform());
    let mut first = Some(portfolio(&tool));
    let plan = EnginePlan::try_new(&psm).map_err(|e| format!("plan: {e}"))?;
    std::hint::black_box(&plan);
    setups.push(t.elapsed().as_secs_f64());
    report.set("setup_s", median(&setups), "s");

    // Whole cycles over the search seeds until the run length is spent.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut cycle_means = Vec::new();
    let mut cycle_rates = Vec::new();
    let mut found: Vec<Option<Placement>> = vec![None; SEARCHES];
    while cycle_means.is_empty() || Instant::now() < deadline {
        let mut cycle_s = 0.0;
        let mut evaluations = 0u64;
        for (j, &s) in seeds.iter().enumerate() {
            let port = first.take().unwrap_or_else(|| portfolio(&tool));
            let t = Instant::now();
            let p = port.best(s);
            cycle_s += t.elapsed().as_secs_f64();
            report.attempted += 1;
            evaluations += port.stats().search.evaluations;
            match &found[j] {
                None => found[j] = Some(p),
                Some(prev) if *prev != p => {
                    report.fail(format!("search seed {s} gave two different placements"))
                }
                Some(_) => {}
            }
        }
        cycle_means.push(cycle_s / SEARCHES as f64);
        cycle_rates.push(evaluations as f64 / cycle_s);
        if cycle_means.len() == 1 {
            // Set-up plus one cycle of distinct searches: later cycles
            // repeat the same work, and only the allocator's reuse of
            // freed memory differs between them.
            report.set_peak_rss();
        }
    }

    let greedy = tool.greedy().cost;
    let found: Vec<Placement> = found.into_iter().flatten().collect();
    let best = check_placements(report, &psm, greedy, &found);
    // Both figures are medians over cycles: every cycle runs the same
    // searches, so the median only sets aside cycles the host slowed.
    report.set("throughput_rps", median(&cycle_rates), "1/s");
    report.set("latency_p50_us", median(&cycle_means) * 1e6, "us");
    report.set("large_latency_p50_ms", median(&cycle_means) * 1e3, "ms");
    let costs: Vec<f64> = found.iter().map(|p| p.cost as f64 / 1e6).collect();
    report.set("sim_makespan_us", mean(&costs), "us");
    match best {
        Some((m, est)) => oracle::set_rtl_error(report, &[(&m, 1, est)]),
        None => report.error("no placement passed the checks"),
    }
    Ok(())
}

/// `place_grid` traced: time the front end and plan calls on the grid,
/// a seeded remap walk over its plan (each step's lower bound and run
/// nested in the step's `core.remap` span), and one search; the search's
/// layer shares are modelled from its counters times the walk's per-call
/// medians.
pub fn traced(args: &Args, report: &mut RunReport, tracer: &mut Tracer) -> Result<(), String> {
    let text = segbus_dsl::printer::to_dsl(&inputs::place_grid_model(args.seed));
    let config = EmulatorConfig::default();
    let mut psm = None;
    for i in 0..FRONT_REPEATS as u32 {
        let root = tracer.open(Layer::Request, i, NO_PARENT);
        let parsed = tracer
            .time(Layer::DslParse, i, root, || segbus_dsl::parse_source(&text))
            .map_err(|e| format!("parse: {e}"))?;
        let m = tracer
            .time(Layer::DslResolve, i, root, || parsed.into_psm())
            .map_err(|e| format!("resolve: {e}"))?;
        tracer
            .time(Layer::CorePrecheck, i, root, || {
                strict_validate(&m, 1, &config)
            })
            .map_err(|e| format!("precheck: {e}"))?;
        tracer.time(Layer::CoreDigest, i, root, || job_digest(&m, &config, 1));
        tracer
            .time(Layer::CorePlan, i, root, || {
                EnginePlan::try_new(&m).map(|_| ())
            })
            .map_err(|e| format!("plan: {e}"))?;
        tracer.close(root);
        psm = Some(m);
    }
    let psm = psm.expect("at least one repeat");

    // The seeded move walk: remap one process, bound and run the patched
    // plan, revert.
    let mut plan = EnginePlan::try_new(&psm).map_err(|e| format!("plan: {e}"))?;
    let mut engine = Engine::new(config);
    let mut out = EmulationReport::empty();
    let mut scratch = LowerBoundScratch::default();
    let mut rng = SmallRng::seed_from_u64(mix_seed(args.seed, 0x3A1C));
    let n = psm.application().process_count() as u64;
    for step in 0..WALK_STEPS as u32 {
        let p = ProcessId(rng.below(n) as u32);
        let to = SegmentId(((plan.segment_of(p).0 as usize + 1) % SEGMENTS) as u16);
        let span = tracer.open(Layer::CoreRemap, step, NO_PARENT);
        let delta = plan.try_remap(p, to).map_err(|e| format!("remap: {e}"))?;
        let bound = tracer.time(Layer::CoreLowerBound, step, span, || {
            plan.makespan_lower_bound_in(&config, 1, &mut scratch)
        });
        tracer.time(Layer::CoreRun, step, span, || {
            engine.run_plan_into(&plan, 1, &mut out)
        });
        if bound > out.makespan {
            report.fail(format!(
                "walk step {step}: lower bound {} above the makespan {}",
                bound.0, out.makespan.0
            ));
        }
        plan.revert(&delta);
        tracer.close(span);
    }

    // Searches with and without a span, alternating: the trace overhead.
    let tool = PlaceTool::new(psm.application(), SEGMENTS).with_makespan(psm.platform());
    let seed = search_seeds(args.seed)[0];
    let mut untraced = 0.0;
    let mut traced_s = 0.0;
    let mut searches = Vec::new();
    let mut last = None;
    for i in 0..2 {
        let port = portfolio(&tool);
        let t = Instant::now();
        std::hint::black_box(port.best(seed));
        let plain = t.elapsed().as_secs_f64();
        let port = portfolio(&tool);
        let t = Instant::now();
        let placement = tracer.time(Layer::PlacePortfolio, i, NO_PARENT, || port.best(seed));
        let spanned = t.elapsed().as_secs_f64();
        untraced += plain;
        traced_s += spanned;
        searches.extend([plain, spanned]);
        last = Some((port, placement));
    }
    let (port, placement) = last.expect("two searches");
    let all_us: Vec<f64> = searches.iter().map(|s| s * 1e6).collect();
    report.set("latency_p99_us", quantile(&all_us, 0.99), "us");
    report.attempted += 4;
    let greedy = tool.greedy().cost;
    check_placements(report, &psm, greedy, &[placement]);
    let stats = port.stats();
    let search = tracer.layer_summary(Layer::PlacePortfolio);
    report.set("trace.overhead_ratio", traced_s / untraced, "ratio");
    place_layer_metrics(report, tracer, &stats, search.p50_ns, text.len());
    Ok(())
}

/// Set every per-layer metric of the traced `place_grid` run. Shares of
/// the search are modelled: calls the search made (from its counters)
/// times the walk's median per call, over the search's CPU time (wall
/// time × worker threads).
fn place_layer_metrics(
    report: &mut RunReport,
    tracer: &Tracer,
    stats: &PortfolioStats,
    search_ns: f64,
    source_bytes: usize,
) {
    let s = &stats.search;
    let in_search = |layer: Layer| -> f64 {
        match layer {
            Layer::CoreRun => s.emulations as f64,
            Layer::CoreRemap => s.plan_patches as f64,
            Layer::CoreLowerBound => (s.evaluations - s.memo_hits) as f64,
            _ => 0.0,
        }
    };
    let mut modelled = 0.0;
    for layer in Layer::REPORTED {
        let sum = tracer.layer_summary(layer);
        let share = in_search(layer) * sum.p50_ns / (search_ns * THREADS as f64).max(1.0);
        modelled += share;
        report.set_layer(layer, &sum, share);
    }
    // The search's own share is what the modelled layers leave over.
    report.set("place.portfolio.share", (1.0 - modelled).max(0.0), "ratio");
    report.set("trace.reconcile_ratio", modelled, "ratio");

    let parse = tracer.layer_summary(Layer::DslParse);
    report.set(
        "dsl.parse.mb_per_s",
        (source_bytes as f64 * parse.calls as f64) / 1e6 / (parse.self_ns / 1e9).max(1e-9),
        "MB/s",
    );
    report.set("place.portfolio.evaluations", s.evaluations as f64, "count");
    let evals = s.evaluations.max(1) as f64;
    report.set(
        "place.portfolio.memo_hit_ratio",
        s.memo_hits as f64 / evals,
        "ratio",
    );
    report.set(
        "place.portfolio.bound_skip_ratio",
        s.bound_skips as f64 / evals,
        "ratio",
    );
    report.set(
        "place.portfolio.plan_patches",
        s.plan_patches as f64,
        "count",
    );
    report.set("place.portfolio.emulations", s.emulations as f64, "count");
    report.set("place.portfolio.rounds", stats.rounds as f64, "count");
}
