//! Differential test of the linear-time graph helpers and validators
//! against naive reference implementations.
//!
//! The `naive` module keeps the original scan-based versions — O(P²) name
//! checks, O(F) per-process degree probes, O(F²) dependency checks and a
//! topological walk that rescans every flow per dequeued process. Over
//! seeded random applications (duplicate names, cycles, out-of-order
//! waves, isolated processes, initial/final kind violations, unplaced and
//! misplaced processes) the production code must return exactly what the
//! reference returns: the same diagnostics in the same order, the same
//! sources, sinks and order assignments.

use segbus_model::ids::{ProcessId, SegmentId};
use segbus_model::mapping::Allocation;
use segbus_model::platform::Platform;
use segbus_model::psdf::{Application, Flow, Process, ProcessKind};
use segbus_model::rng::SmallRng;
use segbus_model::time::ClockDomain;
use segbus_model::validate::{self, Diagnostic};
use segbus_model::ModelError;

mod naive {
    use segbus_model::ids::{ProcessId, SegmentId};
    use segbus_model::mapping::Allocation;
    use segbus_model::platform::Platform;
    use segbus_model::psdf::{Application, ProcessKind};
    use segbus_model::validate::{self, Constraint, Diagnostic, Severity};

    fn error(constraint: Constraint, message: String) -> Diagnostic {
        Diagnostic {
            constraint,
            severity: Severity::Error,
            message,
        }
    }

    fn warning(constraint: Constraint, message: String) -> Diagnostic {
        Diagnostic {
            constraint,
            severity: Severity::Warning,
            message,
        }
    }

    pub fn process_by_name(app: &Application, name: &str) -> Option<ProcessId> {
        app.processes()
            .iter()
            .position(|p| p.name == name)
            .map(|i| ProcessId(i as u32))
    }

    pub fn sources(app: &Application) -> Vec<ProcessId> {
        (0..app.process_count() as u32)
            .map(ProcessId)
            .filter(|&p| app.inputs_of(p).next().is_none())
            .collect()
    }

    pub fn sinks(app: &Application) -> Vec<ProcessId> {
        (0..app.process_count() as u32)
            .map(ProcessId)
            .filter(|&p| app.outputs_of(p).next().is_none())
            .collect()
    }

    pub fn orders_respect_dependencies(app: &Application) -> bool {
        app.flows().iter().all(|f| {
            app.inputs_of(f.src)
                .all(|in_id| app.flow(in_id).order < f.order)
        })
    }

    /// The original wave assignment: the new per-flow orders, or the
    /// first process left with unresolved inputs when there is a cycle.
    pub fn topological_orders(app: &Application) -> Result<Vec<u32>, ProcessId> {
        let n = app.process_count();
        let mut level = vec![0u32; n];
        let mut indeg = vec![0usize; n];
        for f in app.flows() {
            indeg[f.dst.index()] += 1;
        }
        let mut queue: Vec<ProcessId> = (0..n as u32)
            .map(ProcessId)
            .filter(|p| indeg[p.index()] == 0)
            .collect();
        for &p in &queue {
            level[p.index()] = 1;
        }
        let mut visited = 0usize;
        let mut qi = 0usize;
        while qi < queue.len() {
            let p = queue[qi];
            qi += 1;
            visited += 1;
            let lp = level[p.index()];
            for f in app.flows() {
                if f.src != p {
                    continue;
                }
                let d = f.dst.index();
                if level[d] < lp + 1 {
                    level[d] = lp + 1;
                }
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    queue.push(f.dst);
                }
            }
        }
        if visited != n {
            let p = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| ProcessId(i as u32))
                .unwrap_or(ProcessId(0));
            return Err(p);
        }
        Ok(app.flows().iter().map(|f| level[f.src.index()]).collect())
    }

    pub fn validate(platform: &Platform, app: &Application, alloc: &Allocation) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        validate::validate_platform(platform, &mut out);
        validate_application(app, platform.package_size(), &mut out);
        validate_allocation(platform, app, alloc, &mut out);
        out
    }

    fn validate_application(app: &Application, package_size: u32, out: &mut Vec<Diagnostic>) {
        for (i, p) in app.processes().iter().enumerate() {
            if app.processes()[..i].iter().any(|q| q.name == p.name) {
                out.push(error(
                    Constraint::UniqueNames,
                    format!("process name {:?} is used more than once", p.name),
                ));
            }
        }
        let cyclic = topological_orders(app).is_err();
        if cyclic {
            out.push(error(
                Constraint::Acyclic,
                "the dataflow graph contains a cycle".into(),
            ));
        }
        if app.process_count() > 0 && sources(app).is_empty() {
            out.push(error(
                Constraint::HasSource,
                "no process is a source (every process has inputs)".into(),
            ));
        }
        if !cyclic && !orders_respect_dependencies(app) {
            for f in app.flows() {
                let bad = app
                    .inputs_of(f.src)
                    .any(|in_id| app.flow(in_id).order >= f.order);
                if bad {
                    out.push(error(
                        Constraint::OrderRespectsDependencies,
                        format!(
                            "flow {} -> {} has order {} not greater than the order of every flow feeding {}",
                            app.process(f.src).name,
                            app.process(f.dst).name,
                            f.order,
                            app.process(f.src).name,
                        ),
                    ));
                }
            }
        }
        if package_size > 0 {
            for f in app.flows() {
                if f.items % package_size as u64 != 0 {
                    out.push(warning(
                        Constraint::ItemsFillPackages,
                        format!(
                            "flow {} -> {} carries {} items, not a multiple of the package size {} (last package is padded)",
                            app.process(f.src).name,
                            app.process(f.dst).name,
                            f.items,
                            package_size,
                        ),
                    ));
                }
            }
        }
        for (i, p) in app.processes().iter().enumerate() {
            let id = ProcessId(i as u32);
            match p.kind {
                ProcessKind::Initial => {
                    if app.inputs_of(id).next().is_some() {
                        out.push(warning(
                            Constraint::KindConsistent,
                            format!("initial process {} has incoming flows", p.name),
                        ));
                    }
                }
                ProcessKind::Final => {
                    if app.outputs_of(id).next().is_some() {
                        out.push(warning(
                            Constraint::KindConsistent,
                            format!("final process {} has outgoing flows", p.name),
                        ));
                    }
                }
                ProcessKind::Internal => {}
            }
        }
        for (i, p) in app.processes().iter().enumerate() {
            let id = ProcessId(i as u32);
            if app.inputs_of(id).next().is_none() && app.outputs_of(id).next().is_none() {
                out.push(warning(
                    Constraint::ProcessConnected,
                    format!("process {} participates in no flow", p.name),
                ));
            }
        }
    }

    fn validate_allocation(
        platform: &Platform,
        app: &Application,
        alloc: &Allocation,
        out: &mut Vec<Diagnostic>,
    ) {
        for (i, p) in app.processes().iter().enumerate() {
            let id = ProcessId(i as u32);
            match alloc.segment_of(id) {
                None => out.push(error(
                    Constraint::ProcessPlaced,
                    format!("process {} is not placed on any segment", p.name),
                )),
                Some(s) if !platform.contains(s) => out.push(error(
                    Constraint::SegmentExists,
                    format!("process {} is placed on non-existent {}", p.name, s),
                )),
                Some(_) => {}
            }
        }
        for s in 0..platform.segment_count() as u16 {
            let s = SegmentId(s);
            if alloc.count_on(s) == 0 {
                out.push(warning(
                    Constraint::SegmentNonEmpty,
                    format!("{s} hosts no functional unit"),
                ));
            }
        }
    }
}

const NAMES: [&str; 6] = ["A", "B", "C", "D", "E", "F"];

/// A random application: names drawn from a small pool (so duplicates are
/// common), random kinds, random edges (cycles and isolated processes
/// arise naturally), and either random orders or topological ones.
fn random_app(rng: &mut SmallRng, max_processes: usize) -> Application {
    let mut app = Application::new("random");
    let n = rng.range_usize(0, max_processes);
    for i in 0..n {
        let name = if rng.gen_bool(0.3) {
            NAMES[rng.range_usize(0, NAMES.len() - 1)].to_string()
        } else {
            format!("P{i}")
        };
        app.add_process(match rng.range_usize(0, 3) {
            0 => Process::initial(name),
            1 => Process::final_(name),
            _ => Process::new(name),
        });
    }
    if n >= 2 {
        let flows = rng.range_usize(0, 2 * n);
        for _ in 0..flows {
            let src = rng.range_usize(0, n - 1);
            let mut dst = rng.range_usize(0, n - 2);
            if dst >= src {
                dst += 1;
            }
            let items = if rng.gen_bool(0.7) {
                36 * rng.range_u64(1, 4)
            } else {
                rng.range_u64(1, 100)
            };
            let order = rng.range_u64(0, 5) as u32;
            app.add_flow(Flow::new(
                ProcessId(src as u32),
                ProcessId(dst as u32),
                items,
                order,
                rng.range_u64(1, 50),
            ))
            .unwrap();
        }
    }
    if rng.gen_bool(0.3) {
        // Valid waves when acyclic; a cyclic graph keeps its random orders.
        let _ = app.assign_orders_topologically();
    }
    app
}

fn random_system(rng: &mut SmallRng, max_processes: usize) -> (Platform, Application, Allocation) {
    let app = random_app(rng, max_processes);
    let segments = rng.range_usize(1, 4);
    let platform = Platform::builder("p")
        .package_size(if rng.gen_bool(0.5) { 36 } else { 18 })
        .uniform_segments(segments, ClockDomain::from_mhz(100.0))
        .build()
        .unwrap();
    let mut alloc = Allocation::new(segments);
    for i in 0..app.process_count() {
        match rng.range_usize(0, 9) {
            0 => {} // unplaced
            1 => alloc.assign(ProcessId(i as u32), SegmentId(segments as u16 + 1)),
            _ => alloc.assign(
                ProcessId(i as u32),
                SegmentId(rng.range_usize(0, segments - 1) as u16),
            ),
        }
    }
    (platform, app, alloc)
}

fn check(seed: u64, platform: &Platform, app: &Application, alloc: &Allocation) {
    let got: Vec<Diagnostic> = validate::validate(platform, app, alloc);
    let want = naive::validate(platform, app, alloc);
    assert_eq!(got, want, "seed {seed}: diagnostics differ");

    for name in NAMES
        .iter()
        .map(|s| s.to_string())
        .chain(app.processes().iter().map(|p| p.name.clone()))
    {
        assert_eq!(
            app.process_by_name(&name),
            naive::process_by_name(app, &name),
            "seed {seed}: process_by_name({name:?})"
        );
    }
    assert_eq!(app.sources(), naive::sources(app), "seed {seed}: sources");
    assert_eq!(app.sinks(), naive::sinks(app), "seed {seed}: sinks");
    assert_eq!(
        app.orders_respect_dependencies(),
        naive::orders_respect_dependencies(app),
        "seed {seed}: orders_respect_dependencies"
    );

    let mut assigned = app.clone();
    match naive::topological_orders(app) {
        Ok(orders) => {
            assigned.assign_orders_topologically().unwrap();
            let got: Vec<u32> = assigned.flows().iter().map(|f| f.order).collect();
            assert_eq!(got, orders, "seed {seed}: topological orders");
        }
        Err(p) => {
            assert_eq!(
                assigned.assign_orders_topologically(),
                Err(ModelError::Cycle(p)),
                "seed {seed}: cycle report"
            );
            assert_eq!(
                &assigned, app,
                "seed {seed}: a failed assignment is a no-op"
            );
        }
    }
}

#[test]
fn linear_validators_match_the_naive_reference() {
    let mut kinds = [0usize; 4]; // cyclic, V006, V011, V009 systems seen
    for seed in 0..3000u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (platform, app, alloc) = random_system(&mut rng, 12);
        check(seed, &platform, &app, &alloc);
        let codes: Vec<&str> = validate::validate(&platform, &app, &alloc)
            .iter()
            .map(|d| d.constraint.code())
            .collect();
        for (k, code) in ["V010", "V006", "V011", "V009"].iter().enumerate() {
            kinds[k] += codes.contains(code) as usize;
        }
    }
    // The generator must actually exercise every rule it is meant to.
    assert!(kinds.iter().all(|&k| k > 50), "coverage {kinds:?}");
}

#[test]
fn linear_validators_match_on_larger_graphs() {
    for seed in 0..40u64 {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let (platform, app, alloc) = random_system(&mut rng, 200);
        check(seed, &platform, &app, &alloc);
    }
}

#[test]
fn kind_violations_and_isolated_processes_match() {
    // A hand-built case hitting V009 in both directions, V012 and V011
    // together, beside the random sweep.
    let mut app = Application::new("k");
    let f = app.add_process(Process::final_("X"));
    let i = app.add_process(Process::initial("Y"));
    let lone = app.add_process(Process::new("X"));
    app.add_flow(Flow::new(f, i, 36, 1, 1)).unwrap();
    assert_eq!(app.process(lone).kind, ProcessKind::Internal);
    let platform = Platform::builder("p")
        .uniform_segments(2, ClockDomain::from_mhz(100.0))
        .build()
        .unwrap();
    let alloc = Allocation::from_groups(&[&[0, 1, 2], &[]]);
    check(0, &platform, &app, &alloc);
    let codes: Vec<&str> = validate::validate(&platform, &app, &alloc)
        .iter()
        .map(|d| d.constraint.code())
        .collect();
    assert_eq!(codes, ["V011", "V009", "V009", "V012", "V005"]);
}
