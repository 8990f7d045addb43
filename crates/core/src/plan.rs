//! The compiled engine plan.
//!
//! [`EnginePlan`] flattens everything about a PSM the fast core reads —
//! flow endpoints, package counts, clock domains, waves, precomputed
//! inter-segment paths with their border units — into index-addressed
//! tables, compiled once and reused across runs. Placement search patches
//! a plan in place ([`EnginePlan::try_remap`] / [`EnginePlan::revert`],
//! O(degree) per move) and prunes candidates with the admissible
//! [`EnginePlan::makespan_lower_bound`].

use segbus_model::diag::SegbusError;
use segbus_model::ids::{FlowId, ProcessId, SegmentId};
use segbus_model::mapping::Psm;
use segbus_model::time::{ClockDomain, Picos};

use crate::config::{EmulatorConfig, ProducerRelease};
use crate::engine::FastClock;

/// Sentinel in `flow_path` for intra-segment flows (no CA involvement).
pub(crate) const NO_PATH: u32 = u32::MAX;

/// Compile (or fetch from the `path_of` memo) the route from segment `a`
/// to segment `b`: the segment chain plus per-hop border-unit index and
/// crossing direction. Returns [`NO_PATH`] for `a == b`. Shared by plan
/// compilation and [`EnginePlan::try_remap`], which extends the same
/// route table incrementally as moves expose new segment pairs.
fn compile_route(
    platform: &segbus_model::platform::Platform,
    nseg: usize,
    paths: &mut Vec<PathInfo>,
    path_of: &mut [u32],
    a: SegmentId,
    b: SegmentId,
) -> Result<u32, SegbusError> {
    if a == b {
        return Ok(NO_PATH);
    }
    let key = a.index() * nseg + b.index();
    if path_of[key] == NO_PATH {
        let segs = platform.path_segments(a, b);
        if segs.len() < 2 || segs.first() != Some(&a) || segs.last() != Some(&b) {
            return Err(SegbusError::new(
                "C005",
                format!("no route from segment {a} to segment {b}"),
            ));
        }
        let mut bu = Vec::with_capacity(segs.len() - 1);
        let mut load_left = Vec::with_capacity(segs.len() - 1);
        let mut unload_right = Vec::with_capacity(segs.len() - 1);
        for w in segs.windows(2) {
            let r = platform.bu_between(w[0], w[1]).ok_or_else(|| {
                SegbusError::new(
                    "C005",
                    format!(
                        "no border unit between adjacent segments {} and {}",
                        w[0], w[1]
                    ),
                )
            })?;
            bu.push(r.index() as u32);
            load_left.push(w[0] == r.left);
            unload_right.push(w[1] == r.right);
        }
        path_of[key] = paths.len() as u32;
        paths.push(PathInfo {
            segs,
            bu,
            load_left,
            unload_right,
        });
    }
    Ok(path_of[key])
}

/// An inter-segment route with its per-hop border units, compiled once.
#[derive(Clone, Debug)]
pub(crate) struct PathInfo {
    /// Segments on the path, source first, destination last.
    pub(crate) segs: Vec<SegmentId>,
    /// `bu[h]` is the dense index of the BU between `segs[h]` and
    /// `segs[h+1]`.
    pub(crate) bu: Vec<u32>,
    /// `segs[h]` is the *left* side of `bu[h]` (load direction).
    pub(crate) load_left: Vec<bool>,
    /// `segs[h+1]` is the *right* side of `bu[h]` (unload direction).
    pub(crate) unload_right: Vec<bool>,
}

/// Everything about a PSM the engine needs, flattened into index-addressed
/// tables. Building the plan is the only part of a run that touches the
/// model crate's object graph; the event loop reads these arrays only.
#[derive(Debug)]
pub struct EnginePlan<'a> {
    pub(crate) psm: &'a Psm,
    pub(crate) s: u32,
    pub(crate) nseg: usize,
    pub(crate) nproc: usize,
    pub(crate) n_bu: usize,
    pub(crate) flow_src: Vec<ProcessId>,
    pub(crate) flow_dst: Vec<ProcessId>,
    pub(crate) flow_pkgs: Vec<u64>,
    pub(crate) flow_compute: Vec<u64>,
    /// Wave index of each flow (parallel to the flow table).
    pub(crate) flow_wave: Vec<usize>,
    /// Index into `paths`, or [`NO_PATH`] for intra-segment flows.
    pub(crate) flow_path: Vec<u32>,
    pub(crate) proc_seg: Vec<SegmentId>,
    pub(crate) seg_clock: Vec<ClockDomain>,
    pub(crate) ca_clock: ClockDomain,
    /// Strength-reduced mirrors of `seg_clock` / `ca_clock` for the event
    /// loop (report assembly keeps the plain domains).
    pub(crate) fast_seg: Vec<FastClock>,
    pub(crate) fast_ca: FastClock,
    pub(crate) waves: Vec<Vec<FlowId>>,
    pub(crate) paths: Vec<PathInfo>,
    /// Route memo behind `paths`: `path_of[a·nseg + b]` is the compiled
    /// path index from segment `a` to `b`, or [`NO_PATH`] while that pair
    /// has not been routed. Kept in the plan so [`EnginePlan::try_remap`]
    /// extends the route table instead of recompiling it.
    path_of: Vec<u32>,
    /// CSR adjacency over flows: the flow indices touching process `p`
    /// (as source or destination) are
    /// `proc_flow[proc_flow_off[p]..proc_flow_off[p+1]]`. Lets a remap
    /// rebuild only the O(degree) mapping-dependent `flow_path` entries.
    proc_flow_off: Vec<u32>,
    proc_flow: Vec<u32>,
}

/// Reusable accumulation buffers for
/// [`EnginePlan::makespan_lower_bound_in`]. A default-constructed value
/// works for any plan; buffers grow to the plan's process and segment
/// counts on first use and are retained across calls.
#[derive(Default)]
pub struct LowerBoundScratch {
    proc_ps: Vec<u128>,
    seg_ps: Vec<u128>,
}

/// The revertable record of one [`EnginePlan::try_remap`]: which process
/// moved, where it came from, and every `flow_path` entry the move
/// rewrote. [`EnginePlan::revert`] undoes exactly this delta.
#[derive(Clone, Debug)]
pub struct PlanDelta {
    process: ProcessId,
    from: SegmentId,
    /// `(flow index, previous flow_path entry)` for each touched flow.
    flow_path: Vec<(u32, u32)>,
}

impl PlanDelta {
    /// The process the remap moved.
    pub fn process(&self) -> ProcessId {
        self.process
    }

    /// The segment the process was mapped to before the remap.
    pub fn from(&self) -> SegmentId {
        self.from
    }

    /// Number of per-flow hop-table entries the remap rewrote — the
    /// O(degree) work the patch did instead of a full plan recompile.
    pub fn touched_flows(&self) -> usize {
        self.flow_path.len()
    }
}

impl<'a> EnginePlan<'a> {
    /// Compile the static tables for `psm`.
    ///
    /// # Panics
    /// Panics if the PSM violates an engine invariant (unplaced process,
    /// missing border unit, zero-reference cost model). Use
    /// [`EnginePlan::try_new`] for input that has not been through
    /// [`crate::precheck::strict_validate`].
    pub fn new(psm: &'a Psm) -> EnginePlan<'a> {
        match EnginePlan::try_new(psm) {
            Ok(plan) => plan,
            Err(e) => panic!("PSM violates an engine invariant: {e}"),
        }
    }

    /// Compile the static tables for `psm`, reporting engine-invariant
    /// violations as typed errors (`C0xx` codes, see [`crate::precheck`])
    /// instead of panicking.
    pub fn try_new(psm: &'a Psm) -> Result<EnginePlan<'a>, SegbusError> {
        let app = psm.application();
        let platform = psm.platform();
        let s = platform.package_size();
        let nseg = platform.segment_count();
        let nproc = app.process_count();
        let nflow = app.flows().len();

        let flow_src: Vec<ProcessId> = app.flows().iter().map(|f| f.src).collect();
        let flow_dst: Vec<ProcessId> = app.flows().iter().map(|f| f.dst).collect();
        let flow_pkgs: Vec<u64> = app.flows().iter().map(|f| f.packages(s)).collect();
        let flow_compute: Vec<u64> = (0..nflow)
            .map(|i| app.ticks_per_package(FlowId(i as u32), s))
            .collect();
        let proc_seg: Vec<SegmentId> = (0..nproc)
            .map(|i| {
                let p = ProcessId(i as u32);
                match psm.allocation().segment_of(p) {
                    Some(seg) if platform.contains(seg) => Ok(seg),
                    Some(seg) => Err(SegbusError::new(
                        "C002",
                        format!("process {p} is placed on non-existent segment {seg}"),
                    )),
                    None => Err(SegbusError::new(
                        "C002",
                        format!("process {p} is not placed"),
                    )),
                }
            })
            .collect::<Result<_, SegbusError>>()?;

        let waves: Vec<Vec<FlowId>> = app.waves().into_iter().map(|w| w.flows).collect();
        let mut flow_wave = vec![0usize; nflow];
        for (w, flows) in waves.iter().enumerate() {
            for f in flows {
                flow_wave[f.index()] = w;
            }
        }

        // Compile each distinct (source segment, destination segment) route
        // once: segments plus per-hop BU index and crossing direction.
        let mut paths: Vec<PathInfo> = Vec::new();
        let mut path_of = vec![NO_PATH; nseg * nseg];
        let flow_path: Vec<u32> = (0..nflow)
            .map(|i| {
                let a = proc_seg[flow_src[i].index()];
                let b = proc_seg[flow_dst[i].index()];
                compile_route(platform, nseg, &mut paths, &mut path_of, a, b)
            })
            .collect::<Result<_, SegbusError>>()?;

        // CSR adjacency: each flow is listed under both endpoints (once
        // when they coincide), so a remap of process `p` sees exactly the
        // flows whose hop table the move can change.
        let mut proc_flow_off = vec![0u32; nproc + 1];
        for i in 0..nflow {
            proc_flow_off[flow_src[i].index() + 1] += 1;
            if flow_dst[i] != flow_src[i] {
                proc_flow_off[flow_dst[i].index() + 1] += 1;
            }
        }
        for p in 0..nproc {
            proc_flow_off[p + 1] += proc_flow_off[p];
        }
        let mut proc_flow = vec![0u32; proc_flow_off[nproc] as usize];
        let mut cursor: Vec<u32> = proc_flow_off[..nproc].to_vec();
        for i in 0..nflow {
            proc_flow[cursor[flow_src[i].index()] as usize] = i as u32;
            cursor[flow_src[i].index()] += 1;
            if flow_dst[i] != flow_src[i] {
                proc_flow[cursor[flow_dst[i].index()] as usize] = i as u32;
                cursor[flow_dst[i].index()] += 1;
            }
        }

        let seg_clock: Vec<ClockDomain> = platform.segments().iter().map(|sg| sg.clock).collect();
        let ca_clock = platform.ca_clock();
        let fast_seg: Vec<FastClock> = seg_clock.iter().map(|&c| FastClock::new(c)).collect();
        let fast_ca = FastClock::new(ca_clock);

        Ok(EnginePlan {
            psm,
            s,
            nseg,
            nproc,
            n_bu: platform.border_unit_count(),
            flow_src,
            flow_dst,
            flow_pkgs,
            flow_compute,
            flow_wave,
            flow_path,
            proc_seg,
            seg_clock,
            ca_clock,
            fast_seg,
            fast_ca,
            waves,
            paths,
            path_of,
            proc_flow_off,
            proc_flow,
        })
    }

    /// The PSM this plan was compiled from.
    ///
    /// After a [`EnginePlan::try_remap`] the plan's tables describe the
    /// *moved* placement while this model still carries the original
    /// allocation; callers tracking content digests across remaps must
    /// derive them from their own slot vector
    /// ([`segbus_model::digest_with_slots`]), not from this PSM.
    pub fn psm(&self) -> &'a Psm {
        self.psm
    }

    /// The segment each process is currently mapped to (reflects remaps).
    pub fn segment_of(&self, p: ProcessId) -> SegmentId {
        self.proc_seg[p.index()]
    }

    /// Re-point process `p` at segment `to`, rebuilding only the
    /// mapping-dependent plan slices: the process's segment entry and the
    /// per-flow hop tables of the O(degree) flows touching it. Routes
    /// newly exposed by the move are compiled once and memoised alongside
    /// the existing route table; everything else (package counts, clock
    /// tables, waves, picosecond slices derived at run setup) is
    /// untouched. Running a patched plan is bit-identical to compiling a
    /// fresh [`EnginePlan`] for the moved model — the differential suite
    /// pins this across the corpus.
    ///
    /// Returns the [`PlanDelta`] that [`EnginePlan::revert`] undoes. On a
    /// routing error (`C005`) the plan is left unchanged.
    pub fn try_remap(&mut self, p: ProcessId, to: SegmentId) -> Result<PlanDelta, SegbusError> {
        if p.index() >= self.nproc {
            return Err(SegbusError::new(
                "C002",
                format!("process {p} is out of range for this plan"),
            ));
        }
        let psm = self.psm;
        let platform = psm.platform();
        if !platform.contains(to) {
            return Err(SegbusError::new(
                "C002",
                format!("process {p} cannot move to non-existent segment {to}"),
            ));
        }
        let from = self.proc_seg[p.index()];
        let mut delta = PlanDelta {
            process: p,
            from,
            flow_path: Vec::new(),
        };
        if from == to {
            return Ok(delta);
        }
        // Two phases: resolve every touched flow's new route first (route
        // compilation can fail), then commit. A failed resolve may leave
        // freshly compiled routes in the memo — that cache stays valid —
        // but never a partially moved mapping.
        let lo = self.proc_flow_off[p.index()] as usize;
        let hi = self.proc_flow_off[p.index() + 1] as usize;
        let mut resolved = Vec::with_capacity(hi - lo);
        for k in lo..hi {
            let f = self.proc_flow[k] as usize;
            let a = if self.flow_src[f] == p {
                to
            } else {
                self.proc_seg[self.flow_src[f].index()]
            };
            let b = if self.flow_dst[f] == p {
                to
            } else {
                self.proc_seg[self.flow_dst[f].index()]
            };
            let idx = compile_route(
                platform,
                self.nseg,
                &mut self.paths,
                &mut self.path_of,
                a,
                b,
            )?;
            resolved.push((f as u32, idx));
        }
        self.proc_seg[p.index()] = to;
        for (f, idx) in resolved {
            delta.flow_path.push((f, self.flow_path[f as usize]));
            self.flow_path[f as usize] = idx;
        }
        Ok(delta)
    }

    /// [`EnginePlan::try_remap`] that panics on invalid moves; for input
    /// whose segments are known to exist and be routable.
    ///
    /// # Panics
    /// Panics if the move is out of range or unroutable.
    pub fn remap(&mut self, p: ProcessId, to: SegmentId) -> PlanDelta {
        match self.try_remap(p, to) {
            Ok(d) => d,
            Err(e) => panic!("invalid remap: {e}"),
        }
    }

    /// Undo a [`EnginePlan::try_remap`], restoring the process's segment
    /// and every rewritten hop-table entry. Deltas must be reverted in
    /// LIFO order relative to other remaps of the same process.
    pub fn revert(&mut self, delta: &PlanDelta) {
        self.proc_seg[delta.process.index()] = delta.from;
        for &(f, old) in &delta.flow_path {
            self.flow_path[f as usize] = old;
        }
    }

    /// An admissible lower bound on the plan's `frames`-frame makespan:
    /// the larger of a **global** term and a **wave-chain** term.
    ///
    /// The global term (scaled by `frames`) is the busiest single
    /// resource:
    ///
    /// * **producer serialisation** — a producer handles its packages
    ///   strictly one at a time: it computes a package and stays busy
    ///   until the package's bus phase completes (through final delivery
    ///   under [`ProducerRelease::AfterDelivery`], through the source
    ///   segment's serve under
    ///   [`ProducerRelease::AfterLocalPhase`]), so the sum of
    ///   compute-plus-serve over its packages bounds the run from below;
    /// * **boundary traffic** — every package transfer occupies each
    ///   segment on its path for the full bus transaction, and transfers
    ///   on one segment never overlap, so the busiest segment's occupancy
    ///   bounds the run from below.
    ///
    /// The wave-chain term exploits the barrier semantics of DESIGN.md
    /// §4: within a frame, wave `w`'s producers are armed only once wave
    /// `w−1` has *fully delivered*, so frame 0's waves execute strictly
    /// in sequence no matter how many frames pipeline around them. The
    /// single-frame chain — the sum over waves of each wave's busiest
    /// resource (the two global terms restricted to that wave's flows) —
    /// is therefore admissible for any frame count.
    ///
    /// All terms count mandatory work only (edge alignment, arbitration
    /// waits and circuit stalls can only add time), so the bound never
    /// exceeds the emulated makespan — the property tests pin
    /// `makespan_lower_bound ≤ makespan` across the corpus. Placement
    /// search uses it to skip emulating candidates that provably cannot
    /// beat an incumbent.
    pub fn makespan_lower_bound(&self, config: &EmulatorConfig, frames: u64) -> Picos {
        self.makespan_lower_bound_in(config, frames, &mut LowerBoundScratch::default())
    }

    /// [`EnginePlan::makespan_lower_bound`] with caller-owned scratch, so
    /// hot loops (placement search bounds one plan per candidate) pay no
    /// allocation per call.
    pub fn makespan_lower_bound_in(
        &self,
        config: &EmulatorConfig,
        frames: u64,
        scratch: &mut LowerBoundScratch,
    ) -> Picos {
        let bus_ticks = config.timing.bus_transaction_ticks(self.s) as u128;
        let full_path = config.producer_release == ProducerRelease::AfterDelivery;
        scratch.proc_ps.clear();
        scratch.proc_ps.resize(self.nproc, 0);
        scratch.seg_ps.clear();
        scratch.seg_ps.resize(self.nseg, 0);
        let (proc_ps, seg_ps) = (&mut scratch.proc_ps, &mut scratch.seg_ps);
        // Per-flow accumulation shared by the global pass (all flows) and
        // the per-wave passes (one wave's flows at a time): returns the
        // largest resource total after folding flow `f` in.
        let add_flow = |f: usize, proc_ps: &mut [u128], seg_ps: &mut [u128]| -> u128 {
            let pkgs = self.flow_pkgs[f] as u128;
            let src = self.flow_src[f].index();
            let src_seg = self.proc_seg[src].index();
            let src_period = self.seg_clock[src_seg].period_ps() as u128;
            let mut worst = 0u128;
            // Mandatory bus time between compute-done and the producer's
            // release, per package.
            let mut serve_ps = bus_ticks * src_period;
            let path = self.flow_path[f];
            if path == NO_PATH {
                seg_ps[src_seg] += pkgs * bus_ticks * src_period;
                worst = worst.max(seg_ps[src_seg]);
            } else {
                let mut path_ps = 0u128;
                for m in &self.paths[path as usize].segs {
                    let period = self.seg_clock[m.index()].period_ps() as u128;
                    seg_ps[m.index()] += pkgs * bus_ticks * period;
                    worst = worst.max(seg_ps[m.index()]);
                    path_ps += bus_ticks * period;
                }
                if full_path {
                    // Send-and-wait: the producer resumes only on final
                    // delivery, after the package was served on every
                    // segment along its path in turn.
                    serve_ps = path_ps;
                }
            }
            proc_ps[src] += pkgs * (self.flow_compute[f] as u128 * src_period + serve_ps);
            worst.max(proc_ps[src])
        };
        let mut bound = 0u128;
        if frames > 1 {
            // Global term. At `frames == 1` the chain term dominates it
            // (a resource's total is the sum of its per-wave loads, each
            // ≤ that wave's maximum), so the pass is skipped there.
            let mut global = 0u128;
            for f in 0..self.flow_src.len() {
                global = global.max(add_flow(f, proc_ps, seg_ps));
            }
            bound = global * frames as u128;
            proc_ps.fill(0);
            seg_ps.fill(0);
        }
        // Wave-chain term: the same accumulation one wave at a time,
        // zeroing only the touched slots between waves.
        let mut chain = 0u128;
        for flows in &self.waves {
            let mut wave_worst = 0u128;
            for f in flows {
                wave_worst = wave_worst.max(add_flow(f.index(), proc_ps, seg_ps));
            }
            chain += wave_worst;
            for f in flows {
                let fi = f.index();
                let src = self.flow_src[fi].index();
                proc_ps[src] = 0;
                let path = self.flow_path[fi];
                if path == NO_PATH {
                    seg_ps[self.proc_seg[src].index()] = 0;
                } else {
                    for m in &self.paths[path as usize].segs {
                        seg_ps[m.index()] = 0;
                    }
                }
            }
        }
        bound = bound.max(chain);
        Picos(bound.min(u64::MAX as u128) as u64)
    }
}
