//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records the layer it times, the request it belongs to, the
//! span that caused it (its parent) and its start and end on one
//! monotonic clock. Spans stay in memory while the workload runs and are
//! written out once at the end ([`Tracer::write_tsv`]). A layer's self
//! time is its span's duration minus the time its child spans cover.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// The layers the traced run times, named `<module>.<fn>` after the
/// public function the benchmark calls (see README.md for the table).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// One in-process request: the parent of every layer span it makes.
    Request,
    /// `segbus_serve::json::parse` of the request line.
    ServeJson,
    /// `segbus_dsl::parse_source`.
    DslParse,
    /// `ParsedSource::into_psm`: name lookup and model validation.
    DslResolve,
    /// `segbus_core::strict_validate`.
    CorePrecheck,
    /// `segbus_core::job_digest`.
    CoreDigest,
    /// `CachedPool::lookup` and `CachedPool::insert` (with its
    /// `DiskStore::append` when a store is attached).
    CoreCache,
    /// `EnginePlan::try_new`.
    CorePlan,
    /// `Engine::run_plan_into`.
    CoreRun,
    /// `EnginePlan::try_remap` plus `EnginePlan::revert`.
    CoreRemap,
    /// `EnginePlan::makespan_lower_bound_in`.
    CoreLowerBound,
    /// `EmulationReport::paper_style`.
    CoreReport,
    /// `segbus_serve::protocol::encode_report`.
    ServeEncode,
    /// `Portfolio::best`.
    PlacePortfolio,
}

impl Layer {
    /// Every layer reported as a per-layer metric, in output order.
    pub const REPORTED: [Layer; 13] = [
        Layer::ServeJson,
        Layer::DslParse,
        Layer::DslResolve,
        Layer::CorePrecheck,
        Layer::CoreDigest,
        Layer::CoreCache,
        Layer::CorePlan,
        Layer::CoreRun,
        Layer::CoreRemap,
        Layer::CoreLowerBound,
        Layer::CoreReport,
        Layer::ServeEncode,
        Layer::PlacePortfolio,
    ];

    /// The metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::ServeJson => "serve.json",
            Layer::DslParse => "dsl.parse",
            Layer::DslResolve => "dsl.resolve",
            Layer::CorePrecheck => "core.precheck",
            Layer::CoreDigest => "core.digest",
            Layer::CoreCache => "core.cache",
            Layer::CorePlan => "core.plan",
            Layer::CoreRun => "core.run",
            Layer::CoreRemap => "core.remap",
            Layer::CoreLowerBound => "core.lower_bound",
            Layer::CoreReport => "core.report",
            Layer::ServeEncode => "serve.encode",
            Layer::PlacePortfolio => "place.portfolio",
        }
    }
}

/// Marks a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was called.
    pub layer: Layer,
    /// The request (or walk step) the span belongs to.
    pub req: u32,
    /// Index of the parent span in [`Tracer::spans`], or [`NO_PARENT`].
    pub parent: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span store.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Tracer::close`]. Returns its index,
    /// which children pass as their parent.
    pub fn open(&mut self, layer: Layer, req: u32, parent: u32) -> u32 {
        let at = self.now_ns();
        self.spans.push(Span {
            layer,
            req,
            parent,
            start_ns: at,
            end_ns: at,
        });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Close the span `idx` now.
    pub fn close(&mut self, idx: u32) {
        let at = self.now_ns();
        self.spans[idx as usize].end_ns = at;
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, layer: Layer, req: u32, parent: u32, f: impl FnOnce() -> R) -> R {
        let idx = self.open(layer, req, parent);
        let out = f();
        self.close(idx);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children of one parent never overlap here, since
    /// the benchmark makes its layer calls one after another).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Calls, total self time and median self time of `layer`.
    pub fn layer_summary(&self, layer: Layer) -> LayerSummary {
        let own = self.self_ns();
        let samples: Vec<f64> = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, &ns)| ns as f64)
            .collect();
        LayerSummary {
            calls: samples.len() as u64,
            self_ns: samples.iter().sum(),
            p50_ns: stats::median(&samples),
        }
    }

    /// Write every span as one tab-separated line:
    /// `index layer request parent start_ns end_ns` (parent `-` for none).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tlayer\trequest\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.layer.name(),
                s.req,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Aggregate of one layer's spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerSummary {
    /// Spans recorded.
    pub calls: u64,
    /// Total self time, ns.
    pub self_ns: f64,
    /// Median self time per call, ns.
    pub p50_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.open(Layer::Request, 0, NO_PARENT);
        t.time(Layer::DslParse, 0, root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time(Layer::CoreRun, 0, root, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.close(root);
        let own = t.self_ns();
        let spans = t.spans();
        assert_eq!(
            own[0] + spans[1].dur_ns() + spans[2].dur_ns(),
            spans[0].dur_ns()
        );
        assert!(spans[1].dur_ns() >= 2_000_000);
        let parse = t.layer_summary(Layer::DslParse);
        assert_eq!(parse.calls, 1);
        assert_eq!(parse.self_ns, spans[1].dur_ns() as f64);
        assert_eq!(t.layer_summary(Layer::CoreRemap).calls, 0);
    }
}
