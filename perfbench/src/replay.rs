//! The traced run's in-process replay of a serve request stream: the
//! request lines the socket clients send, pushed through the same public
//! functions the server calls, in the server's order, with one span per
//! layer call.
//!
//! The server computes the digest three times per job and renders the
//! report once inside `encode_report`; the replay computes the digest
//! once and renders the report twice (`core.report` on its own, then
//! again inside `serve.encode`). `serve.encode`'s self time is therefore
//! taken as its duration minus the same request's `core.report` span, so
//! the layer sum counts one rendering, as the server does.

use std::path::Path;

use segbus_core::{
    job_digest, strict_validate, CachedPool, EmulationReport, EmulatorConfig, Engine, EnginePlan,
};
use segbus_serve::json::{self, Json};
use segbus_serve::protocol::encode_report;

use crate::trace::{Layer, Tracer, NO_PARENT};

/// The server's default report-cache capacity
/// (`ServeOptions::default().cache_capacity`).
pub const CACHE_CAPACITY: usize = 256;

/// What one replayed request produced.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// Simulated makespan, ps.
    pub makespan_ps: u64,
    /// Answered from the cache.
    pub cached: bool,
    /// Wall time of the whole request, ns (its root span, or the outer
    /// timer of an untraced replay).
    pub total_ns: u64,
    /// Time the server would spend on the same work: `total_ns` minus
    /// the replay's extra report rendering.
    pub server_ns: u64,
    /// Σ self time of the layer spans, with `serve.encode` counted net of
    /// its embedded rendering (0 when untraced).
    pub layers_ns: u64,
}

/// Counters of the replay's report cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheCounts {
    /// `lookup` calls.
    pub reads: u64,
    /// `insert` calls.
    pub writes: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Entries displaced by capacity.
    pub evictions: u64,
}

/// The replay state: a report cache like the server's and one engine.
pub struct Replay {
    pool: CachedPool,
    engine: Engine,
    config: EmulatorConfig,
    reads: u64,
    writes: u64,
    /// Bytes of every `core.report` and `serve.encode` output.
    pub report_bytes: u64,
    /// See `report_bytes`.
    pub encode_bytes: u64,
    /// Bytes of DSL source parsed.
    pub source_bytes: u64,
    /// Per traced request: `serve.encode`'s duration net of its embedded
    /// rendering (the request's `core.report` span).
    pub encode_net_ns: Vec<u64>,
}

impl Replay {
    /// A replay whose cache holds [`CACHE_CAPACITY`] reports, backed by a
    /// fresh persistent store under `disk` when given (as `serve_cold`'s
    /// server is).
    pub fn new(disk: Option<&Path>) -> Result<Replay, String> {
        let config = EmulatorConfig::default();
        let mut pool = CachedPool::new(config, CACHE_CAPACITY);
        if let Some(dir) = disk {
            pool.attach_disk(dir)
                .map_err(|e| format!("cannot open a report store: {e}"))?;
        }
        Ok(Replay {
            pool,
            engine: Engine::new(config),
            config,
            reads: 0,
            writes: 0,
            report_bytes: 0,
            encode_bytes: 0,
            source_bytes: 0,
            encode_net_ns: Vec::new(),
        })
    }

    /// The cache counters so far.
    pub fn cache_counts(&self) -> CacheCounts {
        let s = self.pool.stats();
        CacheCounts {
            reads: self.reads,
            writes: self.writes,
            hits: s.hits,
            evictions: s.evictions,
        }
    }

    /// Replay one request line. With a tracer every layer call becomes a
    /// span under one `request` span tagged `req`; without one only the
    /// whole request is timed.
    pub fn request(
        &mut self,
        line: &str,
        req: u32,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Outcome, String> {
        let started = std::time::Instant::now();
        let root = tracer
            .as_deref_mut()
            .map_or(NO_PARENT, |t| t.open(Layer::Request, req, NO_PARENT));
        let mut timed = |layer: Layer, f: &mut dyn FnMut()| match tracer.as_deref_mut() {
            Some(t) => t.time(layer, req, root, f),
            None => f(),
        };

        let mut value: Result<Json, String> = Err(String::new());
        timed(Layer::ServeJson, &mut || value = json::parse(line));
        let value = value.map_err(|e| format!("request line is not JSON: {e}"))?;
        let id = value.get("id").and_then(Json::as_u64).unwrap_or(0);
        let frames = value.get("frames").and_then(Json::as_u64).unwrap_or(1);
        let source = value
            .get("source")
            .and_then(Json::as_str)
            .ok_or("request has no source")?;
        self.source_bytes += source.len() as u64;

        let mut parsed = None;
        timed(Layer::DslParse, &mut || {
            parsed = Some(segbus_dsl::parse_source(source))
        });
        let parsed = parsed
            .expect("the closure ran")
            .map_err(|e| format!("parse: {e}"))?;
        let mut parsed = Some(parsed);
        let mut psm = None;
        timed(Layer::DslResolve, &mut || {
            psm = Some(parsed.take().expect("parsed once").into_psm())
        });
        let psm = psm
            .expect("the closure ran")
            .map_err(|e| format!("resolve: {e}"))?;

        let mut key = 0;
        timed(Layer::CoreDigest, &mut || {
            key = job_digest(&psm, &self.config, frames)
        });
        let mut hit = None;
        timed(Layer::CoreCache, &mut || hit = self.pool.lookup(key));
        self.reads += 1;
        let cached = hit.is_some();
        let report = match hit {
            Some(r) => r,
            None => {
                let mut checked = Ok(());
                timed(Layer::CorePrecheck, &mut || {
                    checked = strict_validate(&psm, frames, &self.config)
                });
                checked.map_err(|e| format!("precheck: {e}"))?;
                let mut plan = None;
                timed(Layer::CorePlan, &mut || {
                    plan = Some(EnginePlan::try_new(&psm))
                });
                let plan = plan
                    .expect("the closure ran")
                    .map_err(|e| format!("plan: {e}"))?;
                let mut out = EmulationReport::empty();
                let engine = &mut self.engine;
                timed(Layer::CoreRun, &mut || {
                    engine.run_plan_into(&plan, frames, &mut out)
                });
                let pool = &mut self.pool;
                timed(Layer::CoreCache, &mut || pool.insert(key, &out));
                self.writes += 1;
                out
            }
        };
        let mut text_len = 0;
        let rendered = std::time::Instant::now();
        timed(Layer::CoreReport, &mut || {
            text_len = report.paper_style().len()
        });
        let report_ns = rendered.elapsed().as_nanos() as u64;
        self.report_bytes += text_len as u64;
        let mut encoded_len = 0;
        timed(Layer::ServeEncode, &mut || {
            encoded_len = encode_report(id, cached, key, &report).len()
        });
        self.encode_bytes += encoded_len as u64;

        let total_ns = started.elapsed().as_nanos() as u64;
        let mut layers_ns = 0;
        let mut server_ns = total_ns.saturating_sub(report_ns);
        if let Some(t) = tracer {
            t.close(root);
            let spans = &t.spans()[root as usize..];
            let dur = |layer| {
                spans
                    .iter()
                    .find(|s| s.layer == layer)
                    .map_or(0, |s| s.dur_ns())
            };
            let report_span = dur(Layer::CoreReport);
            self.encode_net_ns
                .push(dur(Layer::ServeEncode).saturating_sub(report_span));
            let children: u64 = spans[1..].iter().map(|s| s.dur_ns()).sum();
            layers_ns = children.saturating_sub(report_span);
            server_ns = spans[0].dur_ns().saturating_sub(report_span);
        }
        Ok(Outcome {
            makespan_ps: report.makespan.0,
            cached,
            total_ns,
            server_ns,
            layers_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::warm_models;

    #[test]
    fn replay_caches_and_accounts_every_layer() {
        let jobs = warm_models(5, 3).expect("generates");
        let mut replay = Replay::new(None).expect("memory cache");
        let mut tracer = Tracer::new();
        for round in 0..2 {
            for (i, job) in jobs.iter().enumerate() {
                let line = job.request_line(i as u64);
                let out = replay
                    .request(line.trim_end(), i as u32, Some(&mut tracer))
                    .expect("replays");
                assert_eq!(out.cached, round == 1);
                assert_eq!(out.makespan_ps, job.expected.makespan_ps);
                assert!(out.layers_ns <= out.server_ns);
            }
        }
        let counts = replay.cache_counts();
        assert_eq!((counts.reads, counts.writes, counts.hits), (6, 3, 3));
        assert_eq!(tracer.layer_summary(Layer::CoreRun).calls, 3);
        assert_eq!(tracer.layer_summary(Layer::DslParse).calls, 6);
        assert_eq!(tracer.layer_summary(Layer::CoreCache).calls, 9);
    }
}
