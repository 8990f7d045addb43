//! Seeded inputs. Every model the benchmark sends is generated here from
//! the workload seed; the program under test receives only the DSL text
//! (`segbus_dsl::printer::to_dsl`) inside a request line.

use std::collections::HashSet;

use segbus_apps::generators::{block_allocation, grid, uniform_platform, GeneratorConfig};
use segbus_core::{job_digest, EmulatorConfig};
use segbus_gen::Family;
use segbus_model::ids::FlowId;
use segbus_model::mapping::Psm;
use segbus_model::psdf::{Application, Flow};
use segbus_model::rng::SmallRng;
use segbus_model::stochastic::mix_seed;

use crate::oracle::{self, Expected};

/// The small-model families the serve workloads draw from.
pub const SMALL_FAMILIES: [Family; 5] = [
    Family::Mp3,
    Family::Video,
    Family::Telecom,
    Family::Ring,
    Family::Star,
];

/// One emulation job as the benchmark knows it: the model it built, the
/// DSL text it sends, the run parameters, and the oracle's answer.
#[derive(Clone, Debug)]
pub struct Job {
    /// The model as generated (the oracle runs this, not a re-parse).
    /// Dropped for large grids once the oracle has run: a 1,600-process
    /// model holds a dense communication matrix of tens of MB.
    pub psm: Option<Psm>,
    /// `to_dsl(psm)`: what the program under test parses.
    pub source: String,
    /// Pipelined frames.
    pub frames: u64,
    /// A large toroidal grid (1,000–2,000 processes) rather than a small
    /// family model.
    pub large: bool,
    /// The server's cache key for this job, used to prove distinctness.
    pub digest: u64,
    /// What a correct response reports for this job.
    pub expected: Expected,
}

impl Job {
    fn new(psm: Psm, frames: u64, large: bool) -> Result<Job, String> {
        Ok(Job {
            digest: job_digest(&psm, &EmulatorConfig::default(), frames),
            source: segbus_dsl::printer::to_dsl(&psm),
            expected: oracle::expected(&psm, frames)?,
            psm: (!large).then_some(psm),
            frames,
            large,
        })
    }

    /// Everything of this job's `emulate` request line after the `id`
    /// value, newline included; see [`REQUEST_HEAD`].
    pub fn request_tail(&self) -> String {
        let mut tail = String::with_capacity(self.source.len() + 64);
        tail.push_str(",\"frames\":");
        tail.push_str(&self.frames.to_string());
        tail.push_str(",\"source\":");
        push_json_string(&mut tail, &self.source);
        tail.push_str("}\n");
        tail
    }

    /// The whole `emulate` request line for this job under correlation
    /// `id`, newline included.
    pub fn request_line(&self, id: u64) -> String {
        format!("{REQUEST_HEAD}{id}{}", self.request_tail())
    }
}

/// How every `emulate` request line starts; the correlation id follows,
/// then the job's [`Job::request_tail`].
pub const REQUEST_HEAD: &str = "{\"cmd\":\"emulate\",\"id\":";

/// Append `s` to `out` as a JSON string literal.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A copy of `psm` with every flow's `ticks` raised by up to an eighth and
/// some flows carrying one more package of items, drawn from `rng`. The
/// platform, mapping and noise annotations are kept.
pub fn perturb(psm: &Psm, rng: &mut SmallRng) -> Psm {
    let app = psm.application();
    let package = u64::from(psm.platform().package_size());
    let mut out = Application::new(app.name()).with_cost_model(app.cost_model());
    for p in app.processes() {
        out.add_process(p.clone());
    }
    for (i, f) in app.flows().iter().enumerate() {
        let ticks = f.ticks + rng.below(f.ticks / 8 + 1);
        let items = f.items + package * rng.below(2);
        out.add_flow(Flow::new(f.src, f.dst, items, f.order, ticks))
            .expect("a perturbed flow keeps its endpoints and order");
        if let Some(noise) = app.flow_noise(FlowId(i as u32)) {
            out.set_flow_noise(FlowId(i as u32), noise.clone())
                .expect("noise valid on the original flow stays valid");
        }
    }
    Psm::new(psm.platform().clone(), out, psm.allocation().clone())
        .expect("perturbing volumes and costs keeps the model valid")
}

/// Family and frame count of small job `i`: the families in turn, and
/// frames `1..=max_frames` in turn across rounds of families, so every
/// (family, frames) pair recurs equally often. This stratification keeps
/// the model mix — and with it every aggregate over the jobs — from
/// swinging with the seed; the seed picks the models within each pair.
fn stratum(i: usize, max_frames: u64) -> (Family, u64) {
    let n = SMALL_FAMILIES.len();
    (SMALL_FAMILIES[i % n], 1 + (i / n) as u64 % max_frames)
}

/// `serve_warm`'s model set: `count` distinct small family models at
/// family seeds derived from `seed`, with frames 1–4, stratified by
/// [`stratum`].
pub fn warm_models(seed: u64, count: usize) -> Result<Vec<Job>, String> {
    let mut seen = HashSet::new();
    let mut jobs = Vec::with_capacity(count);
    let mut k = 0u64;
    while jobs.len() < count {
        let (family, frames) = stratum(jobs.len(), 4);
        let fseed = mix_seed(seed, k);
        k += 1;
        let job = Job::new(family.generate(fseed), frames, false)?;
        if seen.insert(job.digest) {
            jobs.push(job);
        }
    }
    Ok(jobs)
}

/// One large toroidal grid of 1,296–1,936 processes on 8 segments, its
/// shape and costs drawn from `rng`.
pub fn large_grid(rng: &mut SmallRng) -> Psm {
    let width = rng.range_usize(36, 44);
    let height = rng.range_usize(36, 44);
    let app = grid(
        width,
        height,
        GeneratorConfig {
            items_per_flow: 36,
            ticks_per_package: rng.range_u64(30, 50),
        },
    );
    let alloc = block_allocation(&app, 8);
    Psm::new(uniform_platform(8, 36), app, alloc).expect("grid model validates")
}

/// `serve_cold`'s request stream: `count` jobs with pairwise distinct
/// digests. Every `large_every`-th job (offset by a seeded phase) is a
/// large grid; the rest are small family models with perturbed items and
/// ticks and frames 1–8, stratified by [`stratum`].
pub fn cold_stream(seed: u64, count: usize, large_every: usize) -> Result<Vec<Job>, String> {
    let mut rng = SmallRng::seed_from_u64(mix_seed(seed, 0xC01D));
    let phase = rng.below(large_every as u64) as usize;
    let mut seen = HashSet::new();
    let mut jobs = Vec::with_capacity(count);
    let mut small = 0;
    while jobs.len() < count {
        let job = if jobs.len() % large_every == phase {
            Job::new(large_grid(&mut rng), 1, true)?
        } else {
            let (family, frames) = stratum(small, 8);
            small += 1;
            let base = family.generate(rng.next_u64());
            Job::new(perturb(&base, &mut rng), frames, false)?
        };
        if seen.insert(job.digest) {
            jobs.push(job);
        }
    }
    Ok(jobs)
}

/// `place_grid`'s instance: the 12 × 10 toroidal grid (120 processes) of
/// the `Family::Grid` shape, one package per flow, with each flow's
/// ticks drawn from 38–42 by `seed`, block-mapped onto two segments.
pub fn place_grid_model(seed: u64) -> Psm {
    let mut rng = SmallRng::seed_from_u64(mix_seed(seed, 0x9121D));
    let base = grid(
        12,
        10,
        GeneratorConfig {
            items_per_flow: 36,
            ticks_per_package: 40,
        },
    );
    let mut app = Application::new(base.name()).with_cost_model(base.cost_model());
    for p in base.processes() {
        app.add_process(p.clone());
    }
    for f in base.flows() {
        app.add_flow(Flow::new(
            f.src,
            f.dst,
            f.items,
            f.order,
            rng.range_u64(38, 42),
        ))
        .expect("grid flows stay valid");
    }
    let alloc = block_allocation(&app, 2);
    Psm::new(uniform_platform(2, 36), app, alloc).expect("grid model validates")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_distinct_digests() {
        let a = warm_models(7, 32).expect("generates");
        let b = warm_models(7, 32).expect("generates");
        assert_eq!(a.len(), 32);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source, y.source);
            assert_eq!(x.frames, y.frames);
        }
        let distinct: HashSet<u64> = a.iter().map(|j| j.digest).collect();
        assert_eq!(distinct.len(), 32);
        assert_ne!(warm_models(8, 1).expect("generates")[0].source, a[0].source);

        let cold = cold_stream(7, 40, 20).expect("generates");
        let distinct: HashSet<u64> = cold.iter().map(|j| j.digest).collect();
        assert_eq!(distinct.len(), 40);
        assert_eq!(cold.iter().filter(|j| j.large).count(), 2);
        assert!(cold.iter().all(|j| j.psm.is_some() != j.large));
    }

    #[test]
    fn request_lines_round_trip_through_the_dsl() {
        let job = &warm_models(3, 1).expect("generates")[0];
        let line = job.request_line(42);
        assert!(line.ends_with("}\n"));
        let v = segbus_serve::json::parse(line.trim_end()).expect("valid JSON");
        let src = v.get("source").and_then(|s| s.as_str()).expect("source");
        assert_eq!(src, job.source);
        let back = segbus_dsl::parse_system(src).expect("parses");
        assert_eq!(back.digest(), job.psm.as_ref().expect("small job").digest());
    }
}
