//! Resumable campaigns: a content-addressed chunk store for
//! [`SweepEngine`] results.
//!
//! [`run_stored`] splits a [`SweepSpec`]'s scenario ids into
//! [`STORE_RANGES`] contiguous ranges ([`partition`]), serves every range
//! that already has a valid chunk in the [`ChunkStore`], evaluates the
//! rest in process through the engine's pool, one range at a time, and
//! saves each range as soon as it completes. Results come back in scenario-id order, bit-identical to
//! [`SweepEngine::run`] on the same spec (digest-gated in
//! `tests/sweep_plan.rs` against the golden campaign pins).
//!
//! The store is a directory of chunk files named `<key>.json` where
//! `key` is the FNV-1a digest of the campaign identity ([`spec_digest`]:
//! the canonical spec document — machines, backends, rate-multiplier
//! bits, fork point — plus every problem's `(kind, param_digest)`) mixed
//! with the scenario-id range. Floats are stored as 16-digit hex bit
//! patterns (`f64::to_bits`), never as JSON numbers, so the trip is exact
//! for every value (the [`obs::json`] parser stores all numbers as
//! `f64`). A resumed campaign recomputes only the ranges whose chunks are
//! missing or fail validation (schema, key, digest of the re-serialized
//! payload, id coverage); corrupt chunks are treated as misses, never
//! trusted.

use std::path::PathBuf;

use obs::json::{escape, Json};
use pace_core::engine::SubtaskTime;
use pace_core::templates::pipeline::PipelineEstimate;
use pace_core::workload::Workload;
use pace_core::{AllreduceParams, EvaluationReport, StencilParams, Sweep3dParams};
use registry::WorkloadSpec;
use wavefront_models::Backend;

use crate::engine::SweepEngine;
use crate::fnv::Fnv1a;
use crate::spec::{ScenarioResult, SweepSpec};

/// Ranges a stored campaign is split into. Chunk keys depend on the
/// split, so changing it turns every existing store cold.
pub const STORE_RANGES: usize = 8;

// ---------------------------------------------------------------------------
// Range partitioner
// ---------------------------------------------------------------------------

/// One contiguous scenario-id range, `start..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdRange {
    /// First scenario id of the range (inclusive).
    pub start: usize,
    /// One past the last scenario id (exclusive).
    pub end: usize,
}

impl IdRange {
    /// Scenario count of the range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range holds no ids.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Split scenario ids `0..n` into at most `parts` contiguous, non-empty,
/// non-overlapping ranges that cover every id in order. The first
/// `n % parts` ranges are one id longer, so sizes differ by at most one;
/// `n == 0` yields no ranges. Deterministic: the same `(n, parts)` always
/// produces the same split (the store keys depend on it).
pub fn partition(n: usize, parts: usize) -> Vec<IdRange> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(IdRange { start, end: start + len });
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

// ---------------------------------------------------------------------------
// Canonical spec document and campaign identity
// ---------------------------------------------------------------------------

/// The workload spec-file form of a problem-axis trait object, for the
/// shipped parameter types. Store keys hash that form, so ad-hoc
/// `Workload` impls (possible in library use, not constructible from the
/// CLI) are a structured error rather than a silent wrong answer.
fn workload_spec_of(w: &dyn Workload) -> Result<WorkloadSpec, String> {
    let any = w.as_any();
    if let Some(p) = any.downcast_ref::<Sweep3dParams>() {
        return Ok(WorkloadSpec::Wavefront(*p));
    }
    if let Some(p) = any.downcast_ref::<StencilParams>() {
        return Ok(WorkloadSpec::Stencil(*p));
    }
    if let Some(p) = any.downcast_ref::<AllreduceParams>() {
        return Ok(WorkloadSpec::Allreduce(*p));
    }
    Err(format!(
        "workload kind '{}' has no spec-file form; stored campaigns need the shipped parameter types",
        w.kind()
    ))
}

/// Emit the canonical spec document. Machine and workload specs
/// ride as escaped strings of their own exact round-trip formats
/// ([`registry::MachineSpec::to_json`], [`WorkloadSpec::to_json`]);
/// rate multipliers are hex bit patterns. The text is deterministic —
/// [`spec_digest`] hashes it for store keying, so its bytes, schema name
/// included, must not change or every existing store turns cold.
pub fn spec_to_json(spec: &SweepSpec) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"sweepsvc/shard-spec-v1\",\n  \"machines\": [");
    for (i, m) in spec.machines.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\"", escape(&m.to_json()));
    }
    out.push_str("],\n  \"problems\": [");
    for (i, p) in spec.problems.iter().enumerate() {
        let ws = workload_spec_of(&*p.workload)?;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"label\": \"{}\", \"workload\": \"{}\"}}",
            escape(&p.label),
            escape(&ws.to_json())
        );
    }
    out.push_str("],\n  \"rate_multiplier_bits\": [");
    for (i, &m) in spec.rate_multipliers.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{:016x}\"", m.to_bits());
    }
    out.push_str("],\n  \"backends\": [");
    for (i, b) in spec.backends.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\"", b.name());
    }
    out.push_str("],\n  \"des_fork\": ");
    match spec.des_fork {
        Some(f) => {
            let _ = write!(out, "\"{f}\"");
        }
        None => out.push_str("null"),
    }
    out.push_str("\n}\n");
    Ok(out)
}

/// Campaign identity for store keying: FNV-1a over the canonical spec
/// document, then every problem's workload kind and `param_digest`.
pub fn spec_digest(spec: &SweepSpec) -> Result<u64, String> {
    let text = spec_to_json(spec)?;
    let mut h = Fnv1a::new().add(text.as_bytes());
    for p in &spec.problems {
        h = h.add(p.workload.kind().as_bytes()).add(&p.workload.param_digest().to_le_bytes());
    }
    Ok(h.finish())
}

// ---------------------------------------------------------------------------
// Result codec
// ---------------------------------------------------------------------------

fn hex_bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn hex_str(v: &Json, ctx: &str) -> Result<u64, String> {
    let s = v.as_str().ok_or_else(|| format!("{ctx}: expected a hex string"))?;
    if s.len() != 16 {
        return Err(format!("{ctx}: expected 16 hex digits, got {s:?}"));
    }
    u64::from_str_radix(s, 16).map_err(|e| format!("{ctx}: {e}"))
}

fn uint(v: Option<&Json>, ctx: &str) -> Result<u64, String> {
    let n = v.and_then(Json::as_f64).ok_or_else(|| format!("{ctx}: expected a number"))?;
    // Exact-integer window of f64; scenario/subtask counts are tiny.
    if !(0.0..=9.007_199_254_740_992e15).contains(&n) || n.fract() != 0.0 {
        return Err(format!("{ctx}: {n} is not an unsigned integer"));
    }
    Ok(n as u64)
}

fn string(v: Option<&Json>, ctx: &str) -> Result<String, String> {
    v.and_then(Json::as_str).map(str::to_owned).ok_or_else(|| format!("{ctx}: expected a string"))
}

fn bits_field(v: Option<&Json>, ctx: &str) -> Result<f64, String> {
    Ok(f64::from_bits(hex_str(v.ok_or_else(|| format!("{ctx}: missing"))?, ctx)?))
}

fn pipeline_json(p: &PipelineEstimate) -> String {
    format!(
        "{{\"total_bits\": \"{}\", \"fill_bits\": \"{}\", \"steady_bits\": \"{}\", \"comm_bits\": \"{}\", \"unit_bits\": \"{}\", \"stages\": {}}}",
        hex_bits(p.total_secs),
        hex_bits(p.fill_secs),
        hex_bits(p.steady_secs),
        hex_bits(p.comm_secs),
        hex_bits(p.unit_secs),
        p.stages
    )
}

/// Emit one scenario result as a single-line store object. Every
/// float is a hex bit pattern, so the trip is exact.
pub fn result_to_json(r: &ScenarioResult) -> String {
    use std::fmt::Write as _;
    let mut subs = String::new();
    for (i, s) in r.report.subtasks.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let pipe = match &s.pipeline {
            Some(p) => pipeline_json(p),
            None => "null".to_string(),
        };
        let _ = write!(
            subs,
            "{sep}{{\"name\": \"{}\", \"secs_bits\": \"{}\", \"pipeline\": {pipe}}}",
            escape(&s.name),
            hex_bits(s.secs_per_iteration)
        );
    }
    format!(
        "{{\"id\": {}, \"machine\": {}, \"problem\": {}, \"multiplier\": {}, \"backend\": \"{}\", \"rate_bits\": \"{}\", \"label\": \"{}\", \"pes\": {}, \"total_bits\": \"{}\", \"application\": \"{}\", \"hardware\": \"{}\", \"report_total_bits\": \"{}\", \"iterations\": {}, \"subtasks\": [{subs}]}}",
        r.id,
        r.machine,
        r.problem,
        r.multiplier,
        r.backend.name(),
        hex_bits(r.rate_multiplier),
        escape(&r.label),
        r.pes,
        hex_bits(r.total_secs),
        escape(&r.report.application),
        escape(&r.report.hardware),
        hex_bits(r.report.total_secs),
        r.report.iterations,
    )
}

/// Parse one store result object.
pub fn result_from_json(v: &Json) -> Result<ScenarioResult, String> {
    let ctx = "store result";
    let mut subtasks = Vec::new();
    let subs = v
        .get("subtasks")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}.subtasks: expected an array"))?;
    for (i, s) in subs.iter().enumerate() {
        let sctx = format!("{ctx}.subtasks[{i}]");
        let pipeline = match s.get("pipeline") {
            Some(Json::Null) | None => None,
            Some(p) => Some(PipelineEstimate {
                total_secs: bits_field(p.get("total_bits"), &format!("{sctx}.total_bits"))?,
                fill_secs: bits_field(p.get("fill_bits"), &format!("{sctx}.fill_bits"))?,
                steady_secs: bits_field(p.get("steady_bits"), &format!("{sctx}.steady_bits"))?,
                comm_secs: bits_field(p.get("comm_bits"), &format!("{sctx}.comm_bits"))?,
                unit_secs: bits_field(p.get("unit_bits"), &format!("{sctx}.unit_bits"))?,
                stages: uint(s.get("pipeline").and_then(|p| p.get("stages")), &sctx)? as usize,
            }),
        };
        subtasks.push(SubtaskTime {
            name: string(s.get("name"), &format!("{sctx}.name"))?,
            secs_per_iteration: bits_field(s.get("secs_bits"), &format!("{sctx}.secs_bits"))?,
            pipeline,
        });
    }
    let report = EvaluationReport {
        application: string(v.get("application"), &format!("{ctx}.application"))?,
        hardware: string(v.get("hardware"), &format!("{ctx}.hardware"))?,
        total_secs: bits_field(v.get("report_total_bits"), &format!("{ctx}.report_total_bits"))?,
        iterations: uint(v.get("iterations"), &format!("{ctx}.iterations"))? as usize,
        subtasks,
    };
    Ok(ScenarioResult {
        id: uint(v.get("id"), &format!("{ctx}.id"))? as usize,
        machine: uint(v.get("machine"), &format!("{ctx}.machine"))? as usize,
        problem: uint(v.get("problem"), &format!("{ctx}.problem"))? as usize,
        multiplier: uint(v.get("multiplier"), &format!("{ctx}.multiplier"))? as usize,
        backend: Backend::parse(&string(v.get("backend"), &format!("{ctx}.backend"))?)?,
        rate_multiplier: bits_field(v.get("rate_bits"), &format!("{ctx}.rate_bits"))?,
        label: string(v.get("label"), &format!("{ctx}.label"))?,
        pes: uint(v.get("pes"), &format!("{ctx}.pes"))? as usize,
        total_secs: bits_field(v.get("total_bits"), &format!("{ctx}.total_bits"))?,
        report,
    })
}

/// The canonical serialization of a result slice — the store chunk's
/// payload, digested for chunk validation.
pub fn results_to_json(results: &[ScenarioResult]) -> String {
    let items: Vec<String> = results.iter().map(result_to_json).collect();
    format!("[{}]", items.join(", "))
}

fn results_from_json(v: &Json, ctx: &str) -> Result<Vec<ScenarioResult>, String> {
    v.as_arr()
        .ok_or_else(|| format!("{ctx}: expected an array"))?
        .iter()
        .map(result_from_json)
        .collect()
}

// ---------------------------------------------------------------------------
// Content-addressed chunk store
// ---------------------------------------------------------------------------

/// A directory of completed-range chunk files, addressed by content key
/// (campaign identity × scenario-id range). See the module docs for the
/// layout and validation rules.
#[derive(Debug, Clone)]
pub struct ChunkStore {
    dir: PathBuf,
}

impl ChunkStore {
    /// Open (creating if needed) a store directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ChunkStore, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create store dir {}: {e}", dir.display()))?;
        Ok(ChunkStore { dir })
    }

    /// The chunk key of one range of one campaign.
    pub fn chunk_key(spec_digest: u64, range: IdRange) -> u64 {
        Fnv1a::new()
            .add(&spec_digest.to_le_bytes())
            .add(&(range.start as u64).to_le_bytes())
            .add(&(range.end as u64).to_le_bytes())
            .finish()
    }

    /// The chunk file path for a key.
    pub fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Load and validate one range's chunk. Any failure — missing file,
    /// parse error, key/digest/range mismatch, wrong id coverage — is a
    /// miss (`None`), never an error: the range is simply recomputed.
    pub fn load(&self, spec_digest: u64, range: IdRange) -> Option<Vec<ScenarioResult>> {
        let key = Self::chunk_key(spec_digest, range);
        let text = std::fs::read_to_string(self.path(key)).ok()?;
        let doc = Json::parse(&text).ok()?;
        if doc.get("schema").and_then(Json::as_str) != Some("sweepsvc/shard-chunk-v1") {
            return None;
        }
        let field = |k: &str| hex_str(doc.get(k)?, k).ok();
        if field("key") != Some(key) || field("spec_digest") != Some(spec_digest) {
            return None;
        }
        if uint(doc.get("start"), "start").ok()? as usize != range.start
            || uint(doc.get("end"), "end").ok()? as usize != range.end
        {
            return None;
        }
        let results = results_from_json(doc.get("results")?, "chunk results").ok()?;
        // The payload digest is over the canonical re-serialization, so a
        // chunk that parses but drifted by a bit anywhere fails closed.
        let payload = results_to_json(&results);
        if field("payload_digest") != Some(Fnv1a::of(payload.as_bytes())) {
            return None;
        }
        if results.len() != range.len()
            || results.iter().enumerate().any(|(i, r)| r.id != range.start + i)
        {
            return None;
        }
        Some(results)
    }

    /// Write one range's chunk (atomically: temp file + rename).
    pub fn save(
        &self,
        spec_digest: u64,
        range: IdRange,
        results: &[ScenarioResult],
    ) -> Result<(), String> {
        let key = Self::chunk_key(spec_digest, range);
        let payload = results_to_json(results);
        let doc = format!(
            "{{\n  \"schema\": \"sweepsvc/shard-chunk-v1\",\n  \"key\": \"{key:016x}\",\n  \"spec_digest\": \"{spec_digest:016x}\",\n  \"start\": {},\n  \"end\": {},\n  \"payload_digest\": \"{:016x}\",\n  \"results\": {payload}\n}}\n",
            range.start,
            range.end,
            Fnv1a::of(payload.as_bytes()),
        );
        let path = self.path(key);
        let tmp = self.dir.join(format!("{key:016x}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, doc).map_err(|e| format!("store write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("store rename {}: {e}", path.display())
        })
    }
}

// ---------------------------------------------------------------------------
// Stored campaign
// ---------------------------------------------------------------------------

/// Counters of one stored campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Ranges the campaign was split into (at most [`STORE_RANGES`]).
    pub ranges: usize,
    /// Ranges served from valid chunks without evaluation.
    pub store_hits: usize,
    /// Ranges evaluated and saved by this run — every range without
    /// `resume`, so this is also the count of ranges completed.
    pub store_misses: usize,
}

impl StoreStats {
    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} range(s): {} served from the store, {} evaluated and saved\n",
            self.ranges, self.store_hits, self.store_misses
        )
    }
}

/// Results of one stored campaign: scenario results in id order plus
/// store counters.
#[derive(Debug, Clone)]
pub struct StoredOutcome {
    /// One result per scenario, sorted by scenario id.
    pub results: Vec<ScenarioResult>,
    /// Store counters.
    pub stats: StoreStats,
}

/// Evaluate every scenario of the spec with a chunk store as checkpoint.
/// With `resume`, ranges whose chunks load and validate are served from
/// the store; every other range is evaluated through `engine`'s pool (the
/// body of [`SweepEngine::run`], given only that range's ids) and
/// saved atomically as soon as it completes, so an interrupted campaign
/// keeps every range it finished. Results are bit-identical to
/// `engine.run(spec)`.
pub fn run_stored(
    engine: &SweepEngine,
    spec: &SweepSpec,
    store: &ChunkStore,
    resume: bool,
) -> Result<StoredOutcome, String> {
    spec.validate()?;
    let digest = spec_digest(spec)?;
    let index = spec.index();
    let ranges = partition(spec.len(), STORE_RANGES);
    let mut results = Vec::with_capacity(spec.len());
    let mut store_hits = 0;
    for &range in &ranges {
        if let Some(chunk) = resume.then(|| store.load(digest, range)).flatten() {
            store_hits += 1;
            results.extend(chunk);
            continue;
        }
        let chunk = engine.run_ids(spec, &index, range.start..range.end).results;
        store.save(digest, range, &chunk)?;
        results.extend(chunk);
    }
    let stats =
        StoreStats { ranges: ranges.len(), store_hits, store_misses: ranges.len() - store_hits };
    Ok(StoredOutcome { results, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SweepSpec {
        let mut params = Sweep3dParams::speculative_20m(2, 2);
        params.iterations = 1;
        params.nz = 20;
        SweepSpec::new()
            .machine(registry::builtin("opteron-myrinet").unwrap())
            .rate_multipliers(vec![1.0, 1.25, 1.5])
            .problem("2x2", params)
            .problem("cg4", AllreduceParams::cg_like(4))
            .backends(vec![Backend::Pace, Backend::DesSim])
            .des_fork(20)
    }

    #[test]
    fn partition_covers_exactly_with_balanced_sizes() {
        let ranges = partition(10, 3);
        assert_eq!(
            ranges,
            vec![
                IdRange { start: 0, end: 4 },
                IdRange { start: 4, end: 7 },
                IdRange { start: 7, end: 10 }
            ]
        );
        assert!(partition(0, 4).is_empty());
        assert_eq!(partition(2, 8).len(), 2, "never more ranges than ids");
        assert_eq!(partition(5, 1), vec![IdRange { start: 0, end: 5 }]);
    }

    #[test]
    fn spec_digest_separates_campaigns() {
        // The canonical text, and hence the digest, is reproducible.
        assert_eq!(spec_to_json(&small_spec()).unwrap(), spec_to_json(&small_spec()).unwrap());
        let a = spec_digest(&small_spec()).unwrap();
        let b = spec_digest(&small_spec().rate_multipliers(vec![1.0])).unwrap();
        let c = spec_digest(&small_spec().des_fork(21)).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn results_round_trip_bit_for_bit() {
        let spec = small_spec();
        let results = SweepEngine::with_workers(1).run(&spec).results;
        assert!(results.iter().any(|r| r.report.subtasks.iter().any(|s| s.pipeline.is_some())));
        let text = results_to_json(&results);
        let parsed = Json::parse(&text).unwrap();
        let back = results_from_json(&parsed, "test").unwrap();
        assert_eq!(back, results);
        // Byte-stable re-serialization (the store's validation digest
        // depends on it).
        assert_eq!(results_to_json(&back), text);
    }

    #[test]
    fn store_round_trips_and_fails_closed_on_corruption() {
        let dir = std::env::temp_dir().join(format!("pace-chunk-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ChunkStore::open(&dir).unwrap();
        let spec = small_spec();
        let digest = spec_digest(&spec).unwrap();
        let results = SweepEngine::with_workers(1).run(&spec).results;
        let range = IdRange { start: 0, end: results.len() };
        assert!(store.load(digest, range).is_none(), "empty store misses");
        store.save(digest, range, &results).unwrap();
        assert_eq!(store.load(digest, range).unwrap(), results);
        // A different campaign or range never sees the chunk.
        assert!(store.load(digest ^ 1, range).is_none());
        assert!(store.load(digest, IdRange { start: 0, end: 2 }).is_none());
        // Corruption (bit flip inside the payload) is a miss, not a lie.
        let path = store.path(ChunkStore::chunk_key(digest, range));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"id\": 0", "\"id\": 9")).unwrap();
        assert!(store.load(digest, range).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_campaign_keeps_every_finished_range() {
        let dir = std::env::temp_dir().join(format!("pace-chunk-stop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ChunkStore::open(&dir).unwrap();
        let spec = small_spec();
        let digest = spec_digest(&spec).unwrap();
        let ranges = partition(spec.len(), STORE_RANGES);
        let obs = obs::Obs::enabled();
        let evaluated = || {
            let snap = obs.metrics.snapshot();
            snap.get(obs::names::SWEEP_SCENARIOS).and_then(obs::MetricValue::as_counter)
        };
        // A directory where range 3's chunk goes makes its rename fail:
        // the campaign stops there, after saving ranges 0..3 and before
        // evaluating anything past range 3.
        let stop = 3;
        let blocked = store.path(ChunkStore::chunk_key(digest, ranges[stop]));
        std::fs::create_dir(&blocked).unwrap();
        let engine = SweepEngine::with_workers(2).with_obs(obs.clone());
        let err = run_stored(&engine, &spec, &store, false).unwrap_err();
        assert!(err.contains("store rename"), "{err}");
        for (i, &range) in ranges.iter().enumerate() {
            assert_eq!(
                store.load(digest, range).is_some(),
                i < stop,
                "range {i} saved iff finished"
            );
        }
        assert!(ranges[stop].end < spec.len(), "ranges past the stop exist");
        assert_eq!(evaluated(), Some(ranges[stop].end as u64), "evaluated exactly ranges 0..=stop");
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(leftovers, 0, "a failed save leaves no temp file");

        // Resume pays only for the ranges that never finished.
        std::fs::remove_dir(&blocked).unwrap();
        let out = run_stored(&engine, &spec, &store, true).unwrap();
        assert_eq!(
            out.stats,
            StoreStats {
                ranges: ranges.len(),
                store_hits: stop,
                store_misses: ranges.len() - stop
            }
        );
        let resumed = (spec.len() - ranges[stop].start) as u64;
        assert_eq!(
            evaluated(),
            Some(ranges[stop].end as u64 + resumed),
            "resume evaluated the rest"
        );
        assert_eq!(out.results, SweepEngine::with_workers(1).run(&spec).results);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
