//! Multi-process campaign sharding: coordinator, wire protocol and the
//! content-addressed result store.
//!
//! [`SweepEngine`](crate::SweepEngine) is thread-parallel inside one
//! process, so campaign capacity is capped by the host process. This
//! module is the scale-out tier above it: [`run_sharded`] partitions a
//! [`SweepSpec`] into contiguous scenario-id ranges ([`partition`]),
//! spawns N local `sweep-worker` processes, streams completed ranges into
//! an optional [`ChunkStore`], and merges the results **in scenario-id
//! order** — bit-identical to the in-process engine by construction
//! (digest-gated in `crates/experiments/tests/shard.rs` against the same
//! golden campaign digests as `tests/sweep_plan.rs`).
//!
//! Zero dependencies beyond the workspace: frames are length-prefixed
//! JSON lines over the worker's stdin/stdout (`<decimal byte length>\n
//! <payload>\n`), emitted by hand and parsed with [`obs::json`]. Floats
//! cross the pipe as 16-digit hex bit patterns (`f64::to_bits`), never as
//! JSON numbers, so the trip is exact for every value including ones a
//! shortest-roundtrip formatter cannot protect (the [`obs::json`] parser
//! stores all numbers as `f64`).
//!
//! Protocol (coordinator → worker, worker → coordinator):
//!
//! | frame                                   | direction | meaning |
//! |-----------------------------------------|-----------|---------|
//! | `{"type":"spec","spec":"<escaped doc>"}`| c → w     | the campaign, as a [`spec_to_json`] document |
//! | `{"type":"ready","scenarios":N}`        | w → c     | spec parsed; expansion has `N` scenarios |
//! | `{"type":"eval","start":S,"end":E}`     | c → w     | evaluate scenario ids `S..E` |
//! | `{"type":"done","start":S,"end":E,"results":[..]}` | w → c | the range's results, id order |
//! | `{"type":"exit"}`                       | c → w     | clean shutdown |
//!
//! A worker that dies mid-range, closes its pipe, or answers with a
//! malformed frame is killed and respawned, and the lost range is
//! re-queued — up to [`ShardConfig::max_retries`] attempts per range
//! before the campaign fails. Results land in per-scenario slots indexed
//! by id, so the merge order is the scenario-id order no matter which
//! worker finished when.
//!
//! The store is a directory of chunk files named `<key>.json` where
//! `key` is the FNV-1a digest of the campaign identity ([`spec_digest`]:
//! the canonical spec document — machines, backends, rate-multiplier
//! bits, fork point — plus every problem's `(kind, param_digest)`) mixed
//! with the scenario-id range. A resumed campaign recomputes only the
//! ranges whose chunks are missing or fail validation (schema, key,
//! digest of the re-serialized payload, id coverage); corrupt chunks are
//! treated as misses, never trusted.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use obs::json::{escape, Json};
use obs::{Cat, Obs};
use pace_core::engine::SubtaskTime;
use pace_core::templates::pipeline::PipelineEstimate;
use pace_core::workload::Workload;
use pace_core::{AllreduceParams, EvaluationReport, StencilParams, Sweep3dParams};
use registry::WorkloadSpec;
use wavefront_models::Backend;

use crate::engine::{scenario_result, CachedEngine};
use crate::spec::{ScenarioResult, SweepSpec};

/// Track group for the coordinator's per-range wall spans (see
/// [`obs::pids`]).
pub const SHARD_PID: u32 = obs::pids::SHARD;

/// Frame size cap: a range's result payload scales with scenarios ×
/// subtasks, both small; anything past this is a corrupt length header.
const MAX_FRAME: usize = 256 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

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
// Canonical spec document
// ---------------------------------------------------------------------------

/// The workload spec-file form of a problem-axis trait object, for the
/// shipped parameter types. Sharding serializes the spec across a process
/// boundary, so ad-hoc `Workload` impls (possible in library use, not
/// constructible from the CLI) are a structured error rather than a
/// silent wrong answer.
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
        "workload kind '{}' has no spec-file form; sharded campaigns need the shipped parameter types",
        w.kind()
    ))
}

/// Emit the canonical shard-spec document. Machine and workload specs
/// ride as escaped strings of their own exact round-trip formats
/// ([`registry::MachineSpec::to_json`], [`WorkloadSpec::to_json`]);
/// rate multipliers are hex bit patterns. The text is deterministic —
/// [`spec_digest`] hashes it for store keying.
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

/// Parse a shard-spec document back into the exact [`SweepSpec`] it was
/// emitted from (bit-for-bit: same machines, same multiplier bits, same
/// workload parameters).
pub fn spec_from_json(text: &str) -> Result<SweepSpec, String> {
    let doc = Json::parse(text).map_err(|e| format!("shard spec: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("sweepsvc/shard-spec-v1") {
        return Err("shard spec: missing or unknown schema".into());
    }
    let arr = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("shard spec.{key}: expected an array"))
    };
    let mut spec = SweepSpec::new();
    for (i, m) in arr("machines")?.iter().enumerate() {
        let text = m.as_str().ok_or_else(|| format!("shard spec.machines[{i}]: not a string"))?;
        spec = spec.machine(registry::MachineSpec::from_json(text)?);
    }
    for (i, p) in arr("problems")?.iter().enumerate() {
        let ctx = format!("shard spec.problems[{i}]");
        let label = p
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}.label: not a string"))?;
        let ws = p
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}.workload: not a string"))?;
        spec = spec.problem_arc(label, WorkloadSpec::from_json(ws)?.into_arc());
    }
    let mut multipliers = Vec::new();
    for (i, m) in arr("rate_multiplier_bits")?.iter().enumerate() {
        multipliers.push(f64::from_bits(hex_str(m, &format!("shard spec.rate[{i}]"))?));
    }
    spec = spec.rate_multipliers(multipliers);
    let mut backends = Vec::new();
    for b in arr("backends")? {
        let name = b.as_str().ok_or("shard spec.backends: not a string")?;
        backends.push(Backend::parse(name)?);
    }
    spec = spec.backends(backends);
    match doc.get("des_fork") {
        Some(Json::Null) | None => {}
        Some(v) => {
            let s = v.as_str().ok_or("shard spec.des_fork: expected a decimal string")?;
            let f = s.parse::<u64>().map_err(|e| format!("shard spec.des_fork: {e}"))?;
            spec = spec.des_fork(f);
        }
    }
    Ok(spec)
}

/// Campaign identity for store keying: FNV-1a over the canonical spec
/// document, then every problem's workload kind and `param_digest`.
pub fn spec_digest(spec: &SweepSpec) -> Result<u64, String> {
    let text = spec_to_json(spec)?;
    let mut h = fnv1a(FNV_OFFSET, text.as_bytes());
    for p in &spec.problems {
        h = fnv1a(h, p.workload.kind().as_bytes());
        h = fnv1a(h, &p.workload.param_digest().to_le_bytes());
    }
    Ok(h)
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

/// Emit one scenario result as a single-line wire/store object. Every
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

/// Parse one wire/store result object.
pub fn result_from_json(v: &Json) -> Result<ScenarioResult, String> {
    let ctx = "shard result";
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

/// The canonical serialization of a result slice — the `done` frame's
/// `results` value and the store chunk's payload, digested for chunk
/// validation.
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
// Frame protocol
// ---------------------------------------------------------------------------

/// Write one length-prefixed frame: `<decimal byte length>\n<payload>\n`.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    w.write_all(payload.len().to_string().as_bytes())?;
    w.write_all(b"\n")?;
    w.write_all(payload.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Read one frame. `Ok(None)` is a clean end-of-stream before a header;
/// anything malformed — a garbage length, an over-cap length, a body cut
/// short, a missing trailing newline — is an error the coordinator turns
/// into a retry.
pub fn read_frame(r: &mut impl BufRead, max_len: usize) -> Result<Option<String>, String> {
    let mut header = String::new();
    let n = r.read_line(&mut header).map_err(|e| format!("frame header: {e}"))?;
    if n == 0 {
        return Ok(None);
    }
    let len: usize =
        header.trim().parse().map_err(|_| format!("bad frame header {:?}", header.trim()))?;
    if len > max_len {
        return Err(format!("frame of {len} bytes exceeds the {max_len}-byte cap"));
    }
    let mut buf = vec![0u8; len + 1];
    r.read_exact(&mut buf).map_err(|e| format!("frame body: {e}"))?;
    if buf.pop() != Some(b'\n') {
        return Err("frame body missing its trailing newline".into());
    }
    String::from_utf8(buf).map_err(|e| format!("frame not UTF-8: {e}")).map(Some)
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
        let mut h = fnv1a(FNV_OFFSET, &spec_digest.to_le_bytes());
        h = fnv1a(h, &(range.start as u64).to_le_bytes());
        h = fnv1a(h, &(range.end as u64).to_le_bytes());
        h
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
        if field("payload_digest") != Some(fnv1a(FNV_OFFSET, payload.as_bytes())) {
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
            fnv1a(FNV_OFFSET, payload.as_bytes()),
        );
        let path = self.path(key);
        let tmp = self.dir.join(format!("{key:016x}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, doc).map_err(|e| format!("store write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("store rename {}: {e}", path.display()))
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Configuration of a sharded campaign run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker processes to spawn (min 1).
    pub workers: usize,
    /// Dispatch granularity: the spec is split into `workers ×
    /// ranges_per_worker` ranges, so a crash loses a fraction of a
    /// worker's share and the queue load-balances uneven scenario costs.
    pub ranges_per_worker: usize,
    /// Content-addressed result store directory (`None`: no store).
    pub store: Option<PathBuf>,
    /// Serve ranges already present (and valid) in the store instead of
    /// recomputing them.
    pub resume: bool,
    /// Retries per range before the campaign fails.
    pub max_retries: usize,
    /// Explicit worker binary. Default resolution: the
    /// `PACE_SWEEP_WORKER` environment variable, then a `sweep-worker`
    /// sibling of the current executable (or of its parent directory,
    /// covering test binaries under `target/<profile>/deps/`).
    pub worker_bin: Option<PathBuf>,
    /// Extra environment for worker processes (fault-injection hooks in
    /// tests; empty in production use).
    pub env: Vec<(String, String)>,
}

impl ShardConfig {
    /// A config with `workers` processes and the default knobs.
    pub fn new(workers: usize) -> Self {
        ShardConfig {
            workers: workers.max(1),
            ranges_per_worker: 4,
            store: None,
            resume: false,
            max_retries: 3,
            worker_bin: None,
            env: Vec::new(),
        }
    }

    /// Attach a chunk store directory.
    pub fn store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store = Some(dir.into());
        self
    }

    /// Serve already-stored ranges instead of recomputing them.
    pub fn resume(mut self, yes: bool) -> Self {
        self.resume = yes;
        self
    }

    /// Override the worker binary path.
    pub fn worker_bin(mut self, path: impl Into<PathBuf>) -> Self {
        self.worker_bin = Some(path.into());
        self
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self::new(1)
    }
}

/// Counters of one sharded campaign.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Scenarios in the campaign.
    pub scenarios: usize,
    /// Ranges the spec was partitioned into.
    pub ranges: usize,
    /// Worker processes configured.
    pub workers: usize,
    /// Range dispatches to workers (> `completed` when ranges retried).
    pub dispatched: u64,
    /// Ranges computed by workers this run.
    pub completed: u64,
    /// Ranges re-queued after a worker failure.
    pub retried: u64,
    /// Ranges served from the store without recomputation.
    pub store_hits: u64,
    /// Ranges a configured store could not serve (computed instead).
    pub store_misses: u64,
    /// Coordinator wall clock for the whole campaign.
    pub wall: Duration,
    /// Summed per-worker busy time (dispatch to reply).
    pub worker_wall: Duration,
}

impl ShardStats {
    /// Human-readable one-block summary.
    pub fn summary(&self) -> String {
        format!(
            "{} scenarios in {} range(s) over {} worker process(es) in {:.3} ms; {} dispatched / {} completed / {} retried; store {} hit / {} miss; {:.3} ms worker busy\n",
            self.scenarios,
            self.ranges,
            self.workers,
            self.wall.as_secs_f64() * 1e3,
            self.dispatched,
            self.completed,
            self.retried,
            self.store_hits,
            self.store_misses,
            self.worker_wall.as_secs_f64() * 1e3,
        )
    }
}

/// Results of one sharded campaign: scenario results in id order plus
/// counters.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// One result per scenario, sorted by scenario id.
    pub results: Vec<ScenarioResult>,
    /// Run counters.
    pub stats: ShardStats,
}

fn worker_binary(cfg: &ShardConfig) -> Result<PathBuf, String> {
    if let Some(p) = &cfg.worker_bin {
        return Ok(p.clone());
    }
    if let Ok(p) = std::env::var("PACE_SWEEP_WORKER") {
        if !p.is_empty() {
            return Ok(PathBuf::from(p));
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let name = format!("sweep-worker{}", std::env::consts::EXE_SUFFIX);
    let parent = exe.parent();
    for dir in [parent, parent.and_then(Path::parent)].into_iter().flatten() {
        let cand = dir.join(&name);
        if cand.is_file() {
            return Ok(cand);
        }
    }
    Err("cannot locate the sweep-worker binary: build it (`cargo build -p experiments`), set PACE_SWEEP_WORKER, or pass ShardConfig::worker_bin".into())
}

/// One live worker process with its pipe endpoints. Dropping kills and
/// reaps the child, so every error path cleans up.
struct WorkerProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl WorkerProc {
    fn spawn(
        bin: &Path,
        env: &[(String, String)],
        spec_text: &str,
        expect: usize,
    ) -> Result<WorkerProc, String> {
        let mut command = Command::new(bin);
        command.stdin(Stdio::piped()).stdout(Stdio::piped());
        for (k, v) in env {
            command.env(k, v);
        }
        let mut child = command.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut w = WorkerProc { child, stdin, stdout };
        w.send(&format!("{{\"type\": \"spec\", \"spec\": \"{}\"}}", escape(spec_text)))?;
        let ready = w.recv()?;
        if ready.get("type").and_then(Json::as_str) != Some("ready") {
            return Err("worker handshake: expected a ready frame".into());
        }
        let n = uint(ready.get("scenarios"), "ready.scenarios")? as usize;
        if n != expect {
            return Err(format!("worker expanded {n} scenarios, coordinator expects {expect}"));
        }
        Ok(w)
    }

    fn send(&mut self, payload: &str) -> Result<(), String> {
        write_frame(&mut self.stdin, payload).map_err(|e| format!("worker stdin: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        let text = read_frame(&mut self.stdout, MAX_FRAME)?
            .ok_or_else(|| "worker closed its stream".to_string())?;
        Json::parse(&text).map_err(|e| format!("worker frame: {e}"))
    }

    fn eval(&mut self, range: IdRange) -> Result<Vec<ScenarioResult>, String> {
        self.send(&format!(
            "{{\"type\": \"eval\", \"start\": {}, \"end\": {}}}",
            range.start, range.end
        ))?;
        let reply = self.recv()?;
        if reply.get("type").and_then(Json::as_str) != Some("done") {
            return Err("worker reply: expected a done frame".into());
        }
        if uint(reply.get("start"), "done.start")? as usize != range.start
            || uint(reply.get("end"), "done.end")? as usize != range.end
        {
            return Err("worker reply: range mismatch".into());
        }
        let results = results_from_json(
            reply.get("results").ok_or("worker reply: missing results")?,
            "done.results",
        )?;
        if results.len() != range.len()
            || results.iter().enumerate().any(|(i, r)| r.id != range.start + i)
        {
            return Err("worker reply: wrong id coverage".into());
        }
        Ok(results)
    }

    /// Ask for a clean exit; the Drop impl reaps (kill on an already
    /// exited child is a harmless error).
    fn shutdown(mut self) {
        let _ = write_frame(&mut self.stdin, "{\"type\": \"exit\"}");
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[derive(Debug, Clone, Copy)]
struct RangeTask {
    range: IdRange,
    attempts: usize,
}

struct Shared {
    queue: Mutex<VecDeque<RangeTask>>,
    slots: Mutex<Vec<Option<ScenarioResult>>>,
    failure: Mutex<Option<String>>,
    dispatched: AtomicU64,
    completed: AtomicU64,
    retried: AtomicU64,
    busy_us: AtomicU64,
}

/// Run a sharded campaign without telemetry. See
/// [`run_sharded_observed`].
pub fn run_sharded(spec: &SweepSpec, cfg: &ShardConfig) -> Result<ShardOutcome, String> {
    run_sharded_observed(spec, cfg, &Obs::disabled())
}

/// Evaluate every scenario of the spec across [`ShardConfig::workers`]
/// local worker processes, merging results in scenario-id order —
/// bit-identical to [`SweepEngine::run`](crate::SweepEngine::run) on the
/// same spec. With a store configured, completed ranges are persisted;
/// with [`ShardConfig::resume`], valid stored ranges are served without
/// recomputation. Worker crashes and protocol violations re-queue the
/// lost range (bounded by [`ShardConfig::max_retries`]); exceeding the
/// bound fails the whole campaign. Telemetry (per-range wall spans on
/// [`SHARD_PID`], `shard.*` counters) only observes the run.
pub fn run_sharded_observed(
    spec: &SweepSpec,
    cfg: &ShardConfig,
    obs: &Obs,
) -> Result<ShardOutcome, String> {
    spec.validate()?;
    let t0 = Instant::now();
    let spec_text = spec_to_json(spec)?;
    let digest = spec_digest(spec)?;
    let n = spec.len();
    let ranges = partition(n, cfg.workers.max(1) * cfg.ranges_per_worker.max(1));
    let store = match &cfg.store {
        Some(dir) => Some(ChunkStore::open(dir)?),
        None => None,
    };

    let mut slots: Vec<Option<ScenarioResult>> = Vec::new();
    slots.resize_with(n, || None);
    let mut pending: VecDeque<RangeTask> = VecDeque::new();
    let mut store_hits = 0u64;
    let mut store_misses = 0u64;
    for &range in &ranges {
        if cfg.resume {
            if let Some(results) = store.as_ref().and_then(|s| s.load(digest, range)) {
                for r in results {
                    let id = r.id;
                    slots[id] = Some(r);
                }
                store_hits += 1;
                continue;
            }
        }
        if store.is_some() {
            store_misses += 1;
        }
        pending.push_back(RangeTask { range, attempts: 0 });
    }

    let worker_count = cfg.workers.max(1).min(pending.len().max(1));
    let shared = Shared {
        queue: Mutex::new(pending),
        slots: Mutex::new(slots),
        failure: Mutex::new(None),
        dispatched: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        retried: AtomicU64::new(0),
        busy_us: AtomicU64::new(0),
    };
    let rec = &*obs.recorder;
    if !shared.queue.lock().unwrap().is_empty() {
        let bin = worker_binary(cfg)?;
        if rec.is_enabled() {
            rec.set_process_name(SHARD_PID, "sweepsvc.shard");
        }
        std::thread::scope(|scope| {
            for w in 0..worker_count {
                let shared = &shared;
                let bin = &bin;
                let spec_text = &spec_text;
                let store = store.as_ref();
                scope.spawn(move || {
                    coordinate_worker(w, shared, bin, cfg, spec_text, n, store, digest, rec);
                });
            }
        });
        if rec.is_enabled() {
            for w in 0..worker_count {
                rec.set_thread_name(SHARD_PID, w as u32, format!("worker {w}"));
            }
        }
    }
    if let Some(e) = shared.failure.lock().unwrap().take() {
        return Err(e);
    }

    // Merge: slot index == scenario id, so draining the slots *is* the
    // deterministic scenario-id-ordered merge.
    let slots = shared.slots.into_inner().unwrap();
    let mut results = Vec::with_capacity(n);
    for (id, slot) in slots.into_iter().enumerate() {
        results.push(slot.ok_or_else(|| format!("scenario {id} never completed"))?);
    }

    let stats = ShardStats {
        scenarios: n,
        ranges: ranges.len(),
        workers: worker_count,
        dispatched: shared.dispatched.load(Ordering::Relaxed),
        completed: shared.completed.load(Ordering::Relaxed),
        retried: shared.retried.load(Ordering::Relaxed),
        store_hits,
        store_misses,
        wall: t0.elapsed(),
        worker_wall: Duration::from_micros(shared.busy_us.load(Ordering::Relaxed)),
    };
    publish_metrics(obs, &stats);
    Ok(ShardOutcome { results, stats })
}

/// One coordinator thread driving one worker process: pop a range, have
/// the worker evaluate it, persist + slot the results; on any failure
/// kill the worker, re-queue the range (bounded) and respawn lazily.
#[allow(clippy::too_many_arguments)]
fn coordinate_worker(
    idx: usize,
    shared: &Shared,
    bin: &Path,
    cfg: &ShardConfig,
    spec_text: &str,
    scenario_count: usize,
    store: Option<&ChunkStore>,
    digest: u64,
    rec: &obs::Recorder,
) {
    let mut worker: Option<WorkerProc> = None;
    loop {
        if shared.failure.lock().unwrap().is_some() {
            break;
        }
        let task = match shared.queue.lock().unwrap().pop_front() {
            Some(t) => t,
            None => break,
        };
        shared.dispatched.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let mut attempt = || -> Result<Vec<ScenarioResult>, String> {
            if worker.is_none() {
                worker = Some(WorkerProc::spawn(bin, &cfg.env, spec_text, scenario_count)?);
            }
            worker.as_mut().expect("spawned above").eval(task.range)
        };
        let outcome = attempt();
        shared.busy_us.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        match outcome {
            Ok(results) => {
                if let Some(s) = store {
                    if let Err(e) = s.save(digest, task.range, &results) {
                        *shared.failure.lock().unwrap() = Some(e);
                        break;
                    }
                }
                if rec.is_enabled() {
                    rec.wall_span(
                        SHARD_PID,
                        idx as u32,
                        format!("range:{}..{}", task.range.start, task.range.end),
                        Cat::Scenario,
                        t0,
                        vec![
                            ("start", task.range.start.into()),
                            ("end", task.range.end.into()),
                            ("attempt", task.attempts.into()),
                        ],
                    );
                }
                let mut slots = shared.slots.lock().unwrap();
                for r in results {
                    let id = r.id;
                    slots[id] = Some(r);
                }
                shared.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                // Kill + reap the (possibly wedged) worker; the next
                // dispatch on this thread respawns one.
                worker = None;
                let attempts = task.attempts + 1;
                if attempts > cfg.max_retries {
                    *shared.failure.lock().unwrap() = Some(format!(
                        "range {}..{} failed after {attempts} attempt(s): {e}",
                        task.range.start, task.range.end
                    ));
                    break;
                }
                shared.retried.fetch_add(1, Ordering::Relaxed);
                shared.queue.lock().unwrap().push_front(RangeTask { range: task.range, attempts });
            }
        }
    }
    if let Some(w) = worker.take() {
        w.shutdown();
    }
}

/// Publish shard counters. Scenario/range counts and the store hit/miss
/// split are deterministic functions of the spec and the store's state;
/// dispatch/retry attribution and all timings depend on scheduling and
/// faults, so they carry the `wall.` prefix (see [`obs::names`]).
fn publish_metrics(obs: &Obs, stats: &ShardStats) {
    use obs::names as n;
    let m = &obs.metrics;
    m.counter_add(n::SHARD_SCENARIOS, stats.scenarios as u64);
    m.counter_add(n::SHARD_RANGES, stats.ranges as u64);
    m.counter_add(n::SHARD_RANGES_COMPLETED, stats.completed);
    m.counter_add(n::SHARD_STORE_HITS, stats.store_hits);
    m.counter_add(n::SHARD_STORE_MISSES, stats.store_misses);
    m.counter_add(n::SHARD_RANGES_DISPATCHED, stats.dispatched);
    m.counter_add(n::SHARD_RANGES_RETRIED, stats.retried);
    m.gauge_set(n::SHARD_WORKERS, stats.workers as f64);
    m.gauge_set(n::SHARD_WALL_US, stats.wall.as_micros() as f64);
    m.gauge_set(n::SHARD_WORKER_WALL_US, stats.worker_wall.as_micros() as f64);
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Atomically claim a fault-injection marker file: true exactly once per
/// marker path across every worker process (`create_new` is atomic).
fn claim_marker(marker: &Option<String>) -> bool {
    match marker {
        Some(path) => std::fs::OpenOptions::new().write(true).create_new(true).open(path).is_ok(),
        None => false,
    }
}

/// The `sweep-worker` process body: read the spec frame, expand it once,
/// then evaluate requested ranges serially through the shared
/// scenario-semantics helper until an `exit` frame (or end-of-stream —
/// the coordinator dropping us is a clean shutdown).
///
/// Test-only fault hooks (each fires at most once per marker file, across
/// all workers of a campaign):
/// * `PACE_SWEEP_WORKER_CRASH_ONCE=<marker>` — on the next `eval`, die
///   abruptly without replying (a mid-range crash);
/// * `PACE_SWEEP_WORKER_GARBAGE_ONCE=<marker>` — on the next `eval`,
///   write a garbage non-frame line and exit (a corrupt stream).
pub fn worker_loop(input: &mut impl BufRead, output: &mut impl Write) -> Result<(), String> {
    let crash_once = std::env::var("PACE_SWEEP_WORKER_CRASH_ONCE").ok();
    let garbage_once = std::env::var("PACE_SWEEP_WORKER_GARBAGE_ONCE").ok();
    let first = read_frame(input, MAX_FRAME)?.ok_or("no spec frame")?;
    let first = Json::parse(&first).map_err(|e| format!("spec frame: {e}"))?;
    if first.get("type").and_then(Json::as_str) != Some("spec") {
        return Err("first frame must be a spec".into());
    }
    let spec_text = first.get("spec").and_then(Json::as_str).ok_or("spec frame: missing spec")?;
    let spec = spec_from_json(spec_text)?;
    spec.validate()?;
    let scenarios = spec.scenarios();
    let engine = CachedEngine::new();
    write_frame(output, &format!("{{\"type\": \"ready\", \"scenarios\": {}}}", scenarios.len()))
        .map_err(|e| format!("stdout: {e}"))?;
    loop {
        let frame = match read_frame(input, MAX_FRAME)? {
            Some(f) => f,
            None => return Ok(()),
        };
        let msg = Json::parse(&frame).map_err(|e| format!("frame: {e}"))?;
        match msg.get("type").and_then(Json::as_str) {
            Some("exit") => return Ok(()),
            Some("eval") => {
                let start = uint(msg.get("start"), "eval.start")? as usize;
                let end = uint(msg.get("end"), "eval.end")? as usize;
                if start > end || end > scenarios.len() {
                    return Err(format!(
                        "eval range {start}..{end} out of bounds for {} scenarios",
                        scenarios.len()
                    ));
                }
                if claim_marker(&crash_once) {
                    std::process::exit(101);
                }
                let results: Vec<ScenarioResult> = scenarios[start..end]
                    .iter()
                    .map(|sc| scenario_result(&engine, &spec, sc))
                    .collect();
                if claim_marker(&garbage_once) {
                    let _ = output.write_all(b"garbage, not a frame\n");
                    let _ = output.flush();
                    std::process::exit(0);
                }
                write_frame(
                    output,
                    &format!(
                        "{{\"type\": \"done\", \"start\": {start}, \"end\": {end}, \"results\": {}}}",
                        results_to_json(&results)
                    ),
                )
                .map_err(|e| format!("stdout: {e}"))?;
            }
            other => return Err(format!("unknown frame type {other:?}")),
        }
    }
}

/// Entry point for the `sweep-worker` binary: run [`worker_loop`] over
/// stdin/stdout and exit.
pub fn worker_main() -> ! {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut output = stdout.lock();
    match worker_loop(&mut input, &mut output) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("sweep-worker: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepEngine;

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
    fn spec_round_trips_exactly() {
        let spec = small_spec();
        let text = spec_to_json(&spec).unwrap();
        let back = spec_from_json(&text).unwrap();
        assert_eq!(back, spec);
        // The canonical text (and hence the digest) is reproducible.
        assert_eq!(spec_to_json(&back).unwrap(), text);
        assert_eq!(spec_digest(&back).unwrap(), spec_digest(&spec).unwrap());
    }

    #[test]
    fn spec_digest_separates_campaigns() {
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
    fn frames_round_trip_and_reject_garbage() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\": 1}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = std::io::BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().as_deref(), Some("{\"a\": 1}"));
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().as_deref(), Some("second"));
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), None, "clean EOF");
        let mut garbage = std::io::BufReader::new(&b"not a length\npayload\n"[..]);
        assert!(read_frame(&mut garbage, MAX_FRAME).is_err());
        let mut truncated = std::io::BufReader::new(&b"100\nshort\n"[..]);
        assert!(read_frame(&mut truncated, MAX_FRAME).is_err());
        let mut oversized = std::io::BufReader::new(&b"999999999\nx\n"[..]);
        assert!(read_frame(&mut oversized, 1024).is_err());
    }

    #[test]
    fn store_round_trips_and_fails_closed_on_corruption() {
        let dir = std::env::temp_dir().join(format!("pace-shard-store-{}", std::process::id()));
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
    fn deeply_nested_frames_are_a_structured_error() {
        let mut input = Vec::new();
        write_frame(&mut input, &"[".repeat(1_000_000)).unwrap();
        let err =
            worker_loop(&mut std::io::BufReader::new(&input[..]), &mut Vec::new()).unwrap_err();
        assert!(err.starts_with("spec frame: nesting deeper than"), "{err}");
        // The same bound guards the spec document a frame carries.
        let err = spec_from_json(&"{\"a\": [".repeat(100_000)).unwrap_err();
        assert!(err.starts_with("shard spec: nesting deeper than"), "{err}");
    }

    #[test]
    fn worker_loop_evaluates_ranges_in_memory() {
        let spec = small_spec();
        let expected = SweepEngine::with_workers(1).run(&spec).results;
        let n = expected.len();
        let mut input = Vec::new();
        let spec_text = spec_to_json(&spec).unwrap();
        write_frame(
            &mut input,
            &format!("{{\"type\": \"spec\", \"spec\": \"{}\"}}", escape(&spec_text)),
        )
        .unwrap();
        write_frame(&mut input, &format!("{{\"type\": \"eval\", \"start\": 0, \"end\": {n}}}"))
            .unwrap();
        write_frame(&mut input, "{\"type\": \"exit\"}").unwrap();
        let mut output = Vec::new();
        worker_loop(&mut std::io::BufReader::new(&input[..]), &mut output).unwrap();
        let mut r = std::io::BufReader::new(&output[..]);
        let ready = Json::parse(&read_frame(&mut r, MAX_FRAME).unwrap().unwrap()).unwrap();
        assert_eq!(ready.get("scenarios").and_then(Json::as_f64), Some(n as f64));
        let done = Json::parse(&read_frame(&mut r, MAX_FRAME).unwrap().unwrap()).unwrap();
        let results = results_from_json(done.get("results").unwrap(), "done").unwrap();
        assert_eq!(results, expected, "worker evaluation must be bit-identical");
    }
}
