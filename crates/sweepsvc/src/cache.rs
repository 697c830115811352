//! The sharded evaluation cache.
//!
//! No library path uses it any more: a warm hit costs more than the
//! subtask evaluation it saves, so sweeps, validation and strong scaling
//! evaluate PACE directly. The module stays, hidden from the docs, only
//! because the benchmark package's traced rebuilds still name
//! [`EvalCache`], [`CacheKey`] and [`CacheStats`]; the benchmark revision
//! that retires those rebuilds deletes it.
//!
//! Model evaluation is pure: a subtask's time depends only on its template
//! parameters and on the hardware fields that template reads. The cache
//! keys on exactly those inputs, canonicalised to bit patterns
//! ([`f64::to_bits`], with `-0.0` folded into `0.0`), so
//!
//! * two structurally identical evaluations always share one entry
//!   (machine *names* are deliberately excluded — a renamed model is the
//!   same model), and
//! * any numeric perturbation of an input changes the key — a hit can
//!   never return a stale or wrong value.
//!
//! Keys carry only the hardware slice their template consumes: a
//! collective's key ignores the achieved-rate table, so the convergence
//! reduction is shared across the flop-rate what-ifs of a speculation
//! sweep; an `async` subtask's key ignores the communication model.
//!
//! The cache is a plain memo: entries are never evicted, because a
//! campaign's key set is small (one entry per distinct subtask input
//! closure) and a hit must cost less than the evaluation it saves.
//! Storage is sharded: each shard is an independent
//! `parking_lot::RwLock<HashMap>`, selected by the key's hash, so
//! concurrent workers rarely contend on the same lock. Hit/miss counters
//! are relaxed atomics; their split depends on worker interleaving (a
//! racing double-compute turns a would-be hit into a miss), which is why
//! they publish under `wall.`-prefixed metric names (see `obs::names`).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use pace_core::engine::SubtaskEval;
use pace_core::templates::collective::ReduceKind;
use pace_core::{CommModel, HardwareModel, SubtaskObject, TemplateBinding};
use parking_lot::RwLock;

/// Number of independently locked shards (power of two).
const SHARD_COUNT: usize = 16;

/// Canonical bit pattern of an `f64` (`-0.0` and `0.0` unify; any other
/// numeric difference, however small, yields a distinct pattern).
fn canon(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// Canonicalised achieved-rate table of a [`HardwareModel`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RatesKey(Vec<(u64, u64)>);

impl RatesKey {
    fn of(hw: &HardwareModel) -> Self {
        RatesKey(hw.rates.iter().map(|r| (canon(r.cells_per_pe), canon(r.mflops))).collect())
    }
}

/// Canonicalised [`CommModel`]: three Eq. 3 curves of five coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommKey([[u64; 5]; 3]);

impl CommKey {
    fn of(comm: &CommModel) -> Self {
        let curve = |c: &pace_core::CommCurve| {
            [
                canon(c.a_bytes),
                canon(c.b_us),
                canon(c.c_us_per_byte),
                canon(c.d_us),
                canon(c.e_us_per_byte),
            ]
        };
        CommKey([curve(&comm.send), curve(&comm.recv), curve(&comm.pingpong)])
    }
}

/// Cache key: the full closure of inputs one subtask evaluation reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// Pipeline template: structural params + rate table + comm model.
    Pipeline {
        rates: RatesKey,
        comm: CommKey,
        px: usize,
        py: usize,
        units_per_corner: usize,
        corners: usize,
        unit_flops: u64,
        cells_per_pe: usize,
        i_msg_bytes: usize,
        j_msg_bytes: usize,
    },
    /// Halo-exchange template: structural params + rate table + comm model.
    Halo {
        rates: RatesKey,
        comm: CommKey,
        px: usize,
        py: usize,
        flops: u64,
        cells_per_pe: usize,
        x_msg_bytes: usize,
        y_msg_bytes: usize,
    },
    /// Collective template: reads only the comm model.
    Collective { comm: CommKey, is_max: bool, bytes: usize, procs: usize },
    /// Async (serial) template: reads only the rate table.
    Async { rates: RatesKey, flops: u64, cells_per_pe: usize },
}

impl CacheKey {
    /// Build the key for evaluating `sub` against `hw`.
    pub fn for_subtask(sub: &SubtaskObject, hw: &HardwareModel) -> Self {
        match &sub.template {
            TemplateBinding::Pipeline(p) => CacheKey::Pipeline {
                rates: RatesKey::of(hw),
                comm: CommKey::of(&hw.comm),
                px: p.px,
                py: p.py,
                units_per_corner: p.units_per_corner,
                corners: p.corners,
                unit_flops: canon(p.unit_flops),
                cells_per_pe: p.cells_per_pe,
                i_msg_bytes: p.i_msg_bytes,
                j_msg_bytes: p.j_msg_bytes,
            },
            TemplateBinding::Halo(p) => CacheKey::Halo {
                rates: RatesKey::of(hw),
                comm: CommKey::of(&hw.comm),
                px: p.px,
                py: p.py,
                flops: canon(p.flops),
                cells_per_pe: p.cells_per_pe,
                x_msg_bytes: p.x_msg_bytes,
                y_msg_bytes: p.y_msg_bytes,
            },
            TemplateBinding::Collective(p) => CacheKey::Collective {
                comm: CommKey::of(&hw.comm),
                is_max: matches!(p.kind, ReduceKind::Max),
                bytes: p.bytes,
                procs: p.procs,
            },
            TemplateBinding::Async => CacheKey::Async {
                rates: RatesKey::of(hw),
                flops: canon(sub.flops),
                cells_per_pe: sub.cells_per_pe,
            },
        }
    }

    fn shard(&self) -> usize {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) & (SHARD_COUNT - 1)
    }
}

/// Counter snapshot of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a shard.
    pub hits: u64,
    /// Lookups that had to evaluate.
    pub misses: u64,
    /// Distinct entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One shard: an independently locked map plus its own hit/miss
/// counters.
#[derive(Debug, Default)]
struct Shard {
    map: RwLock<HashMap<CacheKey, SubtaskEval>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The sharded, lock-guarded evaluation memo.
#[derive(Debug, Default)]
pub struct EvalCache {
    shards: Vec<Shard>,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        EvalCache { shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect() }
    }

    /// Look up `key`, evaluating and storing on a miss. Because evaluation
    /// is a pure function of the key's inputs, a racing double-compute
    /// stores the identical value — results never depend on scheduling.
    pub fn get_or_insert_with<F: FnOnce() -> SubtaskEval>(
        &self,
        key: CacheKey,
        compute: F,
    ) -> SubtaskEval {
        let shard = &self.shards[key.shard()];
        if let Some(&value) = shard.map.read().get(&key) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return value;
        }
        let value = compute();
        shard.misses.fetch_add(1, Ordering::Relaxed);
        // A racing worker may have stored the same pure value first;
        // keeping theirs or ours is the same bits.
        *shard.map.write().entry(key).or_insert(value)
    }

    /// Lookup without populating (touches no counter).
    pub fn peek(&self, key: &CacheKey) -> Option<SubtaskEval> {
        self.shards[key.shard()].map.read().get(key).copied()
    }

    /// Cumulative hits, summed over the shards.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.hits.load(Ordering::Relaxed)).sum()
    }

    /// Cumulative misses, summed over the shards.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.misses.load(Ordering::Relaxed)).sum()
    }

    /// Distinct entries stored.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.map.read().len()).sum()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats { hits: self.hits(), misses: self.misses(), entries: self.entries() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pace_core::{Sweep3dModel, Sweep3dParams};
    use registry::quoted as machines;

    fn subtasks() -> (Vec<SubtaskObject>, HardwareModel) {
        let app = Sweep3dModel::new(Sweep3dParams::weak_scaling_50cubed(4, 4)).application_object();
        (app.subtasks, machines::pentium3_myrinet())
    }

    #[test]
    fn identical_inputs_share_a_key() {
        let (subs, hw) = subtasks();
        for sub in &subs {
            assert_eq!(CacheKey::for_subtask(sub, &hw), CacheKey::for_subtask(sub, &hw.clone()));
        }
    }

    #[test]
    fn renaming_hardware_does_not_change_keys() {
        let (subs, hw) = subtasks();
        let mut renamed = hw.clone();
        renamed.name = "something else".into();
        for sub in &subs {
            assert_eq!(CacheKey::for_subtask(sub, &hw), CacheKey::for_subtask(sub, &renamed));
        }
    }

    #[test]
    fn rate_scaling_changes_compute_keys_but_not_collective() {
        let (subs, hw) = subtasks();
        let faster = hw.with_rate_scaled(1.25);
        for sub in &subs {
            let a = CacheKey::for_subtask(sub, &hw);
            let b = CacheKey::for_subtask(sub, &faster);
            match sub.template {
                TemplateBinding::Collective(_) => assert_eq!(a, b, "{}", sub.name),
                _ => assert_ne!(a, b, "{}", sub.name),
            }
        }
    }

    #[test]
    fn halo_keys_read_rates_comm_and_structure() {
        let (_, hw) = subtasks();
        let subs = pace_core::StencilParams::weak_scaling(3, 2).application().subtasks;
        let halo = subs
            .iter()
            .find(|s| matches!(s.template, TemplateBinding::Halo(_)))
            .expect("stencil app carries a halo subtask");
        let key = CacheKey::for_subtask(halo, &hw);
        let mut renamed = hw.clone();
        renamed.name = "something else".into();
        assert_eq!(key, CacheKey::for_subtask(halo, &renamed), "names are excluded");
        assert_ne!(
            key,
            CacheKey::for_subtask(halo, &hw.with_rate_scaled(1.25)),
            "halo evaluation reads the rate table"
        );
    }

    #[test]
    fn hit_miss_counters_track_lookups() {
        let (subs, hw) = subtasks();
        let cache = EvalCache::new();
        let key = CacheKey::for_subtask(&subs[0], &hw);
        assert_eq!(cache.peek(&key), None);
        let v1 = cache.get_or_insert_with(key.clone(), || (1.5, None));
        let v2 = cache.get_or_insert_with(key.clone(), || panic!("must hit"));
        assert_eq!(v1, v2);
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (1, 1, 1));
        assert_eq!(cache.peek(&key), Some((1.5, None)));
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn negative_zero_folds_into_zero() {
        assert_eq!(canon(0.0), canon(-0.0));
        assert_ne!(canon(0.0), canon(f64::MIN_POSITIVE));
    }
}
