//! In-memory spans around the layer calls the benchmark makes.
//!
//! A [`Tracer`] records one [`Span`] per wrapped call (name, start, end,
//! parent span, lane) plus the pool runs and counters those calls
//! return. Spans are recorded from the benchmark's own code only: a
//! [`Lane`] wraps each public layer call it issues, so nothing inside
//! the program is instrumented. A disabled tracer runs the wrapped calls
//! and records nothing, which is how the untraced set-up shares its code
//! with the traced rebuild.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sweepsvc::{CacheStats, PoolRun};

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier, unique within the process.
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Layer call name (`"cluster_sim.run"`, …).
    pub name: &'static str,
    /// Pool worker index the call ran on (0 for the main thread).
    pub lane: u32,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Lanes a tracer buffers: more than any pool this benchmark runs.
const MAX_LANES: usize = 256;

/// Threads that have opened a span so far (the high half of span ids).
static THREADS: AtomicU64 = AtomicU64::new(0);

/// Per-thread span bookkeeping: kept thread-local so opening a span
/// touches no memory another worker writes.
struct Local {
    /// This thread's id prefix.
    thread: u64,
    /// Spans this thread opened so far.
    opened: u64,
    /// Ids of the spans open on this thread, innermost last.
    stack: Vec<u64>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: THREADS.fetch_add(1, Ordering::Relaxed),
        opened: 0,
        stack: Vec::new(),
    });
}

/// Wall time and per-worker busy time of one pool run.
#[derive(Debug, Clone)]
struct PoolRecord {
    wall: Duration,
    busy: Vec<Duration>,
}

/// Span, pool and counter recorder shared by every lane of one pass.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// One buffer per lane, so workers never wait on each other's spans.
    spans: Vec<Mutex<Vec<Span>>>,
    pools: Mutex<Vec<PoolRecord>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
    untimed: Mutex<Duration>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: (0..MAX_LANES).map(|_| Mutex::new(Vec::new())).collect(),
            pools: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            untimed: Mutex::new(Duration::ZERO),
        }
    }

    /// A recording tracer; its clock starts now.
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A tracer that runs wrapped calls and records nothing.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// The lane handle for pool worker `lane` (0 on the main thread).
    pub fn lane(&self, lane: usize) -> Lane<'_> {
        assert!(lane < MAX_LANES, "lane {lane} beyond the {MAX_LANES} the tracer buffers");
        Lane { tracer: self, lane: lane as u32 }
    }

    /// Add `v` to counter `name`.
    pub fn add(&self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counters.lock().expect("counter lock").entry(name).or_insert(0.0) += v;
        }
    }

    /// Raise counter `name` to at least `v`.
    pub fn max(&self, name: &'static str, v: f64) {
        if self.enabled {
            let mut counters = self.counters.lock().expect("counter lock");
            let slot = counters.entry(name).or_insert(0.0);
            *slot = slot.max(v);
        }
    }

    /// Record a pool run's wall and per-worker busy time.
    pub fn pool<R>(&self, run: &PoolRun<R>) {
        if self.enabled {
            let busy = run.workers.iter().map(|w| w.busy).collect();
            self.pools.lock().expect("pool lock").push(PoolRecord { wall: run.wall, busy });
        }
    }

    /// Add an evaluation cache's counters.
    pub fn cache(&self, stats: &CacheStats) {
        self.add("sweepsvc.cache.hits", stats.hits as f64);
        self.add("sweepsvc.cache.misses", stats.misses as f64);
        self.add("sweepsvc.cache.entries", stats.entries as f64);
    }

    /// Run `f` outside the traced wall (result bookkeeping between
    /// repetitions). No span or pool run may happen inside.
    pub fn untimed<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        *self.untimed.lock().expect("untimed lock") += t0.elapsed();
        r
    }

    /// Close the pass: `total` is the host time the whole pass took.
    pub fn finish(self, total: Duration) -> Trace {
        let untimed = self.untimed.into_inner().expect("untimed lock");
        let mut spans: Vec<Span> =
            self.spans.into_iter().flat_map(|l| l.into_inner().expect("span lock")).collect();
        spans.sort_by_key(|s| s.start);
        Trace {
            spans,
            pools: self.pools.into_inner().expect("pool lock"),
            counters: self.counters.into_inner().expect("counter lock"),
            wall: total.saturating_sub(untimed).as_secs_f64(),
        }
    }
}

/// Handle that opens spans for one pool worker. Nesting is tracked per
/// thread, so only one enabled tracer may record on a thread at a time.
#[derive(Clone, Copy)]
pub struct Lane<'t> {
    tracer: &'t Tracer,
    lane: u32,
}

impl Lane<'_> {
    /// Run `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let tr = self.tracer;
        if !tr.enabled {
            return f();
        }
        // The bookkeeping sits inside the span's own window (the end time
        // is stamped after the record is stored), so a span's self time
        // carries its tracing cost and the reconciliation stays closed.
        let start = tr.origin.elapsed();
        let (id, parent) = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let id = (l.thread << 32) | l.opened;
            l.opened += 1;
            let parent = l.stack.last().copied();
            l.stack.push(id);
            (id, parent)
        });
        let r = f();
        LOCAL.with(|l| l.borrow_mut().stack.pop());
        let mut buf = tr.spans[self.lane as usize].lock().expect("span lock");
        buf.push(Span { id, parent, name, lane: self.lane, start, end: start });
        buf.last_mut().expect("just pushed").end = tr.origin.elapsed();
        r
    }

    /// The tracer this lane records into.
    pub fn tracer(&self) -> &Tracer {
        self.tracer
    }
}

/// How the traced wall splits up, in lane-seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconciliation {
    /// Lanes: the widest pool the pass used (1 when it used none).
    pub lanes: usize,
    /// `lanes` × traced wall.
    pub capacity: f64,
    /// Σ span self time.
    pub self_time: f64,
    /// Pool busy time (Σ worker time inside work items).
    pub busy: f64,
    /// Lane time with nothing to run: the tail of each pool run, and
    /// every lane but the main one outside pool runs.
    pub idle: f64,
    /// `capacity − self_time − idle`: time no span covers.
    pub unattributed: f64,
}

/// A closed pass: spans, pool runs, counters and the traced wall.
pub struct Trace {
    /// Every recorded span, in start order.
    pub spans: Vec<Span>,
    pools: Vec<PoolRecord>,
    /// Counters accumulated during the pass.
    pub counters: BTreeMap<&'static str, f64>,
    /// Traced wall, seconds (untimed bookkeeping excluded).
    pub wall: f64,
}

impl Trace {
    /// Σ self time (span time minus the time of its child spans) per
    /// span name, seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let index: BTreeMap<u64, usize> =
            self.spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[index[&p]] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += s.secs() - c;
        }
        out
    }

    /// Number of spans per name.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += 1;
        }
        out
    }

    /// Per-worker busy seconds summed over every pool run.
    pub fn worker_busy(&self) -> Vec<f64> {
        let mut out: Vec<f64> = Vec::new();
        for p in &self.pools {
            if out.len() < p.busy.len() {
                out.resize(p.busy.len(), 0.0);
            }
            for (slot, b) in out.iter_mut().zip(&p.busy) {
                *slot += b.as_secs_f64();
            }
        }
        out
    }

    /// Split the traced wall into span self time, pool idle time and the
    /// unattributed rest.
    pub fn reconcile(&self) -> Reconciliation {
        let lanes = self.pools.iter().map(|p| p.busy.len()).max().unwrap_or(1).max(1);
        let capacity = lanes as f64 * self.wall;
        let self_time: f64 = self.self_times().values().sum();
        let busy: f64 = self.worker_busy().iter().sum();
        let pool_wall: f64 = self.pools.iter().map(|p| p.wall.as_secs_f64()).sum();
        let idle = (lanes as f64 * pool_wall - busy).max(0.0)
            + (lanes - 1) as f64 * (self.wall - pool_wall).max(0.0);
        Reconciliation {
            lanes,
            capacity,
            self_time,
            busy,
            idle,
            unattributed: capacity - self_time - idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let tr = Tracer::enabled();
        let lane = tr.lane(0);
        lane.span("outer", || {
            lane.span("inner", || std::thread::sleep(Duration::from_millis(5)));
            std::thread::sleep(Duration::from_millis(5));
        });
        let trace = tr.finish(Duration::from_millis(11));
        let st = trace.self_times();
        assert!(st["inner"] >= 0.005 && st["outer"] >= 0.005, "{st:?}");
        assert!(st["outer"] < 0.005 + st["inner"], "child time subtracted: {st:?}");
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        let r = trace.reconcile();
        assert_eq!(r.lanes, 1);
        assert!((r.self_time + r.idle + r.unattributed - r.capacity).abs() < 1e-12);

        let off = Tracer::disabled();
        assert_eq!(off.lane(0).span("x", || 7), 7);
        off.add("c", 1.0);
        let trace = off.finish(Duration::ZERO);
        assert!(trace.spans.is_empty() && trace.counters.is_empty());
    }
}
