//! Memory-footprint regression guard for the engine's channel tables.
//!
//! The seed engine kept one `(src, dst, tag)`-keyed `VecDeque` per tag it
//! had ever seen — a SWEEP3D trace allocates a fresh tag per (octant,
//! angle-block, k-block) unit, so channel-map size grew linearly with the
//! *run length* and the queues were never reclaimed. The dense-channel
//! engine allocates one channel per directed partner edge, fixed by the
//! topology before the run starts, and keeps every channel's queued
//! entries in one per-run node pool. These tests pin both: an 8× longer
//! run of the same problem shape must not grow the channel table or the
//! queue peaks at all, and the retained queue capacity stays within twice
//! the peak number of entries in flight — eager messages and parked
//! rendezvous sends alike, up to the paper's 8000 PEs.

use cluster_sim::{Engine, MachineSpec, MemProbe, NoiseModel};
use pace_core::Sweep3dParams;
use sweep3d::trace::{generate_program_set, FlopModel};
use sweep3d::ProblemConfig;

fn probe(iterations: usize, rendezvous_bytes: usize) -> MemProbe {
    let mut machine = MachineSpec::ideal(200.0);
    machine.noise = NoiseModel::commodity();
    machine.rendezvous_bytes = Some(rendezvous_bytes);
    let mut cfg = ProblemConfig::weak_scaling(4, 4, 4);
    cfg.mk = 2;
    cfg.iterations = iterations;
    let fm = FlopModel {
        flops_per_cell_angle: 21.5,
        source_flops_per_cell: 2.0,
        flux_err_flops_per_cell: 3.0,
    };
    let set = generate_program_set(&cfg, &fm);
    let (_, probe) = Engine::from_set(&machine, set).run_probed().expect("fixture runs");
    probe
}

/// The pool bound: retained queue capacity at most twice the peak number
/// of queued entries.
fn assert_capacity_tracks_peak(label: &str, p: &MemProbe) {
    assert!(
        p.queue_capacity <= 2 * p.peak_queued,
        "{label}: {} queue slots retained for a peak of {} queued entries",
        p.queue_capacity,
        p.peak_queued
    );
}

#[test]
fn long_runs_do_not_grow_channel_state() {
    let short = probe(3, 4096);
    let long = probe(24, 4096);

    // 4x4 open mesh: interior of directed edges = 2*(2*4*3) = 48 channels,
    // one per directed neighbor pair — and *independent of run length*.
    assert_eq!(short.channels, 48);
    assert_eq!(long.channels, short.channels, "channel table must be topology-fixed");

    // Queue peaks are set by in-flight concurrency (pipeline depth), not
    // by how many iterations the run executes.
    assert!(
        long.peak_queued <= short.peak_queued,
        "peak queue occupancy grew with run length: {} (24 iters) vs {} (3 iters)",
        long.peak_queued,
        short.peak_queued
    );

    // Retained queue capacity stays bounded by the same peak — the old
    // engine retained one empty VecDeque per tag ever used (~8x more tags
    // in the long run).
    assert!(
        long.queue_capacity <= 2 * short.queue_capacity,
        "retained queue capacity grew with run length: {} vs {}",
        long.queue_capacity,
        short.queue_capacity
    );

    // And it tracks what is in flight, not each channel's history.
    assert_capacity_tracks_peak("3 iterations", &short);
    assert_capacity_tracks_peak("24 iterations", &long);
}

#[test]
fn parked_rendezvous_sends_share_the_bound() {
    // A 64-byte rendezvous threshold makes every boundary message
    // synchronous, so senders park on their channel's pending list.
    for iterations in [3, 24] {
        let p = probe(iterations, 64);
        let label = format!("rendezvous, {iterations} iterations");
        assert!(p.parked_sends > 0, "{label}: no send parked");
        assert!(p.peak_queued > 0, "{label}: nothing queued");
        assert_capacity_tracks_peak(&label, &p);
    }
}

/// The §6 what-if problem: Fig. 8's 20M cells on 80×100 = 8000 ranks of
/// `opteron-myrinet`, one iteration. The wavefront passes over all 31,640
/// channels, but at most 10,320 entries are ever queued at once, so the
/// pool retains a few thousandths of what one deque per channel held
/// (2,042,688 slots). Run in release builds only (about 1 s there).
#[test]
#[cfg_attr(debug_assertions, ignore = "8000-rank run; exercised by the release test step")]
fn what_if_problem_at_8000_ranks_retains_only_the_peak() {
    let machine = registry::builtin("opteron-myrinet").expect("opteron-myrinet is a builtin");
    let sim = machine.sim.as_ref().expect("opteron-myrinet carries a sim half");
    let mut params = Sweep3dParams::speculative_20m(80, 100);
    params.iterations = 1;
    let set = params.program_set(sim).expect("the wavefront lowers on opteron-myrinet");
    let (_, p) = Engine::from_set(sim, set).run_probed().expect("8000-rank run");
    assert_eq!(p.channels, 31_640);
    assert_eq!(p.peak_queued, 10_320);
    assert_capacity_tracks_peak("8000 ranks", &p);
}
