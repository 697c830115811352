//! Edge-case coverage across the substrates: the unusual-but-legal inputs
//! a downstream user will eventually throw at these crates.

use cluster_sim::{Engine, MachineSpec, NetworkModel, Op, Program};
use simmpi::{ReduceOp, Runtime};

// ---------------------------------------------------------------- simmpi --

#[test]
fn thousands_of_back_to_back_collectives() {
    // The collective tag space recycles epochs modulo a few thousand; a
    // long-running solver must not cross-match after wraparound.
    let out = Runtime::new(3).run(|c| {
        let mut last = 0.0;
        for round in 0..5000 {
            last = c.allreduce_f64(round as f64, ReduceOp::Sum).unwrap();
        }
        last
    });
    for v in out {
        assert_eq!(v, 4999.0 * 3.0);
    }
}

#[test]
fn interleaved_p2p_and_collectives() {
    let out = Runtime::new(4).run(|c| {
        let mut acc = 0.0;
        for round in 0..50 {
            let right = (c.rank() + 1) % 4;
            let left = (c.rank() + 3) % 4;
            c.send_f64s(right, round, &[c.rank() as f64]).unwrap();
            let (v, _) = c.recv_f64s(left, round).unwrap();
            acc += c.allreduce_f64(v[0], ReduceOp::Max).unwrap();
        }
        acc
    });
    for v in out {
        assert_eq!(v, 50.0 * 3.0, "max rank is always 3");
    }
}

#[test]
fn self_messaging_with_collectives() {
    let out = Runtime::new(2).run(|c| {
        c.send_f64s(c.rank(), 1, &[42.0]).unwrap();
        c.barrier().unwrap();
        let (v, _) = c.recv_f64s(c.rank(), 1).unwrap();
        v[0]
    });
    assert_eq!(out, vec![42.0, 42.0]);
}

#[test]
fn large_vector_reduce() {
    let n = 10_000;
    let out = Runtime::new(3).run(|c| {
        let mine = vec![c.rank() as f64 + 1.0; n];
        c.allreduce_f64s(&mine, ReduceOp::Sum).unwrap()
    });
    for v in out {
        assert_eq!(v.len(), n);
        assert!(v.iter().all(|&x| x == 6.0));
    }
}

// ------------------------------------------------------------ cluster-sim --

#[test]
fn self_send_in_simulator() {
    let machine = MachineSpec::ideal(100.0);
    let mut p = Program::new();
    p.push(Op::Send { to: 0, bytes: 64, tag: 1 });
    p.push(Op::Recv { from: 0, tag: 1 });
    let report = Engine::new(&machine, vec![p]).run().unwrap();
    assert_eq!(report.ranks.len(), 1);
}

#[test]
fn single_rank_collective_is_free() {
    let machine = MachineSpec::ideal(100.0);
    let mut p = Program::new();
    p.push(Op::AllReduce { bytes: 8 });
    p.push(Op::Barrier);
    let report = Engine::new(&machine, vec![p]).run().unwrap();
    assert_eq!(report.makespan(), 0.0);
}

#[test]
fn zero_byte_messages_cost_only_latency() {
    let mut machine = MachineSpec::ideal(100.0);
    machine.network = NetworkModel::from_link(10.0, 100.0, 2.0, 8192.0);
    let mut p0 = Program::new();
    p0.push(Op::Send { to: 1, bytes: 0, tag: 1 });
    let mut p1 = Program::new();
    p1.push(Op::Recv { from: 0, tag: 1 });
    let report = Engine::new(&machine, vec![p0, p1]).run().unwrap();
    let expect = machine.network.sender_overhead(0).as_secs()
        + machine.network.wire_time(0).as_secs()
        + machine.network.receiver_overhead(0).as_secs();
    assert!((report.ranks[1].finish.as_secs() - expect).abs() < 1e-12);
}

#[test]
fn zero_flop_compute_is_instant() {
    let machine = MachineSpec::ideal(100.0);
    let mut p = Program::new();
    p.push(Op::Compute { flops: 0.0, working_set: 1 << 20 });
    let report = Engine::new(&machine, vec![p]).run().unwrap();
    assert_eq!(report.makespan(), 0.0);
}

#[test]
fn mixed_allreduce_sizes_use_the_max() {
    // Ill-matched payloads across ranks: the engine charges the largest.
    let mut machine = MachineSpec::ideal(100.0);
    machine.network = NetworkModel::from_link(10.0, 100.0, 2.0, 1048576.0);
    let mk = |bytes: usize| {
        let mut p = Program::new();
        p.push(Op::AllReduce { bytes });
        p
    };
    let t_small = Engine::new(&machine, vec![mk(8), mk(8)]).run().unwrap().makespan();
    let t_mixed = Engine::new(&machine, vec![mk(8), mk(100_000)]).run().unwrap().makespan();
    let t_large = Engine::new(&machine, vec![mk(100_000), mk(100_000)]).run().unwrap().makespan();
    assert!(t_mixed > t_small);
    assert_eq!(t_mixed, t_large);
}

#[test]
fn smp_sharers_slow_compute() {
    use cluster_sim::cpu::{CpuModel, RatePoint};
    let mut machine = MachineSpec::ideal(100.0);
    machine.cpu = CpuModel::with_curve("smp", vec![RatePoint { bytes: 1.0, mflops: 100.0 }], 0.2);
    machine.smp_width = 8;
    let prog = |n: usize| {
        (0..n)
            .map(|_| {
                let mut p = Program::new();
                p.push(Op::Compute { flops: 1e8, working_set: 0 });
                p
            })
            .collect::<Vec<_>>()
    };
    let solo = Engine::new(&machine, prog(1)).run().unwrap().makespan();
    let eight = Engine::new(&machine, prog(8)).run().unwrap().makespan();
    assert!(eight > solo * 1.1, "8 sharers must contend: {eight} vs {solo}");
}

// ------------------------------------------------------------------ fit --

#[test]
fn fit_handles_two_points() {
    let fit = hwbench::fit::fit_piecewise(&[(8.0, 10.0), (1024.0, 30.0)]);
    assert!(!fit.segmented);
    assert!((fit.curve.eval_us(8) - 10.0).abs() < 1e-9);
    assert!((fit.curve.eval_us(1024) - 30.0).abs() < 1e-9);
}

#[test]
fn hmcl_script_of_fitted_machine_roundtrips() {
    // Full loop: simulate → benchmark → fit → write HMCL → parse → equal.
    let spec = registry::sim::opteron_gige_sim();
    let hw = hwbench::benchmark_machine(&spec, &[20], 1);
    let script = pace_core::hmcl_script::write(&hw);
    let back = pace_core::hmcl_script::parse(&script).unwrap();
    assert_eq!(back.comm, hw.comm);
    for bytes in [0usize, 1024, 1 << 16] {
        assert_eq!(back.comm.pingpong.eval_us(bytes), hw.comm.pingpong.eval_us(bytes));
    }
}
