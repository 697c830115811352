//! Pinned rendering of the pipeline Gantt chart.
//!
//! The timeline is now derived from the engine's recorded span stream;
//! this fixture pins the rendered chart for a deterministic scenario so
//! any change to span emission, interval folding, or rendering shows up
//! as a readable diff. Regenerate with
//! `BLESS=1 cargo test -p cluster-sim --test timeline_fixture`.

use cluster_sim::machine::MachineSpec;
use cluster_sim::network::NetworkModel;
use cluster_sim::program::{Op, Program};
use cluster_sim::{timeline, ProgramSet};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/timeline_6rank.txt");

fn pipeline_programs(ranks: usize, blocks: usize) -> ProgramSet {
    let mut programs = Vec::new();
    for r in 0..ranks {
        let mut p = Program::new();
        for b in 0..blocks as u32 {
            if r > 0 {
                p.push(Op::Recv { from: r - 1, tag: b });
            }
            p.push(Op::Compute { flops: 5e6, working_set: 0 });
            if r + 1 < ranks {
                p.push(Op::Send { to: r + 1, bytes: 4096, tag: b });
            }
        }
        p.push(Op::AllReduce { bytes: 8 });
        programs.push(p);
    }
    ProgramSet::from_programs(&programs)
}

#[test]
fn rendered_chart_matches_pinned_fixture() {
    let mut machine = MachineSpec::ideal(100.0);
    machine.network = NetworkModel::from_link(10.0, 100.0, 5.0, 16384.0);
    let tl = timeline::record(&machine, pipeline_programs(6, 8)).expect("timeline run");
    let chart = tl.render(72);

    if std::env::var_os("BLESS").is_some() {
        std::fs::write(FIXTURE, &chart).expect("write fixture");
        return;
    }
    let pinned = std::fs::read_to_string(FIXTURE).expect("fixture present");
    assert_eq!(
        chart, pinned,
        "rendered timeline drifted from fixture; rerun with BLESS=1 if intentional"
    );
}
