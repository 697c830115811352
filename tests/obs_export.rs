//! Cross-crate exporter tests: a real instrumented simulation run, pushed
//! through the Chrome exporter and validated end to end — JSON shape,
//! per-track timestamp monotonicity, span-total/`RankStats` agreement and
//! byte determinism across identical runs.

use std::collections::BTreeMap;

use cluster_sim::{Engine, MachineSpec, NetworkModel, Op, Program};
use obs::json::Json;
use obs::{chrome, Cat, Recorder};

/// A deterministic but non-trivial run: 5-rank pipeline with noise, both
/// messaging protocols and a closing collective.
fn traced_run(pid: u32) -> (Recorder, cluster_sim::RunReport) {
    let (machine, programs) = traced_run_programs();
    let rec = Recorder::enabled();
    let report = Engine::new(&machine, programs).with_recorder(&rec, pid).run().unwrap();
    (rec, report)
}

/// The recorder's Chrome-trace document.
fn export(rec: &Recorder, include_wall: bool) -> String {
    let mut out = Vec::new();
    chrome::export_to(rec, include_wall, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the exporter writes UTF-8")
}

#[test]
fn chrome_trace_round_trips_with_required_fields() {
    let (rec, _) = traced_run(3);
    let doc = export(&rec, true);
    let parsed = Json::parse(&doc).expect("chrome export must be valid JSON");
    let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());
    let mut complete_spans = 0;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("every event has ph");
        assert!(ev.get("pid").and_then(Json::as_f64).is_some());
        if ph == "X" {
            complete_spans += 1;
            assert!(ev.get("tid").and_then(Json::as_f64).is_some());
            assert!(ev.get("ts").and_then(Json::as_f64).is_some());
            assert!(ev.get("dur").and_then(Json::as_f64).is_some());
            assert!(ev.get("name").and_then(Json::as_str).is_some());
        }
    }
    assert!(complete_spans > 20, "expected a real span stream, got {complete_spans}");
}

#[test]
fn chrome_trace_timestamps_are_monotonic_per_track() {
    let (rec, _) = traced_run(0);
    let doc = export(&rec, false);
    let parsed = Json::parse(&doc).unwrap();
    let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let key = (
            ev.get("pid").and_then(Json::as_f64).unwrap() as u64,
            ev.get("tid").and_then(Json::as_f64).unwrap() as u64,
        );
        let ts = ev.get("ts").and_then(Json::as_f64).unwrap();
        if let Some(prev) = last_ts.get(&key) {
            assert!(ts >= *prev, "track {key:?}: ts {ts} after {prev}");
        }
        last_ts.insert(key, ts);
    }
    assert!(last_ts.len() >= 5, "expected one track per rank");
}

#[test]
fn span_totals_agree_with_rank_stats() {
    let (rec, report) = traced_run(7);
    let totals = rec.sim_totals();
    for (rank, stats) in report.ranks.iter().enumerate() {
        let total = |cat: Cat| totals.get(&(7, rank as u32, cat)).copied().unwrap_or(0);
        assert_eq!(total(Cat::Compute), stats.compute.picos(), "rank {rank} compute");
        assert_eq!(
            total(Cat::Comm),
            (stats.send_overhead + stats.send_wait + stats.recv_overhead).picos(),
            "rank {rank} comm"
        );
        assert_eq!(total(Cat::Collective), stats.collective.picos(), "rank {rank} collective");
        assert_eq!(total(Cat::Idle), stats.recv_wait.picos(), "rank {rank} idle");
        // And the four categories tile the rank's whole timeline.
        assert_eq!(
            total(Cat::Compute) + total(Cat::Comm) + total(Cat::Collective) + total(Cat::Idle),
            stats.finish.picos(),
            "rank {rank} coverage"
        );
    }
}

#[test]
fn identical_runs_export_byte_identical_sim_traces() {
    let (rec_a, report_a) = traced_run(1);
    let (rec_b, report_b) = traced_run(1);
    assert_eq!(report_a, report_b, "the run itself must be deterministic");
    assert_eq!(
        export(&rec_a, false),
        export(&rec_b, false),
        "sim-only chrome export must be byte-identical"
    );
}

/// The machine and programs of `traced_run`, also for runs that drive the
/// engine differently (paused/forked) against the same fixture.
fn traced_run_programs() -> (cluster_sim::MachineSpec, Vec<Program>) {
    let mut machine = MachineSpec::ideal(200.0)
        .with_noise(cluster_sim::NoiseModel::commodity())
        .with_seed(0xC0FFEE)
        .with_rendezvous(4096);
    machine.network = NetworkModel::from_link(10.0, 150.0, 3.0, 4096.0);
    let ranks = 5;
    let mut programs = Vec::new();
    for r in 0..ranks {
        let mut p = Program::new();
        for b in 0..6u32 {
            if r > 0 {
                p.push(Op::Recv { from: r - 1, tag: b });
            }
            p.push(Op::Compute { flops: 2e6, working_set: 4096 });
            if r + 1 < ranks {
                p.push(Op::Send { to: r + 1, bytes: if b % 2 == 0 { 512 } else { 8192 }, tag: b });
            }
        }
        p.push(Op::AllReduce { bytes: 16 });
        programs.push(p);
    }
    (machine, programs)
}

#[test]
fn paused_resume_emits_the_uninterrupted_span_stream() {
    // A run paused mid-way and resumed must be invisible in the trace:
    // the sim-domain span stream (after the recorder's deterministic
    // sort) equals an uninterrupted traced run's, span for span, and the
    // exporter serializes both byte-identically.
    let (rec_full, full) = traced_run(4);
    let (machine, programs) = traced_run_programs();
    for pause_after in [1u64, 7, 23, 10_000] {
        let rec = Recorder::enabled();
        let resumed = Engine::new(&machine, programs.clone())
            .with_recorder(&rec, 4)
            .run_paused(pause_after)
            .expect("fixture pauses")
            .resume()
            .expect("fixture resumes");
        assert_eq!(resumed, full, "pause @{pause_after}: resumed report diverged");
        assert_eq!(
            rec.sim_spans(),
            rec_full.sim_spans(),
            "pause @{pause_after}: span streams diverged"
        );
        assert_eq!(
            export(&rec, false),
            export(&rec_full, false),
            "pause @{pause_after}: chrome exports diverged"
        );
    }
}

#[test]
fn snapshot_fork_resumes_with_tracing_off_match_the_traced_report() {
    // Tracing off: the forked resume must still reproduce the traced
    // run's report exactly, and a disabled recorder must stay empty
    // through pause, fork and resume.
    let (_, full) = traced_run(0);
    let (machine, programs) = traced_run_programs();
    let rec = Recorder::disabled();
    let paused = Engine::new(&machine, programs.clone())
        .with_recorder(&rec, 0)
        .run_paused(11)
        .expect("fixture pauses");
    let fork = paused.snapshot();
    assert_eq!(fork.resume().expect("fork resumes"), full, "fork diverged (tracing off)");
    assert_eq!(paused.resume().expect("original resumes"), full, "original diverged");
    assert!(rec.sim_spans().is_empty(), "disabled recorder captured spans");
    // And entirely without a recorder attached.
    let bare = Engine::new(&machine, programs)
        .run_paused(11)
        .expect("fixture pauses")
        .resume()
        .expect("fixture resumes");
    assert_eq!(bare, full, "untraced paused resume diverged from the traced report");
}

#[test]
fn tracing_does_not_perturb_the_untraced_run() {
    let (_, traced) = traced_run(0);
    let mut machine = MachineSpec::ideal(200.0)
        .with_noise(cluster_sim::NoiseModel::commodity())
        .with_seed(0xC0FFEE)
        .with_rendezvous(4096);
    machine.network = NetworkModel::from_link(10.0, 150.0, 3.0, 4096.0);
    let ranks = 5;
    let mut programs = Vec::new();
    for r in 0..ranks {
        let mut p = Program::new();
        for b in 0..6u32 {
            if r > 0 {
                p.push(Op::Recv { from: r - 1, tag: b });
            }
            p.push(Op::Compute { flops: 2e6, working_set: 4096 });
            if r + 1 < ranks {
                p.push(Op::Send { to: r + 1, bytes: if b % 2 == 0 { 512 } else { 8192 }, tag: b });
            }
        }
        p.push(Op::AllReduce { bytes: 16 });
        programs.push(p);
    }
    let plain = Engine::new(&machine, programs).run().unwrap();
    assert_eq!(plain, traced);
}
