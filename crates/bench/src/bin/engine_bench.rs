//! `engine-bench` — the tracked engine benchmark (see pace-bench's crate
//! docs and EXPERIMENTS.md "Tracked engine benchmarks").
//!
//! ```text
//! engine-bench [--smoke] [--out <path>] [--check <baseline.json>] [--max-regression <factor>]
//! ```
//!
//! Writes the measured document to `--out` (default `BENCH_engine.json`
//! in the current directory). With `--check`, exits non-zero when any
//! scenario's optimized median wall time regressed more than the factor
//! (default 2.0) against the baseline document.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_engine.json");
    let mut check: Option<String> = None;
    let mut factor = 2.0f64;
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("{} requires a value", args[*i - 1]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => out = value(&mut i),
            "--check" => check = Some(value(&mut i)),
            "--max-regression" => {
                factor = value(&mut i).parse().expect("--max-regression takes a float")
            }
            other => {
                eprintln!("unknown flag {other:?}");
                eprintln!(
                    "usage: engine-bench [--smoke] [--out <path>] [--check <baseline.json>] [--max-regression <factor>]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let mode = if smoke { "smoke" } else { "full" };
    let mut results = Vec::new();
    for scenario in pace_bench::scenarios(smoke) {
        eprintln!("running {} ({} reps)...", scenario.name, scenario.reps);
        let r = pace_bench::run_scenario(&scenario);
        eprintln!(
            "  {}: before p50 {:.1} ms, after p50 {:.1} ms ({:.2}x), {} events/run, digest_match={}",
            r.name,
            r.reference.wall.p50_ms,
            r.optimized.wall.p50_ms,
            r.speedup_p50(),
            r.ops_per_run,
            r.digest_match
        );
        if !r.digest_match {
            eprintln!("FATAL: {}: engines disagree — benchmark numbers are meaningless", r.name);
            std::process::exit(1);
        }
        for p in &r.parallel {
            eprintln!(
                "  {}: par({} threads) p50 {:.1} ms ({:.2}x vs after), {} windows, digest_match={}{}",
                r.name,
                p.threads,
                p.wall.p50_ms,
                r.par_speedup_p50(p.threads).unwrap_or(0.0),
                p.windows,
                p.digest_match,
                if p.fell_back { " [fell back to sequential]" } else { "" }
            );
            if !p.digest_match {
                eprintln!(
                    "FATAL: {}: parallel engine ({} threads) diverged from the sequential digest",
                    r.name, p.threads
                );
                std::process::exit(1);
            }
        }
        if let Some(sn) = &r.snapshot {
            eprintln!(
                "  {}: snap({} variants, fork @{} activations) p50 {:.1} ms vs naive {:.1} ms ({:.2}x campaign), digest_match={}",
                r.name,
                sn.variants,
                sn.fork_activations,
                sn.wall.p50_ms,
                sn.naive_wall.p50_ms,
                sn.campaign_speedup_p50(),
                sn.digest_match
            );
            if !sn.digest_match {
                eprintln!(
                    "FATAL: {}: snapshot-forked identity variant diverged from the sequential digest",
                    r.name
                );
                std::process::exit(1);
            }
        }
        results.push(r);
    }

    let doc = pace_bench::to_json(mode, &results);
    std::fs::write(&out, &doc).expect("write benchmark document");
    eprintln!("wrote {out}");

    if let Some(path) = check {
        let baseline =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        match pace_bench::check_regressions(&results, &baseline, factor) {
            Ok(()) => eprintln!("regression check against {path}: ok (limit {factor}x)"),
            Err(msg) => {
                eprintln!("regression check against {path} FAILED:\n{msg}");
                std::process::exit(1);
            }
        }
    }
}
