//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints two lines: a report object
//! (host record, sample counts, throughput, digest, failures), then the
//! result object `{"correct", "attempted", "failed", "metrics"}`. Exits 1
//! when a check failed and 2 on a usage error.
//!
//! `--setup-once <full|reduced>` only times one cold set-up and prints
//! its seconds: the run starts itself this way to measure `setup_s`.
//!
//! Workloads: validate_tables, speculation_8000pe, whatif_8000pe,
//! design_space.

use pace_perfbench::workloads::{Config, Scale, DEFAULT_SEED};
use pace_perfbench::{measure_named, RunOpts, WORKLOADS};

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--setup-once full|reduced]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_once = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> &str {
            *i += 1;
            args.get(*i).map(String::as_str).unwrap_or_else(|| usage("missing flag value"))
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value(&mut i).to_string()),
            "--seed" => {
                seed = value(&mut i).parse().unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds =
                    value(&mut i).parse().unwrap_or_else(|_| usage("--seconds takes a number"))
            }
            "--trace" => {
                trace = match value(&mut i) {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--setup-once" => {
                setup_once = Some(match value(&mut i) {
                    "full" => Scale::Full,
                    "reduced" => Scale::Reduced,
                    _ => usage("--setup-once takes full or reduced"),
                })
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    let name = workload.unwrap_or_else(|| usage("--workload is required"));
    let workers = sweepsvc::available_workers();
    if let Some(scale) = setup_once {
        let cfg = Config { seed, workers, scale };
        let secs = pace_perfbench::setup_once(&name, &cfg)
            .unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
        println!("{secs}");
        return;
    }
    let cfg = Config { seed, workers, scale: Scale::Full };
    let exe = std::env::current_exe().expect("path of the running executable");
    let opts = RunOpts { seconds, trace, exe };
    let outcome = measure_named(&name, &cfg, &opts)
        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
    for f in &outcome.failures {
        eprintln!("FAILED {}: {f}", outcome.workload);
    }
    println!("{}", outcome.report);
    println!("{}", outcome.result_json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
