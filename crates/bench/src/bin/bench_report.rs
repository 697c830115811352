//! `bench-report` — render BENCH_engine.json / BENCH_sweep.json
//! histories as a markdown trend summary.
//!
//! ```text
//! bench_report <doc.json> [<older.json> ...]
//! ```
//!
//! Documents are given newest first; the first one is the subject, every
//! later one a history point. For engine documents each scenario shows
//! the wall-clock trend (after/parallel medians) and, for
//! schema v4 documents, the attribution columns (compute / wire /
//! blocking idle / fill / drain / collective milliseconds) with signed
//! deltas of the subject against the oldest document that has the
//! scenario — so a makespan shift is immediately attributed to the
//! mechanism that moved. Sweep documents (`pace-bench/sweep-*`) show the
//! naive vs planned medians, the campaign speedup, and the planner /
//! cache counters instead. Shard documents (`pace-bench/shard-*`) show
//! the in-process vs sharded medians, the fan-out speedup, and the
//! retry / content-addressed-store counters. Output is plain markdown on
//! stdout (CI appends it to the step summary); exits non-zero on
//! unreadable or unparseable input.

use obs::Json;

/// Attribution mechanisms rendered as columns, in display order:
/// `(column label, rollup feature key)`.
const PHASES: [(&str, &str); 6] = [
    ("compute", "rollup.compute_ps"),
    ("wire", "rollup.wire_ps"),
    ("blk idle", "rollup.blocking_idle_ps"),
    ("fill", "rollup.fill_ps"),
    ("drain", "rollup.drain_ps"),
    ("collective", "rollup.collective_ps"),
];

fn ms(ps: f64) -> f64 {
    ps / 1e9
}

fn scenario_p50(scenario: &Json, side: &str) -> Option<f64> {
    scenario.get(side)?.get("wall_ms")?.get("p50")?.as_f64()
}

/// `scenarios` array entry by name within one document.
fn find_scenario<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("scenarios")?
        .as_arr()?
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
}

/// Shard-document rendering (`pace-bench/shard-*`): the in-process vs
/// sharded wall trend per scenario plus the subject's retry and
/// content-addressed-store counters.
fn render_shard(docs: &[(String, Json)], subject_label: &str, schema: &str, mode: &str) {
    let (_, subject) = &docs[0];
    println!("## Shard benchmark report: {subject_label} ({schema}, {mode} mode)\n");
    let scenarios: Vec<&str> = subject
        .get("scenarios")
        .and_then(Json::as_arr)
        .map(|arr| arr.iter().filter_map(|s| s.get("name").and_then(Json::as_str)).collect())
        .unwrap_or_default();
    if scenarios.is_empty() {
        eprintln!("{subject_label}: no scenarios in document");
        std::process::exit(1);
    }
    let fmt = |v: Option<f64>| v.map_or("—".to_string(), |x| format!("{x:.3}"));
    for name in scenarios {
        println!("### {name}\n");
        println!("| document | ranks | workers | in-process p50 (ms) | sharded p50 (ms) | speedup | digest |");
        println!("|---|---|---|---|---|---|---|");
        for (label, doc) in docs {
            let Some(sc) = find_scenario(doc, name) else { continue };
            let int = |key: &str| {
                sc.get(key).and_then(Json::as_f64).map_or("—".to_string(), |v| format!("{v}"))
            };
            println!(
                "| {label} | {} | {} | {} | {} | {} | {} |",
                int("ranks"),
                int("workers"),
                fmt(scenario_p50(sc, "inprocess")),
                fmt(scenario_p50(sc, "sharded")),
                sc.get("speedup_p50")
                    .and_then(Json::as_f64)
                    .map_or("—".to_string(), |x| format!("{x:.2}x")),
                match sc.get("digest_match").and_then(Json::as_bool) {
                    Some(true) => "ok",
                    Some(false) => "**MISMATCH**",
                    None => "—",
                },
            );
        }
        println!();
        let count = |key: &str| {
            find_scenario(subject, name)
                .and_then(|s| s.get("shard")?.get(key)?.as_f64())
                .map_or("—".to_string(), |v| format!("{v}"))
        };
        println!(
            "_shard: {} ranges / {} completed / {} retried; store: {} hits / {} misses_\n",
            count("ranges"),
            count("completed"),
            count("retried"),
            count("store_hits"),
            count("store_misses"),
        );
    }
}

/// Sweep-document rendering: the naive/planned wall trend per scenario
/// plus the subject's planner and cache counters.
fn render_sweep(docs: &[(String, Json)], subject_label: &str, schema: &str, mode: &str) {
    let (_, subject) = &docs[0];
    println!("## Sweep benchmark report: {subject_label} ({schema}, {mode} mode)\n");
    let scenarios: Vec<&str> = subject
        .get("scenarios")
        .and_then(Json::as_arr)
        .map(|arr| arr.iter().filter_map(|s| s.get("name").and_then(Json::as_str)).collect())
        .unwrap_or_default();
    if scenarios.is_empty() {
        eprintln!("{subject_label}: no scenarios in document");
        std::process::exit(1);
    }
    let fmt = |v: Option<f64>| v.map_or("—".to_string(), |x| format!("{x:.3}"));
    for name in scenarios {
        println!("### {name}\n");
        println!("| document | workload | naive p50 (ms) | planned p50 (ms) | speedup | digest |");
        println!("|---|---|---|---|---|---|");
        for (label, doc) in docs {
            let Some(sc) = find_scenario(doc, name) else { continue };
            println!(
                "| {label} | {} | {} | {} | {} | {} |",
                // Documents written before the workload key existed still
                // render — every pre-key scenario was a sweep3d campaign.
                sc.get("workload").and_then(Json::as_str).unwrap_or("—"),
                fmt(scenario_p50(sc, "naive")),
                fmt(scenario_p50(sc, "planned")),
                sc.get("speedup_p50")
                    .and_then(Json::as_f64)
                    .map_or("—".to_string(), |x| format!("{x:.2}x")),
                match sc.get("digest_match").and_then(Json::as_bool) {
                    Some(true) => "ok",
                    Some(false) => "**MISMATCH**",
                    None => "—",
                },
            );
        }
        println!();
        let count = |obj: &str, key: &str| {
            find_scenario(subject, name)
                .and_then(|s| s.get(obj)?.get(key)?.as_f64())
                .map_or("—".to_string(), |v| format!("{v}"))
        };
        println!(
            "_plan: {} jobs ({} deduped), {} fork groups / {} resumes / {} fallbacks; cache: {} hits / {} misses / {} evictions_\n",
            count("plan", "jobs"),
            count("plan", "deduped"),
            count("plan", "groups"),
            count("plan", "fork_resumes"),
            count("plan", "fallbacks"),
            count("cache", "hits"),
            count("cache", "misses"),
            count("cache", "evictions"),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: bench_report <doc.json> [<older.json> ...]");
        std::process::exit(2);
    }
    let docs: Vec<(String, Json)> = args
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("read {path}: {e}");
                std::process::exit(1);
            });
            let json = Json::parse(&text).unwrap_or_else(|e| {
                eprintln!("parse {path}: {e}");
                std::process::exit(1);
            });
            let label = path.rsplit('/').next().unwrap_or(path).to_string();
            (label, json)
        })
        .collect();

    let (subject_label, subject) = &docs[0];
    let schema = subject.get("schema").and_then(Json::as_str).unwrap_or("?");
    let mode = subject.get("mode").and_then(Json::as_str).unwrap_or("?");
    if schema.starts_with("pace-bench/sweep") {
        render_sweep(&docs, subject_label, schema, mode);
        return;
    }
    if schema.starts_with("pace-bench/shard") {
        render_shard(&docs, subject_label, schema, mode);
        return;
    }
    println!("## Engine benchmark report: {subject_label} ({schema}, {mode} mode)\n");

    let scenarios: Vec<&str> = subject
        .get("scenarios")
        .and_then(Json::as_arr)
        .map(|arr| arr.iter().filter_map(|s| s.get("name").and_then(Json::as_str)).collect())
        .unwrap_or_default();
    if scenarios.is_empty() {
        eprintln!("{subject_label}: no scenarios in document");
        std::process::exit(1);
    }

    for name in scenarios {
        println!("### {name}\n");
        // Wall-clock trend across every document carrying the scenario,
        // subject first.
        println!("| document | after p50 (ms) | speedup | par p50 |");
        println!("|---|---|---|---|");
        let fmt = |v: Option<f64>| v.map_or("—".to_string(), |x| format!("{x:.3}"));
        for (label, doc) in &docs {
            let Some(sc) = find_scenario(doc, name) else { continue };
            let par = sc
                .get("parallel")
                .and_then(Json::as_arr)
                .and_then(|arr| arr.first())
                .and_then(|p| p.get("wall_ms")?.get("p50")?.as_f64());
            println!(
                "| {label} | {} | {} | {} |",
                fmt(scenario_p50(sc, "after")),
                sc.get("speedup_p50")
                    .and_then(Json::as_f64)
                    .map_or("—".to_string(), |x| format!("{x:.2}x")),
                fmt(par),
            );
        }
        println!();

        // Per-phase attribution: subject values plus signed deltas
        // against the oldest document that has both the scenario and a
        // v4 attribution object.
        let Some(attr) = find_scenario(subject, name).and_then(|s| s.get("attribution")) else {
            println!("_no attribution object (pre-v4 document)_\n");
            continue;
        };
        let baseline = docs[1..].iter().rev().find_map(|(label, doc)| {
            Some((label.as_str(), find_scenario(doc, name)?.get("attribution")?))
        });
        println!("| phase | {subject_label} (ms) | delta (ms) |");
        println!("|---|---|---|");
        let makespan = attr.get("rollup.makespan_ps").and_then(Json::as_f64).unwrap_or(0.0);
        let base_makespan =
            baseline.and_then(|(_, b)| b.get("rollup.makespan_ps")).and_then(Json::as_f64);
        let delta = |now: f64, base: Option<f64>| {
            base.map_or("—".to_string(), |b| format!("{:+.3}", ms(now - b)))
        };
        println!("| makespan | {:.3} | {} |", ms(makespan), delta(makespan, base_makespan));
        for (label, key) in PHASES {
            let now = attr.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let base = baseline.and_then(|(_, b)| b.get(key)).and_then(Json::as_f64);
            println!("| {label} | {:.3} | {} |", ms(now), delta(now, base));
        }
        match baseline {
            Some((label, _)) => println!("\n_deltas vs {label}_\n"),
            None => println!("\n_no history document with attribution — deltas omitted_\n"),
        }
    }
}
