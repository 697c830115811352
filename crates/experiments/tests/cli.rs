//! Command-line usage errors: malformed or unknown flags exit 2 with a
//! one-line message on stderr, never a panic.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn the experiments binary")
}

/// Run `args`, check it is a one-line usage error, and return the line.
fn assert_usage_error(args: &[&str]) -> String {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?} should be a usage error: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: expected a one-line message: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    stderr.trim_end().to_string()
}

#[test]
fn non_integer_flag_values_are_usage_errors() {
    assert_usage_error(&["speculation", "--ranks", "abc"]);
    assert_usage_error(&["speculation", "--repeat", "-1"]);
    assert_usage_error(&["attribute", "--px", "two"]);
}

/// Every subcommand that reads flags names a flag missing its value and
/// rejects an unknown flag, with the same messages.
#[test]
fn missing_values_and_unknown_flags_are_usage_errors() {
    for command in ["sweep", "speculation", "attribute"] {
        let missing = assert_usage_error(&[command, "--workload"]);
        assert_eq!(missing, "--workload requires a value", "{command}");
        let unknown = assert_usage_error(&[command, "--bogus"]);
        assert_eq!(unknown, format!("unknown {command} flag \"--bogus\""));
    }
}

/// Count flags take positive integers: a zero exits 2 naming the flag
/// (it used to panic mid-lowering or print a non-JSON `inf`).
#[test]
fn zero_counts_are_usage_errors() {
    for args in [
        &["speculation", "--iterations", "0"][..],
        &["speculation", "--workload", "allreduce", "--ranks", "0"],
        &["speculation", "--repeat", "0", "--json"],
        &["attribute", "--px", "0"],
        &["attribute", "--py", "0"],
    ] {
        assert_usage_error(args);
        let stderr = String::from_utf8_lossy(&experiments(args).stderr).into_owned();
        let flag = args.iter().find(|a| a.starts_with("--") && **a != "--workload").unwrap();
        assert!(stderr.contains(flag), "{args:?}: error should name {flag}: {stderr}");
    }
}

/// `csv` into a directory it cannot create exits 1 naming the path.
#[test]
fn csv_reports_an_unwritable_directory() {
    let file = std::env::temp_dir().join(format!("pace-csv-probe-{}", std::process::id()));
    std::fs::write(&file, "not a directory").unwrap();
    let dir = file.join("out");
    let out = experiments(&["csv", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
    assert!(stderr.contains(dir.to_str().unwrap()), "error should name the path: {stderr}");
    std::fs::remove_file(&file).unwrap();
}

/// `--trace` into a directory that cannot be created exits 1 naming the
/// path, after the subcommand ran.
#[test]
fn trace_reports_an_unwritable_path() {
    let file = std::env::temp_dir().join(format!("pace-trace-probe-{}", std::process::id()));
    std::fs::write(&file, "not a directory").unwrap();
    let path = file.join("out").join("trace.json");
    let out = experiments(&["--trace", path.to_str().unwrap(), "fig1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
    assert!(stderr.contains(path.to_str().unwrap()), "error should name the path: {stderr}");
    std::fs::remove_file(&file).unwrap();
}

/// Every `speculation` arm prints one valid JSON document with the keys
/// it has always printed: the wavefront names its figure and array, the
/// other templates their workload.
#[test]
fn speculation_json_keeps_its_keys_for_every_workload() {
    let common = [
        "ranks",
        "iterations",
        "repeat",
        "workers",
        "streams",
        "stored_ops",
        "ops_per_run",
        "total_events",
        "wall_ms",
        "events_per_sec",
        "makespan_secs",
        "replications",
    ];
    for (workload, identity, absent) in [
        ("wavefront", &["figure", "array"][..], &["workload"][..]),
        ("stencil", &["workload"], &["figure", "array"]),
        ("allreduce", &["workload"], &["figure", "array"]),
    ] {
        let args = [
            "speculation",
            "--workload",
            workload,
            "--ranks",
            "4",
            "--repeat",
            "2",
            "--iterations",
            "1",
            "--json",
        ];
        let out = experiments(&args);
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8(out.stdout).unwrap();
        let doc = obs::Json::parse(&text).unwrap_or_else(|e| panic!("{workload}: {e}\n{text}"));
        for key in identity.iter().chain(&common) {
            assert!(doc.get(key).is_some(), "{workload}: missing {key:?}\n{text}");
        }
        for key in absent {
            assert!(doc.get(key).is_none(), "{workload}: unexpected {key:?}\n{text}");
        }
        let makespan = doc.get("makespan_secs").unwrap();
        for stat in ["mean", "min", "max", "std"] {
            assert!(makespan.get(stat).and_then(obs::Json::as_f64).is_some(), "{workload}: {stat}");
        }
        let seeds = doc.get("replications").and_then(obs::Json::as_arr).unwrap();
        assert_eq!(seeds.len(), 2, "{workload}");
    }
}

#[test]
fn removed_engine_selectors_are_usage_errors() {
    // The flag of the deleted speculative scheduler, spelled in pieces so
    // a repository-wide search for its name finds only history documents.
    let removed_flag = concat!("--opti", "mistic");
    assert_usage_error(&["speculation", removed_flag]);
    // Every user path runs the sequential engine: the engine-thread,
    // engine-mode and cross-mode flags are gone, and so is the second
    // profile exporter (the global --trace covers it).
    for args in [
        &["speculation", "--threads", "2"][..],
        &["attribute", "--mode", "par"],
        &["attribute", "--check-modes"],
        &["attribute", "--speedscope", "f"],
    ] {
        assert_usage_error(args);
        let stderr = String::from_utf8_lossy(&experiments(args).stderr).into_owned();
        assert!(stderr.contains(args[1]), "{args:?}: error should name {}: {stderr}", args[1]);
    }
}

/// Machine spec files that parse as JSON but hold unphysical values exit
/// 2 with an error naming the field, instead of panicking mid-simulation.
#[test]
fn out_of_range_machine_spec_fields_are_usage_errors() {
    let asset = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/machines/candidate-ib.json");
    let base = std::fs::read_to_string(asset).expect("read the candidate-ib spec");
    let probes = [
        ("\"cells_per_pe\": 8000", "\"cells_per_pe\": -8000", "analytic.rates[0].cells_per_pe"),
        ("\"compute_spread\": 0.006", "\"compute_spread\": 1e308", "noise.compute_spread"),
        ("\"compute_mean\": 0.008", "\"compute_mean\": 1e300", "noise.compute_mean"),
        ("\"message_jitter_us\": 2", "\"message_jitter_us\": 1e300", "noise.message_jitter_us"),
        ("\"small_intercept_us\": 1.5", "\"small_intercept_us\": 1e300", "small_intercept_us"),
        ("\"mflops\": 420", "\"mflops\": 1e-300", "cpu.rate_curve[0].mflops"),
        ("\"serialization_bw\": 900000000", "\"serialization_bw\": 1e-300", "serialization_bw"),
    ];
    let dir = std::env::temp_dir().join(format!("pace-spec-probes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (from, to, field)) in probes.iter().enumerate() {
        assert_eq!(base.matches(from).count(), 1, "probe {from:?} must edit exactly one field");
        let path = dir.join(format!("probe{i}.json"));
        std::fs::write(&path, base.replacen(from, to, 1)).unwrap();
        let out = experiments(&["sweep", "--machine-file", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{to}: {stderr}");
        assert!(!stderr.contains("panicked"), "{to} panicked: {stderr}");
        assert!(stderr.contains(field), "{to}: error should name {field}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Workload spec files that parse but hold values a template cannot price
/// (a zero extent or count, a negative or non-finite per-cell operation
/// count, an angle count no S_N order yields) exit 2 naming the field.
#[test]
fn unpriceable_workload_spec_fields_are_usage_errors() {
    use pace_core::{AllreduceParams, StencilParams, Sweep3dParams};
    use registry::WorkloadSpec;
    let stencil = WorkloadSpec::Stencil(StencilParams::weak_scaling(2, 2)).to_json();
    let allreduce = WorkloadSpec::Allreduce(AllreduceParams::cg_like(4)).to_json();
    let mut params = Sweep3dParams::speculative_20m(2, 2);
    params.iterations = 1;
    let wavefront = WorkloadSpec::Wavefront(params).to_json();
    let probes = [
        (&stencil, "\"px\": 2", "\"px\": 0", "params.px"),
        (&stencil, "\"ny\": 1000", "\"ny\": 0", "params.ny"),
        (&stencil, "\"flops_per_cell\": 6", "\"flops_per_cell\": -5", "params.flops_per_cell"),
        (&stencil, "\"flops_per_cell\": 6", "\"flops_per_cell\": 1e300", "params.flops_per_cell"),
        (&allreduce, "\"procs\": 4", "\"procs\": 0", "params.procs"),
        (
            &allreduce,
            "\"flops_per_cell\": 10",
            "\"flops_per_cell\": \"-inf\"",
            "params.flops_per_cell",
        ),
        (&wavefront, "\"nz\": 100", "\"nz\": 0", "params.nz"),
        (&wavefront, "\"mk\": 10", "\"mk\": 0", "params.mk"),
        (&wavefront, "\"mmi\": 3", "\"mmi\": 0", "params.mmi"),
        (&wavefront, "\"iterations\": 1", "\"iterations\": 0", "params.iterations"),
        (
            &wavefront,
            "\"angles_per_octant\": 6",
            "\"angles_per_octant\": 5",
            "params.angles_per_octant",
        ),
        (&wavefront, "\"ifbr\": 3", "\"ifbr\": -3", "sweep_per_cell_angle.ifbr"),
    ];
    let dir = std::env::temp_dir().join(format!("pace-workload-probes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (base, from, to, field)) in probes.iter().enumerate() {
        assert_eq!(base.matches(from).count(), 1, "probe {from:?} must edit exactly one field");
        let path = dir.join(format!("probe{i}.json"));
        std::fs::write(&path, base.replacen(from, to, 1)).unwrap();
        let out = experiments(&["sweep", "--workload", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{to}: {stderr}");
        assert!(!stderr.contains("panicked"), "{to} panicked: {stderr}");
        assert!(stderr.contains(field), "{to}: error should name {field}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Workload spec files past the per-rank work ceiling exit 2 naming the
/// fields, before lowering: huge per-rank extents used to overflow the
/// virtual clock (a panic, exit 101) and a huge iteration count grew the
/// trace by about a gigabyte a second.
#[test]
fn workload_specs_past_the_work_ceiling_are_usage_errors() {
    use pace_core::StencilParams;
    use registry::WorkloadSpec;
    let stencil = |nx, ny, iterations, flops_per_cell| {
        WorkloadSpec::Stencil(StencilParams { px: 2, py: 2, nx, ny, iterations, flops_per_cell })
    };
    // (spec, phrases the one-line error must hold)
    let probes = [
        (stencil(1_000_000_000, 1_000_000_000, 100, 1e6), ["nx × ny", "flops_per_cell"]),
        (stencil(10, 10, 100_000_000_000, 6.0), ["iterations", "operations"]),
        (stencil(1, 1, 10_000_000, 6.0), ["params.iterations", "trace steps"]),
    ];
    let dir = std::env::temp_dir().join(format!("pace-work-probes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (spec, phrases)) in probes.iter().enumerate() {
        let path = dir.join(format!("probe{i}.json"));
        std::fs::write(&path, spec.to_json()).unwrap();
        let out = experiments(&["sweep", "--workload", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "probe {i}: {stderr}");
        assert!(!stderr.contains("panicked"), "probe {i} panicked: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "probe {i}: expected one line: {stderr}");
        for phrase in ["work ceiling"].iter().chain(phrases) {
            assert!(stderr.contains(phrase), "probe {i}: error should name {phrase}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An allreduce spec whose reductions move more than the per-rank byte
/// budget exits 2 naming `params.reduce_bytes` (10^15 bytes in one
/// reduction used to overflow the virtual clock: a panic, exit 101);
/// 10^12 bytes still run.
#[test]
fn workload_specs_past_the_byte_budget_are_usage_errors() {
    use pace_core::AllreduceParams;
    use registry::WorkloadSpec;
    let allreduce = |reduce_bytes| {
        WorkloadSpec::Allreduce(AllreduceParams {
            reduce_bytes,
            reductions_per_iteration: 1,
            iterations: 1,
            ..AllreduceParams::cg_like(4)
        })
    };
    let dir = std::env::temp_dir().join(format!("pace-byte-probes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("probe.json");
    let run = |spec: WorkloadSpec| {
        std::fs::write(&path, spec.to_json()).unwrap();
        experiments(&["sweep", "--workload", path.to_str().unwrap()])
    };
    let out = run(allreduce(1_000_000_000_000_000));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "expected one line: {stderr}");
    assert!(stderr.contains("params.reduce_bytes") && stderr.contains("byte budget"), "{stderr}");
    let out = run(allreduce(1_000_000_000_000));
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Workload spec files whose rank count is past `registry::MAX_RANKS` exit
/// 2 naming the ceiling, before the DES allocates per-rank state (a
/// 100000 x 100000 stencil used to abort allocating 240 GB, exit 134).
#[test]
fn workload_specs_past_the_rank_ceiling_are_usage_errors() {
    use pace_core::{AllreduceParams, StencilParams, Sweep3dParams};
    use registry::{WorkloadSpec, MAX_RANKS};
    let grid = |px, py| {
        [
            WorkloadSpec::Stencil(StencilParams::weak_scaling(px, py)),
            WorkloadSpec::Wavefront(Sweep3dParams::speculative_20m(px, py)),
        ]
    };
    let probes: Vec<WorkloadSpec> = grid(100_000, 100_000)
        .into_iter()
        .chain(grid(1 << 32, 1 << 32)) // px * py overflows u64
        .chain([WorkloadSpec::Allreduce(AllreduceParams::cg_like(MAX_RANKS + 1))])
        .collect();
    let ceiling = MAX_RANKS.to_string();
    let dir = std::env::temp_dir().join(format!("pace-rank-probes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, spec) in probes.iter().enumerate() {
        let path = dir.join(format!("probe{i}.json"));
        std::fs::write(&path, spec.to_json()).unwrap();
        let out = experiments(&["sweep", "--workload", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "probe {i} ({}): {stderr}", spec.name());
        assert!(!stderr.contains("panicked"), "probe {i} panicked: {stderr}");
        assert!(!stderr.contains("memory allocation"), "probe {i} aborted: {stderr}");
        assert!(
            stderr.contains("rank ceiling") && stderr.contains(&ceiling),
            "probe {i}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Flags of the retired process tier, and store flags used without a
/// store or alongside the planner, exit 2 with one line.
#[test]
fn store_flag_misuse_is_a_usage_error() {
    assert_usage_error(&["sweep", "--shard", "2"]);
    assert_usage_error(&["sweep", "--resume"]);
    let dir = std::env::temp_dir().join(format!("pace-store-misuse-{}", std::process::id()));
    assert_usage_error(&["sweep", "--plan", "--store", dir.to_str().unwrap()]);
    assert!(!dir.exists(), "a rejected command line must not create the store");
}

/// `sweep --store D` then `sweep --store D --resume`: the resume serves
/// every range from the store and prints the same results.
#[test]
fn warm_store_resume_serves_every_range() {
    let dir = std::env::temp_dir().join(format!("pace-cli-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().unwrap();
    let run = |extra: &[&str]| {
        let out = experiments(&[&["sweep", "--store", store, "--json"], extra].concat());
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        let doc = obs::Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
        assert_eq!(doc.get("parity"), Some(&obs::Json::Bool(true)));
        let counter =
            |key: &str| doc.get("store").and_then(|s| s.get(key)).and_then(obs::Json::as_f64);
        let counts = [counter("ranges"), counter("completed"), counter("store_hits")];
        (counts.map(|c| c.expect("store counter") as usize), doc.get("results").cloned())
    };
    let ([ranges, completed, hits], cold) = run(&[]);
    assert!(ranges > 0);
    assert_eq!((completed, hits), (ranges, 0), "a cold store evaluates every range");
    let ([warm_ranges, completed, hits], warm) = run(&["--resume"]);
    assert_eq!(warm_ranges, ranges);
    assert_eq!((completed, hits), (0, ranges), "a warm resume evaluates nothing");
    assert_eq!(warm, cold, "the store changed the printed results");
    std::fs::remove_dir_all(&dir).unwrap();
}
