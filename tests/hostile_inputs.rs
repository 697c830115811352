//! Hostile-input properties of the parsers that read untrusted bytes:
//! spec files and store chunks go through `obs::Json`. Each must return
//! a value or a structured error on arbitrary input, never panic.

use std::collections::BTreeMap;

use obs::json::{escape, Json};
use proptest::prelude::*;
use registry::{workload_from_json, workload_to_json, MachineSpec};
use sweepsvc::store::{ChunkStore, IdRange};

/// Arbitrary scalars, half of them ASCII (controls, quotes and
/// backslashes included) so escapes are common.
fn text(codes: &[u32]) -> String {
    codes.iter().filter_map(|&x| char::from_u32(if x % 2 == 0 { x % 0x80 } else { x })).collect()
}

/// JSON-shaped fragments, so the soup reaches deep into the parser.
const JSON_ALPHABET: [&str; 20] = [
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud800", "12", "-", "e", ".5", "true",
    "null", " ", "\"k\"", "1e999", "é",
];

/// Field values a workload template accepts, and values it must reject
/// with an error: zero, negative, fractional, non-finite, past 2^53, past
/// the rank or work ceilings, or not a number at all.
const VALID: [&str; 6] = ["1", "2", "3", "6", "10", "100"];
const HOSTILE: [&str; 14] = [
    "0",
    "-1",
    "0.5",
    "1e6",
    "1e300",
    "1000000000",
    "100000000000",
    "9007199254740993",
    "\"inf\"",
    "\"nan\"",
    "null",
    "true",
    "[]",
    "{}",
];

/// The parameter fields of each template, by spec-file identifier.
const TEMPLATES: [(&str, &[&str]); 3] = [
    (
        "wavefront",
        &["px", "py", "nx", "ny", "nz", "mk", "mmi", "angles_per_octant", "iterations", "kernel"],
    ),
    ("stencil", &["px", "py", "nx", "ny", "iterations", "flops_per_cell"]),
    (
        "allreduce",
        &[
            "procs",
            "cells_per_pe",
            "flops_per_cell",
            "reduce_bytes",
            "reductions_per_iteration",
            "iterations",
        ],
    ),
];

/// A workload spec document for `template` whose fields draw values from
/// `picks` (one field in four and one kernel count in 64 hostile), with
/// field `drop` left out and an unknown field added when `extra` is set.
fn workload_doc(template: usize, picks: &[usize], drop: usize, extra: bool) -> String {
    let mut picks = picks.iter().copied().cycle();
    let mut value = |hostile_every: usize| {
        let k = picks.next().unwrap_or(0);
        if k % hostile_every == 0 {
            HOSTILE[k / hostile_every % HOSTILE.len()]
        } else {
            VALID[k % VALID.len()]
        }
    };
    let (name, fields) = TEMPLATES[template % TEMPLATES.len()];
    let mut params: Vec<String> = Vec::new();
    for (i, &field) in fields.iter().enumerate() {
        if i == drop {
            continue;
        }
        let v = if field == "kernel" {
            let vectors =
                ["sweep_per_cell_angle", "source_per_cell", "flux_err_per_cell"].map(|v| {
                    let ops = ["mfdg", "afdg", "dfdg", "ifbr", "lfor", "cmld"];
                    let counts = ops.map(|op| format!("\"{op}\": {}", value(64)));
                    format!("\"{v}\": {{{}}}", counts.join(", "))
                });
            format!("{{{}}}", vectors.join(", "))
        } else {
            value(4).to_string()
        };
        params.push(format!("\"{field}\": {v}"));
    }
    if extra {
        params.push("\"flops_per_cel\": 6".to_string());
    }
    format!("{{\"workload\": \"{name}\", \"params\": {{{}}}}}", params.join(", "))
}

/// Render a machine document as JSON text with leaf `i` (depth-first)
/// swapped for `edits[i]` (`None` drops it) and an unknown field added to
/// object number `extra`; `seen` counts the leaves and objects visited.
fn render(
    v: &Json,
    edits: &BTreeMap<usize, Option<&str>>,
    extra: usize,
    seen: &mut (usize, usize),
) -> Option<String> {
    match v {
        Json::Arr(items) => {
            let items: Vec<String> =
                items.iter().filter_map(|x| render(x, edits, extra, seen)).collect();
            Some(format!("[{}]", items.join(", ")))
        }
        Json::Obj(map) => {
            let here = seen.1;
            seen.1 += 1;
            let mut fields: Vec<String> = map
                .iter()
                .filter_map(|(k, x)| {
                    Some(format!("\"{}\": {}", escape(k), render(x, edits, extra, seen)?))
                })
                .collect();
            if here == extra {
                fields.push("\"bogus\": 1".to_string());
            }
            Some(format!("{{{}}}", fields.join(", ")))
        }
        scalar => {
            seen.0 += 1;
            match edits.get(&(seen.0 - 1)) {
                Some(edit) => edit.map(str::to_string),
                None => Some(match scalar {
                    Json::Num(x) => format!("{x:?}"),
                    Json::Str(s) => format!("\"{}\"", escape(s)),
                    Json::Bool(b) => b.to_string(),
                    _ => "null".to_string(),
                }),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// JSON-shaped machine documents: a built-in machine's spec (or one
    /// without a simulated half) with fields swapped for the workload
    /// values above, dropped, or joined by an unknown field. Every one
    /// parses to a spec that round-trips exactly, or to an error, never a
    /// panic.
    #[test]
    fn machine_spec_parse_round_trips_or_errors(
        base in 0usize..5,
        picks in prop::collection::vec((0usize..64, 0usize..24), 0..4),
        extra in 0usize..60,
    ) {
        let quoted = MachineSpec::from_analytic("quoted", registry::quoted::opteron_gige());
        let machine = registry::all_builtin().into_iter().chain([quoted]).nth(base).unwrap();
        let doc = Json::parse(&machine.to_json()).unwrap();
        let edits = picks.iter().map(|&(at, v)| (at, VALID.iter().chain(&HOSTILE).nth(v).copied()));
        let doc = render(&doc, &edits.collect(), extra, &mut (0, 0)).unwrap();
        if let Ok(spec) = MachineSpec::from_json(&doc) {
            prop_assert_eq!(MachineSpec::from_json(&spec.to_json()), Ok(spec));
        }
    }

    /// JSON-shaped workload documents: every one parses to a spec that
    /// round-trips exactly, or to an error, never a panic.
    #[test]
    fn workload_spec_parse_round_trips_or_errors(
        template in 0usize..3,
        picks in prop::collection::vec(0usize..1000, 1..40),
        drop in 0usize..24,
        extra in 0u8..10,
    ) {
        let doc = workload_doc(template, &picks, drop, extra == 0);
        if let Ok(spec) = workload_from_json(&doc) {
            prop_assert_eq!(workload_from_json(&workload_to_json(&spec)), Ok(spec));
        }
    }

    #[test]
    fn json_parse_never_panics_on_arbitrary_text(codes in prop::collection::vec(0u32..0x11_0000, 0..64)) {
        let _ = Json::parse(&text(&codes));
    }

    #[test]
    fn json_parse_never_panics_on_json_shaped_soup(
        parts in prop::collection::vec(prop::sample::select(JSON_ALPHABET.to_vec()), 0..48)
    ) {
        let _ = Json::parse(&parts.concat());
    }

    #[test]
    fn escaped_strings_round_trip(codes in prop::collection::vec(0u32..0x11_0000, 0..64)) {
        let s = text(&codes);
        let doc = format!("[\"{}\"]", escape(&s));
        prop_assert_eq!(Json::parse(&doc), Ok(Json::Arr(vec![Json::Str(s)])));
    }

    #[test]
    fn chunk_store_load_rejects_arbitrary_chunk_files(
        codes in prop::collection::vec(0u32..0x11_0000, 0..64),
        parts in prop::collection::vec(prop::sample::select(JSON_ALPHABET.to_vec()), 0..32),
        digest in any::<u64>(),
        start in 0usize..8,
    ) {
        let dir = std::env::temp_dir().join(format!("pace-hostile-chunks-{}", std::process::id()));
        let store = ChunkStore::open(&dir).expect("open the chunk store");
        let range = IdRange { start, end: start + 2 };
        let path = store.path(ChunkStore::chunk_key(digest, range));
        let chunk_like = format!("{{\"schema\": \"sweepsvc/shard-chunk-v1\", {}", parts.concat());
        for body in [text(&codes), chunk_like] {
            std::fs::write(&path, body).unwrap();
            prop_assert!(store.load(digest, range).is_none());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A store chunk may be many MiB, so string parsing must be linear: a
/// 4 MiB string round-trips through `escape` and `parse`.
#[test]
fn multi_megabyte_strings_parse() {
    let s: String = "a\"\\é\n".chars().cycle().take(4 << 20).collect();
    let doc = format!("[\"{}\"]", escape(&s));
    assert_eq!(Json::parse(&doc), Ok(Json::Arr(vec![Json::Str(s)])));
}
