//! Hostile-input properties of the parsers that read untrusted bytes:
//! spec files and store chunks go through `obs::Json`. Each must return
//! a value or a structured error on arbitrary input, never panic.

use obs::json::{escape, Json};
use proptest::prelude::*;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
