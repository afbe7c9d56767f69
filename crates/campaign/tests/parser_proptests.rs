//! The spec parsers answer `Ok` or `Err` on any input and never panic.
//! Inputs are the benchmark grids and a JSON spec after random character
//! inserts, deletes and replaces.

use frontier_campaign::spec::CampaignSpec;
use frontier_campaign::value::{parse_json, parse_toml};
use proptest::prelude::*;

const SEEDS: [&str; 3] = [
    include_str!("../specs/reference.toml"),
    include_str!("../specs/quick.toml"),
    r#"{"name": "j", "seeds": [1, 2], "workloads": ["hpl"], "machine": {"groups": [8]},
        "sweep": {"link_rate_gbit": [160.0, 200.0]}, "overlay": {"fit_scale": [1.0, 4e0]}}"#,
];

/// The characters the two grammars give meaning to, and a few plain ones.
const ALPHABET: &[u8] = b"[]{}\",:=#.-+eE0129 \n\t\\atrfnlu_";

/// Apply `(position, (kind, char))` edits: kind 0 inserts, 1 deletes,
/// 2 replaces. Positions wrap to the current length.
fn mutate(seed: &str, edits: &[(usize, (usize, usize))]) -> String {
    let mut s = seed.as_bytes().to_vec();
    for &(at, (kind, c)) in edits {
        let c = ALPHABET[c % ALPHABET.len()];
        match (kind, at % (s.len() + 1)) {
            (0, at) => s.insert(at, c),
            (1, at) if at < s.len() => drop(s.remove(at)),
            (_, at) if at < s.len() => s[at] = c,
            _ => {}
        }
    }
    String::from_utf8(s).expect("ASCII edits of ASCII seeds")
}

#[test]
fn unmutated_seeds_are_valid_specs() {
    for seed in SEEDS {
        assert!(CampaignSpec::parse_str(seed).is_ok(), "{seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3_000))]

    #[test]
    fn mutated_specs_parse_or_fail_without_panicking(
        seed in 0usize..3,
        edits in proptest::collection::vec((0usize..1_000, (0usize..3, 0usize..64)), 1..10),
    ) {
        let text = mutate(SEEDS[seed], &edits);
        let _ = parse_toml(&text);
        let _ = parse_json(&text);
        let _ = CampaignSpec::parse_str(&text);
    }
}
