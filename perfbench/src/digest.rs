//! Output digests and the pinned reference values they are checked
//! against.
//!
//! Every workload derives its inputs from one of [`SEED_CLASSES`] input
//! seeds (`--seed` modulo the class count), and `pins.json` holds the
//! digests of each class's outputs, recorded by `eaao-perfbench pin`.
//! A run is correct only when every digest it computes matches its pin.

use std::collections::BTreeMap;

use serde::Value;

/// Distinct input seeds a workload can run with.
pub const SEED_CLASSES: u64 = 16;

/// The first input seed (the seed `repro` uses by default).
const BASE_SEED: u64 = 2_024;

/// The pinned digests, compiled in so a run never depends on its cwd.
const PINS: &str = include_str!("../pins.json");

/// The input seed `--seed` selects, and the seed class it belongs to.
pub fn input_seed(seed: u64) -> (u64, u64) {
    let class = seed % SEED_CLASSES;
    (class, BASE_SEED + class)
}

/// FNV-1a over a byte stream (the hash campaign manifests use).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A digest as pinned: 16 lowercase hex digits.
pub fn hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Replaces every `"wall_ms":<number>` value in a serialized record with
/// `0`, the only field that differs between runs of the same cell.
pub fn zero_wall_ms(line: &str) -> String {
    const KEY: &str = "\"wall_ms\":";
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(KEY) {
        let value_start = at + KEY.len();
        out.push_str(&rest[..value_start]);
        out.push('0');
        let tail = &rest[value_start..];
        let value_len = tail
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(tail.len());
        rest = &tail[value_len..];
    }
    out.push_str(rest);
    out
}

/// The pinned digests of one workload and seed class, by output name.
pub fn pinned(workload: &str, class: u64) -> BTreeMap<String, String> {
    let pins = serde_json::parse_value(PINS).expect("pins.json is valid JSON");
    let mut out = BTreeMap::new();
    if let Some(Value::Object(entries)) = pins.get(workload).and_then(|w| w.get(&class.to_string()))
    {
        for (name, value) in entries {
            if let Some(text) = value.as_str() {
                out.insert(name.clone(), text.to_owned());
            }
        }
    }
    out
}

/// Compares computed digests with their pins, printing each mismatch.
/// Returns the number of outputs that are missing a pin or differ.
pub fn mismatches(workload: &str, class: u64, computed: &BTreeMap<String, String>) -> usize {
    let pins = pinned(workload, class);
    computed
        .iter()
        .filter(|(name, digest)| {
            let ok = pins.get(*name) == Some(*digest);
            if !ok {
                eprintln!(
                    "perfbench: {workload} seed class {class}: {name} digest {digest} != pinned {}",
                    pins.get(*name).map_or("(none)", String::as_str)
                );
            }
            !ok
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_ms_is_zeroed_wherever_it_appears() {
        let line = r#"{"key":"a","wall_ms":12.5,"payload":{"wall_ms":3e-2},"n":1}"#;
        assert_eq!(
            zero_wall_ms(line),
            r#"{"key":"a","wall_ms":0,"payload":{"wall_ms":0},"n":1}"#
        );
        let integral = r#"{"wall_ms":7}"#;
        assert_eq!(zero_wall_ms(integral), r#"{"wall_ms":0}"#);
        let untouched = r#"{"wall":1.5,"other_ms":2}"#;
        assert_eq!(zero_wall_ms(untouched), untouched);
    }

    #[test]
    fn records_differing_only_in_wall_time_digest_alike() {
        let a = zero_wall_ms(r#"{"key":"x","wall_ms":1.25,"seed":9}"#);
        let b = zero_wall_ms(r#"{"key":"x","wall_ms":980.0,"seed":9}"#);
        let c = zero_wall_ms(r#"{"key":"x","wall_ms":1.25,"seed":8}"#);
        assert_eq!(fnv1a(a.as_bytes()), fnv1a(b.as_bytes()));
        assert_ne!(fnv1a(a.as_bytes()), fnv1a(c.as_bytes()));
    }

    #[test]
    fn seeds_map_onto_the_pinned_classes() {
        assert_eq!(input_seed(0), (0, 2_024));
        assert_eq!(input_seed(17), (1, 2_025));
        assert_eq!(hex(0xab), "00000000000000ab");
    }
}
