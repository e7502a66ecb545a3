//! Report digests, and the digests recorded with the benchmark.
//!
//! A digest is the FNV-1a 64 hash of a report's wire JSON, whose floats
//! print in shortest round-trip form, so two reports share a digest exactly
//! when they are bit-identical. `digests.txt` holds the digest of every
//! session the workloads run, computed by running each spec solo
//! (`--record-digests`); it changes only when the benchmark's specs do.

use lynceus_core::OptimizationReport;
use lynceus_serve::wire;
use std::collections::BTreeMap;

/// The recorded digests: `workload key digest` per line.
const RECORDED: &str = include_str!("../digests.txt");

/// FNV-1a 64 of a report's wire JSON, as 16 hex digits.
#[must_use]
pub fn digest(report: &OptimizationReport) -> String {
    let json = wire::encode_report(report).to_json();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in json.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// The recorded digests of one workload, by session key.
#[must_use]
pub fn recorded(workload: &str) -> BTreeMap<String, String> {
    RECORDED
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            match (fields.next(), fields.next(), fields.next()) {
                (Some(w), Some(key), Some(digest)) if w == workload => {
                    Some((key.to_owned(), digest.to_owned()))
                }
                _ => None,
            }
        })
        .collect()
}

/// Mixes two integers into a well-spread seed (SplitMix64 finalizer).
#[must_use]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates permutation of `0..n`.
#[must_use]
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = permutation(23, 5);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..23).collect::<Vec<_>>());
        assert_eq!(a, permutation(23, 5));
        assert_ne!(a, permutation(23, 6));
    }
}
