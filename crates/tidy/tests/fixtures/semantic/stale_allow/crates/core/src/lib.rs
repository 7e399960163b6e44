#![warn(missing_docs, missing_debug_implementations)]
//! Fixture: a clean crate still carrying suppressions for fixed findings.

/// Adds one.
// tidy:allow(panic-reachability) -- the index was range-checked before it was removed
pub fn succ(n: u64) -> u64 {
    // tidy:allow(float-determinism) -- the float mean this line once took was fixed-order
    n + 1
}
