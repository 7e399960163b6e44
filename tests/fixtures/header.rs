//! Known-bad payload: an `#[allow]` with no `reason`, which
//! `clippy::allow_attributes_without_reason` rejects (CI injects it into
//! a crate).
#![allow(dead_code)]

/// Does nothing.
pub fn f() {}
