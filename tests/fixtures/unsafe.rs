//! Known-bad payload: `unsafe`, which the workspace's
//! `unsafe_code = "forbid"` rejects (CI injects it into a crate).

/// Dereferences a raw pointer.
pub fn read(p: *const u8) -> u8 {
    unsafe { *p }
}
