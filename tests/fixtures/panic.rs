//! Known-bad payload: library code that `clippy::unwrap_used`,
//! `clippy::panic` and `clippy::todo` reject (CI injects it into a crate).

/// Panics three ways.
pub fn bad(x: Option<u32>) -> u32 {
    let v = x.unwrap();
    if v == 0 {
        panic!("zero");
    }
    todo!()
}
