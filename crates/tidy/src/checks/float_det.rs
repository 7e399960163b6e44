//! `float-determinism`: keep order-sensitive float math out of the
//! simulation-critical crates.
//!
//! The differential oracle replays trajectories byte-for-byte, so any
//! float computation whose result depends on evaluation order — or whose
//! rounding is decided implicitly — is a latent divergence. Three shapes
//! are findings in crates with `float_det: true`:
//!
//! - **Unordered reductions**: `.sum::<f64>()`, `.product::<f64>()` (and
//!   the `f32` forms), or `.fold(` seeded with a float literal. Summation
//!   order changes the result in the last ulps; the fixed-point lanes
//!   (`u64` ticks, `mul_div`) reduce exactly in any order.
//! - **Float equality**: `==`/`!=` with a float literal or a
//!   known-float identifier as an operand. Equality after arithmetic is
//!   representation-dependent; compare in fixed point or use an explicit
//!   tolerance (and suppress with it named).
//! - **Truncating casts**: `as` from a float expression to an integer
//!   type. `as` rounds toward zero silently; fingerprint/popularity math
//!   must route through the fixed-point helpers so the rounding rule is
//!   written down.
//!
//! "Known-float identifiers" are collected per file from `name: f64` /
//! `name: f32` annotations (fields, params, lets) — deliberately shallow,
//! like every other lexical layer in this tool: no type inference, just
//! enough signal to anchor a witness.

use crate::checks::find_token;
use crate::diag::{CheckId, Diagnostic};
use crate::fields::FileInput;
use crate::source::is_ident;

/// Unordered-reduction tokens, matched with identifier boundaries.
const REDUCERS: &[&str] = &[
    "sum::<f64>",
    "sum::<f32>",
    "product::<f64>",
    "product::<f32>",
];

/// Integer destinations of a truncating cast.
const INT_TYPES: &[&str] = &[
    "i128", "i16", "i32", "i64", "i8", "isize", "u128", "u16", "u32", "u64", "u8", "usize",
];

/// Runs the per-file scan, appending raw `(file_idx, finding)` pairs.
pub fn check(input: &FileInput<'_>, out: &mut Vec<(usize, Diagnostic)>) {
    let floats = known_floats(input);
    for (lineno, line) in crate::checks::lib_code_lines(input.src) {
        let code = &line.code;
        let mut push = |message: String| {
            out.push((
                input.file_idx,
                Diagnostic::new(input.rel, lineno, CheckId::FloatDeterminism, message),
            ));
        };
        if let Some(tok) = REDUCERS.iter().find(|t| code.contains(*t)) {
            push(format!(
                "unordered float reduction `.{tok}()`: summation order changes \
                 the result — reduce in the fixed-point lanes (u64 ticks, \
                 mul_div) or document the ordering and suppress"
            ));
        } else if let Some(seed) = float_fold_seed(code) {
            push(format!(
                "float `fold` seeded with `{seed}`: accumulation order changes \
                 the result — reduce in the fixed-point lanes or document the \
                 ordering and suppress"
            ));
        }
        for (op_at, op) in eq_operators(code) {
            if let Some(operand) = float_operand(code, op_at, op.len(), &floats) {
                push(format!(
                    "float `{op}` comparison against `{operand}`: equality after \
                     float arithmetic is representation-dependent — compare in \
                     fixed point or with an explicit tolerance"
                ));
            }
        }
        for target in truncating_casts(code, &floats) {
            push(format!(
                "truncating `as {target}` cast from a float: `as` rounds toward \
                 zero silently — route through the fixed-point helpers so the \
                 rounding rule is explicit"
            ));
        }
    }
}

/// Identifiers annotated `: f64` / `: f32` anywhere in the file's
/// non-test code.
fn known_floats(input: &FileInput<'_>) -> std::collections::BTreeSet<String> {
    let mut floats = std::collections::BTreeSet::new();
    for (_, line) in crate::checks::lib_code_lines(input.src) {
        let code = &line.code;
        for float_ty in ["f64", "f32"] {
            let mut from = 0;
            while let Some(at) = find_token(&code[from..], float_ty) {
                let at = from + at;
                from = at + float_ty.len();
                // Walk back over `:` and whitespace to the identifier.
                let before = code[..at].trim_end();
                let Some(before) = before.strip_suffix(':') else {
                    continue;
                };
                let before = before.trim_end();
                let ident: String = before
                    .chars()
                    .rev()
                    .take_while(|&c| is_ident(c))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                if !ident.is_empty() && !ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    floats.insert(ident);
                }
            }
        }
    }
    floats
}

/// If the line calls `.fold(` with a float-literal seed, returns the seed.
fn float_fold_seed(code: &str) -> Option<&str> {
    let at = code.find(".fold(")?;
    let after = code[at + ".fold(".len()..].trim_start();
    let lit_len = float_literal_len(after)?;
    Some(&after[..lit_len])
}

/// Length of a leading float literal (`0.0`, `1.5e3`, `1f64`), if any.
fn float_literal_len(s: &str) -> Option<usize> {
    let digits = s.chars().take_while(|c| c.is_ascii_digit()).count();
    if digits == 0 {
        return None;
    }
    let rest = &s[digits..];
    if let Some(frac) = rest.strip_prefix('.') {
        let frac_digits = frac.chars().take_while(|c| c.is_ascii_digit()).count();
        if frac_digits > 0 {
            return Some(digits + 1 + frac_digits + suffix_len(&frac[frac_digits..]));
        }
        None
    } else if rest.starts_with("f64") || rest.starts_with("f32") {
        Some(digits + 3)
    } else {
        None
    }
}

/// Length of an exponent/suffix tail (`e3`, `_f64`) after a fraction.
fn suffix_len(s: &str) -> usize {
    let mut n = 0;
    if s.starts_with('e') || s.starts_with('E') {
        let mut k = 1;
        if s[1..].starts_with('+') || s[1..].starts_with('-') {
            k += 1;
        }
        let digits = s[k..].chars().take_while(|c| c.is_ascii_digit()).count();
        if digits > 0 {
            n = k + digits;
        }
    }
    if s[n..].starts_with("f64") || s[n..].starts_with("f32") {
        n += 3;
    } else if s[n..].starts_with("_f64") || s[n..].starts_with("_f32") {
        n += 4;
    }
    n
}

/// `==` / `!=` occurrences that are genuinely comparison operators (not
/// `<=`, `>=`, `=>`, or `===`-like runs).
fn eq_operators(code: &str) -> Vec<(usize, &'static str)> {
    let bytes = code.as_bytes();
    let mut ops = Vec::new();
    for (at, pair) in bytes.windows(2).enumerate() {
        let op = match pair {
            b"==" => "==",
            b"!=" => "!=",
            _ => continue,
        };
        let before_ok = at == 0 || !matches!(bytes[at - 1], b'<' | b'>' | b'=' | b'!');
        let after_ok = at + 2 >= bytes.len() || bytes[at + 2] != b'=';
        if before_ok && after_ok {
            ops.push((at, op));
        }
    }
    ops
}

/// The float operand adjacent to an operator at `op_at`, if either side
/// is a float literal or a known-float identifier.
fn float_operand<'c>(
    code: &'c str,
    op_at: usize,
    op_len: usize,
    floats: &std::collections::BTreeSet<String>,
) -> Option<&'c str> {
    // Right side: leading literal or identifier after the operator.
    let right = code[op_at + op_len..].trim_start();
    if let Some(n) = float_literal_len(right) {
        return Some(&right[..n]);
    }
    let ident_len = right.chars().take_while(|&c| is_ident(c)).count();
    if ident_len > 0 && floats.contains(&right[..ident_len]) {
        return Some(&right[..ident_len]);
    }
    // Left side: trailing literal or identifier before the operator.
    let left = code[..op_at].trim_end();
    let tail_start = left
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_ident(c) || c == '.')
        .last()
        .map(|(i, _)| i)?;
    let tail = &left[tail_start..];
    if float_literal_len(tail).is_some_and(|n| n == tail.len()) {
        return Some(tail);
    }
    if !tail.contains('.') && floats.contains(tail) {
        return Some(tail);
    }
    None
}

/// Integer-type names cast to on this line from a float source: the
/// token before `as` is a float literal or known-float identifier, or a
/// `)` on a line with float evidence.
fn truncating_casts<'c>(
    code: &'c str,
    floats: &std::collections::BTreeSet<String>,
) -> Vec<&'c str> {
    let mut found = Vec::new();
    let mut from = 0;
    while let Some(rel) = find_token(&code[from..], "as") {
        let at = from + rel;
        from = at + 2;
        let after = code[at + 2..].trim_start();
        let Some(target) = INT_TYPES
            .iter()
            .find(|t| after.starts_with(**t) && find_token(after, t) == Some(0))
        else {
            continue;
        };
        let left = code[..at].trim_end();
        let tail_start = left
            .char_indices()
            .rev()
            .take_while(|&(_, c)| is_ident(c) || c == '.')
            .last()
            .map(|(i, _)| i);
        let is_float_source = match tail_start {
            Some(i) => {
                let tail = &left[i..];
                float_literal_len(tail).is_some_and(|n| n == tail.len())
                    || (!tail.contains('.') && floats.contains(tail))
                    || tail.ends_with(".floor()")
                    || tail.ends_with(".ceil()")
                    || tail.ends_with(".round()")
            }
            // `(a / b) as u64`: only with float evidence on the line.
            None if left.ends_with(')') => {
                floats.iter().any(|f| find_token(left, f).is_some())
                    || find_token(left, "f64").is_some()
                    || find_token(left, "f32").is_some()
            }
            None => false,
        };
        if is_float_source {
            found.push(*target);
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::FileModel;
    use crate::policy::policy_for_dir;
    use crate::source::SourceFile;

    fn run(text: &str) -> Vec<Diagnostic> {
        let src = SourceFile::parse(text);
        let rel = "crates/simcore/src/stats.rs";
        let model = FileModel::parse(rel, &src);
        let input = FileInput {
            rel,
            file_idx: 0,
            policy: policy_for_dir("crates/simcore").expect("registered"),
            src: &src,
            model: &model,
        };
        let mut out = Vec::new();
        check(&input, &mut out);
        out.into_iter().map(|(_, d)| d).collect()
    }

    #[test]
    fn unordered_reductions_are_flagged() {
        let out = run("pub fn mean(xs: &[f64]) -> f64 {\n    \
             let total: f64 = xs.iter().sum::<f64>();\n    \
             let alt = xs.iter().fold(0.0, |a, b| a + b);\n    \
             total + alt\n}\n");
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].line, 2);
        assert!(out[0].message.contains("sum::<f64>"));
        assert_eq!(out[1].line, 3);
        assert!(out[1].message.contains("`0.0`"));
    }

    #[test]
    fn float_equality_is_flagged_for_literals_and_known_idents() {
        let out = run("pub fn check(share: f64, total: u64) -> bool {\n    \
             if share == 0.5 {\n        return true;\n    }\n    \
             let exact = 1.0 != share;\n    \
             exact && total == 0\n}\n");
        // Line 2: rhs literal. Line 5: lhs literal (and rhs known ident).
        // Line 6: integer compare, clean.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].line, 2);
        assert!(out[0].message.contains("`0.5`"));
        assert_eq!(out[1].line, 5);
        assert!(out[1].message.contains("`!=`"));
    }

    #[test]
    fn truncating_casts_need_a_float_source() {
        let out = run("pub fn quantize(share: f64, ticks: u64) -> u64 {\n    \
             let a = share as u64;\n    \
             let b = (share * 1000.0) as u64;\n    \
             let c = ticks as u32;\n    \
             a + b + u64::from(c)\n}\n");
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].line, 2);
        assert_eq!(out[1].line, 3);
        assert!(out[1].message.contains("as u64"));
    }

    #[test]
    fn fixed_point_math_is_clean() {
        let out = run("pub fn mul_div(a: u64, b: u64, d: u64) -> u64 {\n    \
             let wide = u128::from(a) * u128::from(b);\n    \
             (wide / u128::from(d)) as u64\n}\n\
             pub fn total(xs: &[u64]) -> u64 {\n    \
             xs.iter().sum::<u64>()\n}\n");
        assert!(out.is_empty(), "got {:?}", out);
    }

    #[test]
    fn comparisons_against_version_paths_and_ints_are_clean() {
        let out = run("pub fn pick(kind: u32, name: &str) -> bool {\n    \
             kind == 3 && name.len() != 0\n}\n");
        assert!(out.is_empty(), "got {:?}", out);
    }

    #[test]
    fn module_scope_findings_are_reported() {
        let out = run("pub const SHARE: bool = 0.5 == 0.5;\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
    }
}
