//! Error-policy analysis: swallowed `Result`s in service-crate library
//! code.
//!
//! A long-running daemon that discards a send or I/O error keeps serving
//! a wedged stream as if it were healthy, so in crates with policy
//! `concurrency=true` every discard is a finding:
//!
//! * `let _ = …;` — the classic swallow;
//! * a statement ending in `.ok();` — the same swallow wearing a method;
//! * a statement that drops the result of a workspace `#[must_use]`
//!   function (resolved by simple name when exactly one workspace
//!   function of that name carries the attribute — generic `Result`
//!   returners are rustc's `unused_must_use` lint's job, not ours).
//!
//! Deliberate best-effort discards (socket-tuning hints, wakeup nudges)
//! carry a justified `tidy:allow(error-policy)` naming why losing the
//! error is sound.

use std::collections::BTreeMap;

use crate::checks::lib_code_lines;
use crate::diag::{CheckId, Diagnostic};
use crate::fields::FileInput;
use crate::graph::Workspace;
use crate::parse::CallTarget;

/// Runs both halves, appending raw `(file_idx, diagnostic)` pairs (the
/// driver applies suppressions).
pub fn check(ws: &Workspace, inputs: &[FileInput<'_>], out: &mut Vec<(usize, Diagnostic)>) {
    // Lexical half: `let _ =` and `.ok();` discards.
    for input in inputs {
        if !input.policy.concurrency {
            continue;
        }
        for (lineno, line) in lib_code_lines(input.src) {
            let code = line.code.trim();
            if code.contains("let _ =") {
                out.push((
                    input.file_idx,
                    Diagnostic::new(
                        input.rel,
                        lineno,
                        CheckId::ErrorPolicy,
                        "`let _ =` swallows this result; handle or log the \
                         error, or carry a justified tidy:allow(error-policy) \
                         for a deliberate best-effort discard",
                    ),
                ));
            }
            if code.ends_with(".ok();") {
                out.push((
                    input.file_idx,
                    Diagnostic::new(
                        input.rel,
                        lineno,
                        CheckId::ErrorPolicy,
                        "`.ok()` in statement position discards this error; \
                         handle or log it, or carry a justified \
                         tidy:allow(error-policy)",
                    ),
                ));
            }
        }
    }

    // Semantic half: statement-dropped #[must_use] results.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if f.item.has_must_use {
            by_name.entry(f.item.name.as_str()).or_default().push(id);
        }
    }
    for f in &ws.fns {
        if !f.policy.concurrency {
            continue;
        }
        for call in &f.item.calls {
            if !call.stmt {
                continue;
            }
            let name = match &call.target {
                CallTarget::Free(n) | CallTarget::Method(n) => n.as_str(),
                CallTarget::Path(p) => p.last().map(String::as_str).unwrap_or(""),
            };
            let Some(cands) = by_name.get(name) else {
                continue;
            };
            // Resolution by simple name: only an unambiguous hit fires.
            if cands.len() != 1 {
                continue;
            }
            let callee = &ws.fns[cands[0]];
            out.push((
                f.file_idx,
                Diagnostic::new(
                    &f.rel,
                    call.line,
                    CheckId::ErrorPolicy,
                    format!(
                        "statement drops the #[must_use] result of `{}`; act \
                         on the value or carry a justified \
                         tidy:allow(error-policy)",
                        callee.qual
                    ),
                ),
            ));
        }
    }
}
