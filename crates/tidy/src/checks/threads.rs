//! Thread-lifecycle analysis over the spawn sites captured by the parser.
//!
//! The parser records every `thread::spawn`/`Builder::spawn` in a
//! function body with the fate of its `JoinHandle` (discarded, bound and
//! later used, bound and never used, or flowing into an enclosing
//! expression) plus the body's `catch_unwind` lines. Over that model,
//! three findings for crates with policy `concurrency=true`:
//!
//! * a **discarded** spawn (statement position, value dropped) — the
//!   thread is detached on the spot and nothing can ever join it;
//! * a **leaked** handle — `let h = spawn(...)` where `h` never
//!   reappears in the function, so the handle is silently dropped at
//!   scope end;
//! * a **panic-unsafe worker** — the spawn's argument list neither
//!   carries its own `catch_unwind` nor confines itself to callees that
//!   cannot propagate a panic, so one panicking job kills the worker
//!   silently (the dead-dispatcher class: the thread dies, its queue
//!   wedges, and the service keeps accepting work it will never run).
//!
//! Deliberate detaches are sanctioned with a justified
//! `tidy:allow(thread-lifecycle)` on the spawn line.

use std::collections::BTreeSet;

use crate::diag::{CheckId, Diagnostic};
use crate::graph::Workspace;

/// Runs the check over the workspace graph, appending raw
/// `(file_idx, diagnostic)` pairs (the driver applies suppressions).
pub fn check(ws: &Workspace, out: &mut Vec<(usize, Diagnostic)>) {
    let unbarred = unbarred_fns(ws);
    for f in &ws.fns {
        if !f.policy.concurrency {
            continue;
        }
        for spawn in &f.item.spawns {
            if spawn.discarded {
                out.push((
                    f.file_idx,
                    Diagnostic::new(
                        &f.rel,
                        spawn.line,
                        CheckId::ThreadLifecycle,
                        "spawned thread's JoinHandle is discarded on the spot; \
                         join it, store it in a tracked container, or carry a \
                         justified tidy:allow(thread-lifecycle) for a \
                         deliberate detach",
                    ),
                ));
            } else if let Some(binding) = &spawn.binding {
                if !spawn.binding_used {
                    out.push((
                        f.file_idx,
                        Diagnostic::new(
                            &f.rel,
                            spawn.line,
                            CheckId::ThreadLifecycle,
                            format!(
                                "JoinHandle `{binding}` is never joined, stored, \
                                 or returned after the spawn; the thread detaches \
                                 silently when the handle drops at scope end"
                            ),
                        ),
                    ));
                }
            }

            // Panic barrier: the spawn's argument list must either carry
            // its own catch_unwind or only enter barred callees.
            if f.item
                .catch_unwinds
                .iter()
                .any(|&l| spawn.line <= l && l <= spawn.end_line)
            {
                continue;
            }
            let mut offenders: Vec<String> = Vec::new();
            if f.item
                .panic_sources
                .iter()
                .any(|s| spawn.line <= s.line && s.line <= spawn.end_line)
            {
                offenders.push("the worker closure itself".to_owned());
            }
            for &(callee, line, _) in &f.edges {
                if spawn.line <= line
                    && line <= spawn.end_line
                    && unbarred.contains(&callee)
                    && !offenders.contains(&ws.fns[callee].qual)
                {
                    offenders.push(ws.fns[callee].qual.clone());
                }
            }
            if !offenders.is_empty() {
                out.push((
                    f.file_idx,
                    Diagnostic::new(
                        &f.rel,
                        spawn.line,
                        CheckId::ThreadLifecycle,
                        format!(
                            "worker can panic with no catch_unwind barrier (via \
                             {}); a panicking worker dies silently and wedges \
                             whatever queue it was draining",
                            offenders.join(", ")
                        ),
                    ),
                ));
            }
        }
    }
}

/// Function ids that can let a panic escape to their caller: no
/// `catch_unwind` of their own, and either a direct panic source or an
/// edge to another unbarred function. A fixpoint over the call graph —
/// coarser than `panic-reachability` on purpose (a `# Panics` doc stops
/// that check, but documentation does not stop a thread from dying).
fn unbarred_fns(ws: &Workspace) -> BTreeSet<usize> {
    let mut unbarred: Vec<bool> = ws
        .fns
        .iter()
        .map(|f| f.item.catch_unwinds.is_empty() && !f.item.panic_sources.is_empty())
        .collect();
    loop {
        let mut changed = false;
        for id in 0..ws.fns.len() {
            if unbarred[id] || !ws.fns[id].item.catch_unwinds.is_empty() {
                continue;
            }
            if ws.fns[id]
                .edges
                .iter()
                .any(|&(callee, _, _)| unbarred[callee])
            {
                unbarred[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    unbarred
        .iter()
        .enumerate()
        .filter_map(|(id, &u)| u.then_some(id))
        .collect()
}
