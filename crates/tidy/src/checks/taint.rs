//! Determinism taint: nondeterminism laundered through host-crate calls.
//!
//! The lexical `determinism` check bans wall-clock/ambient-I/O tokens
//! *inside* simulation-critical crates, but a wrapper defeats it: put
//! `Instant::now()` in a host crate (`campaign`, `obs`, …, where the
//! token is legal) and call the wrapper from `core`. This check closes
//! that hole by propagating **taint** — reachability of a determinism
//! source — through the call graph, and flagging every *frontier edge*:
//! a call from a function in a determinism-critical crate to a
//! host-crate function that transitively reaches a source.
//!
//! Flagging only the frontier keeps one laundering chain to one finding
//! (anchored at the critical-side call, where the fix belongs) instead of
//! re-flagging every function above it. Sanctioned boundaries — e.g. obs
//! instrumentation that reads wall time for spans but never feeds results
//! back into the model — carry a justified `tidy:allow(determinism-taint)`
//! on the callee's signature line, which is a propagation **barrier**.
//! Sources under a justified `tidy:allow(determinism)` are already trusted
//! by the parser and never taint.

use crate::checks::SuppressionOracle;
use crate::diag::{CheckId, Diagnostic};
use crate::graph::Workspace;

/// Runs the check over the workspace graph, appending post-suppression
/// findings to `out`.
pub fn check(ws: &Workspace, supp: &mut dyn SuppressionOracle, out: &mut Vec<Diagnostic>) {
    let n = ws.fns.len();
    let direct: Vec<bool> = ws
        .fns
        .iter()
        .map(|f| !f.item.det_sources.is_empty())
        .collect();

    // Like panic-reachability: consume barrier suppressions only on
    // functions that are genuinely tainted, so stray ones stay "unused".
    let tainted0 = taint_fixpoint(ws, &direct, &[]);
    let mut barrier = vec![false; n];
    for id in ws.ids() {
        if tainted0[id]
            && supp.suppressed(
                ws.fns[id].file_idx,
                ws.fns[id].item.line,
                CheckId::DeterminismTaint,
            )
        {
            barrier[id] = true;
        }
    }
    let tainted = taint_fixpoint(ws, &direct, &barrier);

    // Frontier edges, deduplicated to one finding per (caller, callee)
    // pair at the first call site.
    let mut flagged: std::collections::BTreeSet<(usize, usize)> = std::collections::BTreeSet::new();
    for id in ws.ids() {
        let caller = &ws.fns[id];
        if !caller.policy.determinism {
            continue;
        }
        for &(callee, line, _) in &caller.edges {
            let target = &ws.fns[callee];
            if target.policy.determinism || !tainted[callee] || barrier[callee] {
                continue;
            }
            if !flagged.insert((id, callee)) {
                continue;
            }
            if supp.suppressed(caller.file_idx, line, CheckId::DeterminismTaint) {
                continue;
            }
            let Some((path, src_id, site_line, what)) =
                witness(ws, callee, &direct, &tainted, &barrier)
            else {
                continue; // unreachable: tainted[callee] implies a witness
            };
            let via = if path.len() > 1 {
                let hops: Vec<String> = path[1..]
                    .iter()
                    .map(|&p| format!("`{}`", ws.fns[p].qual))
                    .collect();
                format!(" via {}", hops.join(" -> "))
            } else {
                String::new()
            };
            out.push(Diagnostic::new(
                &caller.rel,
                line,
                CheckId::DeterminismTaint,
                format!(
                    "simulation-critical `{}` calls `{}`, which reaches nondeterminism \
                         source `{}` at {}:{}{via}: thread the value in explicitly, or mark \
                         the callee's signature with a justified tidy:allow(determinism-taint) \
                         if the nondeterminism provably never feeds back into the model",
                    caller.qual, target.qual, what, ws.fns[src_id].rel, site_line
                ),
            ));
        }
    }
}

/// Backward fixpoint: `tainted[i]` iff `i` has a direct source or calls a
/// non-barrier function that is tainted.
fn taint_fixpoint(ws: &Workspace, direct: &[bool], barrier: &[bool]) -> Vec<bool> {
    let n = ws.fns.len();
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for id in 0..n {
        for &(callee, _, _) in &ws.fns[id].edges {
            rev[callee].push(id);
        }
    }
    let mut tainted = direct.to_vec();
    let mut work: Vec<usize> = (0..n).filter(|&i| tainted[i]).collect();
    while let Some(j) = work.pop() {
        if barrier.get(j).copied().unwrap_or(false) {
            continue;
        }
        for &i in &rev[j] {
            if !tainted[i] {
                tainted[i] = true;
                work.push(i);
            }
        }
    }
    tainted
}

/// Shortest chain from `start` to a direct source, in deterministic edge
/// order. Returns the path (starting at `start`), the source-holding
/// function, and the source's line/description.
fn witness(
    ws: &Workspace,
    start: usize,
    direct: &[bool],
    tainted: &[bool],
    barrier: &[bool],
) -> Option<(Vec<usize>, usize, usize, String)> {
    let n = ws.fns.len();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[start] = true;
    queue.push_back(start);
    while let Some(at) = queue.pop_front() {
        if direct[at] {
            let mut path = vec![at];
            while let Some(p) = parent[path[path.len() - 1]] {
                path.push(p);
            }
            path.reverse();
            let site = &ws.fns[at].item.det_sources[0];
            return Some((path, at, site.line, site.what.clone()));
        }
        for &(callee, _, _) in &ws.fns[at].edges {
            if !seen[callee] && tainted[callee] && !barrier[callee] {
                seen[callee] = true;
                parent[callee] = Some(at);
                queue.push_back(callee);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphInput, Workspace};
    use crate::parse::FileModel;
    use crate::policy::{policy_for_dir, CratePolicy};
    use crate::source::SourceFile;

    struct NoSupp;
    impl SuppressionOracle for NoSupp {
        fn suppressed(&mut self, _: usize, _: usize, _: CheckId) -> bool {
            false
        }
    }

    fn run(files: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
        let parsed: Vec<(&str, &'static CratePolicy, FileModel)> = files
            .iter()
            .map(|(dir, rel, text)| {
                let policy = policy_for_dir(dir).expect("registered dir");
                let model = FileModel::parse(rel, &SourceFile::parse(text));
                (*rel, policy, model)
            })
            .collect();
        let inputs: Vec<GraphInput<'_>> = parsed
            .iter()
            .enumerate()
            .map(|(i, (rel, policy, model))| GraphInput {
                rel,
                file_idx: i,
                policy,
                model,
            })
            .collect();
        let ws = Workspace::build(&inputs);
        let mut out = Vec::new();
        check(&ws, &mut NoSupp, &mut out);
        out
    }

    #[test]
    fn laundering_through_a_host_wrapper_is_flagged_at_the_call() {
        let d = run(&[
            (
                "crates/core",
                "crates/core/src/lib.rs",
                "use eaao_campaign::wall_now;\npub fn place() {\n    let _t = wall_now();\n}\n",
            ),
            (
                "crates/campaign",
                "crates/campaign/src/lib.rs",
                "pub fn wall_now() -> u64 {\n    inner()\n}\nfn inner() -> u64 {\n    let _i = std::time::Instant::now();\n    0\n}\n",
            ),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "crates/core/src/lib.rs");
        assert_eq!(d[0].line, 3);
        assert!(
            d[0].message
                .contains("`eaao_core::place` calls `eaao_campaign::wall_now`"),
            "{}",
            d[0].message
        );
        assert!(d[0].message.contains("Instant"), "{}", d[0].message);
    }

    #[test]
    fn host_to_host_calls_are_not_frontier_edges() {
        let d = run(&[(
            "crates/campaign",
            "crates/campaign/src/lib.rs",
            "pub fn run() {\n    stamp();\n}\nfn stamp() {\n    let _i = std::time::Instant::now();\n}\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn untainted_host_calls_are_fine() {
        let d = run(&[
            (
                "crates/core",
                "crates/core/src/lib.rs",
                "use eaao_campaign::pure;\npub fn place() {\n    pure();\n}\n",
            ),
            (
                "crates/campaign",
                "crates/campaign/src/lib.rs",
                "pub fn pure() -> u64 {\n    42\n}\n",
            ),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }
}
