//! Lock-order analysis over `parking_lot::Mutex` acquisitions.
//!
//! The parser records every `.lock()` with a canonical lock name
//! (`Type.field` for `self.field.lock()` in an `impl Type`, else
//! `filestem::binding`) and which locks are held at each acquisition.
//! This check assembles a workspace-wide **acquisition-order graph**:
//!
//! * an intra-function edge `A -> B` whenever `B` is acquired while `A`
//!   is held, and
//! * a cross-function edge `A -> B` whenever a call is made while `A` is
//!   held into a function that (transitively) acquires `B`.
//!
//! Two finding kinds come out of it: **cycles** in the order graph
//! (including self-loops — `parking_lot` mutexes are not reentrant, so
//! re-acquiring a held lock deadlocks a single thread), and **locks held
//! across calls** into lock-taking functions, which is how cross-function
//! cycles are born and is worth a finding even before a second thread
//! closes the loop.
//!
//! The held-lock model is `Condvar`-aware: the parser treats
//! `Condvar::wait`/`wait_while`/`wait_for` as **releasing** the guard
//! passed to them (the wait atomically unlocks for its duration), and an
//! explicit `drop(guard)` as an early release — so the blocking-queue
//! idiom needs no suppression.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::checks::SuppressionOracle;
use crate::diag::{CheckId, Diagnostic};
use crate::graph::Workspace;

/// An order edge's provenance: the first (file_idx, rel, line) it was
/// observed at.
type Site = (usize, String, usize);

/// Runs the check over the workspace graph, appending post-suppression
/// findings to `out`.
pub fn check(ws: &Workspace, supp: &mut dyn SuppressionOracle, out: &mut Vec<Diagnostic>) {
    let takes = locks_reachable(ws);

    // Order graph: lock -> lock -> first site.
    let mut order: BTreeMap<String, BTreeMap<String, Site>> = BTreeMap::new();
    let mut record = |from: &str, to: &str, site: Site| {
        order
            .entry(from.to_owned())
            .or_default()
            .entry(to.to_owned())
            .or_insert(site);
    };

    // Held-across-call findings, deduplicated per (caller, callee).
    let mut across: Vec<Diagnostic> = Vec::new();
    let mut across_seen: BTreeSet<(usize, usize)> = BTreeSet::new();

    for id in ws.ids() {
        let f = &ws.fns[id];
        for acq in &f.item.locks {
            for held in &acq.held {
                record(held, &acq.lock, (f.file_idx, f.rel.clone(), acq.line));
            }
        }
        for &(callee, line, ref holding) in &f.edges {
            if holding.is_empty() {
                continue;
            }
            let callee_locks = &takes[callee];
            if callee_locks.is_empty() {
                continue;
            }
            for held in holding {
                for lock in callee_locks {
                    record(held, lock, (f.file_idx, f.rel.clone(), line));
                }
            }
            if across_seen.insert((id, callee))
                && !supp.suppressed(f.file_idx, line, CheckId::LockOrder)
            {
                let held_list = holding
                    .iter()
                    .map(|h| format!("`{h}`"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let lock_list = callee_locks
                    .iter()
                    .map(|l| format!("`{l}`"))
                    .collect::<Vec<_>>()
                    .join(", ");
                across.push(Diagnostic::new(
                    &f.rel,
                    line,
                    CheckId::LockOrder,
                    format!(
                        "`{}` holds {held_list} across a call into `{}`, which may \
                             acquire {lock_list}: drop the guard before the call, or \
                             justify why the acquisition order is safe",
                        f.qual, ws.fns[callee].qual
                    ),
                ));
            }
        }
    }

    // Cycles: strongly connected components of the order graph with more
    // than one lock, plus self-loops.
    let nodes: Vec<String> = order
        .iter()
        .flat_map(|(from, tos)| std::iter::once(from.clone()).chain(tos.keys().cloned()))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let reachable = |from: &String| -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue: VecDeque<&String> = VecDeque::new();
        queue.push_back(from);
        while let Some(at) = queue.pop_front() {
            if let Some(tos) = order.get(at) {
                for to in tos.keys() {
                    if seen.insert(to.clone()) {
                        queue.push_back(to);
                    }
                }
            }
        }
        seen
    };
    let reach: BTreeMap<&String, BTreeSet<String>> =
        nodes.iter().map(|n| (n, reachable(n))).collect();

    let mut assigned: BTreeSet<&String> = BTreeSet::new();
    for node in &nodes {
        if assigned.contains(node) {
            continue;
        }
        let scc: Vec<&String> = nodes
            .iter()
            .filter(|m| (*m == node) || (reach[node].contains(*m) && reach[*m].contains(node)))
            .collect();
        for m in &scc {
            assigned.insert(m);
        }
        let self_loop = reach[node].contains(node);
        if scc.len() < 2 && !self_loop {
            continue;
        }
        // Collect the intra-SCC edges for the message; anchor on the
        // first (smallest) site.
        let member_set: BTreeSet<&String> = scc.iter().copied().collect();
        let mut edges: Vec<(String, String, Site)> = Vec::new();
        for from in &scc {
            if let Some(tos) = order.get(*from) {
                for (to, site) in tos {
                    if member_set.contains(to) {
                        edges.push(((*from).clone(), to.clone(), site.clone()));
                    }
                }
            }
        }
        let Some(anchor) = edges
            .iter()
            .map(|(_, _, s)| s.clone())
            .min_by(|a, b| (&a.1, a.2).cmp(&(&b.1, b.2)))
        else {
            continue;
        };
        if supp.suppressed(anchor.0, anchor.2, CheckId::LockOrder) {
            continue;
        }
        let edge_list = edges
            .iter()
            .map(|(from, to, (_, rel, line))| format!("`{from}` -> `{to}` ({rel}:{line})"))
            .collect::<Vec<_>>()
            .join(", ");
        let message = if scc.len() == 1 {
            format!(
                "lock `{node}` can be re-acquired while already held ({edge_list}): \
                 parking_lot mutexes are not reentrant, so this self-deadlocks"
            )
        } else {
            format!(
                "lock-order cycle: {edge_list}; establish one global acquisition order \
                 for these locks"
            )
        };
        out.push(Diagnostic::new(
            &anchor.1,
            anchor.2,
            CheckId::LockOrder,
            message,
        ));
    }

    out.extend(across);
}

/// For every function, the set of locks it (transitively) acquires.
fn locks_reachable(ws: &Workspace) -> Vec<BTreeSet<String>> {
    let n = ws.fns.len();
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for id in 0..n {
        for &(callee, _, _) in &ws.fns[id].edges {
            rev[callee].push(id);
        }
    }
    let mut takes: Vec<BTreeSet<String>> = ws
        .fns
        .iter()
        .map(|f| f.item.locks.iter().map(|a| a.lock.clone()).collect())
        .collect();
    let mut work: Vec<usize> = (0..n).filter(|&i| !takes[i].is_empty()).collect();
    while let Some(j) = work.pop() {
        for &i in &rev[j] {
            let missing: Vec<String> = takes[j].difference(&takes[i]).cloned().collect();
            if !missing.is_empty() {
                takes[i].extend(missing);
                work.push(i);
            }
        }
    }
    takes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphInput, Workspace};
    use crate::parse::FileModel;
    use crate::policy::policy_for_dir;
    use crate::source::SourceFile;

    struct NoSupp;
    impl SuppressionOracle for NoSupp {
        fn suppressed(&mut self, _: usize, _: usize, _: CheckId) -> bool {
            false
        }
    }

    fn run(text: &str) -> Vec<Diagnostic> {
        let policy = policy_for_dir("crates/obs").expect("registered");
        let src = SourceFile::parse(text);
        let model = FileModel::parse("crates/obs/src/lib.rs", &src);
        let inputs = [GraphInput {
            rel: "crates/obs/src/lib.rs",
            file_idx: 0,
            policy,
            model: &model,
        }];
        let ws = Workspace::build(&inputs);
        let mut out = Vec::new();
        check(&ws, &mut NoSupp, &mut out);
        out
    }

    #[test]
    fn two_mutex_ordering_cycle_is_flagged() {
        let d = run(
            "pub struct S;\nimpl S {\n    pub fn ab(&self) {\n        let a = self.alpha.lock();\n        let b = self.beta.lock();\n        drop(b);\n        drop(a);\n    }\n    pub fn ba(&self) {\n        let b = self.beta.lock();\n        let a = self.alpha.lock();\n        drop(a);\n        drop(b);\n    }\n}\n",
        );
        let cycles: Vec<&Diagnostic> = d
            .iter()
            .filter(|d| d.message.contains("lock-order cycle"))
            .collect();
        assert_eq!(cycles.len(), 1, "{d:?}");
        assert!(cycles[0].message.contains("`S.alpha` -> `S.beta`"));
        assert!(cycles[0].message.contains("`S.beta` -> `S.alpha`"));
        assert_eq!(cycles[0].line, 5);
    }

    #[test]
    fn consistent_order_is_clean() {
        let d = run(
            "pub struct S;\nimpl S {\n    pub fn ab(&self) {\n        let a = self.alpha.lock();\n        let b = self.beta.lock();\n        drop(b);\n        drop(a);\n    }\n    pub fn ab2(&self) {\n        let a = self.alpha.lock();\n        let b = self.beta.lock();\n        drop(b);\n        drop(a);\n    }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn held_across_call_into_lock_taker_is_flagged() {
        let d = run(
            "pub struct S;\nimpl S {\n    pub fn outer(&self) {\n        let g = self.alpha.lock();\n        helper();\n        drop(g);\n    }\n}\nfn helper() {\n    let l = std::sync::Mutex::new(0);\n    let g = l.lock();\n}\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 5);
        assert!(
            d[0].message.contains(
                "`eaao_obs::S::outer` holds `S.alpha` across a call into `eaao_obs::helper`"
            ),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn transient_locking_with_no_nesting_is_clean() {
        let d = run(
            "pub struct S;\nimpl S {\n    pub fn push(&self, v: u32) {\n        self.items.lock().push(v);\n    }\n    pub fn take(&self) -> Vec<u32> {\n        std::mem::take(&mut *self.items.lock())\n    }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
