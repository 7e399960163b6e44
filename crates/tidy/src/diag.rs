//! Structured diagnostics: `file:line: [check-name] message`.

use std::fmt;

/// The checks this pass can report. The string form (used in diagnostics
/// and in `tidy:allow(...)` suppressions) is kebab-case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckId {
    /// Iteration-order hazards, wall-clock reads, ambient I/O, and
    /// non-seeded RNG construction in simulation-critical crates.
    Determinism,
    /// Socket types (`std::net`) in a crate whose policy row does not
    /// sanction network I/O — the service boundary lives in one crate.
    NetPolicy,
    /// A malformed, unknown, or unused `tidy:allow` suppression.
    Suppression,
    /// A public API that can transitively reach an undocumented panic
    /// source (call-graph check).
    PanicReach,
    /// A simulation-critical function calling into a host-crate function
    /// that transitively reaches a nondeterminism source (call-graph
    /// check).
    DeterminismTaint,
    /// A potential lock-order cycle, or a lock held across a call into
    /// another lock-taking function (call-graph check).
    LockOrder,
    /// A fork-surface type whose fork-path impl (`clone`/`fork`/
    /// `branch`/`snapshot`) does not mention every field, so a new field's
    /// share-vs-detach behavior was never decided (field-level check).
    ForkCoverage,
    /// An `Arc` field of a fork-surface type written around
    /// `Arc::make_mut`, or interior mutability visible through a sharing
    /// clone (field-level check).
    CowAliasing,
    /// Unordered float reduction, float `==`/`!=` comparison, or
    /// truncating `as` cast on a float in a simulation-critical crate
    /// (field-level check).
    FloatDeterminism,
    /// A spawned thread whose `JoinHandle` is discarded or never joined,
    /// or a dispatcher-path worker closure that can panic without a
    /// `catch_unwind` barrier (concurrency check).
    ThreadLifecycle,
    /// A cross-thread queue built unbounded with no `bound:` comment
    /// naming the enforcing mechanism (concurrency check).
    QueueBounds,
    /// A swallowed `Result` in service-crate library code: `let _ =`,
    /// `.ok()`-discard, or a statement-dropped `#[must_use]` value
    /// (concurrency check).
    ErrorPolicy,
    /// A `crates/*` directory with no row in the policy table, or a
    /// source file the scan cannot read.
    CrateRegistry,
}

impl CheckId {
    /// The kebab-case name used in diagnostics and suppressions.
    pub fn name(self) -> &'static str {
        match self {
            CheckId::Determinism => "determinism",
            CheckId::NetPolicy => "net-policy",
            CheckId::Suppression => "suppression",
            CheckId::PanicReach => "panic-reachability",
            CheckId::DeterminismTaint => "determinism-taint",
            CheckId::LockOrder => "lock-order",
            CheckId::ForkCoverage => "fork-coverage",
            CheckId::CowAliasing => "cow-aliasing",
            CheckId::FloatDeterminism => "float-determinism",
            CheckId::ThreadLifecycle => "thread-lifecycle",
            CheckId::QueueBounds => "queue-bounds",
            CheckId::ErrorPolicy => "error-policy",
            CheckId::CrateRegistry => "crate-registry",
        }
    }

    /// Resolves a suppression name back to a check. The `meta` checks
    /// (`suppression`, `crate-registry`) are not suppressible — findings
    /// about the pass's own inputs must be fixed, not silenced.
    pub fn from_name(name: &str) -> Option<CheckId> {
        CHECK_REGISTRY
            .iter()
            .find(|info| info.layer != "meta" && info.check.name() == name)
            .map(|info| info.check)
    }
}

impl fmt::Display for CheckId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One row of the check registry: what `--list-checks` prints, and what
/// the drift test holds against the policy table and the docs.
#[derive(Debug, Clone, Copy)]
pub struct CheckInfo {
    /// The check.
    pub check: CheckId,
    /// Analysis layer: `lexical` (per-line), `call-graph` (workspace
    /// function graph), `field-level` (struct/field model), `concurrency`
    /// (thread/queue lifecycle model), or `meta` (findings about the
    /// tool's own inputs; never suppressible).
    pub layer: &'static str,
    /// One-line contract: what a finding means.
    pub contract: &'static str,
    /// Which crates the check scans, in terms of the policy table.
    pub scope: &'static str,
}

/// Every registered check, in `CheckId` order — the one place the check
/// list is written. `--list-checks` renders it, suppression names derive
/// from its `layer` column, and tests hold it against [`CheckId`] and
/// `docs/STATIC_ANALYSIS.md`.
pub const CHECK_REGISTRY: &[CheckInfo] = &[
    CheckInfo {
        check: CheckId::Determinism,
        layer: "lexical",
        contract: "no iteration-order, wall-clock, ambient-I/O, or unseeded-RNG hazards",
        scope: "library sources of crates with policy determinism=true",
    },
    CheckInfo {
        check: CheckId::NetPolicy,
        layer: "lexical",
        contract: "socket types only in crates with policy net=true",
        scope: "library sources of crates with policy net=false",
    },
    CheckInfo {
        check: CheckId::Suppression,
        layer: "meta",
        contract: "every tidy:allow is well-formed, known, justified, and used",
        scope: "every Rust file in the workspace",
    },
    CheckInfo {
        check: CheckId::PanicReach,
        layer: "call-graph",
        contract: "no public API transitively reaches an undocumented panic source",
        scope: "library sources of crates with policy call_graph=true",
    },
    CheckInfo {
        check: CheckId::DeterminismTaint,
        layer: "call-graph",
        contract: "no simulation-critical function reaches a nondeterminism source",
        scope: "crates with policy determinism=true, through call_graph=true callees",
    },
    CheckInfo {
        check: CheckId::LockOrder,
        layer: "call-graph",
        contract: "no lock-order cycles; no lock held across a lock-taking call",
        scope: "library sources of crates with policy call_graph=true",
    },
    CheckInfo {
        check: CheckId::ForkCoverage,
        layer: "field-level",
        contract: "fork-surface types mention every field in each fork-path impl",
        scope: "library sources of crates with policy fork_surface=true",
    },
    CheckInfo {
        check: CheckId::CowAliasing,
        layer: "field-level",
        contract: "Arc fields of fork-surface types written only through Arc::make_mut; no interior mutability visible through a sharing clone",
        scope: "library sources of crates with policy fork_surface=true",
    },
    CheckInfo {
        check: CheckId::FloatDeterminism,
        layer: "field-level",
        contract: "no unordered float reductions, float ==/!=, or truncating float casts",
        scope: "library sources of crates with policy float_det=true",
    },
    CheckInfo {
        check: CheckId::ThreadLifecycle,
        layer: "concurrency",
        contract: "every spawned thread is joined, tracked, or justified; dispatcher-path workers carry catch_unwind barriers",
        scope: "library sources of crates with policy concurrency=true",
    },
    CheckInfo {
        check: CheckId::QueueBounds,
        layer: "concurrency",
        contract: "every cross-thread queue is bounded or names its bound in a `bound:` comment",
        scope: "library sources of crates with policy concurrency=true",
    },
    CheckInfo {
        check: CheckId::ErrorPolicy,
        layer: "concurrency",
        contract: "no `let _ =`, `.ok()`-discard, or dropped #[must_use] value in library code",
        scope: "library sources of crates with policy concurrency=true",
    },
    CheckInfo {
        check: CheckId::CrateRegistry,
        layer: "meta",
        contract: "every crates/* directory has a policy row; every scanned source file is readable",
        scope: "crates/* directories and the files of registered crates",
    },
];

/// The check names a `tidy:allow(...)` may legally name, comma-separated
/// in registry order — for the unknown-check diagnostic.
pub fn suppressible_checks() -> String {
    CHECK_REGISTRY
        .iter()
        .filter(|info| info.layer != "meta")
        .map(|info| info.check.name())
        .collect::<Vec<_>>()
        .join(", ")
}

/// One finding, anchored to a workspace-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line the finding anchors to.
    pub line: usize,
    /// The check that fired.
    pub check: CheckId,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(file: &str, line: usize, check: CheckId, message: impl Into<String>) -> Self {
        Diagnostic {
            file: file.to_owned(),
            line,
            check,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.check, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_contract() {
        let d = Diagnostic::new("crates/x/src/lib.rs", 7, CheckId::Determinism, "no HashMap");
        assert_eq!(
            d.to_string(),
            "crates/x/src/lib.rs:7: [determinism] no HashMap"
        );
    }

    #[test]
    fn names_round_trip() {
        for check in [
            CheckId::Determinism,
            CheckId::NetPolicy,
            CheckId::PanicReach,
            CheckId::DeterminismTaint,
            CheckId::LockOrder,
            CheckId::ForkCoverage,
            CheckId::CowAliasing,
            CheckId::FloatDeterminism,
            CheckId::ThreadLifecycle,
            CheckId::QueueBounds,
            CheckId::ErrorPolicy,
        ] {
            assert_eq!(CheckId::from_name(check.name()), Some(check));
        }
        assert_eq!(CheckId::from_name("suppression"), None);
        assert_eq!(CheckId::from_name("crate-registry"), None);
        assert_eq!(CheckId::from_name("baseline"), None, "retired");
        assert_eq!(CheckId::from_name("panic-policy"), None, "retired");
        assert_eq!(CheckId::from_name("bogus"), None);
    }

    #[test]
    fn the_registry_covers_every_check_exactly_once() {
        // CHECK_REGISTRY is in CheckId order and total: strictly
        // ascending ids, one per variant, with the name round-trip
        // confirming each entry is a real check.
        for pair in CHECK_REGISTRY.windows(2) {
            assert!(pair[0].check < pair[1].check, "registry out of order");
        }
        assert_eq!(CHECK_REGISTRY.len(), 13, "new CheckId? register it here");
        for info in CHECK_REGISTRY {
            assert_eq!(
                CheckId::from_name(info.check.name()).is_some(),
                !matches!(info.check, CheckId::Suppression | CheckId::CrateRegistry),
                "suppressibility drifted for {}",
                info.check
            );
            assert!(!info.contract.is_empty() && !info.scope.is_empty());
            assert!(matches!(
                info.layer,
                "lexical" | "call-graph" | "field-level" | "concurrency" | "meta"
            ));
        }
    }
}
