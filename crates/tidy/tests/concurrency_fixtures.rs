//! The concurrency fixture corpus: mini-workspaces under
//! `tests/fixtures/semantic/` that each pin the concurrency-lifecycle
//! checks to an exact file and line — plus companion proofs
//! that the lexical pass alone misses every one of them, which is the
//! reason the spawn/queue models exist.

use std::path::{Path, PathBuf};

use eaao_tidy::checks;
use eaao_tidy::diag::Diagnostic;
use eaao_tidy::policy::{policy_for_dir, FileKind};
use eaao_tidy::walk::scan_workspace;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/semantic")
        .join(name)
}

/// Runs the lexical layer only (exactly what `check_rust_file` applies)
/// on one fixture file and returns its findings.
fn lexical_only(root: &Path, dir: &str, rel: &str) -> Vec<Diagnostic> {
    let policy = policy_for_dir(dir).expect("fixture reuses a registered crate dir");
    let text = std::fs::read_to_string(root.join(rel)).expect("fixture file exists");
    let mut out = Vec::new();
    checks::check_rust_file(policy, FileKind::LibSrc, rel, &text, &mut out);
    out
}

#[test]
fn spawn_fates_are_pinned_and_lexically_invisible() {
    let root = fixture_root("thread_leak");
    let findings = scan_workspace(&root).findings;
    assert_eq!(findings.len(), 3, "{findings:?}");

    // Statement-position spawn: the handle is discarded on the spot.
    let discarded = &findings[0];
    assert_eq!(discarded.file, "crates/serve/src/lib.rs");
    assert_eq!(discarded.line, 10, "anchored at the spawn");
    assert_eq!(discarded.check.name(), "thread-lifecycle");
    assert!(
        discarded.message.contains("discarded"),
        "{}",
        discarded.message
    );

    // Bound handle that never reappears: a silent detach at scope end.
    let leaked = &findings[1];
    assert_eq!(leaked.file, "crates/serve/src/lib.rs");
    assert_eq!(leaked.line, 14, "anchored at the spawn");
    assert_eq!(leaked.check.name(), "thread-lifecycle");
    assert!(
        leaked.message.contains("`watcher` is never joined"),
        "{}",
        leaked.message
    );

    // A worker whose closure can panic with no catch_unwind in sight.
    let unsafe_worker = &findings[2];
    assert_eq!(unsafe_worker.file, "crates/serve/src/lib.rs");
    assert_eq!(unsafe_worker.line, 19, "anchored at the spawn");
    assert_eq!(unsafe_worker.check.name(), "thread-lifecycle");
    assert!(
        unsafe_worker.message.contains("via eaao_serve::risky"),
        "{}",
        unsafe_worker.message
    );

    // Negative halves in the same file: `joined` joins its handle and
    // `barriered` wraps the risky call in catch_unwind — neither fires.

    // Companion proof: spawns, bindings, and panic flow are invisible to
    // the per-line checks.
    let lexical = lexical_only(&root, "crates/serve", "crates/serve/src/lib.rs");
    assert!(lexical.is_empty(), "{lexical:?}");
}

#[test]
fn queue_bounds_and_error_policy_are_pinned_and_lexically_invisible() {
    let root = fixture_root("queue_unbounded");
    let findings = scan_workspace(&root).findings;
    assert_eq!(findings.len(), 5, "{findings:?}");

    let deque = &findings[0];
    assert_eq!(deque.file, "crates/serve/src/lib.rs");
    assert_eq!(deque.line, 9, "anchored at the construction");
    assert_eq!(deque.check.name(), "queue-bounds");
    assert!(
        deque.message.contains("`VecDeque::new`"),
        "{}",
        deque.message
    );

    let channel = &findings[1];
    assert_eq!(channel.file, "crates/serve/src/lib.rs");
    assert_eq!(channel.line, 13, "anchored at the construction");
    assert_eq!(channel.check.name(), "queue-bounds");
    assert!(
        channel.message.contains("`mpsc::channel`"),
        "{}",
        channel.message
    );

    // The three swallowed-error shapes, in source order.
    let let_underscore = &findings[2];
    assert_eq!(let_underscore.line, 37);
    assert_eq!(let_underscore.check.name(), "error-policy");
    assert!(
        let_underscore.message.contains("`let _ =`"),
        "{}",
        let_underscore.message
    );

    let ok_discard = &findings[3];
    assert_eq!(ok_discard.line, 38);
    assert_eq!(ok_discard.check.name(), "error-policy");
    assert!(
        ok_discard.message.contains("`.ok()` in statement position"),
        "{}",
        ok_discard.message
    );

    let must_use = &findings[4];
    assert_eq!(must_use.line, 39);
    assert_eq!(must_use.check.name(), "error-policy");
    assert!(
        must_use
            .message
            .contains("#[must_use] result of `eaao_serve::admit`"),
        "{}",
        must_use.message
    );

    // Negative halves: `sync_channel`, `with_capacity`, and the
    // `// bound:`-commented deque raise nothing.

    // Companion proof: every construction and discard is ordinary Rust
    // to the per-line checks — only the queue/statement models see them.
    let lexical = lexical_only(&root, "crates/serve", "crates/serve/src/lib.rs");
    assert!(lexical.is_empty(), "{lexical:?}");
}
