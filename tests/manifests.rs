//! The manifests stay hermetic and linted, as `cargo metadata` sees them.
//!
//! The workspace builds offline by construction: external crates exist
//! only as in-tree stand-ins under `vendor/`. A single registry or git
//! dependency would silently reintroduce network access and unpinned
//! code, so every dependency of every workspace package — the vendor
//! stand-ins included — must carry a `path`. And every crate outside
//! `vendor/` must inherit the `[workspace.lints]` set (`unsafe_code`,
//! `missing_docs`, the clippy panic lints), so a new crate cannot ship
//! without it.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `cargo metadata --offline --no-deps` for the workspace at `manifest`:
/// every member package with its declared dependencies, unresolved.
fn metadata(manifest: &Path) -> Value {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let output = Command::new(cargo)
        .args([
            "metadata",
            "--offline",
            "--no-deps",
            "--format-version",
            "1",
        ])
        .arg("--manifest-path")
        .arg(manifest)
        .output()
        .expect("cargo runs");
    assert!(
        output.status.success(),
        "cargo metadata failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = String::from_utf8(output.stdout).expect("metadata is UTF-8");
    serde_json::from_str(&text).expect("metadata is JSON")
}

fn array<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    value
        .get(key)
        .and_then(Value::as_array)
        .expect("a format-version 1 metadata array")
}

fn string<'a>(value: &'a Value, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Value::as_str)
        .expect("a format-version 1 metadata string")
}

/// `package/dependency` for every declared dependency without a `path`,
/// sorted.
fn out_of_tree(meta: &Value) -> Vec<String> {
    let mut bad: Vec<String> = array(meta, "packages")
        .iter()
        .flat_map(|package| {
            array(package, "dependencies")
                .iter()
                .filter(|dep| dep.get("path").and_then(Value::as_str).is_none())
                .map(move |dep| format!("{}/{}", string(package, "name"), string(dep, "name")))
        })
        .collect();
    bad.sort();
    bad
}

/// Whether a manifest has a `[lints]` table with `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[lints]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .any(|line| line.replace(' ', "") == "workspace=true")
}

#[test]
fn every_dependency_of_every_package_resolves_in_tree() {
    let meta = metadata(&workspace_root().join("Cargo.toml"));
    let packages = array(&meta, "packages");
    assert!(
        packages
            .iter()
            .any(|p| string(p, "manifest_path").contains("/vendor/")),
        "the vendor stand-ins are workspace packages and must be covered"
    );
    assert_eq!(
        out_of_tree(&meta),
        Vec::<String>::new(),
        "dependencies that do not resolve in-tree; vendor a stand-in under \
         vendor/ and use a path or workspace dependency"
    );
}

#[test]
fn every_workspace_crate_inherits_the_lint_set() {
    let meta = metadata(&workspace_root().join("Cargo.toml"));
    let vendor = Path::new(string(&meta, "workspace_root")).join("vendor");
    let mut checked = 0;
    for package in array(&meta, "packages") {
        let manifest = Path::new(string(package, "manifest_path"));
        if manifest.starts_with(&vendor) {
            continue;
        }
        let text = fs::read_to_string(manifest).expect("manifest is readable");
        assert!(
            inherits_workspace_lints(&text),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
        checked += 1;
    }
    assert!(checked > 1, "the root package and crates/* were checked");
}

#[test]
fn the_bad_manifest_fixture_fails_both_checks() {
    let text = include_str!("fixtures/bad_manifest.toml");
    assert!(!inherits_workspace_lints(text));

    // A standalone workspace of its own, so cargo does not walk up into
    // this repository's.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bad-manifest");
    fs::create_dir_all(dir.join("src")).expect("scratch dir");
    fs::write(dir.join("src/lib.rs"), "").expect("scratch lib");
    fs::write(dir.join("Cargo.toml"), format!("{text}\n[workspace]\n")).expect("scratch manifest");
    assert_eq!(
        out_of_tree(&metadata(&dir.join("Cargo.toml"))),
        ["fixture/proptest", "fixture/rand", "fixture/serde"]
    );
}
