//! The `eaao-tidy` command-line driver, shared by the standalone binary
//! and the root `eaao tidy` subcommand.
//!
//! ```text
//! eaao-tidy [--root DIR] [--json PATH] [--list-checks] [--timings]
//! ```
//!
//! * `--json PATH` additionally writes the findings as a machine-readable
//!   JSON document (`-` for stdout). The document is byte-identical
//!   across runs on the same tree.
//! * `--timings` prints a per-phase wall-clock breakdown after the scan,
//!   so the analysis' own runtime stays an explicit budget (the CI smoke
//!   step gates on the total).
//! * `--list-checks` prints every registered check with its one-line
//!   contract and policy scope, straight from the registry the scanner
//!   runs — the listing cannot drift from the implementation.

use std::fs;
use std::path::PathBuf;

use crate::diag::{Diagnostic, CHECK_REGISTRY};
use crate::walk;

/// Parsed command line.
#[derive(Debug, Default)]
struct Options {
    root: Option<PathBuf>,
    json: Option<String>,
    list_checks: bool,
    timings: bool,
}

const USAGE: &str =
    "usage: eaao-tidy [--root WORKSPACE_DIR] [--json PATH|-] [--list-checks] [--timings]";

/// Runs the CLI on already-split arguments (exclusive of the program
/// name). Returns the process exit code: 0 clean, 1 findings, 2 usage
/// error.
pub fn run(args: &[String]) -> u8 {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(path) => opts.root = Some(PathBuf::from(path)),
                None => return usage_error("--root needs a path"),
            },
            "--json" => match it.next() {
                Some(path) => opts.json = Some(path.clone()),
                None => return usage_error("--json needs a path (or `-` for stdout)"),
            },
            "--list-checks" => opts.list_checks = true,
            "--timings" => opts.timings = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if opts.list_checks {
        print!("{}", render_check_list());
        return 0;
    }
    let root = opts.root.unwrap_or_else(default_root);

    let outcome = walk::scan_workspace(&root);

    for d in &outcome.findings {
        println!("{d}");
    }
    if opts.timings {
        print!("{}", render_timings(&outcome.timings));
    }
    if let Some(path) = &opts.json {
        let doc = render_json(&outcome.findings);
        if path == "-" {
            print!("{doc}");
        } else if let Err(err) = fs::write(path, doc) {
            eprintln!("eaao-tidy: cannot write {path}: {err}");
            return 2;
        }
    }
    if outcome.findings.is_empty() {
        println!("eaao-tidy: clean");
        0
    } else {
        eprintln!(
            "eaao-tidy: {} finding(s); fix each one, or silence it with \
             `// tidy:allow(check) -- why this is sound` (see \
             docs/STATIC_ANALYSIS.md)",
            outcome.findings.len()
        );
        1
    }
}

/// Renders the `--list-checks` table: one line per registered check with
/// its layer, contract, and policy scope, straight from [`CHECK_REGISTRY`].
pub fn render_check_list() -> String {
    let width = CHECK_REGISTRY
        .iter()
        .map(|info| info.check.name().len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for info in CHECK_REGISTRY {
        out.push_str(&format!(
            "{:width$}  [{}] {}\n{:width$}  scope: {}\n",
            info.check.name(),
            info.layer,
            info.contract,
            "",
            info.scope,
        ));
    }
    out
}

/// Renders the `--timings` breakdown: one line per scan phase plus the
/// total, in milliseconds. The `total-ms` line is the machine-readable
/// hook the CI runtime-budget gate greps for.
pub fn render_timings(timings: &[(&'static str, f64)]) -> String {
    let width = timings
        .iter()
        .map(|(label, _)| label.len())
        .max()
        .unwrap_or(0)
        .max("total-ms".len());
    let mut out = String::from("eaao-tidy timings:\n");
    let mut total = 0.0;
    for (label, ms) in timings {
        total += ms;
        out.push_str(&format!("  {label:width$}  {ms:9.2}\n"));
    }
    out.push_str(&format!("  {:width$}  {total:9.2}\n", "total-ms"));
    out
}

/// Renders the findings document: a stable, versioned JSON array sorted
/// the same way the text output is.
pub fn render_json(findings: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"version\": 2,\n  \"findings\": [");
    for (i, d) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\n      \"file\": {},\n      \"line\": {},\n      \"check\": {},\n      \
             \"message\": {}\n    }}",
            quote(&d.file),
            d.line,
            quote(d.check.name()),
            quote(&d.message),
        ));
    }
    if findings.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// Quotes `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn usage_error(msg: &str) -> u8 {
    eprintln!("eaao-tidy: {msg}");
    eprintln!("{USAGE}");
    2
}

/// The workspace that built this binary (`CARGO_MANIFEST_DIR`'s
/// grandparent when that looks like a workspace), else the current
/// directory.
fn default_root() -> PathBuf {
    if let Some(manifest_dir) = std::env::var_os("CARGO_MANIFEST_DIR") {
        let dir = PathBuf::from(manifest_dir);
        for up in dir.ancestors().skip(1) {
            if up.join("Cargo.toml").is_file() && up.join("crates").is_dir() {
                return up.to_path_buf();
            }
        }
    }
    PathBuf::from(".")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::CheckId;

    #[test]
    fn json_document_shape_is_stable() {
        let findings = vec![
            Diagnostic::new("a.rs", 3, CheckId::Determinism, "msg \"quoted\""),
            Diagnostic::new("b.rs", 7, CheckId::LockOrder, "cycle\tx\u{1}"),
        ];
        let doc = render_json(&findings);
        assert_eq!(
            doc,
            "{\n  \"version\": 2,\n  \"findings\": [\n    {\n      \"file\": \"a.rs\",\n      \
             \"line\": 3,\n      \"check\": \"determinism\",\n      \"message\": \
             \"msg \\\"quoted\\\"\"\n    },\n    {\n      \"file\": \"b.rs\",\n      \
             \"line\": 7,\n      \"check\": \"lock-order\",\n      \"message\": \
             \"cycle\\tx\\u0001\"\n    }\n  ]\n}\n"
        );
        assert_eq!(render_json(&findings), doc, "byte-stable");
    }

    #[test]
    fn check_list_names_every_registered_check_once() {
        let listing = render_check_list();
        for info in CHECK_REGISTRY {
            let headers = listing
                .lines()
                .filter(|l| {
                    l.starts_with(&format!("{} ", info.check.name()))
                        && l.contains(&format!("[{}]", info.layer))
                })
                .count();
            assert_eq!(
                headers,
                1,
                "check `{}` must appear exactly once in --list-checks",
                info.check.name()
            );
            assert!(
                listing.contains(info.contract),
                "contract for `{}` missing from --list-checks",
                info.check.name()
            );
            assert!(
                listing.contains(info.scope),
                "scope for `{}` missing from --list-checks",
                info.check.name()
            );
        }
        assert_eq!(render_check_list(), listing, "byte-stable");
    }

    #[test]
    fn empty_findings_render_an_empty_array() {
        assert_eq!(
            render_json(&[]),
            "{\n  \"version\": 2,\n  \"findings\": []\n}\n"
        );
    }
}
