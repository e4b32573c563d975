//! `molap-lint` — repo-specific static analysis for the molap
//! workspace.
//!
//! Rule families, each with an inline escape hatch of the form
//! `// lint:allow(<rule>): <reason>` (the reason is mandatory; a
//! pragma without one does not suppress anything and is itself
//! reported, and a reasoned pragma that suppresses *nothing* is
//! reported as stale):
//!
//! | rule | scope | checks |
//! |------|-------|--------|
//! | `panic-freedom` | non-test code in `crates/core`, `crates/storage`, `crates/server` | no `unwrap()`, `expect()`, `panic!`, `unreachable!`, `todo!`, `unimplemented!`; slice indexing needs literal indices or a nearby bounds guard |
//! | `wire-spec` | `crates/server/src/protocol.rs` | module-doc spec tables (frame tags, error codes, payload field order) match the consts/enums/encoders |
//! | `lock-io` | `crates/*/src` | no file/socket I/O while a lock guard is live — directly or through any chain of callees |
//! | `lock-order` | `crates/*/src` | acquisitions respect the declared lock order, including acquisitions reached through callees |
//! | `lock-blocking` | `crates/*/src` | no condvar wait / join / channel recv while a guard is held (the waited-on guard itself is exempt) |
//! | `protocol-order` | module-doc spec table in `crates/core/src/write.rs` | a durable checkpoint dominates every publish; no ack constructed before the checkpoint |
//! | `doc-drift` | `DESIGN.md` | the §8 lock table matches `DECLARED_ORDER` row for row |
//! | `unsafe-inventory` | whole workspace | every `unsafe` has a `// SAFETY:` comment; unsafe-free crates carry `#![forbid(unsafe_code)]` |
//! | `lint-pragma` | whole workspace | pragmas carry reasons and still suppress something |
//!
//! The lock rules run on an interprocedural model — a call graph with
//! per-function effect summaries propagated to a fixpoint (see
//! [`model`]) — so a violation hidden behind any number of calls is
//! found and reported with its full call chain.
//!
//! The corpus under `crates/lint/tests/corpus/` proves each rule both
//! fires and respects `lint:allow`; `scripts/verify.sh` runs the
//! binary over the workspace (must be clean) and over the corpus
//! (must fail), archiving the `--json` report as a build artifact.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::Path;

pub mod model;
pub mod rules;
pub mod source;

use source::SourceFile;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-indexed line.
    pub line: usize,
    /// Rule identifier (e.g. `panic-freedom`).
    pub rule: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

impl Finding {
    /// Machine-readable JSON encoding (one object per finding).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&self.path),
            self.line,
            json_escape(&self.rule),
            json_escape(&self.message)
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Analysis options.
pub struct Options {
    /// Propagate effect summaries through the call graph. Always on in
    /// production; the corpus turns it off to prove the old
    /// intraprocedural pass misses the cross-function cases.
    pub interprocedural: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            interprocedural: true,
        }
    }
}

/// Call-graph statistics from the run, surfaced via `--json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintStats {
    pub functions: usize,
    pub edges: usize,
    pub fixpoint_iterations: usize,
}

/// A lint run's findings plus its call-graph statistics.
pub struct LintReport {
    pub findings: Vec<Finding>,
    pub stats: LintStats,
}

/// Lints an in-memory set of `(relative_path, content)` sources. This
/// is the pure core `lint_workspace` and the corpus tests share.
pub fn lint_sources(files: &[(String, String)]) -> Vec<Finding> {
    lint_sources_with(files, &Options::default()).findings
}

pub fn lint_sources_with(files: &[(String, String)], opts: &Options) -> LintReport {
    let parsed: Vec<SourceFile> = files
        .iter()
        .map(|(path, content)| SourceFile::parse(path, content))
        .collect();

    let spec = rules::protocol::parse_spec(&parsed);
    let model = model::Model::build(&parsed, spec.as_ref(), opts.interprocedural);

    let mut findings = Vec::new();
    for file in &parsed {
        if file.path.ends_with(".md") {
            // Markdown files only feed the doc-drift check; the rust
            // token rules would misread prose.
            rules::doc_drift::check(file, &mut findings);
            continue;
        }
        rules::panic_free::check(file, &mut findings);
        rules::wire_spec::check(file, &mut findings);
        rules::unsafe_inv::check_file(file, &mut findings);
        rules::pragma_hygiene(file, &mut findings);
    }
    rules::unsafe_inv::check_packages(&parsed, &mut findings);
    rules::lock::check_model(&model, &mut findings);
    if let Some(spec) = &spec {
        rules::protocol::check(&model, spec, &mut findings);
    }

    // Drop findings covered by a reasoned lint:allow pragma, recording
    // which (path, rule, line) keys each pragma actually suppressed.
    let mut suppressed: BTreeSet<(String, String, usize)> = BTreeSet::new();
    findings.retain(|f| {
        let Some(p) = parsed.iter().find(|p| p.path == f.path) else {
            return true;
        };
        if p.allowed(&f.rule, f.line) {
            suppressed.insert((f.path.clone(), f.rule.clone(), f.line));
            false
        } else {
            true
        }
    });

    // Stale-pragma detection: a reasoned pragma must either have
    // suppressed a finding or killed an effect at its source (recorded
    // by the model); otherwise it rotted through a refactor and is
    // itself a finding. (Reasonless pragmas are already reported by
    // `pragma_hygiene`.)
    let effect_uses: BTreeSet<(String, String, usize)> = model
        .pragma_uses
        .iter()
        .map(|&(fi, line, rule)| (parsed[fi].path.clone(), rule.to_string(), line))
        .collect();
    for file in &parsed {
        for pragma in &file.pragmas {
            if !pragma.has_reason || file.is_test_line(pragma.line) {
                continue;
            }
            let used = suppressed
                .iter()
                .chain(effect_uses.iter())
                .any(|(path, rule, line)| {
                    path == &file.path
                        && rule == &pragma.rule
                        && (*line == pragma.applies_to || *line == pragma.line)
                });
            if !used {
                findings.push(Finding {
                    path: file.path.clone(),
                    line: pragma.line,
                    rule: "lint-pragma".into(),
                    message: format!(
                        "lint:allow({}) suppresses no findings — stale pragma; delete it or \
                         re-anchor it to the violating line",
                        pragma.rule
                    ),
                });
            }
        }
    }

    // Deterministic output: stable sort by (path, line, rule, message),
    // then collapse to one finding per (path, line, rule) — the
    // interprocedural pass can reach the same effect through several
    // chains, and one report per site is enough to act on.
    findings.sort();
    findings.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.rule == b.rule);

    LintReport {
        findings,
        stats: LintStats {
            functions: model.stats.functions,
            edges: model.stats.edges,
            fixpoint_iterations: model.stats.fixpoint_iterations,
        },
    }
}

/// Walks `root` for `.rs` files (plus `DESIGN.md` for the doc-drift
/// check) and lints them. Directories named `target`, `.git`, and
/// `corpus` are skipped (the corpus is deliberately full of
/// violations), and so is a nested package that declares its own
/// `[workspace]` (`benchmark/`): it is not part of this workspace and
/// the workspace's conventions are not its contract. A file whose first
/// line is `//@ path: <virtual path>` is analyzed as if it lived at
/// that path — that is how corpus snippets opt into path-scoped rules.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(lint_workspace_with(root, &Options::default())?.findings)
}

pub fn lint_workspace_with(root: &Path, opts: &Options) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect(root, root, &mut files)?;
    files.sort();
    let sources = files
        .iter()
        .map(|rel| {
            let content = std::fs::read_to_string(root.join(rel))?;
            let path = virtual_path(rel, &content);
            Ok((path, content))
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(lint_sources_with(&sources, opts))
}

/// Applies a `//@ path:` remap directive if present.
fn virtual_path(rel: &str, content: &str) -> String {
    content
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("//@ path:"))
        .map(|p| p.trim().to_string())
        .unwrap_or_else(|| rel.to_string())
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "corpus" {
                continue;
            }
            let manifest = std::fs::read_to_string(path.join("Cargo.toml")).unwrap_or_default();
            if manifest.lines().any(|l| l.trim() == "[workspace]") {
                continue;
            }
            collect(root, &path, out)?;
        } else if name.ends_with(".rs") || name == "DESIGN.md" {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Per-rule finding counts for the JSON report.
pub fn rule_counts(findings: &[Finding]) -> BTreeMap<&str, usize> {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for f in findings {
        *counts.entry(f.rule.as_str()).or_default() += 1;
    }
    counts
}
