//! Corpus proof: every rule fires on the known-bad snippets under
//! `tests/corpus/`, respects `lint:allow` escape hatches, and produces
//! nothing beyond what the snippets annotate.
//!
//! Expected findings are `//~ <rule>` trailing annotations in the
//! corpus files themselves (comma-separated for several findings on
//! one line), so the corpus stays self-describing. The comparison is
//! exact in both directions: an annotated line that does not fire
//! fails the test, and so does any unannotated finding.

use std::collections::BTreeSet;
use std::path::Path;

type Key = (String, usize, String);

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn expected_findings() -> BTreeSet<Key> {
    let mut expected = BTreeSet::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus dir readable") {
        let path = entry.expect("dir entry").path();
        let is_rs = path.extension() == Some(std::ffi::OsStr::new("rs"));
        let is_md = path.extension() == Some(std::ffi::OsStr::new("md"));
        if !is_rs && !is_md {
            continue;
        }
        let raw = std::fs::read_to_string(&path).expect("corpus file readable");
        // Markdown corpus files (doc-drift) are linted under their own
        // file name; rust snippets remap via `//@ path:`.
        let vpath = if is_md {
            path.file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned()
        } else {
            raw.lines()
                .next()
                .and_then(|l| l.strip_prefix("//@ path:"))
                .map(str::trim)
                .unwrap_or_else(|| panic!("{} lacks a //@ path: directive", path.display()))
                .to_string()
        };
        for (idx, line) in raw.lines().enumerate() {
            if let Some(at) = line.find("//~") {
                for rule in line[at + 3..].split(',') {
                    expected.insert((vpath.clone(), idx + 1, rule.trim().to_string()));
                }
            }
        }
    }
    // The missing-forbid finding anchors on line 1 of its crate root,
    // which is the `//@ path:` directive line and cannot carry a
    // trailing annotation without corrupting the remapped path.
    expected.insert((
        "crates/demo/src/lib.rs".into(),
        1,
        "unsafe-inventory".into(),
    ));
    expected
}

#[test]
fn every_rule_fires_and_respects_allows() {
    let findings = molap_lint::lint_workspace(&corpus_dir()).expect("corpus lints");
    let actual: BTreeSet<Key> = findings
        .iter()
        .map(|f| (f.path.clone(), f.line, f.rule.clone()))
        .collect();
    assert_eq!(
        actual.len(),
        findings.len(),
        "two findings collapsed onto one (path, line, rule) key"
    );

    let expected = expected_findings();
    for e in &expected {
        assert!(
            actual.contains(e),
            "annotated finding did not fire: {e:?}\nactual findings:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    for a in &actual {
        assert!(
            expected.contains(a),
            "unannotated finding fired: {a:?} — either fix the corpus or annotate it"
        );
    }

    // Every rule family is exercised by at least one expected finding.
    for rule in [
        "panic-freedom",
        "wire-spec",
        "lock-io",
        "lock-order",
        "lock-blocking",
        "protocol-order",
        "doc-drift",
        "unsafe-inventory",
        "lint-pragma",
    ] {
        assert!(
            expected.iter().any(|(_, _, r)| r == rule),
            "corpus exercises no `{rule}` finding"
        );
    }
}

#[test]
fn interprocedural_findings_require_propagation() {
    // Bidirectional proof of the engine upgrade: every lock finding in
    // `bad_interproc.rs` sits at a *callsite* whose effect lives one
    // call deep, so the old intraprocedural pass must miss all of them
    // (this test), while the default pass finds every one
    // (`every_rule_fires_and_respects_allows`).
    let report = molap_lint::lint_workspace_with(
        &corpus_dir(),
        &molap_lint::Options {
            interprocedural: false,
        },
    )
    .expect("corpus lints");
    let interproc_path = "crates/server/src/corpus_interproc.rs";
    let missed: Vec<_> = report
        .findings
        .iter()
        .filter(|f| {
            f.path == interproc_path
                && matches!(f.rule.as_str(), "lock-order" | "lock-io" | "lock-blocking")
        })
        .collect();
    assert!(
        missed.is_empty(),
        "intraprocedural pass unexpectedly found cross-function cases:\n{}",
        missed
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the run still sees the file at all (its stale pragma
    // does not depend on propagation), so the emptiness above is not
    // an artifact of the file being skipped.
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.path == interproc_path && f.rule == "lint-pragma"),
        "corpus_interproc.rs was not linted at all"
    );
    // Same-line findings never needed the call graph: they must
    // survive with propagation off.
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.path == "crates/server/src/corpus_lock.rs" && f.rule == "lock-blocking"),
        "direct lock-blocking finding should not depend on propagation"
    );
}

#[test]
fn json_report_shape() {
    // The CLI's --json document is assembled from these parts; pin the
    // pieces that scripts/verify.sh greps for.
    let report = molap_lint::lint_workspace_with(&corpus_dir(), &molap_lint::Options::default())
        .expect("corpus lints");
    assert!(report.stats.functions > 0, "call graph saw no functions");
    assert!(report.stats.edges > 0, "call graph saw no edges");
    assert!(
        report.stats.fixpoint_iterations > 0,
        "fixpoint never iterated"
    );
    let counts = molap_lint::rule_counts(&report.findings);
    assert!(counts.get("lock-order").copied().unwrap_or(0) > 0);

    // Determinism: linting the same tree twice yields byte-identical
    // findings in the same order.
    let again = molap_lint::lint_workspace_with(&corpus_dir(), &molap_lint::Options::default())
        .expect("corpus lints");
    assert_eq!(
        report.findings, again.findings,
        "findings are not deterministic"
    );
    let sorted: Vec<_> = {
        let mut v = report.findings.clone();
        v.sort();
        v
    };
    assert_eq!(report.findings, sorted, "findings are not stable-sorted");
}

#[test]
fn findings_render_for_humans_and_machines() {
    let findings = molap_lint::lint_workspace(&corpus_dir()).expect("corpus lints");
    let unwrap_finding = findings
        .iter()
        .find(|f| f.path == "crates/core/src/corpus_panic.rs" && f.rule == "panic-freedom")
        .expect("corpus has a panic-freedom finding");
    let text = unwrap_finding.to_string();
    assert!(
        text.starts_with("crates/core/src/corpus_panic.rs:"),
        "Display leads with path:line, got {text}"
    );
    assert!(text.contains("[panic-freedom]"));
    let json = unwrap_finding.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"rule\":\"panic-freedom\""));
}

#[test]
fn real_workspace_tree_is_clean() {
    // The corpus lives inside the workspace; `lint_workspace` must
    // skip it (and `target/`) while still walking everything else, and
    // the committed tree itself must carry zero findings.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = molap_lint::lint_workspace(&root).expect("workspace lints");
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
