//! Fixture-driven rule tests: each file under `tests/fixtures/violations/`
//! must trip exactly its rule, each file under `tests/fixtures/clean/` must
//! lint active-clean.
//!
//! The fixtures live under a `tests/fixtures/` path, which the workspace walk
//! classifies as `Exempt` — so they never pollute a real `cargo run -p
//! cirstag-lint` sweep. Here we load their *contents* and lint them under a
//! synthetic lib path inside a result-affecting crate
//! (`crates/graph/src/…`), which makes every rule applicable.

use cirstag_lint::report::Finding;
use cirstag_lint::rules;
use cirstag_lint::source::SourceFile;
use cirstag_lint::workspace::WorkspaceCtx;
use std::fs;
use std::path::Path;

/// Lints a fixture file as if it were library code in `cirstag-graph`.
fn lint_fixture(dir: &str, name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir)
        .join(name);
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let file = SourceFile::from_source(&format!("crates/graph/src/{name}"), &src);
    cirstag_lint::lint_file(&file, &WorkspaceCtx::default())
}

fn active<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| !f.waived && f.rule == rule)
        .collect()
}

#[test]
fn no_panic_violations_fire() {
    let findings = lint_fixture("violations", "no_panic.rs");
    // unwrap, expect, panic!, todo!, and a literal index: five sites.
    assert_eq!(active(&findings, rules::NO_PANIC).len(), 5, "{findings:#?}");
}

#[test]
fn no_panic_clean_is_silent() {
    let findings = lint_fixture("clean", "no_panic.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn float_discipline_violations_fire() {
    let findings = lint_fixture("violations", "float.rs");
    // ==, != against literals plus a bare f64::NAN: three sites.
    assert_eq!(
        active(&findings, rules::FLOAT_DISCIPLINE).len(),
        3,
        "{findings:#?}"
    );
}

#[test]
fn float_discipline_clean_is_silent() {
    let findings = lint_fixture("clean", "float.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn feature_hygiene_violations_fire() {
    let findings = lint_fixture("violations", "feature.rs");
    // `rayon` outside the `par` seam plus an ungated failpoint arm: two sites.
    assert_eq!(
        active(&findings, rules::FEATURE_HYGIENE).len(),
        2,
        "{findings:#?}"
    );
}

#[test]
fn feature_hygiene_clean_is_silent() {
    let findings = lint_fixture("clean", "feature.rs");
    assert!(
        active(&findings, rules::FEATURE_HYGIENE).is_empty(),
        "{findings:#?}"
    );
}

#[test]
fn determinism_violations_fire() {
    let findings = lint_fixture("violations", "determinism.rs");
    assert!(
        !active(&findings, rules::DETERMINISM).is_empty(),
        "{findings:#?}"
    );
}

#[test]
fn determinism_clean_is_silent() {
    let findings = lint_fixture("clean", "determinism.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn determinism_only_applies_to_result_affecting_crates() {
    // The same HashMap-using source under a non-result-affecting crate
    // (cirstag-gnn is not in RESULT_AFFECTING) must not trip the rule.
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations/determinism.rs");
    let src = fs::read_to_string(path).unwrap();
    let file = SourceFile::from_source("crates/gnn/src/determinism.rs", &src);
    let findings = cirstag_lint::lint_file(&file, &WorkspaceCtx::default());
    assert!(
        active(&findings, rules::DETERMINISM).is_empty(),
        "{findings:#?}"
    );
}

#[test]
fn error_hygiene_violations_fire() {
    let findings = lint_fixture("violations", "error_hygiene.rs");
    // Both pub fns assert on their unit-returning paths.
    assert_eq!(
        active(&findings, rules::ERROR_HYGIENE).len(),
        2,
        "{findings:#?}"
    );
}

#[test]
fn error_hygiene_clean_is_silent() {
    let findings = lint_fixture("clean", "error_hygiene.rs");
    assert!(
        active(&findings, rules::ERROR_HYGIENE).is_empty(),
        "{findings:#?}"
    );
}

#[test]
fn cast_truncation_violations_fire() {
    let findings = lint_fixture("violations", "cast.rs");
    // u64->u32, f64->f32, i64->u8, f64->isize: four lossy sites.
    assert_eq!(
        active(&findings, rules::CAST_TRUNCATION).len(),
        4,
        "{findings:#?}"
    );
}

#[test]
fn cast_truncation_clean_is_silent() {
    let findings = lint_fixture("clean", "cast.rs");
    assert!(
        active(&findings, rules::CAST_TRUNCATION).is_empty(),
        "{findings:#?}"
    );
    // The waived lossy cast is reported as waived, not dropped.
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rules::CAST_TRUNCATION && f.waived),
        "{findings:#?}"
    );
}

#[test]
fn pub_doc_violations_fire() {
    let findings = lint_fixture("violations", "pub_doc.rs");
    // Undocumented const, struct, named field, fn, and impl method: five.
    assert_eq!(active(&findings, rules::PUB_DOC).len(), 5, "{findings:#?}");
}

#[test]
fn pub_doc_clean_is_silent() {
    let findings = lint_fixture("clean", "pub_doc.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn unsafe_safety_violations_fire() {
    let findings = lint_fixture("violations", "unsafe_safety.rs");
    // Unjustified block, unsafe fn without `# Safety`, unsafe impl, and an
    // empty rationale: four sites.
    assert_eq!(
        active(&findings, rules::UNSAFE_SAFETY).len(),
        4,
        "{findings:#?}"
    );
}

#[test]
fn unsafe_safety_clean_is_silent() {
    let findings = lint_fixture("clean", "unsafe_safety.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn lock_order_violations_fire() {
    let findings = lint_fixture("violations", "lock_order.rs");
    // Both reversed acquisition sites of the lo/hi cycle are reported.
    assert_eq!(
        active(&findings, rules::LOCK_ORDER).len(),
        2,
        "{findings:#?}"
    );
}

#[test]
fn lock_order_clean_is_silent() {
    let findings = lint_fixture("clean", "lock_order.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn nondeterminism_violations_fire() {
    let findings = lint_fixture("violations", "nondeterminism.rs");
    // Instant::now, .elapsed(), pool-width branch, ThreadId,
    // thread::current, .keys() on a HashMap, `for .. in` a HashSet: seven.
    assert_eq!(
        active(&findings, rules::NONDETERMINISM).len(),
        7,
        "{findings:#?}"
    );
}

#[test]
fn nondeterminism_clean_is_silent() {
    let findings = lint_fixture("clean", "nondeterminism.rs");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn nondeterminism_only_applies_to_result_affecting_crates() {
    // The same sources under cirstag-gnn (not result-affecting) must not
    // trip the rule.
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations/nondeterminism.rs");
    let src = fs::read_to_string(path).unwrap();
    let file = SourceFile::from_source("crates/gnn/src/nondeterminism.rs", &src);
    let findings = cirstag_lint::lint_file(&file, &WorkspaceCtx::default());
    assert!(
        active(&findings, rules::NONDETERMINISM).is_empty(),
        "{findings:#?}"
    );
}

#[test]
fn unsafe_safety_applies_even_outside_result_affecting_crates() {
    // Unsafe hygiene is workspace-wide: the same sources under cirstag-gnn
    // still fire.
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations/unsafe_safety.rs");
    let src = fs::read_to_string(path).unwrap();
    let file = SourceFile::from_source("crates/gnn/src/unsafe_safety.rs", &src);
    let findings = cirstag_lint::lint_file(&file, &WorkspaceCtx::default());
    assert_eq!(
        active(&findings, rules::UNSAFE_SAFETY).len(),
        4,
        "{findings:#?}"
    );
}

#[test]
fn waiver_with_reason_is_honored() {
    let findings = lint_fixture("clean", "waived.rs");
    // The violation is still *reported* — waived, never silently dropped.
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0].waived);
    assert!(findings[0]
        .waiver_reason
        .as_deref()
        .is_some_and(|r| r.contains("non-empty")));
    assert!(findings.iter().all(|f| f.waived), "no active findings");
}

#[test]
fn waiver_without_reason_is_rejected() {
    let findings = lint_fixture("violations", "waiver_no_reason.rs");
    // The underlying finding stays active…
    assert_eq!(active(&findings, rules::NO_PANIC).len(), 1, "{findings:#?}");
    // …and the malformed waiver is a finding of its own, never waivable.
    assert_eq!(
        active(&findings, rules::WAIVER_SYNTAX).len(),
        1,
        "{findings:#?}"
    );
}

#[test]
fn fixtures_are_exempt_from_the_workspace_walk() {
    // Loaded under their real path, the violation fixtures classify as
    // Exempt and produce nothing — they can never fail a repo sweep.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations/no_panic.rs");
    let src = fs::read_to_string(path).unwrap();
    let file = SourceFile::from_source("crates/lint/tests/fixtures/violations/no_panic.rs", &src);
    let findings = cirstag_lint::lint_file(&file, &WorkspaceCtx::default());
    assert!(findings.is_empty(), "{findings:#?}");
}
