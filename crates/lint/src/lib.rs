//! `cirstag-lint` — workspace-aware static analysis for the CirSTAG repo.
//!
//! The repo's correctness story leans on invariants ordinary `clippy`
//! cannot see: library crates must stay panic-free so the fallback ladders
//! (PR 2) can catch every failure as a typed error; numeric crates must be
//! bit-deterministic so η-score rankings reproduce (PR 1); `rayon` must stay
//! inside the `par` determinism seam and failpoint arming behind the
//! `failpoints` feature. This crate enforces
//! those rules with a self-contained lexical analyzer — no `syn`, no network,
//! no external deps beyond the vendored `serde` stand-ins.
//!
//! Pipeline: [`source::workspace_sources`] walks `src/` + `crates/*/src/`,
//! [`lexer::lex`] tokenizes each file (total: malformed input never panics),
//! [`scope::ScopeTree`] resolves the brace structure the dataflow-aware
//! rules walk, [`rules::run_all`] emits raw per-file findings, the
//! workspace-global [`locks`] pass folds every file's lock-acquisition
//! edges into one graph and reports cyclic orders, and [`waiver::WaiverSet`]
//! marks hits covered by an inline `// cirstag-lint: allow(<rule>) --
//! <reason>` annotation. Waivers without a reason are themselves findings
//! (`waiver-syntax`) and can never be waived; so are valid waivers that
//! suppress nothing (stale waivers rot into camouflage).
//!
//! Run it as `cargo run -p cirstag-lint` (human output + `LINT_REPORT.json`)
//! or embed via [`run_lint`].

#![forbid(unsafe_code)]

pub mod lexer;
pub mod locks;
pub mod report;
pub mod rules;
pub mod scope;
pub mod source;
pub mod waiver;
pub mod workspace;

use report::{Finding, LintReport};
use source::SourceFile;
use std::fmt;
use std::path::Path;
use waiver::WaiverSet;
use workspace::WorkspaceCtx;

/// Failure while reading the workspace (I/O only — lint findings are data,
/// not errors).
#[derive(Debug)]
pub struct LintError {
    /// Path that failed.
    pub path: String,
    /// Underlying I/O message.
    pub message: String,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cirstag-lint: {}: {}", self.path, self.message)
    }
}

impl std::error::Error for LintError {}

/// Lints every workspace source under `root` and returns the full report.
///
/// # Errors
///
/// Fails only on I/O problems (unreadable workspace); rule hits are returned
/// inside the report, not as errors.
pub fn run_lint(root: &Path) -> Result<LintReport, LintError> {
    if !root.is_dir() {
        return Err(LintError {
            path: root.display().to_string(),
            message: "not a directory".to_string(),
        });
    }
    let ctx = WorkspaceCtx::discover(root);
    let paths = source::workspace_sources(root).map_err(|e| LintError {
        path: root.display().to_string(),
        message: e.to_string(),
    })?;
    // An empty walk means the root is not a workspace (e.g. a typo'd
    // `--root`) — a silent "0 files, clean" would defeat the CI gate.
    if paths.is_empty() {
        return Err(LintError {
            path: root.display().to_string(),
            message: "no Rust sources found under src/ or crates/*/src/".to_string(),
        });
    }
    // Pass 1: load and lex every file — the lock-order pass needs the
    // workspace-wide set of declared lock names before any edges resolve.
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        files.push(SourceFile::load(root, path).map_err(|e| LintError {
            path: path.display().to_string(),
            message: e.to_string(),
        })?);
    }
    let mut lock_names = std::collections::BTreeSet::new();
    for file in &files {
        lock_names.extend(locks::declared_lock_names(file));
    }
    // Pass 2: per-file rules plus each file's lock-acquisition edges.
    let mut findings = Vec::new();
    let mut edges = Vec::new();
    for file in &files {
        rules::run_all(file, &ctx, &mut findings);
        edges.extend(locks::file_edges(file, &lock_names));
    }
    // Global lock graph: cyclic acquisition orders become findings at their
    // acquisition sites.
    findings.extend(locks::analyze(&edges));
    // Pass 3: waivers apply per file, over per-file *and* global findings.
    for file in &files {
        apply_waivers(file, &mut findings);
    }
    Ok(LintReport::new(files.len(), findings))
}

/// Lints one already-loaded file in isolation: every per-file rule, the
/// lock-order analysis restricted to this file's declarations, then
/// waivers. The workspace driver [`run_lint`] uses the same pieces but
/// resolves lock edges globally.
pub fn lint_file(file: &SourceFile, ctx: &WorkspaceCtx) -> Vec<Finding> {
    let mut findings = Vec::new();
    rules::run_all(file, ctx, &mut findings);
    let lock_names = locks::declared_lock_names(file);
    findings.extend(locks::analyze(&locks::file_edges(file, &lock_names)));
    apply_waivers(file, &mut findings);
    findings
}

/// Marks `file`'s findings covered by its waivers, and appends the
/// `waiver-syntax` findings for malformed and stale (unused) annotations.
fn apply_waivers(file: &SourceFile, findings: &mut Vec<Finding>) {
    let waivers = WaiverSet::collect(file);
    for f in findings.iter_mut() {
        if f.file != file.rel_path {
            continue;
        }
        if let Some(w) = waivers.lookup(&f.rule, f.line) {
            f.waived = true;
            f.waiver_reason = Some(w.reason.clone());
        }
    }
    // Malformed waivers are findings in their own right — and deliberately
    // not waivable, so `allow()` without a reason can't hide itself.
    for err in &waivers.errors {
        findings.push(Finding {
            rule: rules::WAIVER_SYNTAX.to_string(),
            file: file.rel_path.clone(),
            line: err.line,
            message: err.message.clone(),
            snippet: file.snippet(err.line),
            waived: false,
            waiver_reason: None,
        });
    }
    // So are valid waivers that suppress nothing: a stale waiver is
    // camouflage for the next real finding on that line.
    for (applies_to, w) in waivers.entries() {
        let used = findings.iter().any(|f| {
            f.file == file.rel_path && f.line == applies_to && f.waived && w.rules.contains(&f.rule)
        });
        if !used {
            findings.push(Finding {
                rule: rules::WAIVER_SYNTAX.to_string(),
                file: file.rel_path.clone(),
                line: w.line,
                message: format!(
                    "stale waiver: no active `{}` finding on the line it applies to \
                     (line {applies_to}); delete the annotation",
                    w.rules.join(", ")
                ),
                snippet: file.snippet(w.line),
                waived: false,
                waiver_reason: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(rel_path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::from_source(rel_path, src);
        lint_file(&file, &WorkspaceCtx::default())
    }

    #[test]
    fn waived_finding_is_marked_not_dropped() {
        let src = "fn f() {\n    x.unwrap(); // cirstag-lint: allow(no-panic-in-lib) -- test scaffolding\n}\n";
        let hits = lint_src("crates/graph/src/x.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].waived);
        assert_eq!(hits[0].waiver_reason.as_deref(), Some("test scaffolding"));
    }

    #[test]
    fn reasonless_waiver_leaves_finding_active_and_adds_syntax_finding() {
        let src = "fn f() {\n    x.unwrap(); // cirstag-lint: allow(no-panic-in-lib)\n}\n";
        let hits = lint_src("crates/graph/src/x.rs", src);
        let active: Vec<_> = hits.iter().filter(|h| !h.waived).collect();
        assert_eq!(active.len(), 2, "{hits:?}");
        assert!(active.iter().any(|h| h.rule == rules::NO_PANIC));
        assert!(active.iter().any(|h| h.rule == rules::WAIVER_SYNTAX));
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_suppress_and_reads_as_stale() {
        let src =
            "fn f() {\n    x.unwrap(); // cirstag-lint: allow(determinism) -- wrong rule\n}\n";
        let hits = lint_src("crates/graph/src/x.rs", src);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().any(|h| h.rule == rules::NO_PANIC && !h.waived));
        // The waiver matched nothing, so it is reported as stale rather
        // than silently ignored.
        assert!(hits
            .iter()
            .any(|h| h.rule == rules::WAIVER_SYNTAX && h.message.contains("stale")));
    }

    #[test]
    fn stale_waiver_on_clean_line_is_reported() {
        let src = "fn f() {\n    // cirstag-lint: allow(no-panic-in-lib) -- nothing here\n    let x = 1;\n}\n";
        let hits = lint_src("crates/graph/src/x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, rules::WAIVER_SYNTAX);
        assert!(hits[0].message.contains("stale"));
        assert_eq!(hits[0].line, 2, "reported at the annotation line");
    }

    #[test]
    fn waiver_on_last_line_with_no_following_code_is_stale() {
        let src =
            "fn f() {\n    let x = 1;\n}\n// cirstag-lint: allow(no-panic-in-lib) -- dangling\n";
        let hits = lint_src("crates/graph/src/x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, rules::WAIVER_SYNTAX);
        assert!(hits[0].message.contains("stale"));
        assert_eq!(hits[0].line, 4);
    }

    #[test]
    fn unknown_rule_waiver_is_an_active_syntax_finding() {
        let src = "fn f() {\n    x.unwrap(); // cirstag-lint: allow(no-panics) -- typo\n}\n";
        let hits = lint_src("crates/graph/src/x.rs", src);
        // The typo'd waiver suppresses nothing (the real finding stays
        // active) and is itself reported as invalid.
        assert!(hits.iter().any(|h| h.rule == rules::NO_PANIC && !h.waived));
        assert!(hits.iter().any(|h| h.rule == rules::WAIVER_SYNTAX
            && !h.waived
            && h.message.contains("unknown rule")));
    }

    #[test]
    fn unsafe_block_without_safety_comment_fires() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let hits = lint_src("crates/linalg/src/x.rs", src);
        assert!(
            hits.iter()
                .any(|h| h.rule == rules::UNSAFE_SAFETY && !h.waived),
            "{hits:?}"
        );
    }

    #[test]
    fn lock_cycle_within_one_file_is_found_and_waivable() {
        let src = "struct S { a: Mutex<()>, b: Mutex<()> }\nimpl S {\n    fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n    fn ba(&self) {\n        let gb = self.b.lock();\n        let ga = self.a.lock(); // cirstag-lint: allow(lock-order) -- test waiver\n    }\n}\n";
        let hits = lint_src("crates/graph/src/x.rs", src);
        let lock_hits: Vec<_> = hits
            .iter()
            .filter(|h| h.rule == rules::LOCK_ORDER)
            .collect();
        assert_eq!(lock_hits.len(), 2, "{hits:?}");
        assert!(lock_hits.iter().any(|h| h.waived));
        assert!(lock_hits.iter().any(|h| !h.waived));
    }
}
