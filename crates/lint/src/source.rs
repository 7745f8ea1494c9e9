//! Workspace walking and per-file lexical structure.
//!
//! A [`SourceFile`] couples the token stream with the *regions* the rules
//! care about: `#[cfg(test)]` modules (exempt from every rule) and
//! `#[cfg(feature = "...")]`-gated spans (consulted by the feature-hygiene
//! rule). Regions are resolved purely lexically: an attribute governs the
//! next item, which extends to the first top-level `;` or through the first
//! balanced `{ ... }` block.

use crate::lexer::{self, Comment, TokKind, Token};
use crate::scope::ScopeTree;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How a file participates in the lint run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source: every rule applies.
    Lib,
    /// Binary / CLI source (`src/bin/*.rs`, `src/main.rs`, the `cli` and
    /// `bench` crates): exempt from the library-only rules.
    Bin,
    /// Tests, benches, examples, fixtures: never linted.
    Exempt,
}

/// A token-index span `[start, end)` with the lines it covers.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    /// First token index inside the region.
    pub start: usize,
    /// One past the last token index inside the region.
    pub end: usize,
}

/// A `#[cfg(...)]`-gated region with the raw attribute text.
#[derive(Debug, Clone)]
pub struct CfgRegion {
    /// Raw text of the governing attribute, e.g.
    /// `#[cfg(feature = "failpoints")]`.
    pub attr: String,
    /// Token span the attribute governs.
    pub span: Region,
}

/// One lexed, region-resolved source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Crate the file belongs to (e.g. `cirstag-graph`), or `workspace` for
    /// the root meta-crate sources.
    pub crate_name: String,
    /// Role of the file in the lint run.
    pub kind: FileKind,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Out-of-band comments (waiver annotations live here).
    pub comments: Vec<Comment>,
    /// Source lines (for finding snippets).
    pub lines: Vec<String>,
    /// Token spans of `#[cfg(test)]` items (exempt from all rules).
    pub test_regions: Vec<Region>,
    /// Token spans governed by `#[cfg(...)]` attributes that mention a
    /// feature, with the attribute text.
    pub cfg_regions: Vec<CfgRegion>,
    /// The brace/scope tree (functions, impls, unsafe blocks, …) the
    /// dataflow-aware rules walk.
    pub scope_tree: ScopeTree,
}

impl SourceFile {
    /// Loads and lexes one file.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the file cannot be read.
    pub fn load(root: &Path, path: &Path) -> io::Result<SourceFile> {
        let source = fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        Ok(SourceFile::from_source(&rel, &source))
    }

    /// Builds a `SourceFile` from in-memory source (used by the self-tests).
    pub fn from_source(rel_path: &str, source: &str) -> SourceFile {
        let lexer::Lexed { tokens, comments } = lexer::lex(source);
        let crate_name = crate_of(rel_path);
        let kind = classify(rel_path);
        let test_regions = find_attr_regions(&tokens, attr_is_cfg_test)
            .into_iter()
            .map(|(_, span)| span)
            .collect();
        let cfg_regions = find_attr_regions(&tokens, |a| a.contains("feature"))
            .into_iter()
            .map(|(attr_idx, span)| CfgRegion {
                attr: tokens
                    .get(attr_idx)
                    .map(|t| t.text.clone())
                    .unwrap_or_default(),
                span,
            })
            .collect();
        let scope_tree = ScopeTree::build(&tokens);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name,
            kind,
            tokens,
            comments,
            lines: source.lines().map(str::to_string).collect(),
            test_regions,
            cfg_regions,
            scope_tree,
        }
    }

    /// `true` when token index `i` lies in a `#[cfg(test)]` region.
    pub fn in_test_region(&self, i: usize) -> bool {
        self.test_regions.iter().any(|r| i >= r.start && i < r.end)
    }

    /// Returns the cfg attributes governing token index `i` (innermost last).
    pub fn cfgs_at(&self, i: usize) -> Vec<&str> {
        self.cfg_regions
            .iter()
            .filter(|r| i >= r.span.start && i < r.span.end)
            .map(|r| r.attr.as_str())
            .collect()
    }

    /// The source line (1-based), trimmed, or an empty string.
    pub fn snippet(&self, line: usize) -> String {
        self.lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// `#[cfg(test)]` (with arbitrary spacing), including compound forms like
/// `#[cfg(any(test, ..))]` and `#[cfg(all(test, feature = ".."))]`, but not
/// `#[cfg(feature = ...)]`.
fn attr_is_cfg_test(attr: &str) -> bool {
    let squeezed: String = attr.chars().filter(|c| !c.is_whitespace()).collect();
    squeezed.contains("cfg(test)")
        || squeezed.contains("cfg(any(test")
        || squeezed.contains("cfg(all(test")
}

/// Crate name from a workspace-relative path (`crates/graph/src/... →
/// cirstag-graph`; `crates/core` keeps its package name `cirstag`).
fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    if parts.next() == Some("crates") {
        match parts.next() {
            Some("core") => "cirstag".to_string(),
            Some(dir) => format!("cirstag-{dir}"),
            None => "workspace".to_string(),
        }
    } else {
        "workspace".to_string()
    }
}

/// Classifies a workspace-relative path into a [`FileKind`].
fn classify(rel_path: &str) -> FileKind {
    let p = rel_path;
    if p.contains("/tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
        || p.contains("/fixtures/")
        || p.starts_with("tests/")
        || p.starts_with("examples/")
    {
        return FileKind::Exempt;
    }
    if p.contains("/bin/")
        || p.ends_with("src/main.rs")
        || p.starts_with("crates/cli/")
        || p.starts_with("crates/bench/")
    {
        return FileKind::Bin;
    }
    FileKind::Lib
}

/// Finds the token span governed by each attribute matching `pred`.
///
/// The governed item starts at the first token after the attribute (and any
/// further attributes / doc comments) and ends at the first `;` at nesting
/// depth zero, or at the matching `}` of the first top-level `{`.
fn find_attr_regions<F: Fn(&str) -> bool>(tokens: &[Token], pred: F) -> Vec<(usize, Region)> {
    let mut regions = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokKind::Attr || !pred(&tok.text) {
            continue;
        }
        // Skip any stacked attributes between this one and the item.
        let mut j = i + 1;
        while tokens.get(j).is_some_and(|t| t.kind == TokKind::Attr) {
            j += 1;
        }
        let start = j;
        let mut depth = 0usize;
        let mut entered_block = false;
        while let Some(t) = tokens.get(j) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" | "(" | "[" => {
                        depth += 1;
                        if t.text == "{" {
                            entered_block = true;
                        }
                    }
                    "}" | ")" | "]" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 && entered_block && t.text == "}" {
                            j += 1;
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        regions.push((i, Region { start, end: j }));
    }
    regions
}

/// Recursively collects the `.rs` files of the workspace that the linter
/// walks: `src/`, `crates/*/src/` (and, for completeness of the report,
/// nothing under `vendor/`, `target/`, `tests/`, `benches/`, `examples/` or
/// fixture directories).
///
/// # Errors
///
/// Propagates directory-walk I/O failures.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                walk(&src, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/graph/src/tree.rs"), FileKind::Lib);
        assert_eq!(classify("crates/cli/src/commands.rs"), FileKind::Bin);
        assert_eq!(classify("crates/bench/src/case_a.rs"), FileKind::Bin);
        assert_eq!(classify("crates/solver/src/bin/tool.rs"), FileKind::Bin);
        assert_eq!(classify("crates/graph/tests/proptest.rs"), FileKind::Exempt);
        assert_eq!(
            classify("crates/lint/tests/fixtures/violations/panic.rs"),
            FileKind::Exempt
        );
        assert_eq!(classify("src/lib.rs"), FileKind::Lib);
    }

    #[test]
    fn crate_names() {
        assert_eq!(crate_of("crates/graph/src/tree.rs"), "cirstag-graph");
        assert_eq!(crate_of("crates/core/src/pipeline.rs"), "cirstag");
        assert_eq!(crate_of("src/lib.rs"), "workspace");
    }

    #[test]
    fn test_region_covers_mod() {
        let f = SourceFile::from_source(
            "crates/graph/src/x.rs",
            "fn lib_code() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n",
        );
        let unwrap_idx = f
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("tokenized");
        assert!(f.in_test_region(unwrap_idx));
        let lib_idx = f
            .tokens
            .iter()
            .position(|t| t.is_ident("lib_code"))
            .expect("tokenized");
        assert!(!f.in_test_region(lib_idx));
    }

    #[test]
    fn cfg_feature_region_resolved() {
        let f = SourceFile::from_source(
            "crates/linalg/src/x.rs",
            "pub fn go() {\n    #[cfg(feature = \"parallel\")]\n    {\n        rayon::fan_out();\n    }\n    #[cfg(not(feature = \"parallel\"))]\n    serial();\n}\n",
        );
        let rayon_idx = f
            .tokens
            .iter()
            .position(|t| t.is_ident("rayon"))
            .expect("tokenized");
        let cfgs = f.cfgs_at(rayon_idx);
        assert_eq!(cfgs.len(), 1);
        assert!(cfgs[0].contains("feature = \"parallel\""));
        let serial_idx = f
            .tokens
            .iter()
            .position(|t| t.is_ident("serial"))
            .expect("tokenized");
        let cfgs = f.cfgs_at(serial_idx);
        assert_eq!(cfgs.len(), 1);
        assert!(cfgs[0].contains("not(feature = \"parallel\")"));
    }

    #[test]
    fn attr_on_statement_ends_at_semicolon() {
        let f = SourceFile::from_source(
            "crates/linalg/src/x.rs",
            "fn f() {\n    #[cfg(feature = \"parallel\")]\n    rayon::set(n);\n    after();\n}\n",
        );
        let after_idx = f
            .tokens
            .iter()
            .position(|t| t.is_ident("after"))
            .expect("tokenized");
        assert!(f.cfgs_at(after_idx).is_empty());
    }
}
