//! The six repo-specific lint rules.
//!
//! Each rule is a pure function over one [`SourceFile`]'s token stream; the
//! driver applies waivers afterwards, so rules always report every raw hit.
//!
//! | Rule | Guards |
//! |------|--------|
//! | `no-panic-in-lib` | library code stays panic-free (typed errors only) |
//! | `float-discipline` | no `==`/`!=` on floats, no bare NaN literals |
//! | `feature-hygiene` | `rayon` stays in the `par` seam; failpoint arming stays behind its feature |
//! | `determinism` | no order-dependent containers / ambient entropy in result-affecting crates |
//! | `error-hygiene` | public unit-returning fns must not panic on bad input |
//! | `cast-truncation` | no lossy `as` numeric casts in result-affecting crates |
//! | `pub-doc` | every public item in result-affecting crates carries a doc comment |
//! | `unsafe-safety` | every `unsafe` block/fn/impl carries an adjacent `// SAFETY:` rationale |
//! | `lock-order` | the workspace lock graph stays acyclic (see [`crate::locks`]) |
//! | `nondeterminism` | no hash iteration / clock reads / thread-count branching in result paths |

use crate::lexer::{TokKind, Token};
use crate::report::Finding;
use crate::source::{FileKind, SourceFile};
use crate::workspace::WorkspaceCtx;

/// Names of every rule, in reporting order.
pub const RULE_NAMES: &[&str] = &[
    NO_PANIC,
    FLOAT_DISCIPLINE,
    FEATURE_HYGIENE,
    DETERMINISM,
    ERROR_HYGIENE,
    CAST_TRUNCATION,
    PUB_DOC,
    UNSAFE_SAFETY,
    LOCK_ORDER,
    NONDETERMINISM,
    WAIVER_SYNTAX,
];

/// Rule id: panic-free library code.
pub const NO_PANIC: &str = "no-panic-in-lib";
/// Rule id: float comparison / NaN literal discipline.
pub const FLOAT_DISCIPLINE: &str = "float-discipline";
/// Rule id: `rayon` confined to the `par` seam, failpoint arming confined to
/// the `failpoints` feature.
pub const FEATURE_HYGIENE: &str = "feature-hygiene";
/// Rule id: deterministic iteration and seeding in result-affecting crates.
pub const DETERMINISM: &str = "determinism";
/// Rule id: public API error hygiene.
pub const ERROR_HYGIENE: &str = "error-hygiene";
/// Rule id: lossy `as` numeric casts in result-affecting crates.
pub const CAST_TRUNCATION: &str = "cast-truncation";
/// Rule id: undocumented public items in result-affecting crates.
pub const PUB_DOC: &str = "pub-doc";
/// Rule id: `unsafe` without an adjacent `// SAFETY:` rationale.
pub const UNSAFE_SAFETY: &str = "unsafe-safety";
/// Rule id: cyclic lock-acquisition order across the workspace.
pub const LOCK_ORDER: &str = "lock-order";
/// Rule id: run-to-run-variable behavior (hash iteration, clock reads,
/// thread-count branching) in result-affecting crates.
pub const NONDETERMINISM: &str = "nondeterminism";
/// Rule id: malformed waiver annotations (always unwaivable).
pub const WAIVER_SYNTAX: &str = "waiver-syntax";

/// Crates whose numeric output the paper's bit-identical determinism
/// guarantee covers (PR 1): any order-dependence here can silently change
/// η-scores or DMD rankings. `cirstag-serve` is held to the same bar — it
/// replays cached artifacts across tenants, so a panic or nondeterminism in
/// its library paths corrupts every client of the daemon at once.
const RESULT_AFFECTING: &[&str] = &[
    "cirstag-linalg",
    "cirstag-graph",
    "cirstag-solver",
    "cirstag-embed",
    "cirstag-pgm",
    "cirstag",
    "cirstag-serve",
];

/// Panicking macros forbidden in library code.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Macros that panic on invalid input, checked by the error-hygiene rule
/// inside public unit-returning functions (`debug_assert*` is exempt: it
/// vanishes in release builds and is the idiomatic invariant-audit form).
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne", "panic"];

/// Ambient-entropy identifiers forbidden in result-affecting crates.
const ENTROPY_IDENTS: &[&str] = &["SystemTime", "thread_rng", "from_entropy"];

/// Cast targets for which `as` can silently lose information: every integer
/// type truncates or wraps out-of-range values, and `f32` rounds away
/// mantissa bits. `f64` is deliberately absent — every integer up to 2⁵³ and
/// every `f32` converts exactly, so `as f64` is the one lossless idiom.
const TRUNCATING_CAST_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
];

/// Runs every rule over `file`, appending raw findings to `out`.
pub fn run_all(file: &SourceFile, ctx: &WorkspaceCtx, out: &mut Vec<Finding>) {
    if file.kind == FileKind::Exempt {
        return;
    }
    if file.kind == FileKind::Lib {
        no_panic_in_lib(file, out);
        float_discipline(file, out);
        error_hygiene(file, ctx, out);
    }
    // Feature hygiene also applies to bin sources: a binary calling rayon
    // directly would bypass the `par` determinism seam.
    feature_hygiene(file, out);
    // Unsafe code needs its rationale everywhere, binaries included.
    unsafe_safety(file, out);
    if RESULT_AFFECTING.contains(&file.crate_name.as_str()) && file.kind == FileKind::Lib {
        determinism(file, out);
        cast_truncation(file, out);
        pub_doc(file, out);
        nondeterminism(file, out);
    }
}

fn finding(file: &SourceFile, rule: &'static str, line: usize, message: String) -> Finding {
    Finding {
        rule: rule.to_string(),
        file: file.rel_path.clone(),
        line,
        message,
        snippet: file.snippet(line),
        waived: false,
        waiver_reason: None,
    }
}

/// `no-panic-in-lib`: forbids `.unwrap()`, `.expect(...)`, the panicking
/// macros, and integer-literal slice indexing (`xs[0]`) in library code.
fn no_panic_in_lib(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if file.in_test_region(i) {
            continue;
        }
        match tok.kind {
            TokKind::Ident if tok.text == "unwrap" || tok.text == "expect" => {
                let method_call = prev_is(toks, i, ".") && next_is(toks, i, "(");
                if method_call {
                    out.push(finding(
                        file,
                        NO_PANIC,
                        tok.line,
                        format!(
                            "`.{}()` can panic; bubble a typed error instead (or waive with a reason)",
                            tok.text
                        ),
                    ));
                }
            }
            TokKind::Ident
                if PANIC_MACROS.contains(&tok.text.as_str())
                    && next_is(toks, i, "!")
                    && !prev_is(toks, i, ".") =>
            {
                out.push(finding(
                    file,
                    NO_PANIC,
                    tok.line,
                    format!(
                        "`{}!` aborts the caller; return a typed error instead",
                        tok.text
                    ),
                ));
            }
            TokKind::Punct if tok.text == "[" => {
                // `expr[<int literal>]` — the classic empty-input panic.
                let indexes_value = toks.get(i.wrapping_sub(1)).is_some_and(|p| {
                    p.kind == TokKind::Ident && !is_keyword(&p.text)
                        || p.is_punct(")")
                        || p.is_punct("]")
                });
                let literal_subscript = toks.get(i + 1).is_some_and(|t| t.kind == TokKind::IntLit)
                    && toks.get(i + 2).is_some_and(|t| t.is_punct("]"));
                if indexes_value && literal_subscript {
                    out.push(finding(
                        file,
                        NO_PANIC,
                        tok.line,
                        "integer-literal indexing panics on short input; use `.first()`/`.get(..)` \
                         or prove the bound and waive"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// `float-discipline`: forbids `==`/`!=` with a float operand and bare
/// `f64::NAN`/`f32::NAN` literals in library code.
fn float_discipline(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if file.in_test_region(i) {
            continue;
        }
        match tok.kind {
            TokKind::Punct if tok.text == "==" || tok.text == "!=" => {
                let float_neighbor = toks
                    .get(i.wrapping_sub(1))
                    .is_some_and(|t| t.kind == TokKind::FloatLit)
                    || toks.get(i + 1).is_some_and(|t| t.kind == TokKind::FloatLit)
                    // `x == -1.0`
                    || (toks.get(i + 1).is_some_and(|t| t.is_punct("-"))
                        && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::FloatLit));
                if float_neighbor {
                    out.push(finding(
                        file,
                        FLOAT_DISCIPLINE,
                        tok.line,
                        format!(
                            "`{}` against a float literal is exact-comparison; use a tolerance, \
                             `total_cmp`, or waive with the structural justification",
                            tok.text
                        ),
                    ));
                }
            }
            TokKind::Ident if tok.text == "NAN" => {
                let qualified = i >= 2
                    && toks.get(i - 1).is_some_and(|t| t.is_punct("::"))
                    && toks
                        .get(i - 2)
                        .is_some_and(|t| t.is_ident("f64") || t.is_ident("f32"));
                if qualified {
                    out.push(finding(
                        file,
                        FLOAT_DISCIPLINE,
                        tok.line,
                        "bare NaN literal in library code poisons downstream reductions; \
                         return a typed error or waive (e.g. deliberate failpoint corruption)"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// The one file that may name `rayon`: the `par` determinism seam, whose
/// helpers give every work item a fixed output slot.
const PAR_SEAM: &str = "crates/linalg/src/par.rs";

/// `feature-hygiene`: `rayon` is named only in [`PAR_SEAM`], and failpoint
/// *arming* must sit behind `failpoints`.
fn feature_hygiene(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if file.in_test_region(i) {
            continue;
        }
        if tok.is_ident("rayon") && file.rel_path != PAR_SEAM {
            out.push(finding(
                file,
                FEATURE_HYGIENE,
                tok.line,
                format!(
                    "`rayon` outside `{PAR_SEAM}` bypasses the determinism seam; \
                     call `cirstag_linalg::par` instead"
                ),
            ));
        }
        // Arming failpoints from library code would make production paths
        // injectable; the registry only exists behind the feature.
        if tok.kind == TokKind::Ident
            && matches!(tok.text.as_str(), "arm" | "arm_always")
            && prev_is(toks, i, "::")
            && toks.get(i.wrapping_sub(2)).is_some_and(|t| {
                t.is_ident("fail") || t.is_ident("failpoint") || t.is_ident("registry")
            })
            && file.kind == FileKind::Lib
        {
            let cfgs = file.cfgs_at(i);
            let failpoint_gated = cfgs.iter().any(|a| {
                let squeezed: String = a.chars().filter(|c| !c.is_whitespace()).collect();
                squeezed.contains("feature=\"failpoints\"")
            });
            if !failpoint_gated {
                out.push(finding(
                    file,
                    FEATURE_HYGIENE,
                    tok.line,
                    "failpoint arming outside `#[cfg(feature = \"failpoints\")]` makes \
                     production paths injectable"
                        .to_string(),
                ));
            }
        }
    }
}

/// `determinism`: forbids `HashMap`/`HashSet` (iteration order varies run to
/// run) and ambient entropy (`SystemTime`, `thread_rng`, …) in the
/// result-affecting crates.
fn determinism(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if file.in_test_region(i) || tok.kind != TokKind::Ident {
            continue;
        }
        match tok.text.as_str() {
            "HashMap" | "HashSet" => {
                out.push(finding(
                    file,
                    DETERMINISM,
                    tok.line,
                    format!(
                        "`{}` iteration order is randomized per process; use `BTreeMap`/sorted \
                         vec in result-affecting code, or waive if provably never iterated",
                        tok.text
                    ),
                ));
            }
            "SystemTime" | "thread_rng" | "from_entropy" => {
                debug_assert!(ENTROPY_IDENTS.contains(&tok.text.as_str()));
                out.push(finding(
                    file,
                    DETERMINISM,
                    tok.line,
                    format!(
                        "`{}` injects ambient entropy; thread all randomness through the \
                         seeded entry points (`CirStagConfig::seed`)",
                        tok.text
                    ),
                ));
            }
            "random"
                if prev_is(toks, i, "::")
                    && toks
                        .get(i.wrapping_sub(2))
                        .is_some_and(|t| t.is_ident("rand")) =>
            {
                out.push(finding(
                    file,
                    DETERMINISM,
                    tok.line,
                    "`rand::random` bypasses the seeded RNG plumbing".to_string(),
                ));
            }
            _ => {}
        }
    }
}

/// `cast-truncation`: forbids lossy `as` numeric casts in result-affecting
/// library code. `as` silently truncates (`u64 as u32`), wraps
/// (`i64 as u8`), or rounds (`f64 as f32`, float → int), any of which can
/// corrupt η-scores or rankings without a panic. Use `try_from` with a
/// typed error (or a saturating `unwrap_or`), a lossless `From`, or waive
/// with the range proof. `as f64` is exempt (see
/// [`TRUNCATING_CAST_TARGETS`]).
fn cast_truncation(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if file.in_test_region(i) || !tok.is_ident("as") {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if target.kind != TokKind::Ident || !TRUNCATING_CAST_TARGETS.contains(&target.text.as_str())
        {
            continue;
        }
        out.push(finding(
            file,
            CAST_TRUNCATION,
            tok.line,
            format!(
                "`as {0}` silently truncates/wraps out-of-range values; use \
                 `{0}::try_from(..)` so the failure is typed (or saturates \
                 explicitly), or waive with the range proof",
                target.text
            ),
        ));
    }
}

/// `error-hygiene`: a `pub fn` that returns `()` must not contain
/// `assert!`/`assert_eq!`/`assert_ne!`/`panic!` — invalid input should
/// surface as the crate's typed error, not a panic.
fn error_hygiene(file: &SourceFile, ctx: &WorkspaceCtx, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if file.in_test_region(i) || !toks[i].is_ident("pub") {
            i += 1;
            continue;
        }
        // `pub(crate)` / `pub(super)` are not public API.
        if next_is(toks, i, "(") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Allow `pub const fn`, `pub unsafe fn`, `pub async fn`.
        while toks
            .get(j)
            .is_some_and(|t| t.is_ident("const") || t.is_ident("unsafe") || t.is_ident("async"))
        {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_ident("fn")) {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(j + 1) else {
            break;
        };
        let fn_name = name_tok.text.clone();
        // Find the parameter list and skip to its closing paren.
        let Some(params_open) = find_punct_from(toks, j + 1, "(") else {
            break;
        };
        let Some(params_close) = matching_close(toks, params_open) else {
            break;
        };
        // Return type: any `->` before the body block means non-unit.
        let mut k = params_close + 1;
        let mut returns_unit = true;
        while let Some(t) = toks.get(k) {
            if t.is_punct("->") {
                returns_unit = false;
            }
            if t.is_punct("{") || t.is_punct(";") {
                break;
            }
            k += 1;
        }
        if !toks.get(k).is_some_and(|t| t.is_punct("{")) {
            // Trait method signature without body.
            i = k + 1;
            continue;
        }
        let body_open = k;
        let body_close = matching_close(toks, body_open).unwrap_or(toks.len());
        if returns_unit {
            for b in body_open..body_close {
                let t = match toks.get(b) {
                    Some(t) => t,
                    None => break,
                };
                if t.kind == TokKind::Ident
                    && ASSERT_MACROS.contains(&t.text.as_str())
                    && next_is(toks, b, "!")
                {
                    let hint = ctx
                        .error_type_of(&file.crate_name)
                        .map(|e| format!("return `Result<(), {e}>` using the crate's typed errors"))
                        .unwrap_or_else(|| "return a typed `Result` instead".to_string());
                    out.push(finding(
                        file,
                        ERROR_HYGIENE,
                        t.line,
                        format!(
                            "pub fn `{fn_name}` returns `()` but `{}!`s on invalid input; {hint}",
                            t.text
                        ),
                    ));
                }
            }
        }
        i = body_close.max(i + 1);
    }
}

/// `pub-doc`: every `pub` item (fn, struct, enum, trait, mod, const,
/// static, type, union, and named struct fields) in a result-affecting
/// crate must carry a doc comment — the public surface of these crates is
/// where numerical contracts (determinism, finiteness, accumulation order)
/// live, and an undocumented entry point is an unstated contract.
///
/// `pub(crate)`/`pub(super)` items are not public API and `pub use`
/// re-exports inherit their target's docs; both are exempt. Tuple-struct
/// fields are deliberately out of scope (their meaning is positional and
/// documented on the struct).
fn pub_doc(file: &SourceFile, out: &mut Vec<Finding>) {
    // Lines covered by attributes and by doc comments: walking upward from
    // a `pub` we skip attribute lines (`#[derive(..)]` sits between the doc
    // and the item) and accept the first doc-comment line.
    let mut attr_lines = std::collections::BTreeSet::new();
    for t in &file.tokens {
        if t.kind == TokKind::Attr {
            for l in t.line..=t.line + t.text.matches('\n').count() {
                attr_lines.insert(l);
            }
        }
    }
    let mut doc_lines = std::collections::BTreeSet::new();
    for c in &file.comments {
        if c.doc {
            for l in c.line..=c.line + c.text.matches('\n').count() {
                doc_lines.insert(l);
            }
        }
    }
    let toks = &file.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if file.in_test_region(i) || !toks[i].is_ident("pub") {
            i += 1;
            continue;
        }
        // `pub(crate)` / `pub(super)` are not public API.
        if next_is(toks, i, "(") {
            i += 1;
            continue;
        }
        // Skip qualifiers so `pub const fn f` reads as a fn while
        // `pub const F: u64` reads as a const item.
        let mut j = i + 1;
        let mut saw_const = false;
        while let Some(t) = toks.get(j) {
            let qualifier = match t.kind {
                TokKind::Ident => match t.text.as_str() {
                    "const" => {
                        saw_const = true;
                        true
                    }
                    "unsafe" | "async" | "extern" => true,
                    _ => false,
                },
                // The ABI string of `pub extern "C" fn`.
                TokKind::StrLit => true,
                _ => false,
            };
            if !qualifier {
                break;
            }
            j += 1;
        }
        let Some(kw) = toks.get(j) else {
            break;
        };
        let item = if kw.kind != TokKind::Ident {
            None
        } else {
            match kw.text.as_str() {
                // Out-of-line `pub mod name;` is exempt: its docs live as a
                // `//!` header inside the module's own file, which a
                // single-file lexical pass cannot see.
                "mod" if toks.get(j + 2).is_some_and(|t| t.is_punct(";")) => None,
                "fn" | "struct" | "enum" | "trait" | "mod" | "static" | "type" | "union" => toks
                    .get(j + 1)
                    .filter(|n| n.kind == TokKind::Ident)
                    .map(|n| format!("`{} {}`", kw.text, n.text)),
                // Re-exports inherit their target's documentation.
                "use" => None,
                _ if saw_const => Some(format!("`const {}`", kw.text)),
                // `pub name: Type` — a named struct field.
                _ if next_is(toks, j, ":") => Some(format!("field `{}`", kw.text)),
                _ => None,
            }
        };
        if let Some(desc) = item {
            let mut l = toks[i].line.saturating_sub(1);
            let documented = loop {
                if l == 0 {
                    break false;
                }
                if attr_lines.contains(&l) {
                    l -= 1;
                    continue;
                }
                break doc_lines.contains(&l);
            };
            if !documented {
                out.push(finding(
                    file,
                    PUB_DOC,
                    toks[i].line,
                    format!(
                        "{desc} is public API of a result-affecting crate but has no doc \
                         comment; document the contract (units, ranges, determinism) or \
                         reduce visibility"
                    ),
                ));
            }
        }
        i = j + 1;
    }
}

/// `unsafe-safety`: every `unsafe` block, fn, impl or trait must carry an
/// adjacent `// SAFETY:` comment with a non-empty rationale — same line, or
/// in the contiguous comment block directly above (attribute lines are
/// skipped, like `pub-doc` does). A doc comment with a `# Safety` section
/// also satisfies the rule for `unsafe fn` declarations. An empty rationale
/// (`// SAFETY:` with nothing after it) is its own finding.
fn unsafe_safety(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let mut attr_lines = std::collections::BTreeSet::new();
    for t in toks {
        if t.kind == TokKind::Attr {
            for l in t.line..=t.line + t.text.matches('\n').count() {
                attr_lines.insert(l);
            }
        }
    }
    // Per-line comment coverage (block comments span several lines).
    let mut comment_at = std::collections::BTreeMap::new();
    for (ci, c) in file.comments.iter().enumerate() {
        for l in c.line..=c.line + c.text.matches('\n').count() {
            comment_at.insert(l, ci);
        }
    }
    for (i, tok) in toks.iter().enumerate() {
        if file.in_test_region(i) || !tok.is_ident("unsafe") {
            continue;
        }
        let what = match toks.get(i + 1) {
            Some(t) if t.is_punct("{") => "unsafe block",
            Some(t) if t.is_ident("fn") => "unsafe fn",
            Some(t) if t.is_ident("impl") => "unsafe impl",
            Some(t) if t.is_ident("trait") => "unsafe trait",
            Some(t) if t.is_ident("extern") => "unsafe extern",
            _ => continue,
        };
        match safety_rationale(file, tok.line, &attr_lines, &comment_at) {
            None => out.push(finding(
                file,
                UNSAFE_SAFETY,
                tok.line,
                format!(
                    "{what} has no adjacent `// SAFETY:` comment; state the invariant that \
                     makes it sound (same line or the comment block directly above)"
                ),
            )),
            Some(rationale) if rationale.is_empty() => out.push(finding(
                file,
                UNSAFE_SAFETY,
                tok.line,
                format!(
                    "{what} has a `// SAFETY:` comment with an empty rationale; say *why* \
                     the invariant holds, not just that someone thought about it"
                ),
            )),
            Some(_) => {}
        }
    }
}

/// The rationale text of the `SAFETY:` comment adjacent to `line`, if one
/// exists: the text after `SAFETY:` plus any continuation comment lines
/// between it and the `unsafe` itself. `None` when no adjacent comment
/// mentions `SAFETY:` (or a doc `# Safety` section).
fn safety_rationale(
    file: &SourceFile,
    line: usize,
    attr_lines: &std::collections::BTreeSet<usize>,
    comment_at: &std::collections::BTreeMap<usize, usize>,
) -> Option<String> {
    // Comment indices of the adjacent block, nearest-to-`unsafe` first:
    // a trailing comment on the same line, then contiguous lines above.
    let mut block: Vec<usize> = Vec::new();
    if let Some(&ci) = comment_at.get(&line) {
        block.push(ci);
    }
    let mut l = line.saturating_sub(1);
    while l > 0 {
        if attr_lines.contains(&l) {
            l -= 1;
            continue;
        }
        if let Some(&ci) = comment_at.get(&l) {
            if block.last() != Some(&ci) {
                block.push(ci);
            }
            l = file.comments[ci].line.saturating_sub(1);
            continue;
        }
        break;
    }
    for (bi, &ci) in block.iter().enumerate() {
        let c = &file.comments[ci];
        if let Some(pos) = c.text.find("SAFETY:") {
            let mut rationale = c.text[pos + "SAFETY:".len()..].trim().to_string();
            // Continuation lines sit between the `SAFETY:` line and the
            // `unsafe` itself — the earlier entries of `block`.
            for &prior in block[..bi].iter().rev() {
                let t = file.comments[prior].text.trim();
                if !t.is_empty() {
                    if !rationale.is_empty() {
                        rationale.push(' ');
                    }
                    rationale.push_str(t);
                }
            }
            return Some(rationale);
        }
        if c.doc && c.text.contains("# Safety") {
            return Some("# Safety doc section".to_string());
        }
    }
    None
}

/// Methods whose call on a hash container exposes its randomized order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// `nondeterminism`: flags run-to-run-variable behavior in result-affecting
/// library code that the coarser `determinism` rule cannot see — iteration
/// over bindings *declared* as `HashMap`/`HashSet` (a keyed lookup is fine,
/// walking the table is not), wall-clock reads (`Instant::now`,
/// `.elapsed()`), thread identity (`ThreadId`, `thread::current`), and
/// thread-count reads inside `if`/`while`/`match` conditions (a branch on
/// pool width is exactly how "bit-identical at any thread count" breaks).
/// `SystemTime` stays the `determinism` rule's finding to avoid doubles.
fn nondeterminism(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let cond_spans = condition_spans(toks);
    let in_cond = |i: usize| cond_spans.iter().any(|&(s, e)| i >= s && i < e);
    let hash_bound = hash_container_names(toks);
    for (i, tok) in toks.iter().enumerate() {
        if file.in_test_region(i) || tok.kind != TokKind::Ident {
            continue;
        }
        match tok.text.as_str() {
            "Instant"
                if next_is(toks, i, "::") && toks.get(i + 2).is_some_and(|t| t.is_ident("now")) =>
            {
                out.push(finding(
                    file,
                    NONDETERMINISM,
                    tok.line,
                    "`Instant::now()` reads the wall clock; results must not depend on time \
                     (waive when the reading is diagnostics-only)"
                        .to_string(),
                ));
            }
            "elapsed" if prev_is(toks, i, ".") && next_is(toks, i, "(") => {
                out.push(finding(
                    file,
                    NONDETERMINISM,
                    tok.line,
                    "`.elapsed()` is a wall-clock read; results must not depend on time \
                     (waive when the reading is diagnostics-only)"
                        .to_string(),
                ));
            }
            "current_num_threads" | "available_parallelism" if in_cond(i) => {
                out.push(finding(
                    file,
                    NONDETERMINISM,
                    tok.line,
                    format!(
                        "branching on `{}` makes control flow depend on pool width; both \
                         branches must stay bit-identical (waive with that proof)",
                        tok.text
                    ),
                ));
            }
            "ThreadId" => {
                out.push(finding(
                    file,
                    NONDETERMINISM,
                    tok.line,
                    "`ThreadId` values differ run to run; results keyed or ordered by \
                     them are irreproducible"
                        .to_string(),
                ));
            }
            "current"
                if prev_is(toks, i, "::")
                    && toks
                        .get(i.wrapping_sub(2))
                        .is_some_and(|t| t.is_ident("thread")) =>
            {
                out.push(finding(
                    file,
                    NONDETERMINISM,
                    tok.line,
                    "`thread::current()` exposes thread identity; results must not depend \
                     on which worker ran the task"
                        .to_string(),
                ));
            }
            m if HASH_ITER_METHODS.contains(&m)
                && prev_is(toks, i, ".")
                && next_is(toks, i, "(")
                && toks
                    .get(i.wrapping_sub(2))
                    .is_some_and(|t| t.kind == TokKind::Ident && hash_bound.contains(&t.text)) =>
            {
                out.push(finding(
                    file,
                    NONDETERMINISM,
                    tok.line,
                    format!(
                        "`.{m}()` on `{}` iterates a hash container in randomized order; \
                         collect into a sorted structure first, or switch to `BTreeMap`",
                        toks[i - 2].text
                    ),
                ));
            }
            "in" => {
                // `for x in [&[mut]] NAME { .. }` over a hash binding.
                let mut j = i + 1;
                while toks
                    .get(j)
                    .is_some_and(|t| t.is_punct("&") || t.is_punct("&&") || t.is_ident("mut"))
                {
                    j += 1;
                }
                if let Some(name) = toks
                    .get(j)
                    .filter(|t| t.kind == TokKind::Ident && hash_bound.contains(&t.text))
                {
                    // Only a bare binding (next token opens the loop body);
                    // `name.keys()` etc. is the method arm's job.
                    if toks.get(j + 1).is_some_and(|t| t.is_punct("{")) {
                        out.push(finding(
                            file,
                            NONDETERMINISM,
                            tok.line,
                            format!(
                                "`for .. in {}` iterates a hash container in randomized \
                                 order; iterate a sorted view instead",
                                name.text
                            ),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
}

/// Token spans of `if`/`while`/`match` condition heads: from the keyword to
/// the `{` opening the body (nesting-aware, so closure braces inside call
/// arguments do not end the span early).
fn condition_spans(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if !(tok.is_ident("if") || tok.is_ident("while") || tok.is_ident("match")) {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        while let Some(t) = toks.get(j) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "{" => {
                        if depth <= 0 {
                            spans.push((i + 1, j));
                            break;
                        }
                        depth += 1;
                    }
                    ";" if depth <= 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
    }
    spans
}

/// Names *declared* as hash containers in this file: `let [mut] name =
/// HashMap::..` bindings and `name: [Wrapper<..>]Hash{Map,Set}<..>` type
/// ascriptions (fields, statics, params).
fn hash_container_names(toks: &[Token]) -> std::collections::BTreeSet<String> {
    let mut names = std::collections::BTreeSet::new();
    for (i, tok) in toks.iter().enumerate() {
        if !(tok.is_ident("HashMap") || tok.is_ident("HashSet")) {
            continue;
        }
        // Ascription: walk outward through path segments and wrapper
        // generics to a `name :` introducer.
        let mut j = i;
        let mut ascribed = false;
        loop {
            while j >= 2 && toks[j - 1].is_punct("::") && toks[j - 2].kind == TokKind::Ident {
                j -= 2;
            }
            let Some(k) = j.checked_sub(1) else { break };
            if toks[k].is_punct(":") {
                if let Some(name) = k
                    .checked_sub(1)
                    .and_then(|n| toks.get(n))
                    .filter(|t| t.kind == TokKind::Ident)
                {
                    names.insert(name.text.clone());
                    ascribed = true;
                }
                break;
            } else if toks[k].is_punct("<")
                && k >= 1
                && toks.get(k - 1).is_some_and(|t| t.kind == TokKind::Ident)
            {
                j = k - 1;
            } else {
                break;
            }
        }
        if ascribed {
            continue;
        }
        // Inferred binding: `let [mut] name = HashMap::new()` — scan back to
        // the `let` within this statement.
        for k in (0..i).rev() {
            let t = &toks[k];
            if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
                break;
            }
            if t.is_ident("let") {
                let mut n = k + 1;
                if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
                    n += 1;
                }
                if let Some(name) = toks.get(n).filter(|t| t.kind == TokKind::Ident) {
                    names.insert(name.text.clone());
                }
                break;
            }
        }
    }
    names
}

/// `true` when the token before `i` is punctuation `p`.
fn prev_is(toks: &[Token], i: usize, p: &str) -> bool {
    i > 0 && toks.get(i - 1).is_some_and(|t| t.is_punct(p))
}

/// `true` when the token after `i` is punctuation `p`.
fn next_is(toks: &[Token], i: usize, p: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(p))
}

/// Finds the next token with punct text `p` at or after `from`.
fn find_punct_from(toks: &[Token], from: usize, p: &str) -> Option<usize> {
    (from..toks.len()).find(|&k| toks.get(k).is_some_and(|t| t.is_punct(p)))
}

/// Index one past the bracket matching the opener at `open`.
fn matching_close(toks: &[Token], open: usize) -> Option<usize> {
    let (inc, dec) = match toks.get(open)?.text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return None,
    };
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == inc {
                depth += 1;
            } else if t.text == dec {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
    }
    None
}

/// Keywords that can precede `[` without forming an indexing expression.
fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "return" | "break" | "in" | "if" | "else" | "match" | "mut" | "ref" | "move" | "as"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::WorkspaceCtx;

    fn lint_lib(src: &str) -> Vec<Finding> {
        let f = SourceFile::from_source("crates/graph/src/x.rs", src);
        let mut out = Vec::new();
        run_all(&f, &WorkspaceCtx::default(), &mut out);
        out
    }

    #[test]
    fn unwrap_fires_unwrap_or_does_not() {
        let hits = lint_lib("fn f() { a.unwrap(); b.unwrap_or(0); c.unwrap_or_else(|| 1); }");
        assert_eq!(
            hits.iter().filter(|h| h.rule == NO_PANIC).count(),
            1,
            "{hits:?}"
        );
    }

    #[test]
    fn panic_macros_fire() {
        let hits = lint_lib("fn f() { panic!(\"boom\"); todo!(); }");
        assert_eq!(hits.iter().filter(|h| h.rule == NO_PANIC).count(), 2);
    }

    #[test]
    fn literal_indexing_fires_variable_indexing_does_not() {
        let hits = lint_lib("fn f(xs: &[u8], i: usize) { let a = xs[0]; let b = xs[i]; }");
        assert_eq!(hits.iter().filter(|h| h.rule == NO_PANIC).count(), 1);
    }

    #[test]
    fn array_type_and_literals_do_not_fire() {
        let hits =
            lint_lib("fn f() { let a: [u8; 4] = [0; 4]; let b = [1, 2]; let c = vec![0.0; 3]; }");
        // `vec![0.0; 3]` has `!` + `[` but prev token is `!`, not a value.
        assert!(hits.iter().all(|h| h.rule != NO_PANIC), "{hits:?}");
    }

    #[test]
    fn float_equality_fires() {
        let hits = lint_lib("fn f(x: f64) -> bool { x == 0.0 }");
        assert_eq!(
            hits.iter().filter(|h| h.rule == FLOAT_DISCIPLINE).count(),
            1
        );
    }

    #[test]
    fn integer_equality_does_not_fire() {
        let hits = lint_lib("fn f(x: usize) -> bool { x == 0 }");
        assert!(hits.iter().all(|h| h.rule != FLOAT_DISCIPLINE));
    }

    #[test]
    fn nan_literal_fires() {
        let hits = lint_lib("fn f() -> f64 { f64::NAN }");
        assert_eq!(
            hits.iter().filter(|h| h.rule == FLOAT_DISCIPLINE).count(),
            1
        );
    }

    #[test]
    fn ungated_rayon_fires() {
        let hits = lint_lib("pub fn go() { rayon::scope(|| {}); }");
        let hits: Vec<_> = hits.iter().filter(|h| h.rule == FEATURE_HYGIENE).collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains(PAR_SEAM), "{hits:?}");
    }

    #[test]
    fn rayon_in_par_seam_is_clean() {
        let f = SourceFile::from_source(PAR_SEAM, "pub fn go() { rayon::scope(|| {}); }\n");
        let mut hits = Vec::new();
        run_all(&f, &WorkspaceCtx::default(), &mut hits);
        assert!(hits.iter().all(|h| h.rule != FEATURE_HYGIENE), "{hits:?}");
    }

    #[test]
    fn cfg_gated_rayon_outside_par_seam_fires() {
        // A cfg gate and a serial fallback do not exempt a second seam.
        let src = "pub fn go() {\n    #[cfg(feature = \"threads\")]\n    {\n        rayon::scope(|| {});\n    }\n    #[cfg(not(feature = \"threads\"))]\n    {\n        serial();\n    }\n}\n";
        let hits = lint_lib(src);
        assert_eq!(hits.iter().filter(|h| h.rule == FEATURE_HYGIENE).count(), 1);
    }

    #[test]
    fn hashmap_fires_in_result_affecting_crate_only() {
        let in_graph = lint_lib("use std::collections::HashMap;\n");
        assert_eq!(in_graph.iter().filter(|h| h.rule == DETERMINISM).count(), 1);
        let f = SourceFile::from_source(
            "crates/circuit/src/parser.rs",
            "use std::collections::HashMap;\n",
        );
        let mut out = Vec::new();
        run_all(&f, &WorkspaceCtx::default(), &mut out);
        assert!(out.iter().all(|h| h.rule != DETERMINISM));
    }

    #[test]
    fn ambient_entropy_fires() {
        let hits = lint_lib("fn f() { let t = SystemTime::now(); }");
        assert_eq!(hits.iter().filter(|h| h.rule == DETERMINISM).count(), 1);
    }

    #[test]
    fn unit_pub_fn_with_assert_fires() {
        let hits = lint_lib("pub fn set(&mut self, i: usize) { assert!(i < self.n); }");
        assert_eq!(hits.iter().filter(|h| h.rule == ERROR_HYGIENE).count(), 1);
    }

    #[test]
    fn result_pub_fn_with_assert_is_exempt() {
        let hits = lint_lib(
            "pub fn set(&mut self, i: usize) -> Result<(), E> { assert!(i < self.n); Ok(()) }",
        );
        assert!(hits.iter().all(|h| h.rule != ERROR_HYGIENE));
    }

    #[test]
    fn debug_assert_is_exempt() {
        let hits = lint_lib("pub fn set(&mut self, i: usize) { debug_assert!(i < self.n); }");
        assert!(hits.iter().all(|h| h.rule != ERROR_HYGIENE));
    }

    #[test]
    fn private_fn_with_assert_is_exempt() {
        let hits =
            lint_lib("fn set(i: usize) { assert!(i < 4); }\npub(crate) fn g() { assert!(true); }");
        assert!(hits.iter().all(|h| h.rule != ERROR_HYGIENE));
    }

    #[test]
    fn truncating_casts_fire_but_as_f64_does_not() {
        let hits = lint_lib(
            "fn f(x: usize, y: f64) -> u32 { let a = x as u64; let b = y as f64; let c = y as f32; x as u32 }",
        );
        assert_eq!(
            hits.iter().filter(|h| h.rule == CAST_TRUNCATION).count(),
            3,
            "{hits:?}"
        );
    }

    #[test]
    fn cast_rule_skips_non_result_affecting_crates_and_tests() {
        let f = SourceFile::from_source(
            "crates/circuit/src/x.rs",
            "fn f(x: usize) -> u32 { x as u32 }",
        );
        let mut out = Vec::new();
        run_all(&f, &WorkspaceCtx::default(), &mut out);
        assert!(out.iter().all(|h| h.rule != CAST_TRUNCATION), "{out:?}");

        let hits = lint_lib(
            "fn lib_fn() {}\n#[cfg(test)]\nmod tests {\n    fn t(x: usize) -> u32 { x as u32 }\n}\n",
        );
        assert!(hits.iter().all(|h| h.rule != CAST_TRUNCATION), "{hits:?}");
    }

    #[test]
    fn use_alias_and_trait_casts_do_not_fire() {
        let hits = lint_lib(
            "use std::collections::BTreeMap as Map;\nfn f(x: &dyn std::fmt::Debug) { let _ = x as &dyn std::fmt::Debug; }",
        );
        assert!(hits.iter().all(|h| h.rule != CAST_TRUNCATION), "{hits:?}");
    }

    #[test]
    fn undocumented_pub_items_fire() {
        let hits = lint_lib("pub fn f() {}\npub struct S;\npub const N: usize = 4;\n");
        assert_eq!(
            hits.iter().filter(|h| h.rule == PUB_DOC).count(),
            3,
            "{hits:?}"
        );
    }

    #[test]
    fn documented_restricted_and_reexported_items_are_clean() {
        let src = "/// Docs.\npub fn f() {}\n\n/// A struct.\n#[derive(Debug)]\npub struct S {\n    /// A field.\n    pub x: usize,\n}\n\npub(crate) fn g() {}\npub use std::mem::swap;\n";
        let hits = lint_lib(src);
        assert!(hits.iter().all(|h| h.rule != PUB_DOC), "{hits:?}");
    }

    #[test]
    fn undocumented_pub_field_and_const_fn_fire() {
        let src = "/// A struct.\npub struct S {\n    pub x: usize,\n}\n/// Docs.\npub const fn f() -> usize { 1 }\npub const fn g() -> usize { 2 }\n";
        let hits = lint_lib(src);
        // The bare field and the undocumented `g`; the documented `const fn`
        // reads as a fn, not a const item.
        assert_eq!(
            hits.iter().filter(|h| h.rule == PUB_DOC).count(),
            2,
            "{hits:?}"
        );
    }

    #[test]
    fn pub_doc_skips_non_result_affecting_crates() {
        let f = SourceFile::from_source("crates/circuit/src/x.rs", "pub fn f() {}\n");
        let mut out = Vec::new();
        run_all(&f, &WorkspaceCtx::default(), &mut out);
        assert!(out.iter().all(|h| h.rule != PUB_DOC), "{out:?}");
    }

    #[test]
    fn test_modules_are_exempt_from_everything() {
        let src = "fn lib_fn() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); panic!(); let y = v[0]; let b = z == 0.0; }\n}\n";
        let hits = lint_lib(src);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn bin_files_exempt_from_lib_rules() {
        let f =
            SourceFile::from_source("crates/graph/src/bin/tool.rs", "fn main() { x.unwrap(); }");
        let mut out = Vec::new();
        run_all(&f, &WorkspaceCtx::default(), &mut out);
        assert!(out.is_empty());
    }
}
