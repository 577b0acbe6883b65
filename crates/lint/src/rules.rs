//! The eight workspace invariants.
//!
//! | Rule | Contract |
//! |------|----------|
//! | R1 | every non-test `unsafe` site carries a `SAFETY:` argument |
//! | R2 | every non-test atomic op carries an `// ordering:` justification, and when the comment names orderings, at least one must match what the code uses |
//! | R3 | no `unwrap()` / `expect()` / `panic!` in library code of the error-disciplined crates (typed `HccError` instead, or an allowlisted infallibility argument) |
//! | R4 | every crate root sets `#![deny(unsafe_op_in_unsafe_fn)]` |
//! | R5 | every `Cargo.lock` package resolves to the workspace or `vendor/` |
//! | R6 | every `Release` store of an atomic field pairs with ≥1 `Acquire`/`AcqRel` load of the same field in the same crate (and vice versa) — resolved across files |
//! | R7 | every raw-pointer / `UnsafeCell` region carries a `SHARED:` comment naming the shared cells it touches; the named cells must be atomics, lock-protected, or documented single-writer |
//! | R8 | no `SeqCst` and no `static mut`, ever — not allowlistable |
//!
//! R1–R3 and R7–R8 run on the lexed lines from [`crate::source`]; test
//! regions are exempt (asserting in tests is the point of tests). R3
//! additionally skips `src/bin/`: a binary's `main` may abort with a
//! message, the *library* surface must return typed errors. R6 is a
//! cross-file protocol rule: [`collect_atomic_ops`] gathers the per-file
//! evidence and [`check_release_acquire_pairing`] judges each crate.

use crate::source::Line;

/// Crates whose library code must stay panic-free (R3). These carry the
/// typed `HccError`/`CommError`/`ServeError`/`SparseError` taxonomies,
/// plus the simulator every quoted timing shape comes from; `bench` is an
/// experiment driver where abort-on-bug is acceptable. `sync` stays out: its three `expect`s are the model
/// checker's deliberate misuse panics (a model type used outside
/// `explore`, a store history without its initial store).
pub const R3_CRATES: &[&str] = &[
    "sgd",
    "comm",
    "core",
    "serve",
    "telemetry",
    "partition",
    "hetsim",
    "sparse",
];

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// `R1`…`R5`, or `CFG` for lint-configuration problems.
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-indexed line number (0 for whole-file findings).
    pub line: usize,
    pub message: String,
    /// Raw source line text (what allowlist `contains` matches against).
    pub line_text: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Runs R1–R3 over one lexed file. `raw_lines` are the original source
/// lines (for allowlist matching and diagnostics).
pub fn check_file(path: &str, lines: &[Line], raw_lines: &[&str]) -> Vec<Violation> {
    let mut out = Vec::new();
    check_unsafe_comments(path, lines, raw_lines, &mut out);
    check_atomic_orderings(path, lines, raw_lines, &mut out);
    if r3_applies(path) {
        check_panic_freedom(path, lines, raw_lines, &mut out);
    }
    check_shared_cells(path, lines, raw_lines, &mut out);
    check_static_mut(path, lines, raw_lines, &mut out);
    out
}

/// R4 over a crate root's source text.
pub fn check_crate_root(path: &str, source: &str) -> Vec<Violation> {
    let lines = crate::source::lex(source);
    let has_deny = lines.iter().any(|l| {
        let code: String = l.code.chars().filter(|c| !c.is_whitespace()).collect();
        code.contains("#![deny(unsafe_op_in_unsafe_fn)]")
            || code.contains("#![forbid(unsafe_op_in_unsafe_fn)]")
    });
    if has_deny {
        Vec::new()
    } else {
        vec![Violation {
            rule: "R4",
            path: path.to_string(),
            line: 1,
            message: "crate root must set #![deny(unsafe_op_in_unsafe_fn)]".into(),
            line_text: String::new(),
        }]
    }
}

/// R5: every `[[package]]` in `Cargo.lock` must be a workspace or vendor
/// crate (`known_names`) and must not name a registry `source`.
pub fn check_lockfile(lock_text: &str, known_names: &[String]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut name: Option<(String, usize)> = None;
    let flush = |name: &mut Option<(String, usize)>, out: &mut Vec<Violation>| {
        if let Some((n, line)) = name.take() {
            if !known_names.contains(&n) {
                out.push(Violation {
                    rule: "R5",
                    path: "Cargo.lock".into(),
                    line,
                    message: format!("package `{n}` resolves to neither the workspace nor vendor/"),
                    line_text: format!("name = \"{n}\""),
                });
            }
        }
    };
    for (idx, raw) in lock_text.lines().enumerate() {
        let line = raw.trim();
        if line == "[[package]]" {
            flush(&mut name, &mut out);
        } else if let Some(v) = line.strip_prefix("name = ") {
            name = Some((v.trim_matches('"').to_string(), idx + 1));
        } else if let Some(v) = line.strip_prefix("source = ") {
            let n = name
                .as_ref()
                .map(|(n, _)| n.clone())
                .unwrap_or_else(|| "<unnamed>".into());
            out.push(Violation {
                rule: "R5",
                path: "Cargo.lock".into(),
                line: idx + 1,
                message: format!(
                    "package `{n}` pulls from external source {} — vendor it",
                    v.trim_matches('"')
                ),
                line_text: line.to_string(),
            });
        }
    }
    flush(&mut name, &mut out);
    out
}

fn r3_applies(path: &str) -> bool {
    R3_CRATES.iter().any(|c| {
        path.strip_prefix(&format!("crates/{c}/src/"))
            .is_some_and(|rest| !rest.starts_with("bin/"))
    })
}

// ---- R1 ----------------------------------------------------------------

fn check_unsafe_comments(path: &str, lines: &[Line], raw_lines: &[&str], out: &mut Vec<Violation>) {
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test || !has_word(&line.code, "unsafe") {
            continue;
        }
        if !justified(lines, idx, &["SAFETY:", "# Safety"], |l| {
            has_word(&l.code, "unsafe")
        }) {
            out.push(Violation {
                rule: "R1",
                path: path.to_string(),
                line: idx + 1,
                message: "`unsafe` without an immediately preceding `// SAFETY:` argument".into(),
                line_text: raw_text(raw_lines, idx),
            });
        }
    }
}

// ---- R2 ----------------------------------------------------------------

const ATOMIC_METHODS: &[&str] = &[
    ".load(",
    ".store(",
    ".swap(",
    ".fetch_",
    ".compare_exchange",
    "fence(",
];

fn is_atomic_line(line: &Line) -> bool {
    line.code.contains("Ordering::") && ATOMIC_METHODS.iter().any(|m| line.code.contains(m))
}

/// Ordering names R2 cross-checks between comment and code.
const ORDERING_NAMES: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn orderings_named(text: &str) -> Vec<&'static str> {
    ORDERING_NAMES
        .iter()
        .filter(|n| has_word(text, n))
        .copied()
        .collect()
}

fn check_atomic_orderings(
    path: &str,
    lines: &[Line],
    raw_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test || !is_atomic_line(line) {
            continue;
        }
        if line.code.contains("Ordering::SeqCst") {
            out.push(Violation {
                rule: "R8",
                path: path.to_string(),
                line: idx + 1,
                message: "SeqCst ordering is banned: downgrade to the weakest sufficient \
                          ordering (R8 is not allowlistable)"
                    .into(),
                line_text: raw_text(raw_lines, idx),
            });
            continue;
        }
        match justification(lines, idx, &["ordering:"], is_atomic_line) {
            None => out.push(Violation {
                rule: "R2",
                path: path.to_string(),
                line: idx + 1,
                message: "atomic operation without an `// ordering:` justification on the same \
                          or a preceding line"
                    .into(),
                line_text: raw_text(raw_lines, idx),
            }),
            Some(comment) => {
                // A justification that names orderings must name the one the
                // code actually uses — a comment saying `Release` above a
                // Relaxed store documents a protocol the code doesn't run.
                let named = orderings_named(&comment);
                let used = orderings_named(&line.code);
                if !named.is_empty() && !named.iter().any(|n| used.contains(n)) {
                    out.push(Violation {
                        rule: "R2",
                        path: path.to_string(),
                        line: idx + 1,
                        message: format!(
                            "ordering comment names {} but the code uses {} — the \
                             justification no longer matches the operation",
                            named.join("/"),
                            used.join("/")
                        ),
                        line_text: raw_text(raw_lines, idx),
                    });
                }
            }
        }
    }
}

// ---- R6 ----------------------------------------------------------------

/// One atomic operation with synchronizing semantics, as evidence for the
/// crate-wide Release/Acquire pairing check.
#[derive(Debug, Clone)]
pub struct AtomicOp {
    pub path: String,
    /// 1-indexed source line.
    pub line: usize,
    pub line_text: String,
    /// Receiver field key: the final identifier of the receiver chain with
    /// index brackets stripped (`self.beats[i].store(..)` → `beats`).
    pub field: String,
    /// Publishes (Release or AcqRel store/RMW side).
    pub releases: bool,
    /// Consumes (Acquire or AcqRel load/RMW side).
    pub acquires: bool,
}

/// Gathers the R6 evidence from one lexed file: every non-test atomic op
/// carrying Release/Acquire/AcqRel semantics whose receiver field can be
/// named. `fence(..)` and free-standing calls without a receiver are
/// skipped — they have no field to pair on.
pub fn collect_atomic_ops(path: &str, lines: &[Line], raw_lines: &[&str]) -> Vec<AtomicOp> {
    let mut ops = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test || !is_atomic_line(line) || line.code.contains("Ordering::SeqCst") {
            continue;
        }
        let code = &line.code;
        let Some((method, pos)) = ATOMIC_METHODS
            .iter()
            .filter(|m| **m != "fence(")
            .filter_map(|m| code.find(*m).map(|p| (*m, p)))
            .min_by_key(|&(_, p)| p)
        else {
            continue;
        };
        let Some(field) = receiver_field(code, pos) else {
            continue;
        };
        let rel = has_word(code, "Release") || has_word(code, "AcqRel");
        let acq = has_word(code, "Acquire") || has_word(code, "AcqRel");
        let (releases, acquires) = match method {
            ".load(" => (false, acq),
            ".store(" => (rel, false),
            // RMWs read-modify-write: Release publishes, Acquire consumes,
            // AcqRel does both (and so pairs with its own kind).
            _ => (rel, acq),
        };
        if releases || acquires {
            ops.push(AtomicOp {
                path: path.to_string(),
                line: idx + 1,
                line_text: raw_text(raw_lines, idx),
                field,
                releases,
                acquires,
            });
        }
    }
    ops
}

/// R6 judgement over one crate's collected ops: every field written with
/// Release semantics must be read with Acquire semantics somewhere in the
/// crate, and vice versa. An unpaired side means the protocol's other half
/// is missing — or lives in another crate, which the rule deliberately
/// rejects (cross-crate protocols must keep both halves visible to one
/// reviewer; split them behind an API instead).
pub fn check_release_acquire_pairing(ops: &[AtomicOp]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut fields: Vec<&str> = ops.iter().map(|o| o.field.as_str()).collect();
    fields.sort_unstable();
    fields.dedup();
    for field in fields {
        let has_rel = ops.iter().any(|o| o.field == field && o.releases);
        let has_acq = ops.iter().any(|o| o.field == field && o.acquires);
        if has_rel && !has_acq {
            for o in ops.iter().filter(|o| o.field == field && o.releases) {
                out.push(Violation {
                    rule: "R6",
                    path: o.path.clone(),
                    line: o.line,
                    message: format!(
                        "Release store to `{field}` has no paired Acquire/AcqRel load of the \
                         same field in this crate — the publish edge dangles"
                    ),
                    line_text: o.line_text.clone(),
                });
            }
        }
        if has_acq && !has_rel {
            for o in ops.iter().filter(|o| o.field == field && o.acquires) {
                out.push(Violation {
                    rule: "R6",
                    path: o.path.clone(),
                    line: o.line,
                    message: format!(
                        "Acquire load of `{field}` has no paired Release/AcqRel store of the \
                         same field in this crate — nothing publishes what it consumes"
                    ),
                    line_text: o.line_text.clone(),
                });
            }
        }
    }
    out
}

/// Walks backwards from the method call at `pos` over the receiver chain
/// (identifiers, `.`, balanced `[..]` index groups) and returns the final
/// field identifier, or `None` when no receiver precedes the call.
fn receiver_field(code: &str, pos: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = pos;
    let start;
    loop {
        if i == 0 {
            start = 0;
            break;
        }
        let b = bytes[i - 1];
        if is_ident(b) || b == b'.' {
            i -= 1;
        } else if b == b']' {
            // Skip the balanced index group.
            let mut depth = 0usize;
            let mut j = i;
            loop {
                if j == 0 {
                    return None; // unbalanced — give up on this line
                }
                j -= 1;
                match bytes[j] {
                    b']' => depth += 1,
                    b'[' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            i = j;
        } else {
            start = i;
            break;
        }
    }
    // Strip index groups so `beats[i]` keys as `beats`.
    let mut chain = String::new();
    let mut depth = 0usize;
    for c in code[start..pos].chars() {
        match c {
            '[' => depth += 1,
            ']' => depth = depth.saturating_sub(1),
            _ if depth == 0 => chain.push(c),
            _ => {}
        }
    }
    let field = chain.rsplit('.').find(|seg| {
        !seg.is_empty() && seg.bytes().all(is_ident) && !seg.bytes().all(|b| b.is_ascii_digit())
    })?;
    Some(field.to_string())
}

// ---- R7 ----------------------------------------------------------------

/// Tokens marking a type as a legitimately shared cell for R7: the comment
/// must name something declared with one of these (or documented as
/// `single-writer` in a nearby comment).
const SHARED_TYPE_TOKENS: &[&str] = &[
    "Atomic",
    "UnsafeCell",
    "MCell",
    "Mutex",
    "RwLock",
    "*mut",
    "*const",
];

fn is_raw_shared_line(line: &Line) -> bool {
    // Cast expressions (`x.add(j) as *const __m128i`) re-type a pointer the
    // region already holds; the annotation belongs where the pointer enters
    // the region — signatures, fields, bindings — so casts don't trigger.
    let code = line
        .code
        .replace("as *mut ", "as ")
        .replace("as *const ", "as ");
    code.contains("*mut ") || code.contains("*const ") || code.contains("UnsafeCell<")
}

/// True when `name` is declared or documented as a shared cell somewhere in
/// the file: a line using the identifier with an atomic / cell / lock /
/// raw-pointer type, or a comment documenting it as `single-writer`.
fn names_shared_cell(name: &str, lines: &[Line]) -> bool {
    lines.iter().any(|l| {
        (has_word(&l.code, name) && SHARED_TYPE_TOKENS.iter().any(|t| l.code.contains(t)))
            || (l.comment.contains("single-writer") && has_word(&l.comment, name))
    })
}

fn check_shared_cells(path: &str, lines: &[Line], raw_lines: &[&str], out: &mut Vec<Violation>) {
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test || !is_raw_shared_line(line) {
            continue;
        }
        match justification(lines, idx, &["SHARED:"], is_raw_shared_line) {
            None => out.push(Violation {
                rule: "R7",
                path: path.to_string(),
                line: idx + 1,
                message: "raw-pointer / UnsafeCell region without a `// SHARED:` comment \
                          naming the shared cells it touches"
                    .into(),
                line_text: raw_text(raw_lines, idx),
            }),
            Some(comment) => {
                let after = comment.split("SHARED:").nth(1).unwrap_or("").to_string();
                let named_ok = idents_of(&after).any(|id| names_shared_cell(id, lines));
                if !named_ok {
                    out.push(Violation {
                        rule: "R7",
                        path: path.to_string(),
                        line: idx + 1,
                        message: "`SHARED:` comment names no recognizable shared cell — name \
                                  the atomics, cells, or documented single-writer fields the \
                                  region touches"
                            .into(),
                        line_text: raw_text(raw_lines, idx),
                    });
                }
            }
        }
    }
}

/// Identifier tokens of `text`, longest-first order of appearance.
fn idents_of(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|s| !s.is_empty() && !s.bytes().all(|b| b.is_ascii_digit()))
}

// ---- R8 (static mut half; the SeqCst half lives in R2's scanner) -------

fn check_static_mut(path: &str, lines: &[Line], raw_lines: &[&str], out: &mut Vec<Violation>) {
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if line.code.contains("static mut ") {
            out.push(Violation {
                rule: "R8",
                path: path.to_string(),
                line: idx + 1,
                message: "`static mut` is banned: use an atomic, a lock, or OnceLock (R8 is \
                          not allowlistable)"
                    .into(),
                line_text: raw_text(raw_lines, idx),
            });
        }
    }
}

// ---- R3 ----------------------------------------------------------------

fn check_panic_freedom(path: &str, lines: &[Line], raw_lines: &[&str], out: &mut Vec<Violation>) {
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (needle, what) in [
            (".unwrap()", "unwrap()"),
            (".expect(", "expect()"),
            ("panic!", "panic!"),
        ] {
            let hit = if needle == "panic!" {
                has_word(&line.code, "panic")
                    && line.code.contains("panic!")
                    && !line.code.contains("debug_assert")
            } else {
                line.code.contains(needle)
            };
            if hit {
                out.push(Violation {
                    rule: "R3",
                    path: path.to_string(),
                    line: idx + 1,
                    message: format!(
                        "{what} in library code — return a typed error, or allowlist with a \
                         written infallibility argument"
                    ),
                    line_text: raw_text(raw_lines, idx),
                });
            }
        }
    }
}

// ---- shared helpers ----------------------------------------------------

fn raw_text(raw_lines: &[&str], idx: usize) -> String {
    raw_lines
        .get(idx)
        .map(|s| s.to_string())
        .unwrap_or_default()
}

/// Token search that won't match inside identifiers
/// (`unsafe_op_in_unsafe_fn` does not contain the word `unsafe`).
fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let pre_ok = start == 0 || !is_ident(bytes[start - 1]);
        let post_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// True when line `idx` carries one of `needles` in a comment on the same
/// line or a preceding justification line (see [`justification`]).
fn justified(
    lines: &[Line],
    idx: usize,
    needles: &[&str],
    grouped: impl Fn(&Line) -> bool,
) -> bool {
    justification(lines, idx, needles, grouped).is_some()
}

/// Finds the justification comment for line `idx`: a comment containing
/// one of `needles` on the same line, or on a preceding line reachable by
/// walking up through comments, attributes, unterminated statement
/// continuations, and lines for which `grouped` holds (so one
/// justification can head a run of related statements, e.g. a block of
/// atomic loads). Returns the matching comment's full text, extended with
/// any comment lines directly below it (a justification may wrap).
fn justification(
    lines: &[Line],
    idx: usize,
    needles: &[&str],
    grouped: impl Fn(&Line) -> bool,
) -> Option<String> {
    let hit = |l: &Line| needles.iter().any(|n| l.comment.contains(n));
    // Gathers the comment at `i` plus immediately following comment-only
    // lines, so a wrapped justification is judged as one text.
    let gather = |i: usize| {
        let mut text = lines[i].comment.clone();
        let mut j = i + 1;
        while j <= idx && lines[j].code.trim().is_empty() && !lines[j].comment.is_empty() {
            text.push(' ');
            text.push_str(&lines[j].comment);
            j += 1;
        }
        text
    };
    if hit(&lines[idx]) {
        return Some(gather(idx));
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        let code = l.code.trim();
        if hit(l) {
            return Some(gather(i));
        }
        let loop_header = code.ends_with('{')
            && ["for ", "while ", "loop", "for(", "while("]
                .iter()
                .any(|kw| code.starts_with(kw));
        let is_passthrough = code.is_empty() // comment-only or blank line
            || code.starts_with("#[")        // attribute
            || grouped(l)                    // same-kind statement run
            // A justification may sit just above the loop that repeats
            // the annotated operation.
            || loop_header
            // A line that doesn't end a statement/block is a continuation
            // of the statement we started on.
            || !(code.ends_with(';') || code.ends_with('{') || code.ends_with('}'));
        if !is_passthrough {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lex;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        let lines = lex(src);
        let raw: Vec<&str> = src.lines().collect();
        check_file(path, &lines, &raw)
    }

    #[test]
    fn r1_requires_safety_comment() {
        let bad = "fn f() { unsafe { g() } }\n";
        let good = "// SAFETY: g has no preconditions here\nfn f() { unsafe { g() } }\n";
        let trailing = "fn f() { unsafe { g() } } // SAFETY: fine\n";
        assert_eq!(check("crates/sgd/src/x.rs", bad).len(), 1);
        assert!(check("crates/sgd/src/x.rs", good).is_empty());
        assert!(check("crates/sgd/src/x.rs", trailing).is_empty());
    }

    #[test]
    fn r1_accepts_doc_safety_section_for_unsafe_fns() {
        let src =
            "/// Does things.\n///\n/// # Safety\n/// Caller upholds X.\npub(crate) unsafe fn f() {}\n";
        assert!(check("crates/sgd/src/x.rs", src).is_empty());
    }

    #[test]
    fn r2_requires_ordering_comment_and_r8_flags_seqcst() {
        let bad = "fn f(a: &A) { a.n.store(1, Ordering::Relaxed); }\n";
        let good = "fn f(a: &A) {\n    // ordering: Relaxed — stat counter\n    a.n.store(1, Ordering::Relaxed);\n}\n";
        let seqcst = "fn f(a: &A) {\n    // ordering: belt and braces\n    a.n.store(1, Ordering::SeqCst);\n}\n";
        assert_eq!(check("crates/comm/src/x.rs", bad).len(), 1);
        assert!(check("crates/comm/src/x.rs", good).is_empty());
        let v = check("crates/comm/src/x.rs", seqcst);
        assert_eq!(v.len(), 1, "SeqCst is banned even with a comment");
        assert_eq!(v[0].rule, "R8");
        assert!(v[0].message.contains("SeqCst"));
    }

    #[test]
    fn r2_rejects_comment_naming_a_different_ordering() {
        let mismatched = "fn f(a: &A) {\n    // ordering: Release — publishes the row\n    a.n.store(1, Ordering::Relaxed);\n}\n";
        let v = check("crates/comm/src/x.rs", mismatched);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v[0].rule, "R2");
        assert!(v[0].message.contains("Release"), "{}", v[0].message);
        assert!(v[0].message.contains("Relaxed"), "{}", v[0].message);
        // Naming the partner ordering alongside the real one is fine…
        let paired = "fn f(a: &A) {\n    // ordering: Release — pairs with the Acquire load\n    a.n.store(1, Ordering::Release);\n}\n";
        assert!(check("crates/comm/src/x.rs", paired).is_empty());
        // …and a comment naming no ordering at all still counts as R2
        // justification (it may explain by reference, e.g. \"see above\").
        let nameless = "fn f(a: &A) {\n    // ordering: same protocol as the ring header\n    a.n.store(1, Ordering::Relaxed);\n}\n";
        assert!(check("crates/comm/src/x.rs", nameless).is_empty());
    }

    #[test]
    fn r6_pairs_release_stores_with_acquire_loads_across_files() {
        let writer = "fn w(a: &A) {\n    // ordering: Release — publishes\n    a.seq.store(1, Ordering::Release);\n}\n";
        let reader = "fn r(a: &A) -> u64 {\n    // ordering: Acquire — consumes\n    a.seq.load(Ordering::Acquire)\n}\n";
        let collect = |path: &str, src: &str| {
            let lines = lex(src);
            let raw: Vec<&str> = src.lines().collect();
            collect_atomic_ops(path, &lines, &raw)
        };
        // Both halves present (in different files): clean.
        let mut ops = collect("crates/x/src/w.rs", writer);
        ops.extend(collect("crates/x/src/r.rs", reader));
        assert!(check_release_acquire_pairing(&ops).is_empty());
        // Writer alone: the publish edge dangles.
        let ops = collect("crates/x/src/w.rs", writer);
        let v = check_release_acquire_pairing(&ops);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v[0].rule, "R6");
        assert!(v[0].message.contains("seq"), "{}", v[0].message);
        // Reader alone: nothing publishes what it consumes.
        let ops = collect("crates/x/src/r.rs", reader);
        let v = check_release_acquire_pairing(&ops);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(v[0].message.contains("publishes"), "{}", v[0].message);
        // An AcqRel RMW is both halves at once: it pairs with itself.
        let rmw = "fn m(a: &A) {\n    // ordering: AcqRel — last decrement elects the merger\n    a.left.fetch_sub(1, Ordering::AcqRel);\n}\n";
        let ops = collect("crates/x/src/m.rs", rmw);
        assert!(check_release_acquire_pairing(&ops).is_empty());
    }

    #[test]
    fn r6_field_keys_strip_receivers_and_index_brackets() {
        let src = "fn f(s: &S, i: usize) {\n    // ordering: Release — publish slot\n    s.inner.beats[i].store(1, Ordering::Release);\n    // ordering: Acquire — consume slot\n    let _ = self.beats[i + 1].load(Ordering::Acquire);\n}\n";
        let lines = lex(src);
        let raw: Vec<&str> = src.lines().collect();
        let ops = collect_atomic_ops("crates/x/src/f.rs", &lines, &raw);
        assert_eq!(ops.len(), 2, "{ops:#?}");
        assert!(ops.iter().all(|o| o.field == "beats"), "{ops:#?}");
        assert!(check_release_acquire_pairing(&ops).is_empty());
    }

    #[test]
    fn r7_requires_shared_comment_naming_a_shared_cell() {
        let bare = "pub struct R {\n    buf: UnsafeCell<Vec<u8>>,\n}\n";
        let v = check("crates/x/src/r.rs", bare);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v[0].rule, "R7");
        let named = "pub struct R {\n    // SHARED: buf — single consumer drains; producers only\n    // append through the atomic len handshake.\n    buf: UnsafeCell<Vec<u8>>,\n}\n";
        assert!(check("crates/x/src/r.rs", named).is_empty());
        let vague =
            "pub struct R {\n    // SHARED: everything is fine\n    buf: UnsafeCell<Vec<u8>>,\n}\n";
        let v = check("crates/x/src/r.rs", vague);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(v[0].message.contains("names no"), "{}", v[0].message);
        // `single-writer` documentation makes a plain field nameable.
        let single_writer = "// Row `head` is single-writer: only the drain thread moves it.\n// SHARED: head — see the single-writer note above\npub fn f(head: *mut u32) {\n    let _ = head;\n}\n";
        assert!(check("crates/x/src/s.rs", single_writer).is_empty());
    }

    #[test]
    fn r8_flags_static_mut() {
        let src = "static mut COUNTER: u64 = 0;\n";
        let v = check("crates/x/src/g.rs", src);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v[0].rule, "R8");
        assert!(v[0].message.contains("static mut"), "{}", v[0].message);
    }

    #[test]
    fn r2_one_comment_heads_a_run_of_atomics() {
        let src = "fn f(a: &A) {\n    // ordering: Relaxed — cells are independent\n    let x = a.p.load(Ordering::Relaxed);\n    a.q.store(x, Ordering::Relaxed);\n}\n";
        assert!(check("crates/sgd/src/x.rs", src).is_empty());
    }

    #[test]
    fn r3_flags_panics_only_in_listed_crates_outside_tests_and_bins() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert_eq!(check("crates/core/src/x.rs", src).len(), 1);
        assert_eq!(check("crates/hetsim/src/engine.rs", src).len(), 1);
        assert_eq!(check("crates/sparse/src/grid.rs", src).len(), 1);
        assert!(check("crates/bench/src/x.rs", src).is_empty());
        assert!(check("crates/core/src/bin/hcc.rs", src).is_empty());
        let not_really = "fn f() { x.unwrap_or(3); no_panic(); }\n";
        assert!(check("crates/core/src/x.rs", not_really).is_empty());
    }

    #[test]
    fn r4_detects_missing_deny_attr() {
        assert_eq!(
            check_crate_root("crates/x/src/lib.rs", "//! doc\n").len(),
            1
        );
        assert!(check_crate_root(
            "crates/x/src/lib.rs",
            "//! doc\n#![deny(unsafe_op_in_unsafe_fn)]\n"
        )
        .is_empty());
    }

    #[test]
    fn r5_flags_external_sources_and_unknown_packages() {
        let lock = "[[package]]\nname = \"hcc-sgd\"\nversion = \"0.1.0\"\n\n[[package]]\nname = \"libc\"\nversion = \"0.2.0\"\nsource = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
        let known = vec!["hcc-sgd".to_string()];
        let v = check_lockfile(lock, &known);
        // libc: unknown package AND external source.
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "R5"));
    }
}
