//! The lexer-level rules: ACT001–ACT005 (ported unchanged from the PR 2
//! `xtask` harness so rule IDs, positions and exemptions stay stable) plus
//! ACT012, the thread-pool-bypass rule.
//!
//! These rules are genuinely textual — a banned literal, a `.unwrap()`
//! token or a `thread::spawn(` call needs no structure — so they run on
//! the scrubbed source directly rather than the AST, and keep their
//! original `#[cfg(test)]`-region tracking.

use crate::lexer::scrub;
use crate::Finding;

/// Byte ranges of `#[cfg(test)]` items in scrubbed source: from the
/// attribute to the matching close brace of the item it gates (or to the
/// terminating `;` for brace-less items like `use`).
#[must_use]
pub fn test_regions(scrubbed: &str) -> Vec<(usize, usize)> {
    let b = scrubbed.as_bytes();
    let mut regions = Vec::new();
    let mut from = 0;
    while let Some(pos) = scrubbed[from..].find("#[cfg(test)]") {
        let start = from + pos;
        let mut i = start + "#[cfg(test)]".len();
        let mut depth = 0usize;
        let end = loop {
            if i >= b.len() {
                break b.len();
            }
            match b[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break i + 1;
                    }
                }
                b';' if depth == 0 => break i + 1,
                _ => {}
            }
            i += 1;
        };
        regions.push((start, end));
        from = end;
    }
    regions
}

fn in_regions(regions: &[(usize, usize)], offset: usize) -> bool {
    regions.iter().any(|&(s, e)| offset >= s && offset < e)
}

/// Crates that own the raw-`f64` boundary and the paper constants.
fn is_unit_home(path: &str) -> bool {
    path.starts_with("crates/units/") || path.starts_with("crates/data/")
}

/// The CLI binary is allowed to panic at top level (ACT002 exemption).
fn is_cli_binary(path: &str) -> bool {
    path.starts_with("crates/cli/src/")
}

/// ACT012 targets library crates: raw `thread::spawn`/`thread::scope`
/// there bypasses the `act_dse` worker pool, so the spawn cost,
/// `ACT_THREADS` cap and break-even rule stop applying.
/// Exempt: the pool engine itself (`crates/dse/src/pool.rs`,
/// `crates/dse/src/parallel.rs`), the server shell (its accept loop and
/// I/O workers are connection plumbing, not sweep compute), the CLI
/// binary, and bench harnesses.
fn act012_exempt(path: &str) -> bool {
    !path.starts_with("crates/")
        || !path.contains("/src/")
        || path == "crates/dse/src/pool.rs"
        || path == "crates/dse/src/parallel.rs"
        || path.starts_with("crates/server/")
        || path.starts_with("crates/cli/")
        || path.starts_with("crates/bench/")
}

/// Unit-conversion / paper constants that must come from the named
/// constants in `act-units` / `act-data` instead of being retyped.
const BANNED_LITERALS: [&str; 7] =
    ["3600.0", "86400.0", "31536000.0", "3.6e6", "3.6e+6", "8760.0", "1024.0"];

const MSG_ACT001: &str = "`.base()` escapes the typed-unit layer; \
     use a named `as_*` accessor or keep the arithmetic in `Quantity` space";
const MSG_ACT002: &str = "`unwrap()`/`expect()` in library code; \
     return an error (`UnitError` taxonomy) or use a checked fallback";
const MSG_ACT003: &str = "unit-conversion constant retyped as a literal; \
     use the named constant from `act-units`/`act-data`";
const MSG_ACT004: &str = "infallible `from_base` outside the unit-definition crates; \
     use `try_from_base` at model boundaries";
const MSG_ACT005: &str = "debug/stub macro left in source";
const MSG_ACT012: &str = "direct `thread::spawn`/`thread::scope` in a library crate \
     bypasses the `act_dse` worker pool; route parallel work through \
     `act_dse::par_map_range` or the block engine so the break-even rule and \
     `ACT_THREADS` apply";

/// Runs ACT001–ACT005 over one file. `path` is the repo-relative path used
/// for both crate classification and reporting; `src` is the file contents.
#[must_use]
pub fn check(path: &str, src: &str) -> Vec<Finding> {
    let scrubbed = scrub(src);
    let tests = test_regions(&scrubbed);
    let lines: Vec<&str> = src.lines().collect();
    let mut findings = Vec::new();

    let mut emit = |offset: usize, rule: &'static str, message: &'static str| {
        let line = scrubbed[..offset].bytes().filter(|&c| c == b'\n').count() + 1;
        let col = offset - scrubbed[..offset].rfind('\n').map_or(0, |p| p + 1) + 1;
        findings.push(Finding {
            path: path.to_owned(),
            line,
            col,
            rule,
            message,
            line_text: lines.get(line - 1).copied().unwrap_or_default().to_owned(),
        });
    };

    let unit_home = is_unit_home(path);
    let cli = is_cli_binary(path);

    for (offset, token) in token_matches(&scrubbed, ".base()") {
        if !unit_home && !in_regions(&tests, offset) {
            emit(offset + token, "ACT001", MSG_ACT001);
        }
    }
    for needle in [".unwrap()", ".expect("] {
        for (offset, token) in token_matches(&scrubbed, needle) {
            if !cli && !in_regions(&tests, offset) {
                emit(offset + token, "ACT002", MSG_ACT002);
            }
        }
    }
    if !unit_home {
        for lit in BANNED_LITERALS {
            for offset in literal_matches(&scrubbed, lit) {
                if !in_regions(&tests, offset) {
                    emit(offset, "ACT003", MSG_ACT003);
                }
            }
        }
        for offset in ident_matches(&scrubbed, "from_base(") {
            if !in_regions(&tests, offset) {
                emit(offset, "ACT004", MSG_ACT004);
            }
        }
    }
    for needle in ["dbg!(", "todo!(", "unimplemented!("] {
        for offset in ident_matches(&scrubbed, needle) {
            emit(offset, "ACT005", MSG_ACT005);
        }
    }
    if !act012_exempt(path) {
        // `ident_matches` makes `std::thread::spawn(` hit too (the `:`
        // before `thread` is not an identifier character) while
        // `my_thread::spawn(` stays clean.
        for needle in ["thread::spawn(", "thread::scope("] {
            for offset in ident_matches(&scrubbed, needle) {
                if !in_regions(&tests, offset) {
                    emit(offset, "ACT012", MSG_ACT012);
                }
            }
        }
    }

    findings
}

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// Occurrences of a `.`-prefixed call token. Returns `(offset, 1)` so the
/// reported column points at the method name, not the dot.
fn token_matches(scrubbed: &str, needle: &str) -> Vec<(usize, usize)> {
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(pos) = scrubbed[from..].find(needle) {
        hits.push((from + pos, 1));
        from += pos + needle.len();
    }
    hits
}

/// Occurrences of `needle` not preceded by an identifier character (so
/// `try_from_base(` never matches a search for `from_base(`).
fn ident_matches(scrubbed: &str, needle: &str) -> Vec<usize> {
    let b = scrubbed.as_bytes();
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(pos) = scrubbed[from..].find(needle) {
        let at = from + pos;
        if !prev_is_ident(b, at) && (at == 0 || b[at - 1] != b'.') {
            hits.push(at);
        }
        from = at + needle.len();
    }
    hits
}

/// Occurrences of a numeric literal with no digit/ident/`.` on either side
/// (`13600.0` and `3600.05` both miss a search for `3600.0`).
fn literal_matches(scrubbed: &str, lit: &str) -> Vec<usize> {
    let b = scrubbed.as_bytes();
    let boundary = |c: u8| c.is_ascii_alphanumeric() || c == b'_' || c == b'.';
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(pos) = scrubbed[from..].find(lit) {
        let at = from + pos;
        let end = at + lit.len();
        let ok_before = at == 0 || !boundary(b[at - 1]);
        let ok_after = end >= b.len() || !boundary(b[end]);
        if ok_before && ok_after {
            hits.push(at);
        }
        from = at + lit.len();
    }
    hits
}
