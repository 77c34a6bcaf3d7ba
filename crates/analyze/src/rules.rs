//! The AST-level dataflow rules ACT006–ACT011.
//!
//! Each rule walks the [`crate::parser`] AST with whatever context it
//! needs — the per-file symbol table of struct fields and typed bindings,
//! the set of `EvalBudget` bindings in a function, or the live
//! `Mutex`/`RwLock` guards in a block. Items gated by `#[cfg(test)]` (and
//! `#[test]` functions) are skipped by every rule here: these are
//! production-contract checks.

use std::collections::{HashMap, HashSet};

use crate::lexer::{Tok, TokKind};
use crate::parser::{
    Block, Expr, ExprKind, File, FnItem, Item, ItemKind, MacroCall, Pos, Stmt,
};
use crate::Finding;

const MSG_ACT006: &str = "JSON impl/literal drifts from the struct: \
     field list must exactly match the struct's declared fields (no duplicate keys)";
const MSG_ACT007: &str = "loop calls `CompiledFootprint::eval` without consulting an \
     `EvalBudget`; use the budgeted batch entry points or check the budget in the loop";
const MSG_ACT008: &str = "nondeterministic API in a library crate; \
     wall-clock, sleeps and env reads belong in the server/CLI/bench shells";
const MSG_ACT009: &str = "lock guard held across blocking I/O or a callback; \
     drop the guard (or narrow its scope) before leaving the critical section";
const MSG_ACT010: &str = "raw f64 comparison in Pareto/stats code; \
     use `total_cmp` so NaNs cannot poison the ordering";
const MSG_ACT011: &str = "panic surface in the request path: indexing/slicing/\
     unwrap/expect in a route handler must become a 4xx/5xx response";

/// Runs every AST rule that applies to `path` over an already-parsed file.
#[must_use]
pub fn check(path: &str, src: &str, file: &File) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    let symbols = SymbolTable::build(file);
    let mut sink = Sink { path, lines: &lines, findings: Vec::new() };

    act006_json_drift(file, &symbols, &mut sink);
    if act007_in_scope(path) {
        act007_budget_blind_loops(file, &mut sink);
    }
    if !act008_allowed(path) {
        act008_nondeterminism(file, &mut sink);
    }
    if act009_in_scope(path) {
        act009_guard_across_call(file, &symbols, &mut sink);
    }
    if act010_in_scope(path) {
        act010_raw_float_cmp(file, &mut sink);
    }
    if act011_in_scope(path) {
        act011_panic_surface(file, &mut sink);
    }

    sink.findings
}

// ---------------------------------------------------------------------------
// Rule scoping.
// ---------------------------------------------------------------------------

/// ACT007 applies where compiled-kernel sweep loops live.
fn act007_in_scope(path: &str) -> bool {
    path.starts_with("crates/dse/src/") || path.starts_with("crates/server/src/")
}

/// Modules allowed to touch wall-clock, sleeps and the environment: the
/// service shell, the CLI binary, benchmarking code, and the `act-dse`
/// modules whose deadline/thread-count/break-even behavior is the
/// documented contract (the pool times its own dispatch overhead for the
/// one-shot calibration).
fn act008_allowed(path: &str) -> bool {
    path.starts_with("crates/server/")
        || path.starts_with("crates/cli/")
        || path.starts_with("crates/bench/")
        || path.contains("/benches/")
        || path == "crates/dse/src/batch.rs"
        || path == "crates/dse/src/parallel.rs"
        || path == "crates/dse/src/pool.rs"
}

/// ACT009 targets the server, where a guard held across I/O deadlocks the
/// worker pool.
fn act009_in_scope(path: &str) -> bool {
    path.starts_with("crates/server/src/")
}

/// ACT010 targets Pareto-front and statistics modules.
fn act010_in_scope(path: &str) -> bool {
    let name = path.rsplit('/').next().unwrap_or(path);
    name.contains("pareto") || name.contains("stats")
}

/// ACT011 targets the request path: the server's route handlers.
fn act011_in_scope(path: &str) -> bool {
    path.starts_with("crates/server/src/") && path.ends_with("routes.rs")
}

// ---------------------------------------------------------------------------
// Shared walking machinery.
// ---------------------------------------------------------------------------

struct Sink<'a> {
    path: &'a str,
    lines: &'a [&'a str],
    findings: Vec<Finding>,
}

impl Sink<'_> {
    fn emit(&mut self, pos: Pos, rule: &'static str, message: &'static str) {
        let line = pos.line as usize;
        self.findings.push(Finding {
            path: self.path.to_owned(),
            line,
            col: pos.col as usize,
            rule,
            message,
            line_text: self
                .lines
                .get(line.saturating_sub(1))
                .copied()
                .unwrap_or_default()
                .to_owned(),
        });
    }
}

/// Per-file symbol table: named-struct fields, enum variants, and the
/// declared type text of struct fields (for guard-receiver resolution).
struct SymbolTable {
    /// Struct name → declared field names, in order.
    struct_fields: HashMap<String, Vec<String>>,
    /// Enum name → variant names.
    enum_variants: HashMap<String, Vec<String>>,
    /// Field name → type text, across all structs in the file.
    field_types: HashMap<String, String>,
}

impl SymbolTable {
    fn build(file: &File) -> Self {
        let mut table = SymbolTable {
            struct_fields: HashMap::new(),
            enum_variants: HashMap::new(),
            field_types: HashMap::new(),
        };
        collect_items(&file.items, &mut |item| match &item.kind {
            ItemKind::Struct { name, named: true, fields } => {
                table
                    .struct_fields
                    .insert(name.clone(), fields.iter().map(|f| f.name.clone()).collect());
                for f in fields {
                    table.field_types.insert(f.name.clone(), f.ty.clone());
                }
            }
            ItemKind::Enum { name, variants } => {
                table.enum_variants.insert(name.clone(), variants.clone());
            }
            _ => {}
        });
        table
    }
}

/// Depth-first item walk (including test items — symbol lookup wants them).
fn collect_items(items: &[Item], f: &mut impl FnMut(&Item)) {
    for item in items {
        f(item);
        match &item.kind {
            ItemKind::Mod { items: Some(inner), .. }
            | ItemKind::Impl { items: inner, .. }
            | ItemKind::Trait { items: inner, .. } => collect_items(inner, f),
            ItemKind::Fn(fn_item) => {
                if let Some(body) = &fn_item.body {
                    collect_block_items(body, f);
                }
            }
            _ => {}
        }
    }
}

fn collect_block_items(block: &Block, f: &mut impl FnMut(&Item)) {
    for stmt in &block.stmts {
        if let Stmt::Item(item) = stmt {
            f(item);
            if let ItemKind::Fn(fn_item) = &item.kind {
                if let Some(body) = &fn_item.body {
                    collect_block_items(body, f);
                }
            }
        }
    }
}

/// Visits every production (non-`cfg(test)`) function item.
fn for_each_fn(items: &[Item], f: &mut impl FnMut(&FnItem)) {
    for item in items {
        if item.cfg_test {
            continue;
        }
        match &item.kind {
            ItemKind::Fn(fn_item) => f(fn_item),
            ItemKind::Mod { items: Some(inner), .. }
            | ItemKind::Impl { items: inner, .. }
            | ItemKind::Trait { items: inner, .. } => for_each_fn(inner, f),
            _ => {}
        }
    }
}

/// Depth-first expression walk over a block, skipping nested `cfg(test)`
/// items but descending into closures, conditions and nested blocks.
fn walk_block<'a>(block: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    walk_expr(init, f);
                }
                if let Some(e) = &l.else_block {
                    walk_block(e, f);
                }
            }
            Stmt::Expr(e) => walk_expr(e, f),
            Stmt::Item(item) => {
                if item.cfg_test {
                    continue;
                }
                if let ItemKind::Fn(fn_item) = &item.kind {
                    if let Some(body) = &fn_item.body {
                        walk_block(body, f);
                    }
                }
            }
        }
    }
}

#[allow(clippy::too_many_lines)]
fn walk_expr<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(expr);
    match &expr.kind {
        ExprKind::Call { callee, args } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Field { recv, .. }
        | ExprKind::Unary(recv)
        | ExprKind::Cast(recv)
        | ExprKind::Try(recv) => walk_expr(recv, f),
        ExprKind::Index { recv, index } => {
            walk_expr(recv, f);
            walk_expr(index, f);
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        ExprKind::Range { lo, hi } => {
            if let Some(lo) = lo {
                walk_expr(lo, f);
            }
            if let Some(hi) = hi {
                walk_expr(hi, f);
            }
        }
        ExprKind::Closure { body, .. } => walk_expr(body, f),
        ExprKind::If { cond, then_block, else_branch } => {
            walk_expr(cond, f);
            walk_block(then_block, f);
            if let Some(e) = else_branch {
                walk_expr(e, f);
            }
        }
        ExprKind::While { cond, body } => {
            walk_expr(cond, f);
            walk_block(body, f);
        }
        ExprKind::For { iter, body, .. } => {
            walk_expr(iter, f);
            walk_block(body, f);
        }
        ExprKind::Loop { body } => walk_block(body, f),
        ExprKind::Match { scrutinee, arms } => {
            walk_expr(scrutinee, f);
            for arm in arms {
                walk_expr(&arm.body, f);
            }
        }
        ExprKind::Block(b) | ExprKind::Unsafe(b) => walk_block(b, f),
        ExprKind::StructLit { fields, .. } => {
            for (_, value) in fields {
                if let Some(v) = value {
                    walk_expr(v, f);
                }
            }
        }
        ExprKind::Tuple(elems) | ExprKind::Array(elems) => {
            for e in elems {
                walk_expr(e, f);
            }
        }
        ExprKind::LetCond { expr, .. } => walk_expr(expr, f),
        ExprKind::Return(Some(e)) => walk_expr(e, f),
        ExprKind::Path(_)
        | ExprKind::Lit(_)
        | ExprKind::Macro(_)
        | ExprKind::Return(None)
        | ExprKind::BreakContinue
        | ExprKind::Opaque => {}
    }
}

// ---------------------------------------------------------------------------
// ACT006 — JSON drift.
// ---------------------------------------------------------------------------

/// Macro invocations visible to ACT006, including ones nested inside the
/// token streams of other macros (`obj!` inside `obj!`).
struct SeenMacro<'a> {
    pos: Pos,
    last_seg: String,
    tokens: &'a [Tok],
}

fn gather_macros<'a>(file: &'a File) -> Vec<SeenMacro<'a>> {
    let mut out = Vec::new();
    gather_macros_in_items(&file.items, &mut out);
    // Nested invocations only exist inside already-collected token streams.
    let mut i = 0;
    while i < out.len() {
        let tokens = out[i].tokens;
        gather_macros_in_tokens(tokens, &mut out);
        i += 1;
    }
    out
}

fn gather_macros_in_items<'a>(items: &'a [Item], out: &mut Vec<SeenMacro<'a>>) {
    for item in items {
        if item.cfg_test {
            continue;
        }
        match &item.kind {
            ItemKind::MacroCall(mac) => push_macro(mac, out),
            ItemKind::Mod { items: Some(inner), .. }
            | ItemKind::Impl { items: inner, .. }
            | ItemKind::Trait { items: inner, .. } => gather_macros_in_items(inner, out),
            ItemKind::Fn(fn_item) => {
                if let Some(body) = &fn_item.body {
                    let mut macs: Vec<&MacroCall> = Vec::new();
                    walk_block(body, &mut |e| {
                        if let ExprKind::Macro(mac) = &e.kind {
                            macs.push(mac);
                        }
                    });
                    for mac in macs {
                        push_macro(mac, out);
                    }
                }
            }
            ItemKind::Const { init: Some(init), .. } => {
                let mut macs: Vec<&MacroCall> = Vec::new();
                walk_expr(init, &mut |e| {
                    if let ExprKind::Macro(mac) = &e.kind {
                        macs.push(mac);
                    }
                });
                for mac in macs {
                    push_macro(mac, out);
                }
            }
            _ => {}
        }
    }
}

fn push_macro<'a>(mac: &'a MacroCall, out: &mut Vec<SeenMacro<'a>>) {
    let last_seg = mac.path.rsplit("::").next().unwrap_or_default().to_owned();
    out.push(SeenMacro { pos: mac.pos, last_seg, tokens: &mac.tokens });
}

/// Scans a raw token stream for `path ! ( … )` shapes and records them.
fn gather_macros_in_tokens<'a>(toks: &'a [Tok], out: &mut Vec<SeenMacro<'a>>) {
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks[i + 1].is_punct("!")
            && matches!(toks[i + 2].text.as_str(), "(" | "[" | "{")
        {
            let close = match toks[i + 2].text.as_str() {
                "(" => ")",
                "[" => "]",
                _ => "}",
            };
            let open = toks[i + 2].text.clone();
            let start = i + 3;
            let mut depth = 1usize;
            let mut j = start;
            while j < toks.len() {
                if toks[j].kind == TokKind::Punct {
                    if toks[j].text == open {
                        depth += 1;
                    } else if toks[j].text == close {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                }
                j += 1;
            }
            out.push(SeenMacro {
                pos: Pos { line: toks[i].line, col: toks[i].col },
                last_seg: toks[i].text.clone(),
                tokens: &toks[start..j.min(toks.len())],
            });
            i = start;
        } else {
            i += 1;
        }
    }
}

fn act006_json_drift(file: &File, symbols: &SymbolTable, sink: &mut Sink<'_>) {
    for mac in gather_macros(file) {
        match mac.last_seg.as_str() {
            "impl_to_json" | "impl_from_json" => {
                check_impl_json(&mac, &symbols.struct_fields, sink);
            }
            "impl_json_enum" => {
                check_impl_json_enum(&mac, &symbols.enum_variants, sink);
            }
            "obj" => check_obj_keys(&mac, sink),
            _ => {}
        }
    }
}

/// `impl_to_json!(Type { field, field })`: the listed fields must be
/// exactly the struct's declared fields (any order, no omissions, no
/// unknowns). Skips types not defined (as named structs) in this file.
fn check_impl_json(
    mac: &SeenMacro<'_>,
    structs: &HashMap<String, Vec<String>>,
    sink: &mut Sink<'_>,
) {
    let Some((ty, listed)) = split_macro_target(mac.tokens) else { return };
    let Some(declared) = structs.get(&ty) else { return };
    let declared_set: HashSet<&str> = declared.iter().map(String::as_str).collect();
    let listed_set: HashSet<&str> = listed.iter().map(String::as_str).collect();
    let drift = declared_set != listed_set || listed.len() != listed_set.len();
    if drift {
        sink.emit(mac.pos, "ACT006", MSG_ACT006);
    }
}

/// `impl_json_enum!(Type { Variant, Variant })` against the enum's variants.
fn check_impl_json_enum(
    mac: &SeenMacro<'_>,
    enums: &HashMap<String, Vec<String>>,
    sink: &mut Sink<'_>,
) {
    let Some((ty, listed)) = split_macro_target(mac.tokens) else { return };
    let Some(declared) = enums.get(&ty) else { return };
    let declared_set: HashSet<&str> = declared.iter().map(String::as_str).collect();
    let listed_set: HashSet<&str> = listed.iter().map(String::as_str).collect();
    if declared_set != listed_set {
        sink.emit(mac.pos, "ACT006", MSG_ACT006);
    }
}

/// Splits `Type { a, b, c }` macro tokens into the type name and the listed
/// identifiers. Returns `None` when the shape doesn't match.
fn split_macro_target(toks: &[Tok]) -> Option<(String, Vec<String>)> {
    let brace = toks.iter().position(|t| t.is_punct("{"))?;
    let ty = toks[..brace]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .find(|t| !matches!(t.text.as_str(), "crate" | "super" | "self"))?
        .text
        .clone();
    // Matching close brace from the end (the group runs to the last `}`).
    let close = toks.iter().rposition(|t| t.is_punct("}"))?;
    let mut listed = Vec::new();
    let mut expect = true;
    for t in &toks[brace + 1..close] {
        if t.is_punct(",") {
            expect = true;
        } else if expect && t.kind == TokKind::Ident {
            listed.push(t.text.clone());
            expect = false;
        }
    }
    Some((ty, listed))
}

/// `obj! { "key": …, "key": … }` — a duplicate key silently overwrites the
/// first value, the literal-object flavor of JSON drift.
fn check_obj_keys(mac: &SeenMacro<'_>, sink: &mut Sink<'_>) {
    let mut seen: HashSet<&str> = HashSet::new();
    let mut depth = 0i32;
    for (i, t) in mac.tokens.iter().enumerate() {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
        }
        let next_is_colon = mac.tokens.get(i + 1).is_some_and(|n| n.is_punct(":"));
        if depth == 0
            && t.kind == TokKind::Str
            && next_is_colon
            && !seen.insert(t.text.as_str())
        {
            sink.emit(Pos { line: t.line, col: t.col }, "ACT006", MSG_ACT006);
        }
    }
}

// ---------------------------------------------------------------------------
// ACT007 — budget-blind loops.
// ---------------------------------------------------------------------------

fn act007_budget_blind_loops(file: &File, sink: &mut Sink<'_>) {
    for_each_fn(&file.items, &mut |fn_item| {
        let Some(body) = &fn_item.body else { return };

        // Budget bindings in scope: `EvalBudget`-typed parameters plus lets
        // whose ascription or initializer names `EvalBudget`.
        let mut budgets: HashSet<String> = fn_item
            .params
            .iter()
            .filter(|p| p.ty.contains("EvalBudget"))
            .map(|p| p.name.clone())
            .collect();
        collect_budget_lets(body, &mut budgets);

        // Does the function consult any of them (or the type directly)?
        let mut consulted = false;
        walk_block(body, &mut |e| match &e.kind {
            ExprKind::Path(segs)
                if segs.iter().any(|s| s == "EvalBudget")
                    || segs.first().is_some_and(|s| budgets.contains(s)) =>
            {
                consulted = true;
            }
            ExprKind::Field { name, .. } if budgets.contains(name) => consulted = true,
            _ => {}
        });
        if consulted {
            return;
        }

        // Unconsulted budget (or none at all): flag every `.eval(` inside a
        // loop body.
        let mut eval_positions = Vec::new();
        walk_block(body, &mut |e| {
            let mut in_loop = |b: &Block| {
                walk_block(b, &mut |inner| {
                    if let ExprKind::MethodCall { name, .. } = &inner.kind {
                        if name == "eval" {
                            eval_positions.push(inner.pos);
                        }
                    }
                });
            };
            match &e.kind {
                ExprKind::For { body, .. }
                | ExprKind::While { body, .. }
                | ExprKind::Loop { body } => in_loop(body),
                _ => {}
            }
        });
        eval_positions.sort_by_key(|p| (p.line, p.col));
        eval_positions.dedup();
        for pos in eval_positions {
            sink.emit(pos, "ACT007", MSG_ACT007);
        }
    });
}

fn collect_budget_lets(block: &Block, budgets: &mut HashSet<String>) {
    // walk_block doesn't expose lets; do a direct statement walk instead.
    fn go(block: &Block, budgets: &mut HashSet<String>) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let(l) => {
                    let mut from_budget = l.ty.contains("EvalBudget");
                    if let Some(init) = &l.init {
                        walk_expr(init, &mut |e| {
                            if let ExprKind::Path(segs) = &e.kind {
                                if segs.iter().any(|s| s == "EvalBudget") {
                                    from_budget = true;
                                }
                            }
                        });
                    }
                    if from_budget {
                        for name in &l.names {
                            budgets.insert(name.clone());
                        }
                    }
                    if let Some(init) = &l.init {
                        walk_expr(init, &mut |e| go_expr(e, budgets));
                    }
                }
                Stmt::Expr(e) => walk_expr(e, &mut |e| go_expr(e, budgets)),
                Stmt::Item(_) => {}
            }
        }
    }
    fn go_expr(e: &Expr, budgets: &mut HashSet<String>) {
        match &e.kind {
            ExprKind::If { then_block, .. } => go(then_block, budgets),
            ExprKind::While { body, .. }
            | ExprKind::For { body, .. }
            | ExprKind::Loop { body } => go(body, budgets),
            ExprKind::Block(b) | ExprKind::Unsafe(b) => go(b, budgets),
            _ => {}
        }
    }
    go(block, budgets);
}

// ---------------------------------------------------------------------------
// ACT008 — nondeterminism in library crates.
// ---------------------------------------------------------------------------

fn act008_nondeterminism(file: &File, sink: &mut Sink<'_>) {
    for_each_fn(&file.items, &mut |fn_item| {
        let Some(body) = &fn_item.body else { return };
        walk_block(body, &mut |e| {
            if let ExprKind::Path(segs) = &e.kind {
                if is_nondeterministic_path(segs) {
                    sink.emit(e.pos, "ACT008", MSG_ACT008);
                }
            }
        });
    });
}

fn is_nondeterministic_path(segs: &[String]) -> bool {
    let pair = |a: &str, b: &str| segs.windows(2).any(|w| w[0] == a && w[1] == b);
    pair("Instant", "now")
        || pair("SystemTime", "now")
        || pair("thread", "sleep")
        || pair("env", "var")
        || pair("env", "var_os")
}

// ---------------------------------------------------------------------------
// ACT009 — guard held across blocking I/O or a callback.
// ---------------------------------------------------------------------------

const IO_METHODS: [&str; 15] = [
    "write_all",
    "write_fmt",
    "flush",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "send",
    "recv",
    "recv_timeout",
    "accept",
    "connect",
    "set_read_timeout",
    "set_write_timeout",
    "shutdown",
];

fn act009_guard_across_call(file: &File, symbols: &SymbolTable, sink: &mut Sink<'_>) {
    for_each_fn(&file.items, &mut |fn_item| {
        let Some(body) = &fn_item.body else { return };
        // Bindings whose declared type is a lock (for `.read()`/`.write()`
        // receiver resolution) and callback parameters.
        let mut lock_symbols: HashSet<String> = symbols
            .field_types
            .iter()
            .filter(|(_, ty)| ty.contains("Mutex") || ty.contains("RwLock"))
            .map(|(name, _)| name.clone())
            .collect();
        let mut callbacks: HashSet<String> = HashSet::new();
        for p in &fn_item.params {
            if p.ty.contains("Mutex") || p.ty.contains("RwLock") {
                lock_symbols.insert(p.name.clone());
            }
            if p.ty.contains("Fn") {
                callbacks.insert(p.name.clone());
            }
        }
        let ctx = GuardCtx { lock_symbols, callbacks };
        let mut live: Vec<String> = Vec::new();
        scan_block_for_guards(body, &ctx, &mut live, sink);
    });
}

struct GuardCtx {
    lock_symbols: HashSet<String>,
    callbacks: HashSet<String>,
}

/// Walks a block in statement order, tracking live guard bindings; guards
/// born in this block die at its end.
fn scan_block_for_guards(
    block: &Block,
    ctx: &GuardCtx,
    live: &mut Vec<String>,
    sink: &mut Sink<'_>,
) {
    let born_at = live.len();
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    scan_expr_for_guards(init, ctx, live, sink);
                    if acquires_guard(init, ctx) {
                        for name in &l.names {
                            live.push(name.clone());
                        }
                    }
                }
                if let Some(else_block) = &l.else_block {
                    scan_block_for_guards(else_block, ctx, live, sink);
                }
            }
            Stmt::Expr(e) => {
                // `drop(guard)` ends liveness before any later I/O check.
                if let Some(dropped) = dropped_binding(e) {
                    live.retain(|g| g != &dropped);
                    continue;
                }
                scan_expr_for_guards(e, ctx, live, sink);
            }
            Stmt::Item(_) => {}
        }
    }
    live.truncate(born_at);
}

/// Reports I/O/callback calls in `e` while any guard is live, recursing
/// into control flow (each branch sees the same incoming guard set).
fn scan_expr_for_guards(e: &Expr, ctx: &GuardCtx, live: &mut Vec<String>, sink: &mut Sink<'_>) {
    match &e.kind {
        ExprKind::Block(b) | ExprKind::Unsafe(b) => {
            scan_block_for_guards(b, ctx, live, sink);
        }
        ExprKind::If { cond, then_block, else_branch } => {
            scan_expr_for_guards(cond, ctx, live, sink);
            scan_block_for_guards(then_block, ctx, live, sink);
            if let Some(eb) = else_branch {
                scan_expr_for_guards(eb, ctx, live, sink);
            }
        }
        ExprKind::While { cond, body } => {
            scan_expr_for_guards(cond, ctx, live, sink);
            scan_block_for_guards(body, ctx, live, sink);
        }
        ExprKind::For { iter, body, .. } => {
            scan_expr_for_guards(iter, ctx, live, sink);
            scan_block_for_guards(body, ctx, live, sink);
        }
        ExprKind::Loop { body } => scan_block_for_guards(body, ctx, live, sink),
        ExprKind::Match { scrutinee, arms } => {
            scan_expr_for_guards(scrutinee, ctx, live, sink);
            for arm in arms {
                scan_expr_for_guards(&arm.body, ctx, live, sink);
            }
        }
        // Closures run elsewhere; a guard moved inside has its own scope.
        ExprKind::Closure { .. } => {}
        _ => {
            if live.is_empty() {
                return;
            }
            // Flat scan of this expression for I/O and callback calls,
            // without crossing into closures or nested blocks (handled
            // above via the structured arms).
            let mut hits = Vec::new();
            collect_io_calls(e, ctx, &mut hits);
            for pos in hits {
                sink.emit(pos, "ACT009", MSG_ACT009);
            }
        }
    }
}

fn collect_io_calls(e: &Expr, ctx: &GuardCtx, hits: &mut Vec<Pos>) {
    match &e.kind {
        ExprKind::MethodCall { recv, name, args } => {
            let io_named = IO_METHODS.contains(&name.as_str());
            // `read`/`write` WITH arguments are `io::Read`/`io::Write`
            // calls; without arguments they are RwLock acquisitions.
            let io_rw = matches!(name.as_str(), "read" | "write") && !args.is_empty();
            if io_named || io_rw {
                hits.push(e.pos);
            }
            collect_io_calls(recv, ctx, hits);
            for a in args {
                collect_io_calls(a, ctx, hits);
            }
        }
        ExprKind::Call { callee, args } => {
            if let ExprKind::Path(segs) = &callee.kind {
                if segs.len() == 1 && ctx.callbacks.contains(&segs[0]) {
                    hits.push(e.pos);
                }
                if segs.windows(2).any(|w| w[0] == "thread" && w[1] == "sleep") {
                    hits.push(e.pos);
                }
            }
            collect_io_calls(callee, ctx, hits);
            for a in args {
                collect_io_calls(a, ctx, hits);
            }
        }
        ExprKind::Field { recv, .. }
        | ExprKind::Unary(recv)
        | ExprKind::Cast(recv)
        | ExprKind::Try(recv) => collect_io_calls(recv, ctx, hits),
        ExprKind::Index { recv, index } => {
            collect_io_calls(recv, ctx, hits);
            collect_io_calls(index, ctx, hits);
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs } => {
            collect_io_calls(lhs, ctx, hits);
            collect_io_calls(rhs, ctx, hits);
        }
        ExprKind::Tuple(elems) | ExprKind::Array(elems) => {
            for el in elems {
                collect_io_calls(el, ctx, hits);
            }
        }
        ExprKind::Return(Some(inner)) => collect_io_calls(inner, ctx, hits),
        ExprKind::StructLit { fields, .. } => {
            for (_, v) in fields {
                if let Some(v) = v {
                    collect_io_calls(v, ctx, hits);
                }
            }
        }
        _ => {}
    }
}

/// Does this initializer acquire a lock guard that flows into the binding?
///
/// Deliberately does NOT descend into nested blocks or closures: a lock
/// taken inside `let v = { let g = m.lock(); … };` is scoped to that inner
/// block — `v` holds a copy of the data, not the guard.
fn acquires_guard(e: &Expr, ctx: &GuardCtx) -> bool {
    match &e.kind {
        ExprKind::MethodCall { recv, name, args } => {
            (name == "lock" && args.is_empty())
                || (matches!(name.as_str(), "read" | "write")
                    && args.is_empty()
                    && receiver_is_lock(recv, ctx))
                || acquires_guard(recv, ctx)
                || args.iter().any(|a| acquires_guard(a, ctx))
        }
        ExprKind::Call { callee, args } => {
            if let ExprKind::Path(segs) = &callee.kind {
                if segs.last().is_some_and(|s| s.starts_with("lock_") || s == "lock") {
                    return true;
                }
            }
            acquires_guard(callee, ctx) || args.iter().any(|a| acquires_guard(a, ctx))
        }
        ExprKind::Unary(inner) | ExprKind::Try(inner) | ExprKind::Cast(inner) => {
            acquires_guard(inner, ctx)
        }
        ExprKind::Field { recv, .. } => acquires_guard(recv, ctx),
        ExprKind::Match { scrutinee, arms } => {
            acquires_guard(scrutinee, ctx)
                || arms.iter().any(|arm| acquires_guard(&arm.body, ctx))
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            acquires_guard(lhs, ctx) || acquires_guard(rhs, ctx)
        }
        ExprKind::Tuple(elems) => elems.iter().any(|el| acquires_guard(el, ctx)),
        _ => false,
    }
}

/// Resolves a `.read()`/`.write()` receiver against the lock symbols:
/// `self.state.read()` and `queue.read()` both count when `state`/`queue`
/// is declared as a `Mutex`/`RwLock`.
fn receiver_is_lock(recv: &Expr, ctx: &GuardCtx) -> bool {
    match &recv.kind {
        ExprKind::Field { name, .. } => ctx.lock_symbols.contains(name),
        ExprKind::Path(segs) => segs.last().is_some_and(|s| ctx.lock_symbols.contains(s)),
        ExprKind::Unary(inner) | ExprKind::Try(inner) => receiver_is_lock(inner, ctx),
        ExprKind::MethodCall { recv: inner, name, .. } => {
            // `self.queue.as_ref().read()` — look through adapters.
            matches!(name.as_str(), "as_ref" | "borrow" | "deref" | "clone")
                && receiver_is_lock(inner, ctx)
        }
        _ => false,
    }
}

/// Matches a statement-position `drop(binding)` call.
fn dropped_binding(e: &Expr) -> Option<String> {
    if let ExprKind::Call { callee, args } = &e.kind {
        if let ExprKind::Path(segs) = &callee.kind {
            if segs.len() == 1 && segs[0] == "drop" && args.len() == 1 {
                if let ExprKind::Path(arg_segs) = &args[0].kind {
                    if arg_segs.len() == 1 {
                        return Some(arg_segs[0].clone());
                    }
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// ACT010 — raw f64 comparison in Pareto/stats code.
// ---------------------------------------------------------------------------

const COMPARATOR_SINKS: [&str; 6] =
    ["sort_by", "sort_unstable_by", "min_by", "max_by", "binary_search_by", "partition_point"];

fn act010_raw_float_cmp(file: &File, sink: &mut Sink<'_>) {
    for_each_fn(&file.items, &mut |fn_item| {
        let Some(body) = &fn_item.body else { return };
        let mut positions = Vec::new();
        walk_block(body, &mut |e| {
            if let ExprKind::MethodCall { name, args, .. } = &e.kind {
                // Any `partial_cmp` in scope files: `total_cmp` is total and
                // NaN-safe, `partial_cmp(..).unwrap()` is the panic we hunt.
                if name == "partial_cmp" {
                    positions.push(e.pos);
                }
                if COMPARATOR_SINKS.contains(&name.as_str()) {
                    if let Some(Expr { kind: ExprKind::Closure { body, .. }, .. }) =
                        args.first()
                    {
                        if closure_compares_raw(body) {
                            positions.push(e.pos);
                        }
                    }
                }
            }
        });
        positions.sort_by_key(|p| (p.line, p.col));
        positions.dedup();
        for pos in positions {
            sink.emit(pos, "ACT010", MSG_ACT010);
        }
    });
}

/// A comparator closure that orders with `<`/`>`/`partial_cmp` and never
/// reaches for `total_cmp` is ordering floats unsoundly.
fn closure_compares_raw(body: &Expr) -> bool {
    let mut total = false;
    let mut raw = false;
    walk_expr(body, &mut |e| match &e.kind {
        ExprKind::MethodCall { name, .. } => {
            if name == "total_cmp" || name == "cmp" {
                total = true;
            }
            if name == "partial_cmp" {
                raw = true;
            }
        }
        ExprKind::Binary { op, .. } => {
            if matches!(op.as_str(), "<" | ">" | "<=" | ">=") {
                raw = true;
            }
        }
        _ => {}
    });
    raw && !total
}

// ---------------------------------------------------------------------------
// ACT011 — panic surface in the request path.
// ---------------------------------------------------------------------------

fn act011_panic_surface(file: &File, sink: &mut Sink<'_>) {
    for_each_fn(&file.items, &mut |fn_item| {
        let Some(body) = &fn_item.body else { return };
        walk_block(body, &mut |e| match &e.kind {
            ExprKind::Index { .. } => sink.emit(e.pos, "ACT011", MSG_ACT011),
            ExprKind::MethodCall { name, .. } if name == "unwrap" || name == "expect" => {
                sink.emit(e.pos, "ACT011", MSG_ACT011);
            }
            _ => {}
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let file = parse_source(src);
        check(path, src, &file)
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn act006_flags_missing_and_unknown_fields() {
        let drift = "pub struct P { pub a: f64, pub b: f64 }\n\
                     act_json::impl_to_json!(P { a });\n";
        assert_eq!(rules(&run("crates/x/src/lib.rs", drift)), vec!["ACT006"]);
        let unknown = "pub struct P { pub a: f64 }\n\
                       act_json::impl_from_json!(P { a, zz });\n";
        assert_eq!(rules(&run("crates/x/src/lib.rs", unknown)), vec!["ACT006"]);
        let exact = "pub struct P { pub a: f64, pub b: f64 }\n\
                     act_json::impl_to_json!(P { b, a });\n";
        assert!(run("crates/x/src/lib.rs", exact).is_empty());
    }

    #[test]
    fn act006_flags_duplicate_obj_keys_even_nested() {
        let dup = "fn f() -> JsonValue { act_json::obj! { \"a\": 1, \"a\": 2 } }\n";
        assert_eq!(rules(&run("crates/x/src/lib.rs", dup)), vec!["ACT006"]);
        let nested = "fn f() -> JsonValue {\n\
                      act_json::obj! { \"o\": act_json::obj! { \"k\": 1, \"k\": 2 } }\n\
                      }\n";
        assert_eq!(rules(&run("crates/x/src/lib.rs", nested)), vec!["ACT006"]);
        let clean = "fn f() -> JsonValue { act_json::obj! { \"a\": 1, \"b\": obj! {} } }\n";
        assert!(run("crates/x/src/lib.rs", clean).is_empty());
    }

    #[test]
    fn act007_needs_a_consulted_budget() {
        let blind = "pub fn sweep(points: &[P], kernel: &CompiledFootprint) {\n\
                     for p in points { let v = kernel.eval(p); use_it(v); }\n\
                     }\n";
        assert_eq!(rules(&run("crates/dse/src/sweep2.rs", blind)), vec!["ACT007"]);
        let budgeted =
            "pub fn sweep(points: &[P], kernel: &CompiledFootprint, budget: &EvalBudget) {\n\
                        for (i, p) in points.iter().enumerate() {\n\
                        if budget.is_exhausted() { break; }\n\
                        let v = kernel.eval(p); use_it(v);\n\
                        }\n\
                        }\n";
        assert!(run("crates/dse/src/sweep2.rs", budgeted).is_empty());
        // Out of scope: same code elsewhere is fine.
        assert!(run("crates/core/src/x.rs", blind).is_empty());
    }

    #[test]
    fn act008_scopes_to_library_crates() {
        let src = "pub fn f() -> Instant { let t = Instant::now(); t }\n";
        assert_eq!(rules(&run("crates/core/src/x.rs", src)), vec!["ACT008"]);
        assert!(run("crates/server/src/lib.rs", src).is_empty());
        assert!(run("crates/dse/src/batch.rs", src).is_empty());
        let env = "pub fn f() { let v = std::env::var(\"X\"); drop(v); }\n";
        assert_eq!(rules(&run("crates/json/src/lib.rs", env)), vec!["ACT008"]);
    }

    #[test]
    fn act009_guard_across_io_and_drop_release() {
        let held = "pub fn f(stream: &mut TcpStream) {\n\
                    let state = lock_queue(&queue);\n\
                    stream.write_all(b\"x\");\n\
                    drop(state);\n\
                    }\n";
        assert_eq!(rules(&run("crates/server/src/lib.rs", held)), vec!["ACT009"]);
        let released = "pub fn f(stream: &mut TcpStream) {\n\
                        let state = lock_queue(&queue);\n\
                        let n = state.len();\n\
                        drop(state);\n\
                        stream.write_all(b\"x\");\n\
                        let _ = n;\n\
                        }\n";
        assert!(run("crates/server/src/lib.rs", released).is_empty());
    }

    #[test]
    fn act009_scoped_guard_dies_at_block_end() {
        let scoped = "pub fn f(stream: &mut TcpStream) {\n\
                      { let state = q.lock(); touch(&state); }\n\
                      stream.write_all(b\"x\");\n\
                      }\n";
        assert!(run("crates/server/src/lib.rs", scoped).is_empty());
    }

    #[test]
    fn act010_comparators_must_be_total() {
        let raw = "pub fn front(v: &mut Vec<f64>) {\n\
                   v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));\n\
                   }\n";
        let found = run("crates/dse/src/pareto.rs", raw);
        assert!(rules(&found).contains(&"ACT010"), "{found:#?}");
        let total = "pub fn front(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }\n";
        assert!(run("crates/dse/src/pareto.rs", total).is_empty());
        // Raw `<` in a plain for-loop scan is allowed; only comparator
        // closures and partial_cmp are the footgun.
        let scan = "pub fn min(v: &[f64]) -> f64 {\n\
                    let mut m = f64::INFINITY;\n\
                    for x in v { if *x < m { m = *x; } }\n\
                    m\n\
                    }\n";
        assert!(run("crates/dse/src/pareto.rs", scan).is_empty());
    }

    #[test]
    fn act011_flags_indexing_and_unwrap_in_routes() {
        let slicing = "pub fn handle(path: &str) -> Response {\n\
                       let id = &path[\"/v1/x/\".len()..];\n\
                       respond(id)\n\
                       }\n";
        let found = run("crates/server/src/routes.rs", slicing);
        assert!(rules(&found).contains(&"ACT011"), "{found:#?}");
        // Same code outside routes.rs: no ACT011.
        assert!(!rules(&run("crates/server/src/stats.rs", slicing)).contains(&"ACT011"));
        let safe = "pub fn handle(path: &str) -> Response {\n\
                    match path.strip_prefix(\"/v1/x/\") {\n\
                    Some(id) => respond(id),\n\
                    None => not_found(),\n\
                    }\n\
                    }\n";
        assert!(run("crates/server/src/routes.rs", safe).is_empty());
    }
}
