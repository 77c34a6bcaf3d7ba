//! Error-tolerant recursive-descent parser for the Rust subset the ACT
//! workspace uses, producing the lightweight AST the dataflow rules
//! (ACT006–ACT011) walk.
//!
//! Design constraints, in order:
//!
//! 1. **Total.** [`parse_file`] never fails. Constructs outside the subset
//!    degrade to [`ExprKind::Opaque`] / [`ItemKind::Other`] and bump the
//!    [`File::recoveries`] counter; the round-trip test pins that counter
//!    at zero for every in-tree source file, so coverage loss is loud.
//! 2. **Positioned.** Every item, binding and expression carries the
//!    line/column of its salient token for `path:line:col` findings.
//! 3. **Shallow on types.** Types are captured as flattened text — enough
//!    to know a parameter is an `EvalBudget` or a field is a `Mutex`,
//!    without a type grammar.

use crate::lexer::{Tok, TokKind};

/// 1-indexed source position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pos {
    /// Line.
    pub line: u32,
    /// Byte column.
    pub col: u32,
}

impl Pos {
    const ZERO: Pos = Pos { line: 0, col: 0 };
}

/// A parsed source file.
#[derive(Debug)]
pub struct File {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Number of recovery events (tokens the parser could not structure).
    pub recoveries: usize,
    /// Position of each recovery event, for diagnosing coverage loss.
    pub recovered_at: Vec<Pos>,
}

/// One item (top-level, in a module, or in an impl/trait/fn body).
#[derive(Debug)]
pub struct Item {
    /// Position of the item's first token.
    pub pos: Pos,
    /// `true` when a `#[cfg(test)]` attribute gates this item.
    pub cfg_test: bool,
    /// What the item is.
    pub kind: ItemKind,
}

/// Item payloads.
#[derive(Debug)]
pub enum ItemKind {
    /// `mod name;` or `mod name { … }`.
    Mod {
        /// Module name.
        name: String,
        /// Inline body, if any.
        items: Option<Vec<Item>>,
    },
    /// A function with an optional body.
    Fn(Box<FnItem>),
    /// A struct (named-field or tuple/unit).
    Struct {
        /// Type name.
        name: String,
        /// `true` for named-field structs (`fields` is then complete).
        named: bool,
        /// Declared fields, in order.
        fields: Vec<Field>,
    },
    /// An enum and its variant names.
    Enum {
        /// Type name.
        name: String,
        /// Variant names, in order.
        variants: Vec<String>,
    },
    /// An `impl` block.
    Impl {
        /// Head segment of the self type (`Quantity` for `Quantity<D>`).
        self_ty: String,
        /// Trait head segment for trait impls.
        trait_name: Option<String>,
        /// Associated items.
        items: Vec<Item>,
    },
    /// A trait definition.
    Trait {
        /// Trait name.
        name: String,
        /// Associated items (default methods parsed like fns).
        items: Vec<Item>,
    },
    /// An item-position macro invocation with its raw argument tokens.
    MacroCall(MacroCall),
    /// `const`/`static` with type text and initializer.
    Const {
        /// Name.
        name: String,
        /// Flattened type text.
        ty: String,
        /// Initializer expression.
        init: Option<Expr>,
    },
    /// Anything else (`use`, `type`, `macro_rules!`, recovered runs).
    Other,
}

/// A named field or parameter with flattened type text.
#[derive(Debug)]
pub struct Field {
    /// Field/parameter name (`self` for receivers).
    pub name: String,
    /// Flattened type text, e.g. `&EvalBudget` or `Mutex<QueueState>`.
    pub ty: String,
}

/// A function item.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<Field>,
    /// Flattened return-type text (empty for `()`).
    pub ret: String,
    /// Body, absent for trait method declarations.
    pub body: Option<Block>,
}

/// A macro invocation: `path!( tokens )`.
#[derive(Debug)]
pub struct MacroCall {
    /// Position of the macro path.
    pub pos: Pos,
    /// Full invocation path (`act_json::impl_to_json`).
    pub path: String,
    /// The raw tokens between the delimiters.
    pub tokens: Vec<Tok>,
}

/// A `{ … }` block.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let` binding.
    Let(LetStmt),
    /// Nested item.
    Item(Item),
    /// Expression statement (with or without `;`).
    Expr(Expr),
}

/// A `let` statement.
#[derive(Debug)]
pub struct LetStmt {
    /// Position of the `let` keyword.
    pub pos: Pos,
    /// Names bound by the pattern (heuristic: lowercase idents).
    pub names: Vec<String>,
    /// Flattened ascribed type text (empty when inferred).
    pub ty: String,
    /// Initializer.
    pub init: Option<Expr>,
    /// `let … else { … }` diverging block.
    pub else_block: Option<Block>,
}

/// An expression with position.
#[derive(Debug)]
pub struct Expr {
    /// Position of the expression's salient token.
    pub pos: Pos,
    /// Payload.
    pub kind: ExprKind,
}

/// Match arm: bound names plus the arm body.
#[derive(Debug)]
pub struct Arm {
    /// Names bound by the arm pattern (heuristic).
    pub bindings: Vec<String>,
    /// Arm body.
    pub body: Expr,
}

/// Expression payloads.
#[derive(Debug)]
pub enum ExprKind {
    /// Path (`foo`, `Instant::now`, `Self::bump`).
    Path(Vec<String>),
    /// Literal token text.
    Lit(String),
    /// `callee(args)`.
    Call {
        /// Called expression (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `recv.name(args)` — `pos` is the method name.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `recv.name` field access (including tuple indices).
    Field {
        /// Receiver.
        recv: Box<Expr>,
        /// Field name.
        name: String,
    },
    /// `recv[index]` — `pos` is the `[`.
    Index {
        /// Indexed expression.
        recv: Box<Expr>,
        /// Index expression (may be a range: slicing).
        index: Box<Expr>,
    },
    /// Prefix `-`/`!`/`*`/`&`.
    Unary(Box<Expr>),
    /// `lhs op rhs` — `pos` is the operator.
    Binary {
        /// Operator text (`<`, `==`, `+`, …).
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `lhs = rhs` and compound assignments.
    Assign {
        /// Target.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
    },
    /// `expr as Type`.
    Cast(Box<Expr>),
    /// `expr?`.
    Try(Box<Expr>),
    /// `lo..hi`, `..hi`, `lo..`, `..`.
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
    },
    /// Closure with bound parameter names.
    Closure {
        /// Parameter names (heuristic).
        params: Vec<String>,
        /// Body.
        body: Box<Expr>,
    },
    /// `if cond { … } else …` (including `if let`).
    If {
        /// Condition (a [`ExprKind::LetCond`] for `if let`).
        cond: Box<Expr>,
        /// Then block.
        then_block: Block,
        /// `else` branch: a block or another `if`.
        else_branch: Option<Box<Expr>>,
    },
    /// `while cond { … }` (including `while let`).
    While {
        /// Condition.
        cond: Box<Expr>,
        /// Body.
        body: Block,
    },
    /// `for pat in iter { … }`.
    For {
        /// Names bound by the loop pattern.
        bindings: Vec<String>,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body.
        body: Block,
    },
    /// Bare `loop { … }`.
    Loop {
        /// Body.
        body: Block,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Matched expression.
        scrutinee: Box<Expr>,
        /// Arms.
        arms: Vec<Arm>,
    },
    /// Block expression.
    Block(Block),
    /// `unsafe { … }`.
    Unsafe(Block),
    /// Struct literal `Path { field: expr, .. }`.
    StructLit {
        /// Struct path head.
        path: String,
        /// `(field, value)` pairs; `None` value = shorthand.
        fields: Vec<(String, Option<Expr>)>,
    },
    /// Tuple or parenthesized expression.
    Tuple(Vec<Expr>),
    /// Array literal (either form).
    Array(Vec<Expr>),
    /// Expression-position macro invocation.
    Macro(MacroCall),
    /// `let pat = expr` inside a condition.
    LetCond {
        /// Names bound by the pattern.
        bindings: Vec<String>,
        /// Matched expression.
        expr: Box<Expr>,
    },
    /// `return expr?`.
    Return(Option<Box<Expr>>),
    /// `break` / `continue` (values folded away).
    BreakContinue,
    /// Recovered or out-of-subset token run.
    Opaque,
}

/// Parses a token stream into a [`File`]. Total: never fails.
#[must_use]
pub fn parse_file(toks: &[Tok]) -> File {
    let mut p = Parser { toks, pos: 0, recovered_at: Vec::new() };
    let items = p.items_until_close(false);
    // Anything the item loop could not place is a recovery.
    if p.pos < toks.len() {
        p.recover();
    }
    File { items, recoveries: p.recovered_at.len(), recovered_at: p.recovered_at }
}

/// Convenience: tokenize + parse.
#[must_use]
pub fn parse_source(src: &str) -> File {
    parse_file(&crate::lexer::tokenize(src))
}

const ITEM_KEYWORDS: [&str; 16] = [
    "mod",
    "fn",
    "struct",
    "enum",
    "union",
    "impl",
    "trait",
    "use",
    "const",
    "static",
    "type",
    "extern",
    "macro_rules",
    "pub",
    "unsafe",
    "async",
];

struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
    recovered_at: Vec<Pos>,
}

impl<'a> Parser<'a> {
    // -- token helpers ----------------------------------------------------

    fn recover(&mut self) {
        let pos = self.here();
        self.recovered_at.push(pos);
    }

    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, n: usize) -> Option<&'a Tok> {
        self.toks.get(self.pos + n)
    }

    fn at_punct(&self, p: &str) -> bool {
        self.peek().is_some_and(|t| t.is_punct(p))
    }

    fn at_ident(&self, w: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(w))
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, w: &str) -> bool {
        if self.at_ident(w) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn here(&self) -> Pos {
        self.peek().map_or(Pos::ZERO, |t| Pos { line: t.line, col: t.col })
    }

    /// Consumes a balanced delimiter run starting at the current `(`/`[`/`{`
    /// token; returns the tokens strictly inside. No-op if not at an opener.
    fn balanced(&mut self) -> Vec<Tok> {
        let Some(open) = self.peek() else { return Vec::new() };
        let close = match open.text.as_str() {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => return Vec::new(),
        };
        let open_text = open.text.clone();
        self.pos += 1;
        let start = self.pos;
        let mut depth = 1usize;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                if t.text == open_text {
                    depth += 1;
                } else if t.text == close {
                    depth -= 1;
                    if depth == 0 {
                        let inner = self.toks[start..self.pos].to_vec();
                        self.pos += 1;
                        return inner;
                    }
                }
            }
            self.pos += 1;
        }
        self.toks[start..self.pos].to_vec()
    }

    /// Skips a generic argument list starting at `<`. Handles `>>` closing
    /// two levels and nested delimiters.
    fn skip_generics(&mut self) {
        if !self.at_punct("<") {
            return;
        }
        let mut depth: i32 = 0;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                "(" | "[" | "{" => {
                    self.balanced();
                    continue;
                }
                ";" => break, // runaway safety: generics never contain `;`
                _ => {}
            }
            self.pos += 1;
            if depth <= 0 {
                break;
            }
        }
    }

    /// Consumes tokens that can continue a type, returning flattened text.
    /// Stops at `,` `;` `=` `)` `]` `{` `}` `>` `where` `|` at depth zero.
    fn type_text(&mut self) -> String {
        let mut out = String::new();
        while let Some(t) = self.peek() {
            match t.kind {
                TokKind::Punct => match t.text.as_str() {
                    "," | ";" | "=" | ")" | "]" | "{" | "}" | ">" | "|" | ">>" | "=>" => break,
                    "<" => {
                        let start = self.pos;
                        self.skip_generics();
                        for t in &self.toks[start..self.pos] {
                            out.push_str(&t.text);
                        }
                        continue;
                    }
                    "(" | "[" => {
                        let start = self.pos;
                        self.balanced();
                        for t in &self.toks[start..self.pos] {
                            out.push_str(&t.text);
                        }
                        continue;
                    }
                    "&" | "&&" | "*" | "::" | "->" | "!" | "?" | "+" | "#" => {
                        out.push_str(&t.text);
                        self.pos += 1;
                    }
                    _ => break,
                },
                TokKind::Ident => {
                    if t.text == "where"
                        || t.text == "for"
                        || t.text == "as"
                        || t.text == "else"
                    {
                        // `for` ends an impl trait head; `as` ends a cast
                        // type; `else` ends a `let … else` ascription.
                        break;
                    }
                    if !out.is_empty() && out.ends_with(|c: char| c.is_ascii_alphanumeric()) {
                        out.push(' ');
                    }
                    out.push_str(&t.text);
                    self.pos += 1;
                }
                TokKind::Lifetime => {
                    out.push_str(&t.text);
                    out.push(' ');
                    self.pos += 1;
                }
                TokKind::Int => {
                    // Const generic argument outside brackets (rare).
                    out.push_str(&t.text);
                    self.pos += 1;
                }
                _ => break,
            }
        }
        out
    }

    /// Collects attributes (`#[…]` / `#![…]`), returning joined texts.
    fn attrs(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        while self.at_punct("#") {
            self.pos += 1;
            self.eat_punct("!");
            let inner = self.balanced();
            let mut text = String::new();
            for t in &inner {
                text.push_str(&t.text);
            }
            out.push(text);
        }
        out
    }

    // -- items ------------------------------------------------------------

    /// Parses items until `}` (when `in_braces`) or EOF.
    fn items_until_close(&mut self, in_braces: bool) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            if self.peek().is_none() {
                break;
            }
            if in_braces && self.at_punct("}") {
                break;
            }
            if let Some(item) = self.item() {
                items.push(item);
            } else {
                break;
            }
        }
        items
    }

    fn item(&mut self) -> Option<Item> {
        let attrs = self.attrs();
        let cfg_test = attrs.iter().any(|a| a.contains("cfg(test)") || a == "test");
        let pos = self.here();
        self.peek()?;

        // Visibility.
        if self.eat_ident("pub") && self.at_punct("(") {
            self.balanced();
        }
        // Modifier keywords before `fn`.
        let mut saw_fn_modifier = false;
        loop {
            if self.at_ident("const") && self.peek_at(1).is_some_and(|t| t.is_ident("fn")) {
                self.pos += 1;
                saw_fn_modifier = true;
            } else if self.at_ident("extern")
                && (self.peek_at(1).is_some_and(|t| t.is_ident("fn"))
                    || (self.peek_at(1).is_some_and(|t| t.kind == TokKind::Str)
                        && self.peek_at(2).is_some_and(|t| t.is_ident("fn"))))
            {
                // `extern fn` / `extern "C" fn` — but NOT `extern "C" { … }`
                // blocks or `extern crate`, which are items of their own.
                self.pos += 1;
                if self.peek().is_some_and(|t| t.kind == TokKind::Str) {
                    self.pos += 1;
                }
                saw_fn_modifier = true;
            } else if (self.at_ident("unsafe") || self.at_ident("async"))
                && self.peek_at(1).is_some_and(|t| {
                    t.is_ident("fn")
                        || t.is_ident("unsafe")
                        || t.is_ident("extern")
                        // `unsafe impl Send for T {}` / `unsafe trait T {}`:
                        // the keyword is a plain item modifier there too.
                        || t.is_ident("impl")
                        || t.is_ident("trait")
                })
            {
                self.pos += 1;
                saw_fn_modifier = true;
            } else {
                break;
            }
        }
        let _ = saw_fn_modifier;

        let Some(t) = self.peek() else {
            return Some(Item { pos, cfg_test, kind: ItemKind::Other });
        };
        let kind = match t.text.as_str() {
            "mod" if t.kind == TokKind::Ident => {
                self.pos += 1;
                let name = self.ident_text();
                if self.eat_punct(";") {
                    ItemKind::Mod { name, items: None }
                } else if self.at_punct("{") {
                    self.pos += 1;
                    let items = self.items_until_close(true);
                    self.eat_punct("}");
                    ItemKind::Mod { name, items: Some(items) }
                } else {
                    self.recover_to_item_boundary();
                    ItemKind::Other
                }
            }
            "fn" => {
                self.pos += 1;
                ItemKind::Fn(Box::new(self.fn_item()))
            }
            "struct" | "union" => {
                self.pos += 1;
                self.struct_item()
            }
            "enum" => {
                self.pos += 1;
                self.enum_item()
            }
            "impl" => {
                self.pos += 1;
                self.impl_item()
            }
            "trait" => {
                self.pos += 1;
                let name = self.ident_text();
                self.skip_generics();
                // Supertraits / where clause: consume to the body.
                while let Some(t) = self.peek() {
                    if t.is_punct("{") || t.is_punct(";") {
                        break;
                    }
                    self.pos += 1;
                }
                if self.at_punct("{") {
                    self.pos += 1;
                    let items = self.items_until_close(true);
                    self.eat_punct("}");
                    ItemKind::Trait { name, items }
                } else {
                    self.eat_punct(";");
                    ItemKind::Trait { name, items: Vec::new() }
                }
            }
            "use" | "type" => {
                self.consume_to_semi();
                ItemKind::Other
            }
            "extern" => {
                // `extern crate x;` or `extern "C" { … }`.
                self.pos += 1;
                if self.at_punct("{") {
                    self.balanced();
                } else {
                    self.consume_to_semi();
                }
                ItemKind::Other
            }
            "macro_rules" => {
                self.pos += 1;
                self.eat_punct("!");
                let _name = self.ident_text();
                self.balanced();
                self.eat_punct(";");
                ItemKind::Other
            }
            "const" | "static" => {
                self.pos += 1;
                self.eat_ident("mut");
                if self.at_punct("_") || self.at_ident("_") {
                    self.pos += 1;
                }
                let name = if self.peek().is_some_and(|t| t.kind == TokKind::Ident) {
                    self.ident_text()
                } else {
                    String::new()
                };
                let mut ty = String::new();
                if self.eat_punct(":") {
                    ty = self.type_text();
                }
                let init = if self.eat_punct("=") { Some(self.expr(false)) } else { None };
                self.eat_punct(";");
                ItemKind::Const { name, ty, init }
            }
            _ => {
                // Item-position macro invocation: `path!(…);`
                if t.kind == TokKind::Ident {
                    if let Some(mac) = self.try_macro_invocation() {
                        self.eat_punct(";");
                        ItemKind::MacroCall(mac)
                    } else {
                        self.recover();
                        self.recover_to_item_boundary();
                        ItemKind::Other
                    }
                } else {
                    self.recover();
                    self.recover_to_item_boundary();
                    ItemKind::Other
                }
            }
        };
        Some(Item { pos, cfg_test, kind })
    }

    fn ident_text(&mut self) -> String {
        match self.peek() {
            Some(t) if t.kind == TokKind::Ident => {
                self.pos += 1;
                t.text.clone()
            }
            _ => String::new(),
        }
    }

    /// If the cursor sits on `path … !` + delimiter, consumes the macro
    /// invocation and returns it.
    fn try_macro_invocation(&mut self) -> Option<MacroCall> {
        let start = self.pos;
        let pos = self.here();
        let mut path = String::new();
        while self.peek().is_some_and(|t| t.kind == TokKind::Ident) {
            path.push_str(&self.toks[self.pos].text);
            self.pos += 1;
            if self.at_punct("::") {
                path.push_str("::");
                self.pos += 1;
            } else {
                break;
            }
        }
        if !path.is_empty() && self.at_punct("!") {
            self.pos += 1;
            let tokens = self.balanced();
            Some(MacroCall { pos, path, tokens })
        } else {
            self.pos = start;
            None
        }
    }

    fn consume_to_semi(&mut self) {
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                ";" => {
                    self.pos += 1;
                    return;
                }
                "{" | "(" | "[" => {
                    self.balanced();
                }
                "}" => return,
                _ => self.pos += 1,
            }
        }
    }

    fn recover_to_item_boundary(&mut self) {
        self.consume_to_semi();
    }

    fn fn_item(&mut self) -> FnItem {
        let name = self.ident_text();
        self.skip_generics();
        let params = if self.at_punct("(") {
            let inner = self.balanced();
            parse_params(&inner)
        } else {
            Vec::new()
        };
        let mut ret = String::new();
        if self.eat_punct("->") {
            ret = self.type_text();
        }
        if self.at_ident("where") {
            while let Some(t) = self.peek() {
                if t.is_punct("{") || t.is_punct(";") {
                    break;
                }
                if t.is_punct("(") || t.is_punct("[") {
                    self.balanced();
                    continue;
                }
                self.pos += 1;
            }
        }
        let body = if self.at_punct("{") {
            Some(self.block())
        } else {
            self.eat_punct(";");
            None
        };
        FnItem { name, params, ret, body }
    }

    fn struct_item(&mut self) -> ItemKind {
        let name = self.ident_text();
        self.skip_generics();
        if self.at_ident("where") {
            while let Some(t) = self.peek() {
                if t.is_punct("{") || t.is_punct(";") || t.is_punct("(") {
                    break;
                }
                self.pos += 1;
            }
        }
        if self.at_punct("{") {
            let inner = self.balanced();
            let fields = parse_named_fields(&inner);
            ItemKind::Struct { name, named: true, fields }
        } else {
            if self.at_punct("(") {
                self.balanced();
            }
            self.eat_punct(";");
            ItemKind::Struct { name, named: false, fields: Vec::new() }
        }
    }

    fn enum_item(&mut self) -> ItemKind {
        let name = self.ident_text();
        self.skip_generics();
        if self.at_ident("where") {
            while let Some(t) = self.peek() {
                if t.is_punct("{") {
                    break;
                }
                self.pos += 1;
            }
        }
        let mut variants = Vec::new();
        if self.at_punct("{") {
            let inner = self.balanced();
            let mut i = 0;
            let mut depth = 0i32;
            let mut at_variant_start = true;
            while i < inner.len() {
                let t = &inner[i];
                match t.text.as_str() {
                    "(" | "[" | "{" if t.kind == TokKind::Punct => depth += 1,
                    ")" | "]" | "}" if t.kind == TokKind::Punct => depth -= 1,
                    "," if depth == 0 => at_variant_start = true,
                    "#" if depth == 0 => {
                        // Variant attribute: skip `#[…]`.
                        i += 1;
                        let mut d = 0i32;
                        while i < inner.len() {
                            match inner[i].text.as_str() {
                                "[" => d += 1,
                                "]" => {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            i += 1;
                        }
                    }
                    _ if depth == 0 && at_variant_start && t.kind == TokKind::Ident => {
                        variants.push(t.text.clone());
                        at_variant_start = false;
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        ItemKind::Enum { name, variants }
    }

    fn impl_item(&mut self) -> ItemKind {
        self.skip_generics();
        // First type path: trait for trait impls, self type otherwise.
        let first = self.type_text();
        let (trait_name, self_ty) = if self.eat_ident("for") {
            let second = self.type_text();
            (Some(path_head(&first)), path_head(&second))
        } else {
            (None, path_head(&first))
        };
        if self.at_ident("where") {
            while let Some(t) = self.peek() {
                if t.is_punct("{") {
                    break;
                }
                if t.is_punct("(") || t.is_punct("[") {
                    self.balanced();
                    continue;
                }
                self.pos += 1;
            }
        }
        if self.at_punct("{") {
            self.pos += 1;
            let items = self.items_until_close(true);
            self.eat_punct("}");
            ItemKind::Impl { self_ty, trait_name, items }
        } else {
            self.eat_punct(";");
            ItemKind::Impl { self_ty, trait_name, items: Vec::new() }
        }
    }

    // -- statements and blocks -------------------------------------------

    fn block(&mut self) -> Block {
        let mut stmts = Vec::new();
        if !self.eat_punct("{") {
            return Block { stmts };
        }
        loop {
            match self.peek() {
                None => break,
                Some(t) if t.is_punct("}") => {
                    self.pos += 1;
                    break;
                }
                Some(t) if t.is_punct(";") => {
                    self.pos += 1;
                }
                Some(t) if t.is_ident("let") => {
                    stmts.push(Stmt::Let(self.let_stmt()));
                }
                Some(t)
                    if t.kind == TokKind::Ident
                        && ITEM_KEYWORDS.contains(&t.text.as_str())
                        && self.starts_item() =>
                {
                    if let Some(item) = self.item() {
                        stmts.push(Stmt::Item(item));
                    }
                }
                Some(t) if t.is_punct("#") => {
                    // Attribute: could gate an item or an expression.
                    let save = self.pos;
                    let attrs = self.attrs();
                    let cfg_test = attrs.iter().any(|a| a.contains("cfg(test)") || a == "test");
                    if self.peek().is_some_and(|t| ITEM_KEYWORDS.contains(&t.text.as_str()))
                        && self.starts_item()
                    {
                        self.pos = save;
                        if let Some(item) = self.item() {
                            stmts.push(Stmt::Item(item));
                        }
                    } else if self.peek().is_some_and(|t| t.is_ident("let")) {
                        // `#[allow(...)] let x = …;` — a statement, not the
                        // condition-position `let` the expression parser
                        // handles (which forbids struct literals).
                        let _ = cfg_test;
                        stmts.push(Stmt::Let(self.let_stmt()));
                    } else {
                        let _ = cfg_test;
                        let e = self.expr(false);
                        self.eat_punct(";");
                        stmts.push(Stmt::Expr(e));
                    }
                }
                Some(_) => {
                    let before = self.pos;
                    let e = self.expr(false);
                    self.eat_punct(";");
                    if self.pos == before {
                        // No progress: step over the offender.
                        self.recover();
                        self.pos += 1;
                    }
                    stmts.push(Stmt::Expr(e));
                }
            }
        }
        Block { stmts }
    }

    /// `true` when the `pub`/`unsafe`/`const`/… keyword at the cursor
    /// really opens an item (vs. `const` in expressions etc.).
    fn starts_item(&self) -> bool {
        let Some(t) = self.peek() else { return false };
        match t.text.as_str() {
            "fn" | "struct" | "enum" | "union" | "impl" | "trait" | "use" | "mod" | "type"
            | "static" | "macro_rules" | "extern" => true,
            "pub" => true,
            "const" => {
                self.peek_at(1).is_some_and(|n| n.kind == TokKind::Ident || n.is_punct("_"))
            }
            "unsafe" | "async" => self.peek_at(1).is_some_and(|n| n.is_ident("fn")),
            _ => false,
        }
    }

    fn let_stmt(&mut self) -> LetStmt {
        let pos = self.here();
        self.pos += 1; // `let`
        let (names, stop) = self.pattern_until(&[":", "=", ";", "else"]);
        let mut ty = String::new();
        let mut at = stop;
        if at.as_deref() == Some(":") {
            self.pos += 1;
            ty = self.type_text();
            at = if self.at_punct("=") {
                Some("=".to_owned())
            } else if self.at_ident("else") {
                Some("else".to_owned())
            } else {
                None
            };
        }
        let init = if at.as_deref() == Some("=") {
            self.pos += 1;
            Some(self.expr(false))
        } else {
            None
        };
        let else_block = if self.eat_ident("else") { Some(self.block()) } else { None };
        self.eat_punct(";");
        LetStmt { pos, names, ty, init, else_block }
    }

    /// Consumes pattern tokens until one of `stops` at depth zero, returning
    /// the heuristically-bound names and which stop was hit.
    fn pattern_until(&mut self, stops: &[&str]) -> (Vec<String>, Option<String>) {
        let mut names = Vec::new();
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if depth == 0 && stops.contains(&t.text.as_str()) {
                return (names, Some(t.text.clone()));
            }
            match t.kind {
                TokKind::Punct => match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            return (names, None);
                        }
                        depth -= 1;
                    }
                    _ => {}
                },
                TokKind::Ident if is_binding_ident(t, self.peek_at(1)) => {
                    names.push(t.text.clone());
                }
                _ => {}
            }
            self.pos += 1;
        }
        (names, None)
    }

    // -- expressions ------------------------------------------------------

    fn expr(&mut self, no_struct: bool) -> Expr {
        let lhs = self.range_expr(no_struct);
        if let Some(t) = self.peek() {
            if t.kind == TokKind::Punct
                && matches!(
                    t.text.as_str(),
                    "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>="
                )
            {
                let pos = Pos { line: t.line, col: t.col };
                self.pos += 1;
                let rhs = self.expr(no_struct);
                return Expr {
                    pos,
                    kind: ExprKind::Assign { lhs: Box::new(lhs), rhs: Box::new(rhs) },
                };
            }
        }
        lhs
    }

    fn range_expr(&mut self, no_struct: bool) -> Expr {
        if self.at_punct("..") || self.at_punct("..=") {
            let pos = self.here();
            self.pos += 1;
            let hi = if self.starts_expr() {
                Some(Box::new(self.binary_expr(0, no_struct)))
            } else {
                None
            };
            return Expr { pos, kind: ExprKind::Range { lo: None, hi } };
        }
        let lo = self.binary_expr(0, no_struct);
        if self.at_punct("..") || self.at_punct("..=") {
            let pos = self.here();
            self.pos += 1;
            let hi = if self.starts_expr() {
                Some(Box::new(self.binary_expr(0, no_struct)))
            } else {
                None
            };
            return Expr { pos, kind: ExprKind::Range { lo: Some(Box::new(lo)), hi } };
        }
        lo
    }

    fn starts_expr(&self) -> bool {
        match self.peek() {
            None => false,
            Some(t) => {
                !(t.kind == TokKind::Punct
                    && matches!(t.text.as_str(), ";" | "," | ")" | "]" | "}" | "=>"))
            }
        }
    }

    fn binary_expr(&mut self, min_prec: u8, no_struct: bool) -> Expr {
        let mut lhs = self.unary_expr(no_struct);
        while let Some(t) = self.peek() {
            let Some(prec) = binary_prec(t) else { break };
            if prec < min_prec {
                break;
            }
            let op = t.text.clone();
            let pos = Pos { line: t.line, col: t.col };
            self.pos += 1;
            let rhs = self.binary_expr(prec + 1, no_struct);
            lhs = Expr {
                pos,
                kind: ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) },
            };
        }
        lhs
    }

    fn unary_expr(&mut self, no_struct: bool) -> Expr {
        let pos = self.here();
        if let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "-" | "!" | "*" => {
                        self.pos += 1;
                        let e = self.unary_expr(no_struct);
                        return Expr { pos, kind: ExprKind::Unary(Box::new(e)) };
                    }
                    "&" | "&&" => {
                        self.pos += 1;
                        self.eat_ident("mut");
                        let e = self.unary_expr(no_struct);
                        return Expr { pos, kind: ExprKind::Unary(Box::new(e)) };
                    }
                    _ => {}
                }
            }
        }
        self.postfix_expr(no_struct)
    }

    fn postfix_expr(&mut self, no_struct: bool) -> Expr {
        let mut e = self.primary_expr(no_struct);
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "." if t.kind == TokKind::Punct => {
                    let Some(next) = self.peek_at(1) else { break };
                    match next.kind {
                        TokKind::Ident => {
                            let name = next.text.clone();
                            let name_pos = Pos { line: next.line, col: next.col };
                            self.pos += 2;
                            // Turbofish: `.collect::<T>()`.
                            if self.at_punct("::") {
                                self.pos += 1;
                                self.skip_generics();
                            }
                            if self.at_punct("(") {
                                let args = self.call_args();
                                e = Expr {
                                    pos: name_pos,
                                    kind: ExprKind::MethodCall {
                                        recv: Box::new(e),
                                        name,
                                        args,
                                    },
                                };
                            } else {
                                e = Expr {
                                    pos: name_pos,
                                    kind: ExprKind::Field { recv: Box::new(e), name },
                                };
                            }
                        }
                        TokKind::Int | TokKind::Float => {
                            // Tuple index (`x.0`, or `x.0.1` lexed as float).
                            let name = next.text.clone();
                            let name_pos = Pos { line: next.line, col: next.col };
                            self.pos += 2;
                            e = Expr {
                                pos: name_pos,
                                kind: ExprKind::Field { recv: Box::new(e), name },
                            };
                        }
                        _ => break,
                    }
                }
                "(" if t.kind == TokKind::Punct => {
                    let pos = Pos { line: t.line, col: t.col };
                    let args = self.call_args();
                    e = Expr { pos, kind: ExprKind::Call { callee: Box::new(e), args } };
                }
                "[" if t.kind == TokKind::Punct => {
                    let pos = Pos { line: t.line, col: t.col };
                    self.pos += 1;
                    let index = self.expr(false);
                    self.eat_punct("]");
                    e = Expr {
                        pos,
                        kind: ExprKind::Index { recv: Box::new(e), index: Box::new(index) },
                    };
                }
                "?" if t.kind == TokKind::Punct => {
                    let pos = Pos { line: t.line, col: t.col };
                    self.pos += 1;
                    e = Expr { pos, kind: ExprKind::Try(Box::new(e)) };
                }
                "as" if t.kind == TokKind::Ident => {
                    let pos = Pos { line: t.line, col: t.col };
                    self.pos += 1;
                    let _ty = self.type_text();
                    e = Expr { pos, kind: ExprKind::Cast(Box::new(e)) };
                }
                _ => break,
            }
        }
        e
    }

    /// Parses `( expr, expr, … )` starting at `(`.
    fn call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        if !self.eat_punct("(") {
            return args;
        }
        loop {
            match self.peek() {
                None => break,
                Some(t) if t.is_punct(")") => {
                    self.pos += 1;
                    break;
                }
                Some(t) if t.is_punct(",") => {
                    self.pos += 1;
                }
                Some(_) => {
                    let before = self.pos;
                    args.push(self.expr(false));
                    if self.pos == before {
                        self.recover();
                        self.pos += 1;
                    }
                }
            }
        }
        args
    }

    #[allow(clippy::too_many_lines)]
    fn primary_expr(&mut self, no_struct: bool) -> Expr {
        let pos = self.here();
        let Some(t) = self.peek() else {
            return Expr { pos, kind: ExprKind::Opaque };
        };
        match t.kind {
            TokKind::Int | TokKind::Float | TokKind::Str | TokKind::Char => {
                let text = t.text.clone();
                self.pos += 1;
                Expr { pos, kind: ExprKind::Lit(text) }
            }
            TokKind::Lifetime => {
                // Loop label `'name: loop/while/for/{`.
                if self.peek_at(1).is_some_and(|n| n.is_punct(":")) {
                    self.pos += 2;
                    return self.primary_expr(no_struct);
                }
                self.pos += 1;
                Expr { pos, kind: ExprKind::Opaque }
            }
            TokKind::Punct => match t.text.as_str() {
                "(" => {
                    self.pos += 1;
                    let mut elems = Vec::new();
                    loop {
                        match self.peek() {
                            None => break,
                            Some(t) if t.is_punct(")") => {
                                self.pos += 1;
                                break;
                            }
                            Some(t) if t.is_punct(",") => {
                                self.pos += 1;
                            }
                            Some(_) => {
                                let before = self.pos;
                                elems.push(self.expr(false));
                                if self.pos == before {
                                    self.recover();
                                    self.pos += 1;
                                }
                            }
                        }
                    }
                    Expr { pos, kind: ExprKind::Tuple(elems) }
                }
                "[" => {
                    self.pos += 1;
                    let mut elems = Vec::new();
                    loop {
                        match self.peek() {
                            None => break,
                            Some(t) if t.is_punct("]") => {
                                self.pos += 1;
                                break;
                            }
                            Some(t) if t.is_punct(",") || t.is_punct(";") => {
                                self.pos += 1;
                            }
                            Some(_) => {
                                let before = self.pos;
                                elems.push(self.expr(false));
                                if self.pos == before {
                                    self.recover();
                                    self.pos += 1;
                                }
                            }
                        }
                    }
                    Expr { pos, kind: ExprKind::Array(elems) }
                }
                "{" => Expr { pos, kind: ExprKind::Block(self.block()) },
                "|" | "||" => self.closure_expr(pos),
                "#" => {
                    self.attrs();
                    self.primary_expr(no_struct)
                }
                "<" => {
                    // Qualified path `<T as Trait>::method` — skip the
                    // bracketed part, then parse the path remainder.
                    self.skip_generics();
                    self.eat_punct("::");
                    self.primary_expr(no_struct)
                }
                _ => {
                    self.recover();
                    self.pos += 1;
                    Expr { pos, kind: ExprKind::Opaque }
                }
            },
            TokKind::Ident => match t.text.as_str() {
                "if" => self.if_expr(),
                "match" => self.match_expr(),
                "while" => {
                    self.pos += 1;
                    let cond = self.expr(true);
                    let body = self.block();
                    Expr { pos, kind: ExprKind::While { cond: Box::new(cond), body } }
                }
                "loop" => {
                    self.pos += 1;
                    let body = self.block();
                    Expr { pos, kind: ExprKind::Loop { body } }
                }
                "for" => {
                    self.pos += 1;
                    let (bindings, _) = self.pattern_until(&["in"]);
                    self.eat_ident("in");
                    let iter = self.expr(true);
                    let body = self.block();
                    Expr { pos, kind: ExprKind::For { bindings, iter: Box::new(iter), body } }
                }
                "unsafe" => {
                    self.pos += 1;
                    Expr { pos, kind: ExprKind::Unsafe(self.block()) }
                }
                "move" => {
                    self.pos += 1;
                    if self.at_punct("|") || self.at_punct("||") {
                        self.closure_expr(pos)
                    } else {
                        // `move` block (rare): treat as block.
                        Expr { pos, kind: ExprKind::Block(self.block()) }
                    }
                }
                "return" => {
                    self.pos += 1;
                    let value = if self.starts_expr() {
                        Some(Box::new(self.expr(no_struct)))
                    } else {
                        None
                    };
                    Expr { pos, kind: ExprKind::Return(value) }
                }
                "break" => {
                    self.pos += 1;
                    if self.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.pos += 1;
                    }
                    if self.starts_expr() {
                        let _ = self.expr(no_struct);
                    }
                    Expr { pos, kind: ExprKind::BreakContinue }
                }
                "continue" => {
                    self.pos += 1;
                    if self.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.pos += 1;
                    }
                    Expr { pos, kind: ExprKind::BreakContinue }
                }
                "let" => {
                    // `let pat = expr` in a condition position.
                    self.pos += 1;
                    let (bindings, _) = self.pattern_until(&["="]);
                    self.eat_punct("=");
                    let value = self.expr(true);
                    Expr { pos, kind: ExprKind::LetCond { bindings, expr: Box::new(value) } }
                }
                _ => self.path_or_struct_expr(no_struct),
            },
        }
    }

    fn closure_expr(&mut self, pos: Pos) -> Expr {
        let mut params = Vec::new();
        if self.eat_punct("||") {
            // Zero parameters.
        } else if self.eat_punct("|") {
            // Parameters until the closing `|` at depth 0.
            let mut depth = 0i32;
            while let Some(t) = self.peek() {
                if depth == 0 && (t.is_punct("|") || t.is_punct("||")) {
                    break;
                }
                match t.text.as_str() {
                    "(" | "[" | "{" | "<" if t.kind == TokKind::Punct => depth += 1,
                    ")" | "]" | "}" | ">" if t.kind == TokKind::Punct => depth -= 1,
                    _ => {}
                }
                if t.kind == TokKind::Ident
                    && is_binding_ident(t, self.peek_at(1))
                    && depth == 0
                {
                    params.push(t.text.clone());
                }
                self.pos += 1;
            }
            if self.at_punct("||") {
                // `|x|| …` cannot happen; `||` here closes and opens — split.
                self.pos += 1;
            } else {
                self.eat_punct("|");
            }
        }
        if self.eat_punct("->") {
            let _ = self.type_text();
            // An explicit return type forces a block body.
        }
        let body = self.expr(false);
        Expr {
            pos: body_pos_or(pos, &body),
            kind: ExprKind::Closure { params, body: Box::new(body) },
        }
    }

    fn if_expr(&mut self) -> Expr {
        let pos = self.here();
        self.pos += 1; // `if`
        let cond = self.expr(true);
        let then_block = self.block();
        let else_branch = if self.eat_ident("else") {
            if self.at_ident("if") {
                Some(Box::new(self.if_expr()))
            } else {
                let pos = self.here();
                Some(Box::new(Expr { pos, kind: ExprKind::Block(self.block()) }))
            }
        } else {
            None
        };
        Expr { pos, kind: ExprKind::If { cond: Box::new(cond), then_block, else_branch } }
    }

    fn match_expr(&mut self) -> Expr {
        let pos = self.here();
        self.pos += 1; // `match`
        let scrutinee = self.expr(true);
        let mut arms = Vec::new();
        if self.eat_punct("{") {
            loop {
                match self.peek() {
                    None => break,
                    Some(t) if t.is_punct("}") => {
                        self.pos += 1;
                        break;
                    }
                    Some(t) if t.is_punct(",") => {
                        self.pos += 1;
                    }
                    Some(t) if t.is_punct("#") => {
                        self.attrs();
                    }
                    Some(_) => {
                        let (bindings, stop) = self.pattern_until(&["=>", "if"]);
                        let mut bindings = bindings;
                        if stop.as_deref() == Some("if") {
                            // Guard: parse (and discard) the guard expr.
                            self.pos += 1;
                            let _guard = self.expr(true);
                        }
                        if !self.eat_punct("=>") {
                            // Malformed arm: bail out of the match body.
                            self.recover();
                            break;
                        }
                        let body = self.expr(false);
                        bindings.dedup();
                        arms.push(Arm { bindings, body });
                    }
                }
            }
        }
        Expr { pos, kind: ExprKind::Match { scrutinee: Box::new(scrutinee), arms } }
    }

    fn path_or_struct_expr(&mut self, no_struct: bool) -> Expr {
        let pos = self.here();
        let mut segs: Vec<String> = Vec::new();
        loop {
            match self.peek() {
                Some(t) if t.kind == TokKind::Ident => {
                    segs.push(t.text.clone());
                    self.pos += 1;
                }
                _ => break,
            }
            if self.at_punct("::") {
                self.pos += 1;
                if self.at_punct("<") {
                    // Turbofish.
                    self.skip_generics();
                    if self.at_punct("::") {
                        self.pos += 1;
                        continue;
                    }
                    break;
                }
            } else {
                break;
            }
        }
        if segs.is_empty() {
            self.recover();
            self.pos += 1;
            return Expr { pos, kind: ExprKind::Opaque };
        }
        // Macro invocation in expression position.
        if self.at_punct("!") && !self.peek_at(1).is_some_and(|t| t.is_punct("=")) {
            self.pos += 1;
            let tokens = self.balanced();
            return Expr {
                pos,
                kind: ExprKind::Macro(MacroCall { pos, path: segs.join("::"), tokens }),
            };
        }
        // Struct literal.
        if !no_struct && self.at_punct("{") && self.looks_like_struct_lit() {
            self.pos += 1;
            let mut fields = Vec::new();
            loop {
                match self.peek() {
                    None => break,
                    Some(t) if t.is_punct("}") => {
                        self.pos += 1;
                        break;
                    }
                    Some(t) if t.is_punct(",") => {
                        self.pos += 1;
                    }
                    Some(t) if t.is_punct("..") => {
                        self.pos += 1;
                        let _base = self.expr(false);
                    }
                    Some(t) if t.kind == TokKind::Ident => {
                        let fname = t.text.clone();
                        self.pos += 1;
                        if self.eat_punct(":") {
                            let value = self.expr(false);
                            fields.push((fname, Some(value)));
                        } else {
                            fields.push((fname, None));
                        }
                    }
                    Some(_) => {
                        self.recover();
                        self.pos += 1;
                    }
                }
            }
            return Expr { pos, kind: ExprKind::StructLit { path: segs.join("::"), fields } };
        }
        Expr { pos, kind: ExprKind::Path(segs) }
    }

    /// Lookahead after a path's `{`: does the content shape like a struct
    /// literal body?
    fn looks_like_struct_lit(&self) -> bool {
        let Some(first) = self.peek_at(1) else { return false };
        if first.is_punct("}") || first.is_punct("..") {
            return true;
        }
        if first.kind == TokKind::Ident {
            if let Some(second) = self.peek_at(2) {
                return (second.is_punct(":") && !second.is_punct("::"))
                    || second.is_punct(",")
                    || second.is_punct("}");
            }
        }
        false
    }
}

/// Parameter list from the tokens inside `fn(…)`.
fn parse_params(inner: &[Tok]) -> Vec<Field> {
    let mut params = Vec::new();
    for group in split_top_level(inner, ",") {
        if group.is_empty() {
            continue;
        }
        // `self` receivers: `&self`, `&mut self`, `self`, `mut self`.
        if group.iter().any(|t| t.is_ident("self")) && group.len() <= 3 {
            params.push(Field { name: "self".to_owned(), ty: String::new() });
            continue;
        }
        let colon = find_top_level(&group, ":");
        match colon {
            Some(idx) => {
                let name = group[..idx]
                    .iter()
                    .rev()
                    .find(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
                    .map_or_else(String::new, |t| t.text.clone());
                let ty = group[idx + 1..]
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join(" ");
                params.push(Field { name, ty });
            }
            None => {
                let ty = group.iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" ");
                params.push(Field { name: String::new(), ty });
            }
        }
    }
    params
}

/// Named fields from the tokens inside `struct { … }`.
fn parse_named_fields(inner: &[Tok]) -> Vec<Field> {
    let mut fields = Vec::new();
    for group in split_top_level(inner, ",") {
        // Strip attributes and visibility.
        let mut i = 0;
        while i < group.len() {
            if group[i].is_punct("#") {
                // Skip `#[…]`.
                i += 1;
                let mut depth = 0i32;
                while i < group.len() {
                    match group[i].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            } else if group[i].is_ident("pub") {
                i += 1;
                if i < group.len() && group[i].is_punct("(") {
                    let mut depth = 0i32;
                    while i < group.len() {
                        match group[i].text.as_str() {
                            "(" => depth += 1,
                            ")" => {
                                depth -= 1;
                                if depth == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                }
            } else {
                break;
            }
        }
        let rest = &group[i..];
        if rest.len() >= 2 && rest[0].kind == TokKind::Ident && rest[1].is_punct(":") {
            let ty = rest[2..].iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" ");
            fields.push(Field { name: rest[0].text.clone(), ty });
        }
    }
    fields
}

/// Splits a token slice at `sep` puncts that sit at delimiter depth zero.
#[must_use]
pub fn split_top_level(toks: &[Tok], sep: &str) -> Vec<Vec<Tok>> {
    let mut out = Vec::new();
    let mut current: Vec<Tok> = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    for t in toks {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle = (angle - 1).max(0),
                ">>" => angle = (angle - 2).max(0),
                "->" => angle = angle.max(0),
                _ => {}
            }
            if t.text == sep && depth == 0 && angle == 0 {
                out.push(std::mem::take(&mut current));
                continue;
            }
        }
        current.push(t.clone());
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

fn find_top_level(toks: &[Tok], needle: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                _ => {}
            }
            if t.text == needle && depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Binary operator precedence for the Pratt loop (higher binds tighter);
/// `None` for tokens that do not continue a binary expression.
fn binary_prec(t: &Tok) -> Option<u8> {
    if t.kind != TokKind::Punct {
        return None;
    }
    match t.text.as_str() {
        "||" => Some(1),
        "&&" => Some(2),
        "==" | "!=" | "<" | ">" | "<=" | ">=" => Some(3),
        "|" => Some(4),
        "^" => Some(5),
        "&" => Some(6),
        "<<" | ">>" => Some(7),
        "+" | "-" => Some(8),
        "*" | "/" | "%" => Some(9),
        _ => None,
    }
}

/// First path segment head of flattened type text (`Quantity` for
/// `Quantity<Dim<…>>`, `QueueState` for `&mut QueueState`).
fn path_head(ty: &str) -> String {
    let trimmed = ty.trim_start_matches(['&', '*', ' ']);
    let trimmed = trimmed
        .trim_start_matches("mut ")
        .trim_start_matches("dyn ")
        .trim_start_matches("impl ");
    // Last segment before generics: `fmt::Display` -> `Display`.
    let head: &str = trimmed.split(['<', ' ', '(']).next().unwrap_or_default();
    head.rsplit("::").next().unwrap_or_default().to_owned()
}

/// Heuristic: a lowercase identifier in pattern position binds a name
/// unless it is a path/struct/macro head or a field label.
fn is_binding_ident(t: &Tok, next: Option<&Tok>) -> bool {
    if t.text == "_"
        || matches!(
            t.text.as_str(),
            "mut"
                | "ref"
                | "box"
                | "in"
                | "if"
                | "else"
                | "move"
                | "self"
                | "Self"
                | "crate"
                | "super"
                | "true"
                | "false"
        )
    {
        return false;
    }
    if !t.text.starts_with(|c: char| c.is_ascii_lowercase() || c == '_') {
        return false;
    }
    !next.is_some_and(|n| {
        n.is_punct("::")
            || n.is_punct("(")
            || n.is_punct("{")
            || n.is_punct(":")
            || n.is_punct("!")
    })
}

fn body_pos_or(fallback: Pos, body: &Expr) -> Pos {
    if body.pos.line == 0 {
        fallback
    } else {
        body.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse(src: &str) -> File {
        parse_file(&tokenize(src))
    }

    #[test]
    fn items_and_fields_are_extracted() {
        let file = parse(
            "pub struct ModelParams {\n    pub soc_area_mm2: f64,\n    #[doc = \"x\"]\n    pub lifetime_years: f64,\n}\n\
             struct Handle(u32);\n\
             enum Run { Completed, DeadlineExceeded { completed: usize } }\n",
        );
        assert_eq!(file.recoveries, 0);
        let ItemKind::Struct { name, named, fields } = &file.items[0].kind else {
            panic!("expected struct: {:?}", file.items[0].kind);
        };
        assert_eq!(name, "ModelParams");
        assert!(named);
        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["soc_area_mm2", "lifetime_years"]);
        let ItemKind::Struct { named: tuple_named, .. } = &file.items[1].kind else {
            panic!("expected tuple struct");
        };
        assert!(!tuple_named);
        let ItemKind::Enum { variants, .. } = &file.items[2].kind else {
            panic!("expected enum");
        };
        assert_eq!(variants, &["Completed", "DeadlineExceeded"]);
    }

    #[test]
    fn impl_blocks_and_fn_bodies_parse() {
        let file = parse(
            "impl fmt::Display for Quantity<Dim<P1, Z0>> {\n\
                 fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {\n\
                     write!(f, \"{}\", self.0)\n\
                 }\n\
             }\n",
        );
        assert_eq!(file.recoveries, 0);
        let ItemKind::Impl { self_ty, trait_name, items } = &file.items[0].kind else {
            panic!("expected impl");
        };
        assert_eq!(self_ty, "Quantity");
        assert_eq!(trait_name.as_deref(), Some("Display"));
        assert!(matches!(items[0].kind, ItemKind::Fn(_)));
    }

    #[test]
    fn loops_conditions_and_method_calls_structure() {
        let file = parse(
            "fn run(budget: &EvalBudget) {\n\
                 for (index, slot) in out.values.iter_mut().enumerate() {\n\
                     if budget.is_exhausted() { return; }\n\
                     let v = kernel.eval(&scratch[..n]);\n\
                 }\n\
             }\n",
        );
        assert_eq!(file.recoveries, 0);
        let ItemKind::Fn(f) = &file.items[0].kind else { panic!("fn") };
        assert_eq!(f.params[0].name, "budget");
        assert!(f.params[0].ty.contains("EvalBudget"));
        let body = f.body.as_ref().map(|b| &b.stmts).into_iter().flatten().next();
        let Some(Stmt::Expr(Expr { kind: ExprKind::For { bindings, body, .. }, .. })) = body
        else {
            panic!("expected for loop");
        };
        assert_eq!(bindings, &["index", "slot"]);
        assert!(matches!(body.stmts[0], Stmt::Expr(Expr { kind: ExprKind::If { .. }, .. })));
        let Stmt::Let(let_stmt) = &body.stmts[1] else { panic!("let") };
        assert_eq!(let_stmt.names, vec!["v"]);
    }

    #[test]
    fn struct_literals_vs_blocks_disambiguate() {
        let file = parse(
            "fn f() -> Reject {\n\
                 let x = Reject { status: 1, kind };\n\
                 if x.status == 1 { go(); }\n\
                 Self { status: 2, kind }\n\
             }\n",
        );
        assert_eq!(file.recoveries, 0);
    }

    #[test]
    fn match_arms_and_closures_parse() {
        let file = parse(
            "fn f(v: &[f64]) -> usize {\n\
                 let r = match queue.lock() {\n\
                     Ok(guard) => guard,\n\
                     Err(poisoned) if true => poisoned.into_inner(),\n\
                     _ => return 0,\n\
                 };\n\
                 v.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap_or(0)\n\
             }\n",
        );
        assert_eq!(file.recoveries, 0);
    }

    #[test]
    fn macro_calls_keep_their_tokens() {
        let file = parse("act_json::impl_to_json!(Point { x, label });\n");
        let ItemKind::MacroCall(mac) = &file.items[0].kind else {
            panic!("expected macro call: {:?}", file.items[0].kind)
        };
        assert_eq!(mac.path, "act_json::impl_to_json");
        assert!(mac.tokens.iter().any(|t| t.is_ident("label")));
    }

    #[test]
    fn cfg_test_gates_are_tracked() {
        let file = parse("#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n");
        assert!(file.items[0].cfg_test);
    }

    #[test]
    fn attributed_let_keeps_struct_literal_initializers() {
        // `#[allow(...)] let x = S { … };` must parse as a let statement,
        // not as the condition-position `let` (which forbids struct
        // literals and would recover on the field list).
        let file = parse(
            "fn f(task: &(dyn Fn() + Sync)) {\n\
             \x20   #[allow(unsafe_code)]\n\
             \x20   let task_ref = TaskRef {\n\
             \x20       ptr: unsafe {\n\
             \x20           std::mem::transmute::<&(dyn Fn() + Sync), *const (dyn Fn() + Sync)>(task)\n\
             \x20       },\n\
             \x20   };\n\
             \x20   drop(task_ref);\n\
             }\n",
        );
        assert_eq!(file.recoveries, 0, "recovered at {:?}", file.recovered_at);
        let ItemKind::Fn(f) = &file.items[0].kind else { panic!("fn") };
        let body = f.body.as_ref().expect("fn body");
        let Stmt::Let(l) = &body.stmts[0] else { panic!("let: {:?}", body.stmts[0]) };
        assert_eq!(l.names, ["task_ref"]);
    }

    #[test]
    fn unsafe_impl_and_unsafe_trait_parse_as_items() {
        let file = parse(
            "unsafe impl Send for TaskRef {}\nunsafe trait Marker {}\npub struct TaskRef;\n",
        );
        assert_eq!(file.recoveries, 0, "recovered at {:?}", file.recovered_at);
        assert_eq!(file.items.len(), 3);
    }
}
