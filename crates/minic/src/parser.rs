//! Recursive-descent parser for MiniC.
//!
//! The parser tracks typedef and struct names so that `T * p;` parses as a
//! declaration when `T` is a type, exactly like a real C parser. A *lenient*
//! mode (used by the type-inference engine, mirroring PsycheC's treatment of
//! partial programs) additionally accepts unknown identifiers in type
//! position when the surrounding syntax makes the declaration reading
//! unambiguous enough, recording them in [`Program::unknown_types`].

use crate::ast::*;
use crate::token::{is_keyword, Token, TokenKind};
use crate::types::{IntKind, StructDef, Type};
use crate::{Diag, ErrorKind, Lexer, MiniCError, Result};
use std::collections::HashSet;

/// Parses a complete MiniC translation unit in strict mode.
///
/// # Errors
///
/// Returns the first lex or parse error encountered.
///
/// # Example
///
/// ```
/// let p = slade_minic::parse_program("int id(int x) { return x; }").unwrap();
/// assert_eq!(p.functions().count(), 1);
/// ```
pub fn parse_program(src: &str) -> Result<Program> {
    Parser::new(src, false)?.parse()
}

/// Parses in lenient mode: unknown identifiers may act as type names and are
/// recorded in [`Program::unknown_types`] for the type-inference engine.
///
/// # Errors
///
/// Returns the first lex or parse error encountered.
pub fn parse_program_lenient(src: &str) -> Result<Program> {
    Parser::new(src, true)?.parse()
}

/// The MiniC parser. Most users want [`parse_program`]; the struct is public
/// so embedders can parse single expressions or statements.
#[derive(Debug)]
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    lenient: bool,
    type_names: HashSet<String>,
    struct_names: HashSet<String>,
    unknown_types: Vec<String>,
    next_id: NodeId,
}

impl Parser {
    /// Creates a parser over `src`. `lenient` enables unknown-type recovery.
    ///
    /// # Errors
    ///
    /// Fails if lexing fails.
    pub fn new(src: &str, lenient: bool) -> Result<Self> {
        let tokens = Lexer::new(src).tokenize()?;
        let mut type_names = HashSet::new();
        // Common stdint/stddef aliases are treated as built-in typedefs so
        // real-world-looking code parses; sema resolves them.
        for (name, _) in builtin_typedefs() {
            type_names.insert(name.to_string());
        }
        Ok(Parser {
            tokens,
            pos: 0,
            lenient,
            type_names,
            struct_names: HashSet::new(),
            unknown_types: Vec::new(),
            next_id: 0,
        })
    }

    /// Parses the whole token stream into a [`Program`].
    ///
    /// # Errors
    ///
    /// Returns the first parse error.
    pub fn parse(mut self) -> Result<Program> {
        let mut items = Vec::new();
        // Built-in typedefs are materialized so that layout/sema see them.
        for (name, ty) in builtin_typedefs() {
            items.push(Item::Typedef { name: name.to_string(), ty });
        }
        while !self.at_eof() {
            self.parse_top_level(&mut items)?;
        }
        let mut unknown = std::mem::take(&mut self.unknown_types);
        unknown.sort();
        unknown.dedup();
        Ok(Program { items, node_count: self.next_id, unknown_types: unknown })
    }

    // ---- token helpers ----

    fn cur(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn line(&self) -> u32 {
        self.cur().line
    }

    fn at_eof(&self) -> bool {
        matches!(self.cur().kind, TokenKind::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.cur().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(&self.cur().kind, TokenKind::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found `{}`", self.cur().kind)))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(&self.cur().kind, TokenKind::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(&self.cur().kind, TokenKind::Ident(s) if s == kw)
    }

    fn peek_punct(&self, p: &str) -> bool {
        matches!(&self.cur().kind, TokenKind::Punct(q) if *q == p)
    }

    fn peek_kind_at(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn expect_ident(&mut self) -> Result<String> {
        match &self.cur().kind {
            TokenKind::Ident(s) if !is_keyword(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found `{other}`"))),
        }
    }

    fn err(&self, msg: impl Into<Diag>) -> MiniCError {
        MiniCError::new(ErrorKind::Parse, msg, self.line())
    }

    fn fresh_id(&mut self) -> NodeId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn expr(&mut self, kind: ExprKind, line: u32) -> Expr {
        Expr { kind, id: self.fresh_id(), line }
    }

    // ---- type parsing ----

    /// True if the current token begins a type in the current mode.
    fn at_type_start(&self) -> bool {
        match &self.cur().kind {
            TokenKind::Ident(s) => {
                matches!(
                    s.as_str(),
                    "void"
                        | "char"
                        | "short"
                        | "int"
                        | "long"
                        | "float"
                        | "double"
                        | "signed"
                        | "unsigned"
                        | "struct"
                        | "const"
                        | "volatile"
                ) || self.type_names.contains(s)
            }
            _ => false,
        }
    }

    /// In lenient mode: does `ident` at the cursor look like an unknown type
    /// name used in a declaration (`T x`, `T * x`, `T *restrict x`)?
    fn looks_like_unknown_type_decl(&self) -> bool {
        if !self.lenient {
            return false;
        }
        let TokenKind::Ident(s) = &self.cur().kind else { return false };
        if is_keyword(s) || self.type_names.contains(s) {
            return false;
        }
        let mut n = 1;
        // Skip pointer stars and qualifier keywords.
        let mut saw_star = false;
        loop {
            match self.peek_kind_at(n) {
                TokenKind::Punct("*") => {
                    saw_star = true;
                    n += 1;
                }
                TokenKind::Ident(q)
                    if matches!(q.as_str(), "const" | "restrict" | "__restrict") =>
                {
                    n += 1;
                }
                _ => break,
            }
        }
        match self.peek_kind_at(n) {
            // `T x ...` where `...` continues a declarator.
            TokenKind::Ident(x) if !is_keyword(x) => {
                saw_star
                    || matches!(
                        self.peek_kind_at(n + 1),
                        TokenKind::Punct(";")
                            | TokenKind::Punct("=")
                            | TokenKind::Punct(",")
                            | TokenKind::Punct(")")
                            | TokenKind::Punct("[")
                            | TokenKind::Punct("(")
                    )
            }
            _ => false,
        }
    }

    /// Parses declaration specifiers plus pointer declarator prefix; returns
    /// the base type (before array suffixes) and flags.
    fn parse_type_specifiers(&mut self) -> Result<Type> {
        // Qualifiers and storage are accepted and discarded.
        loop {
            if self.eat_kw("const")
                || self.eat_kw("volatile")
                || self.eat_kw("restrict")
                || self.eat_kw("__restrict")
                || self.eat_kw("inline")
            {
                continue;
            }
            break;
        }
        if self.eat_kw("struct") {
            let name = self.expect_ident()?;
            self.struct_names.insert(name.clone());
            return Ok(Type::Struct(name));
        }
        let mut signedness: Option<bool> = None; // Some(true) = unsigned
        let mut base: Option<&str> = None;
        let mut longs = 0;
        while let TokenKind::Ident(s) = &self.cur().kind {
            match s.as_str() {
                "unsigned" => {
                    signedness = Some(true);
                    self.bump();
                }
                "signed" => {
                    signedness = Some(false);
                    self.bump();
                }
                "long" => {
                    longs += 1;
                    self.bump();
                }
                "void" | "char" | "short" | "int" | "float" | "double" if base.is_none() => {
                    base = Some(match s.as_str() {
                        "void" => "void",
                        "char" => "char",
                        "short" => "short",
                        "int" => "int",
                        "float" => "float",
                        "double" => "double",
                        _ => unreachable!(),
                    });
                    self.bump();
                }
                "const" | "volatile" | "restrict" | "__restrict" => {
                    self.bump();
                }
                _ => break,
            }
        }
        let unsigned = signedness == Some(true);
        if base.is_none() && longs == 0 && signedness.is_none() {
            // Typedef name or (lenient) unknown type.
            let TokenKind::Ident(s) = &self.cur().kind else {
                return Err(self.err("expected type"));
            };
            let s = s.clone();
            if self.type_names.contains(&s) {
                self.bump();
                return Ok(Type::Named(s));
            }
            if self.lenient && !is_keyword(&s) {
                self.bump();
                self.unknown_types.push(s.clone());
                return Ok(Type::Named(s));
            }
            return Err(self.err(Diag::UnknownTypeName(s)));
        }
        let ty = match (base, longs) {
            (Some("void"), _) => Type::Void,
            (Some("char"), _) => {
                Type::Int(if unsigned { IntKind::UChar } else { IntKind::Char })
            }
            (Some("short"), _) => {
                Type::Int(if unsigned { IntKind::UShort } else { IntKind::Short })
            }
            (Some("float"), _) => Type::Float,
            (Some("double"), _) => Type::Double,
            (Some("int"), 0) | (None, 0) => {
                Type::Int(if unsigned { IntKind::UInt } else { IntKind::Int })
            }
            // `long`, `long int`, `long long` (all 64-bit under LP64).
            (_, _n) => Type::Int(if unsigned { IntKind::ULong } else { IntKind::Long }),
        };
        Ok(ty)
    }

    /// Parses `*`s and qualifier keywords after the base type.
    fn parse_pointers(&mut self, mut ty: Type) -> Type {
        loop {
            if self.eat_punct("*") {
                ty = Type::Ptr(Box::new(ty));
            } else if self.peek_kw("const")
                || self.peek_kw("restrict")
                || self.peek_kw("__restrict")
                || self.peek_kw("volatile")
            {
                self.bump();
            } else {
                return ty;
            }
        }
    }

    /// Parses array suffixes `[N]...` after a declarator name, wrapping `ty`.
    fn parse_array_suffix(&mut self, ty: Type) -> Result<Type> {
        if !self.eat_punct("[") {
            return Ok(ty);
        }
        // Unsized `[]` decays to a pointer (parameter position).
        if self.eat_punct("]") {
            let inner = self.parse_array_suffix(ty)?;
            return Ok(Type::Ptr(Box::new(inner)));
        }
        let n = match &self.cur().kind {
            TokenKind::IntLit { value, .. } => *value as usize,
            other => return Err(self.err(format!("expected array size, found `{other}`"))),
        };
        self.bump();
        self.expect_punct("]")?;
        let inner = self.parse_array_suffix(ty)?;
        Ok(Type::Array(Box::new(inner), n))
    }

    // ---- top level ----

    fn parse_top_level(&mut self, items: &mut Vec<Item>) -> Result<()> {
        if self.eat_kw("typedef") {
            let base = self.parse_type_specifiers()?;
            let ty = self.parse_pointers(base);
            let name = self.expect_ident()?;
            let ty = self.parse_array_suffix(ty)?;
            self.expect_punct(";")?;
            self.type_names.insert(name.clone());
            items.push(Item::Typedef { name, ty });
            return Ok(());
        }
        let is_extern = self.eat_kw("extern");
        let is_static = self.eat_kw("static");
        if self.peek_kw("struct") && matches!(self.peek_kind_at(2), TokenKind::Punct("{")) {
            self.bump(); // struct
            let name = self.expect_ident()?;
            self.struct_names.insert(name.clone());
            self.expect_punct("{")?;
            let mut fields = Vec::new();
            while !self.eat_punct("}") {
                let base = self.parse_type_specifiers()?;
                loop {
                    let fty = self.parse_pointers(base.clone());
                    let fname = self.expect_ident()?;
                    let fty = self.parse_array_suffix(fty)?;
                    fields.push((fname, fty));
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct(";")?;
            }
            self.expect_punct(";")?;
            items.push(Item::Struct(StructDef { name, fields }));
            return Ok(());
        }
        let base = if self.at_type_start() || self.looks_like_unknown_type_decl() {
            self.parse_type_specifiers()?
        } else {
            match &self.cur().kind {
                // Lenient mode: an unknown return type in a definition like
                // `my_t f(...) {` — accept it.
                TokenKind::Ident(s)
                    if self.lenient
                        && !is_keyword(s)
                        && matches!(self.peek_kind_at(1), TokenKind::Ident(_)) =>
                {
                    let s = s.clone();
                    self.bump();
                    self.unknown_types.push(s.clone());
                    Type::Named(s)
                }
                found => return Err(self.err(Diag::ExpectedDeclaration(found.clone()))),
            }
        };
        let ty = self.parse_pointers(base.clone());
        let name = self.expect_ident()?;
        if self.peek_punct("(") {
            let func = self.parse_function_rest(name, ty, is_static)?;
            items.push(Item::Function(func));
            return Ok(());
        }
        // Global variable(s).
        let mut ty = self.parse_array_suffix(ty)?;
        let mut name = name;
        loop {
            let init = if self.eat_punct("=") { Some(self.parse_initializer()?) } else { None };
            items.push(Item::Global { name, ty, init, is_extern });
            if !self.eat_punct(",") {
                break;
            }
            let t = self.parse_pointers(base.clone());
            name = self.expect_ident()?;
            ty = self.parse_array_suffix(t)?;
        }
        self.expect_punct(";")?;
        Ok(())
    }

    /// Parses a brace-or-scalar initializer. Brace lists are desugared into a
    /// synthetic `Comma` chain consumed by sema/interp as array element inits.
    fn parse_initializer(&mut self) -> Result<Expr> {
        if self.peek_punct("{") {
            let line = self.line();
            self.bump();
            let mut elems = Vec::new();
            if !self.peek_punct("}") {
                loop {
                    elems.push(self.parse_initializer()?);
                    if !self.eat_punct(",") {
                        break;
                    }
                    if self.peek_punct("}") {
                        break; // trailing comma
                    }
                }
            }
            self.expect_punct("}")?;
            // Represent `{a, b, c}` as Call to the reserved name "__init_list".
            Ok(self.expr(ExprKind::Call { callee: "__init_list".into(), args: elems }, line))
        } else {
            self.parse_assignment()
        }
    }

    fn parse_function_rest(
        &mut self,
        name: String,
        ret: Type,
        is_static: bool,
    ) -> Result<Function> {
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.peek_punct(")") {
            if self.peek_kw("void") && matches!(self.peek_kind_at(1), TokenKind::Punct(")")) {
                self.bump();
            } else {
                loop {
                    let base = self.parse_type_specifiers()?;
                    let ty = self.parse_pointers(base);
                    // Parameter name may be omitted in prototypes.
                    let pname = match &self.cur().kind {
                        TokenKind::Ident(s) if !is_keyword(s) => {
                            let s = s.clone();
                            self.bump();
                            s
                        }
                        _ => format!("__arg{}", params.len()),
                    };
                    let ty = self.parse_array_suffix(ty)?.decay();
                    params.push((pname, ty));
                    if !self.eat_punct(",") {
                        break;
                    }
                    if self.eat_punct("...") {
                        break; // varargs accepted syntactically, ignored
                    }
                }
            }
        }
        self.expect_punct(")")?;
        let body = if self.peek_punct("{") {
            Some(self.parse_block()?)
        } else {
            self.expect_punct(";")?;
            None
        };
        Ok(Function { name, ret, params, body, is_static })
    }

    // ---- statements ----

    fn parse_block(&mut self) -> Result<Stmt> {
        let line = self.line();
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if self.at_eof() {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        Ok(Stmt { kind: StmtKind::Block(stmts), line })
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        let line = self.line();
        if self.peek_punct("{") {
            return self.parse_block();
        }
        if self.eat_punct(";") {
            return Ok(Stmt { kind: StmtKind::Empty, line });
        }
        if self.peek_kw("if") {
            self.bump();
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            let then_branch = Box::new(self.parse_stmt()?);
            let else_branch =
                if self.eat_kw("else") { Some(Box::new(self.parse_stmt()?)) } else { None };
            return Ok(Stmt { kind: StmtKind::If { cond, then_branch, else_branch }, line });
        }
        if self.peek_kw("while") {
            self.bump();
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            let body = Box::new(self.parse_stmt()?);
            return Ok(Stmt { kind: StmtKind::While { cond, body }, line });
        }
        if self.peek_kw("do") {
            self.bump();
            let body = Box::new(self.parse_stmt()?);
            if !self.eat_kw("while") {
                return Err(self.err("expected `while` after do-body"));
            }
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt { kind: StmtKind::DoWhile { body, cond }, line });
        }
        if self.peek_kw("for") {
            self.bump();
            self.expect_punct("(")?;
            let init = if self.eat_punct(";") {
                None
            } else if self.at_type_start() || self.looks_like_unknown_type_decl() {
                let s = self.parse_decl_stmt()?;
                Some(Box::new(s))
            } else {
                let e = self.parse_expr()?;
                self.expect_punct(";")?;
                Some(Box::new(Stmt { kind: StmtKind::Expr(e), line }))
            };
            let cond = if self.peek_punct(";") { None } else { Some(self.parse_expr()?) };
            self.expect_punct(";")?;
            let step = if self.peek_punct(")") { None } else { Some(self.parse_expr()?) };
            self.expect_punct(")")?;
            let body = Box::new(self.parse_stmt()?);
            return Ok(Stmt { kind: StmtKind::For { init, cond, step, body }, line });
        }
        if self.peek_kw("return") {
            self.bump();
            let value = if self.peek_punct(";") { None } else { Some(self.parse_expr()?) };
            self.expect_punct(";")?;
            return Ok(Stmt { kind: StmtKind::Return(value), line });
        }
        if self.peek_kw("break") {
            self.bump();
            self.expect_punct(";")?;
            return Ok(Stmt { kind: StmtKind::Break, line });
        }
        if self.peek_kw("continue") {
            self.bump();
            self.expect_punct(";")?;
            return Ok(Stmt { kind: StmtKind::Continue, line });
        }
        if self.peek_kw("switch") {
            self.bump();
            self.expect_punct("(")?;
            let scrutinee = self.parse_expr()?;
            self.expect_punct(")")?;
            self.expect_punct("{")?;
            let mut arms: Vec<(Option<i64>, Vec<Stmt>)> = Vec::new();
            while !self.eat_punct("}") {
                if self.at_eof() {
                    return Err(self.err("unterminated switch"));
                }
                if self.eat_kw("case") {
                    let neg = self.eat_punct("-");
                    let value = match &self.cur().kind {
                        TokenKind::IntLit { value, .. } => *value as i64,
                        TokenKind::CharLit(c) => *c as i64,
                        other => {
                            return Err(
                                self.err(format!("expected case constant, found `{other}`"))
                            )
                        }
                    };
                    self.bump();
                    self.expect_punct(":")?;
                    arms.push((Some(if neg { -value } else { value }), Vec::new()));
                } else if self.eat_kw("default") {
                    self.expect_punct(":")?;
                    arms.push((None, Vec::new()));
                } else {
                    let stmt = self.parse_stmt()?;
                    match arms.last_mut() {
                        Some((_, body)) => body.push(stmt),
                        None => return Err(self.err("statement before first case label")),
                    }
                }
            }
            return Ok(Stmt { kind: StmtKind::Switch { scrutinee, arms }, line });
        }
        if self.peek_kw("goto") {
            self.bump();
            let label = self.expect_ident()?;
            self.expect_punct(";")?;
            return Ok(Stmt { kind: StmtKind::Goto(label), line });
        }
        // Label: `ident :` not followed by another `:`.
        if let TokenKind::Ident(s) = &self.cur().kind {
            if !is_keyword(s) && matches!(self.peek_kind_at(1), TokenKind::Punct(":")) {
                let label = s.clone();
                self.bump();
                self.bump();
                let stmt = Box::new(self.parse_stmt()?);
                return Ok(Stmt { kind: StmtKind::Labeled { label, stmt }, line });
            }
        }
        if self.at_type_start() || self.looks_like_unknown_type_decl() {
            return self.parse_decl_stmt();
        }
        let e = self.parse_expr()?;
        self.expect_punct(";")?;
        Ok(Stmt { kind: StmtKind::Expr(e), line })
    }

    /// Parses `T a = x, *b, c[4];` into a Block of Decls (or a single Decl).
    fn parse_decl_stmt(&mut self) -> Result<Stmt> {
        let line = self.line();
        let base = self.parse_type_specifiers()?;
        let mut decls = Vec::new();
        loop {
            let ty = self.parse_pointers(base.clone());
            let name = self.expect_ident()?;
            let ty = self.parse_array_suffix(ty)?;
            let init = if self.eat_punct("=") { Some(self.parse_initializer()?) } else { None };
            decls.push(Stmt { kind: StmtKind::Decl { name, ty, init }, line });
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(";")?;
        if decls.len() == 1 {
            Ok(decls.pop().unwrap())
        } else {
            Ok(Stmt { kind: StmtKind::Block(decls), line })
        }
    }

    // ---- expressions (precedence climbing) ----

    /// Parses a full (comma-including) expression.
    ///
    /// # Errors
    ///
    /// Returns a parse error on malformed input.
    pub fn parse_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_assignment()?;
        while self.peek_punct(",") {
            let line = self.line();
            self.bump();
            let rhs = self.parse_assignment()?;
            lhs = self.expr(ExprKind::Comma(Box::new(lhs), Box::new(rhs)), line);
        }
        Ok(lhs)
    }

    fn parse_assignment(&mut self) -> Result<Expr> {
        let lhs = self.parse_ternary()?;
        let op = match &self.cur().kind {
            TokenKind::Punct("=") => None,
            TokenKind::Punct("+=") => Some(BinOp::Add),
            TokenKind::Punct("-=") => Some(BinOp::Sub),
            TokenKind::Punct("*=") => Some(BinOp::Mul),
            TokenKind::Punct("/=") => Some(BinOp::Div),
            TokenKind::Punct("%=") => Some(BinOp::Rem),
            TokenKind::Punct("&=") => Some(BinOp::BitAnd),
            TokenKind::Punct("|=") => Some(BinOp::BitOr),
            TokenKind::Punct("^=") => Some(BinOp::BitXor),
            TokenKind::Punct("<<=") => Some(BinOp::Shl),
            TokenKind::Punct(">>=") => Some(BinOp::Shr),
            _ => return Ok(lhs),
        };
        let line = self.line();
        self.bump();
        let value = self.parse_assignment()?;
        Ok(self
            .expr(ExprKind::Assign { op, target: Box::new(lhs), value: Box::new(value) }, line))
    }

    fn parse_ternary(&mut self) -> Result<Expr> {
        let cond = self.parse_binary(0)?;
        if !self.peek_punct("?") {
            return Ok(cond);
        }
        let line = self.line();
        self.bump();
        let then_expr = self.parse_expr()?;
        self.expect_punct(":")?;
        let else_expr = self.parse_assignment()?;
        Ok(self.expr(
            ExprKind::Ternary {
                cond: Box::new(cond),
                then_expr: Box::new(then_expr),
                else_expr: Box::new(else_expr),
            },
            line,
        ))
    }

    fn binop_at(&self, min_prec: u8) -> Option<(BinOp, u8)> {
        let (op, prec) = match &self.cur().kind {
            TokenKind::Punct("||") => (BinOp::LogOr, 1),
            TokenKind::Punct("&&") => (BinOp::LogAnd, 2),
            TokenKind::Punct("|") => (BinOp::BitOr, 3),
            TokenKind::Punct("^") => (BinOp::BitXor, 4),
            TokenKind::Punct("&") => (BinOp::BitAnd, 5),
            TokenKind::Punct("==") => (BinOp::Eq, 6),
            TokenKind::Punct("!=") => (BinOp::Ne, 6),
            TokenKind::Punct("<") => (BinOp::Lt, 7),
            TokenKind::Punct("<=") => (BinOp::Le, 7),
            TokenKind::Punct(">") => (BinOp::Gt, 7),
            TokenKind::Punct(">=") => (BinOp::Ge, 7),
            TokenKind::Punct("<<") => (BinOp::Shl, 8),
            TokenKind::Punct(">>") => (BinOp::Shr, 8),
            TokenKind::Punct("+") => (BinOp::Add, 9),
            TokenKind::Punct("-") => (BinOp::Sub, 9),
            TokenKind::Punct("*") => (BinOp::Mul, 10),
            TokenKind::Punct("/") => (BinOp::Div, 10),
            TokenKind::Punct("%") => (BinOp::Rem, 10),
            _ => return None,
        };
        (prec >= min_prec).then_some((op, prec))
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = self.binop_at(min_prec) {
            let line = self.line();
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            lhs = self.expr(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), line);
        }
        Ok(lhs)
    }

    /// True if `(` at the cursor begins a cast expression.
    fn at_cast(&self) -> bool {
        if !self.peek_punct("(") {
            return false;
        }
        match self.peek_kind_at(1) {
            TokenKind::Ident(s) => {
                let known = matches!(
                    s.as_str(),
                    "void"
                        | "char"
                        | "short"
                        | "int"
                        | "long"
                        | "float"
                        | "double"
                        | "signed"
                        | "unsigned"
                        | "struct"
                        | "const"
                ) || self.type_names.contains(s);
                if known {
                    return true;
                }
                if self.lenient && !is_keyword(s) {
                    // `(T*)` or `(T**)` with unknown T reads as a cast;
                    // a bare `(ident)` stays an expression.
                    let mut n = 2;
                    let mut stars = 0;
                    while matches!(self.peek_kind_at(n), TokenKind::Punct("*")) {
                        stars += 1;
                        n += 1;
                    }
                    stars > 0 && matches!(self.peek_kind_at(n), TokenKind::Punct(")"))
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        let line = self.line();
        if self.at_cast() {
            self.bump(); // (
            let base = self.parse_type_specifiers()?;
            let ty = self.parse_pointers(base);
            self.expect_punct(")")?;
            let inner = self.parse_unary()?;
            return Ok(self.expr(ExprKind::Cast { ty, expr: Box::new(inner) }, line));
        }
        let op = match &self.cur().kind {
            TokenKind::Punct("-") => Some(UnOp::Neg),
            TokenKind::Punct("+") => Some(UnOp::Plus),
            TokenKind::Punct("!") => Some(UnOp::Not),
            TokenKind::Punct("~") => Some(UnOp::BitNot),
            TokenKind::Punct("*") => Some(UnOp::Deref),
            TokenKind::Punct("&") => Some(UnOp::Addr),
            TokenKind::Punct("++") => Some(UnOp::PreInc),
            TokenKind::Punct("--") => Some(UnOp::PreDec),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let inner = self.parse_unary()?;
            return Ok(self.expr(ExprKind::Unary(op, Box::new(inner)), line));
        }
        if self.peek_kw("sizeof") {
            self.bump();
            if self.peek_punct("(") {
                // sizeof(type) vs sizeof(expr)
                let is_type = match self.peek_kind_at(1) {
                    TokenKind::Ident(s) => {
                        matches!(
                            s.as_str(),
                            "void"
                                | "char"
                                | "short"
                                | "int"
                                | "long"
                                | "float"
                                | "double"
                                | "signed"
                                | "unsigned"
                                | "struct"
                        ) || self.type_names.contains(s)
                    }
                    _ => false,
                };
                if is_type {
                    self.bump();
                    let base = self.parse_type_specifiers()?;
                    let ty = self.parse_pointers(base);
                    self.expect_punct(")")?;
                    return Ok(self.expr(ExprKind::SizeofType(ty), line));
                }
            }
            let inner = self.parse_unary()?;
            return Ok(self.expr(ExprKind::SizeofExpr(Box::new(inner)), line));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        let mut e = self.parse_primary()?;
        loop {
            let line = self.line();
            if self.eat_punct("[") {
                let index = self.parse_expr()?;
                self.expect_punct("]")?;
                e = self
                    .expr(ExprKind::Index { base: Box::new(e), index: Box::new(index) }, line);
            } else if self.eat_punct(".") {
                let field = self.expect_ident()?;
                e = self
                    .expr(ExprKind::Member { base: Box::new(e), field, arrow: false }, line);
            } else if self.eat_punct("->") {
                let field = self.expect_ident()?;
                e = self.expr(ExprKind::Member { base: Box::new(e), field, arrow: true }, line);
            } else if self.eat_punct("++") {
                e = self.expr(ExprKind::Postfix(IncDec::Inc, Box::new(e)), line);
            } else if self.eat_punct("--") {
                e = self.expr(ExprKind::Postfix(IncDec::Dec, Box::new(e)), line);
            } else {
                return Ok(e);
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let line = self.line();
        match self.cur().kind.clone() {
            TokenKind::IntLit { value, unsigned, long } => {
                self.bump();
                let kind = match (unsigned, long) {
                    (false, false) => {
                        if value <= i32::MAX as u64 {
                            IntKind::Int
                        } else {
                            IntKind::Long
                        }
                    }
                    (true, false) => IntKind::UInt,
                    (false, true) => IntKind::Long,
                    (true, true) => IntKind::ULong,
                };
                Ok(self.expr(ExprKind::IntLit(value as i64, kind), line))
            }
            TokenKind::FloatLit { value, single } => {
                self.bump();
                Ok(self.expr(ExprKind::FloatLit(value, single), line))
            }
            TokenKind::CharLit(c) => {
                self.bump();
                Ok(self.expr(ExprKind::IntLit(c as i64, IntKind::Int), line))
            }
            TokenKind::StrLit(s) => {
                self.bump();
                Ok(self.expr(ExprKind::StrLit(s), line))
            }
            TokenKind::Punct("(") => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            TokenKind::Ident(s) if !is_keyword(&s) => {
                self.bump();
                if self.peek_punct("(") {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.peek_punct(")") {
                        loop {
                            args.push(self.parse_assignment()?);
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                    }
                    self.expect_punct(")")?;
                    Ok(self.expr(ExprKind::Call { callee: s, args }, line))
                } else {
                    Ok(self.expr(ExprKind::Ident(s), line))
                }
            }
            other => Err(self.err(format!("expected expression, found `{other}`"))),
        }
    }
}

/// Typedef names that MiniC treats as built in, so that realistic code using
/// `<stdint.h>`/`<stddef.h>` spellings parses without headers.
pub const BUILTIN_TYPEDEFS_NAMES: [&str; 12] = [
    "int8_t",
    "int16_t",
    "int32_t",
    "int64_t",
    "uint8_t",
    "uint16_t",
    "uint32_t",
    "uint64_t",
    "size_t",
    "ssize_t",
    "intptr_t",
    "uintptr_t",
];

fn builtin_typedefs() -> Vec<(&'static str, Type)> {
    vec![
        ("int8_t", Type::Int(IntKind::Char)),
        ("int16_t", Type::Int(IntKind::Short)),
        ("int32_t", Type::Int(IntKind::Int)),
        ("int64_t", Type::Int(IntKind::Long)),
        ("uint8_t", Type::Int(IntKind::UChar)),
        ("uint16_t", Type::Int(IntKind::UShort)),
        ("uint32_t", Type::Int(IntKind::UInt)),
        ("uint64_t", Type::Int(IntKind::ULong)),
        ("size_t", Type::Int(IntKind::ULong)),
        ("ssize_t", Type::Int(IntKind::Long)),
        ("intptr_t", Type::Int(IntKind::Long)),
        ("uintptr_t", Type::Int(IntKind::ULong)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_function() {
        let p = parse_program("int add(int a, int b) { return a + b; }").unwrap();
        let f = p.function("add").unwrap();
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Type::int());
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; ++i) { if (i % 2 == 0) s += i; else s -= 1; }
                while (s > 100) s /= 2;
                do { s++; } while (s < 0);
                return s;
            }"#;
        assert!(parse_program(src).is_ok());
    }

    #[test]
    fn parses_pointers_arrays_structs() {
        let src = r#"
            struct point { int x; int y; };
            typedef struct point point_t;
            int mat[8] = {1, 2, 3, 4, 5, 6, 7, 8};
            int get(struct point *p, int idx, int arr[]) {
                return p->x + arr[idx] + mat[0];
            }"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.structs().count(), 1);
        let f = p.function("get").unwrap();
        // `int arr[]` decays to `int*`.
        assert_eq!(f.params[2].1, Type::ptr(Type::int()));
    }

    #[test]
    fn typedef_names_parse_as_types() {
        let src = "typedef unsigned long u64; u64 f(u64 x) { u64 y = x; return y; }";
        assert!(parse_program(src).is_ok());
    }

    #[test]
    fn builtin_stdint_names_work() {
        let src = "uint32_t f(int32_t x) { size_t n = 4; return x + n; }";
        assert!(parse_program(src).is_ok());
    }

    #[test]
    fn strict_mode_rejects_unknown_type() {
        let err = parse_program("my_int f(my_int x) { return x; }").unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Parse);
    }

    #[test]
    fn lenient_mode_records_unknown_types() {
        let p =
            parse_program_lenient("my_int f(my_int x) { my_int y = x; return y; }").unwrap();
        assert_eq!(p.unknown_types, vec!["my_int".to_string()]);
    }

    #[test]
    fn lenient_mode_accepts_unknown_pointer_cast() {
        let p =
            parse_program_lenient("void f(void *p) { my_t *q = (my_t*)p; q = q; }").unwrap();
        assert!(p.unknown_types.contains(&"my_t".to_string()));
    }

    #[test]
    fn precedence_is_c_like() {
        let p = parse_program("int f(int a, int b, int c) { return a + b * c; }").unwrap();
        let f = p.function("f").unwrap();
        let StmtKind::Block(stmts) = &f.body.as_ref().unwrap().kind else { panic!() };
        let StmtKind::Return(Some(e)) = &stmts[0].kind else { panic!() };
        let ExprKind::Binary(BinOp::Add, _, rhs) = &e.kind else { panic!("got {e:?}") };
        assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn parses_goto_and_labels() {
        let src = "int f(int x) { if (x < 0) goto out; x += 1; out: return x; }";
        assert!(parse_program(src).is_ok());
    }

    #[test]
    fn parses_multi_declarator_statement() {
        let src = "int f(void) { int a = 1, *b, c[4]; b = &a; c[0] = *b; return c[0]; }";
        assert!(parse_program(src).is_ok());
    }

    #[test]
    fn parses_ternary_comma_sizeof() {
        let src = "long f(int x) { long n = sizeof(long) + sizeof x; return x ? n : (n, 0); }";
        assert!(parse_program(src).is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_program("int f( { }").is_err());
        assert!(parse_program("@").is_err());
        assert!(parse_program("int f(void) { return 1 + ; }").is_err());
    }

    #[test]
    fn node_ids_are_unique() {
        let p = parse_program("int f(int a) { return a + a * a; }").unwrap();
        assert!(p.node_count >= 5);
    }
}
