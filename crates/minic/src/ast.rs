//! Abstract syntax tree for MiniC.
//!
//! Every expression carries a [`NodeId`] assigned by the parser so that
//! semantic analysis can attach types in a side table without rebuilding the
//! tree (see [`crate::sema`]).

use crate::types::{IntKind, StructDef, Type};
use serde::{Deserialize, Serialize};

/// Unique id for an expression node within one parsed program.
pub type NodeId = u32;

/// A full translation unit: type definitions, globals and functions.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Program {
    /// Items in source order.
    pub items: Vec<Item>,
    /// Number of expression nodes allocated (ids are `0..node_count`).
    pub node_count: u32,
    /// Type names the lenient parser accepted without a definition
    /// (consumed by the type-inference engine).
    pub unknown_types: Vec<String>,
}

impl Program {
    /// All function definitions in the program, in source order.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.items.iter().filter_map(|item| match item {
            Item::Function(f) if f.body.is_some() => Some(f),
            _ => None,
        })
    }

    /// Finds a function (definition or prototype) by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.items.iter().find_map(|item| match item {
            Item::Function(f) if f.name == name => Some(f),
            _ => None,
        })
    }

    /// All struct definitions.
    pub fn structs(&self) -> impl Iterator<Item = &StructDef> {
        self.items.iter().filter_map(|item| match item {
            Item::Struct(s) => Some(s),
            _ => None,
        })
    }
}

/// A top-level item.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Item {
    /// `struct S { ... };`
    Struct(StructDef),
    /// `typedef <ty> <name>;`
    Typedef {
        /// The new type name.
        name: String,
        /// The aliased type.
        ty: Type,
    },
    /// Global variable, optionally initialized with a constant expression.
    Global {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Constant initializer, when written.
        init: Option<Expr>,
        /// Declared `extern` (no storage here).
        is_extern: bool,
    },
    /// Function definition (`body: Some`) or prototype (`body: None`).
    Function(Function),
}

/// A function definition or prototype.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// `(name, type)` parameter list.
    pub params: Vec<(String, Type)>,
    /// Body, absent for prototypes/extern declarations.
    pub body: Option<Stmt>,
    /// True when declared `static` (kept for round-trip printing).
    pub is_static: bool,
}

/// A statement with its source line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Stmt {
    /// What the statement does.
    pub kind: StmtKind,
    /// 1-based source line.
    pub line: u32,
}

/// Statement kinds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum StmtKind {
    /// `{ ... }`
    Block(Vec<Stmt>),
    /// Local declaration. Multiple declarators are desugared by the parser
    /// into consecutive `Decl`s.
    Decl {
        /// Local name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Initializer, when written.
        init: Option<Expr>,
    },
    /// Expression statement.
    Expr(Expr),
    /// `if (cond) then else?`
    If {
        /// Condition.
        cond: Expr,
        /// Taken when the condition is non-zero.
        then_branch: Box<Stmt>,
        /// Optional `else` branch.
        else_branch: Option<Box<Stmt>>,
    },
    /// `while (cond) body`
    While {
        /// Loop condition, tested before each iteration.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `do body while (cond);`
    DoWhile {
        /// Loop body, run at least once.
        body: Box<Stmt>,
        /// Condition, tested after each iteration.
        cond: Expr,
    },
    /// `for (init; cond; step) body` — any clause may be absent.
    For {
        /// Init clause (declaration or expression).
        init: Option<Box<Stmt>>,
        /// Continuation condition.
        cond: Option<Expr>,
        /// Per-iteration step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `return e?;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `goto label;` (needed to round-trip lifter output)
    Goto(String),
    /// `label: stmt`
    Labeled {
        /// The label name.
        label: String,
        /// The labelled statement.
        stmt: Box<Stmt>,
    },
    /// `switch (scrutinee) { arms }` — each arm is `(case value, body)`,
    /// with `None` for `default:`; C fallthrough semantics apply.
    Switch {
        /// The switched-on expression.
        scrutinee: Expr,
        /// `(case value, body)` arms; `None` is `default:`.
        arms: Vec<(Option<i64>, Vec<Stmt>)>,
    },
    /// `;`
    Empty,
}

/// An expression node: kind plus parser-assigned id and line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Expr {
    /// What the expression computes.
    pub kind: ExprKind,
    /// Side-table key for semantic information.
    pub id: NodeId,
    /// 1-based source line.
    pub line: u32,
}

/// The one enumeration of an expression's direct children, for `&` and
/// `&mut` alike: `$f` is called on each, left to right.
macro_rules! each_child {
    ($kind:expr, $f:ident, $iter:ident) => {
        match $kind {
            ExprKind::IntLit(..)
            | ExprKind::FloatLit(..)
            | ExprKind::StrLit(_)
            | ExprKind::Ident(_)
            | ExprKind::SizeofType(_) => {}
            ExprKind::Unary(_, a)
            | ExprKind::Postfix(_, a)
            | ExprKind::Cast { expr: a, .. }
            | ExprKind::SizeofExpr(a)
            | ExprKind::Member { base: a, .. } => $f(a),
            ExprKind::Binary(_, a, b)
            | ExprKind::Comma(a, b)
            | ExprKind::Assign { target: a, value: b, .. }
            | ExprKind::Index { base: a, index: b } => {
                $f(a);
                $f(b);
            }
            ExprKind::Call { args, .. } => args.$iter().for_each($f),
            ExprKind::Ternary { cond, then_expr, else_expr } => {
                $f(cond);
                $f(then_expr);
                $f(else_expr);
            }
        }
    };
}

impl Expr {
    /// Calls `f` on each direct subexpression, left to right (an
    /// assignment's target before its value). Allocates nothing.
    pub fn for_each_child(&self, mut f: impl FnMut(&Expr)) {
        each_child!(&self.kind, f, iter)
    }

    /// [`Self::for_each_child`] with mutable access to each child.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        each_child!(&mut self.kind, f, iter_mut)
    }
}

/// A direct child of a statement: a statement or an expression, shared or
/// mutable (`S` / `E` are `&Stmt` / `&Expr` or their `&mut` forms).
#[derive(Debug)]
pub enum Child<S, E> {
    /// A nested statement.
    Stmt(S),
    /// An expression the statement evaluates.
    Expr(E),
}

/// The one enumeration of a statement's direct children, for `&` and
/// `&mut` alike: `$f` is called on each, in source order.
macro_rules! each_stmt_child {
    ($kind:expr, $f:ident, $iter:ident) => {
        match $kind {
            StmtKind::Block(ss) => ss.$iter().for_each(|s| $f(Child::Stmt(s))),
            StmtKind::Decl { init: e, .. } | StmtKind::Return(e) => {
                e.$iter().for_each(|e| $f(Child::Expr(e)))
            }
            StmtKind::Expr(e) => $f(Child::Expr(e)),
            StmtKind::If { cond, then_branch, else_branch } => {
                $f(Child::Expr(cond));
                $f(Child::Stmt(then_branch));
                else_branch.$iter().for_each(|s| $f(Child::Stmt(s)));
            }
            StmtKind::While { cond, body } => {
                $f(Child::Expr(cond));
                $f(Child::Stmt(body));
            }
            StmtKind::DoWhile { body, cond } => {
                $f(Child::Stmt(body));
                $f(Child::Expr(cond));
            }
            StmtKind::For { init, cond, step, body } => {
                init.$iter().for_each(|s| $f(Child::Stmt(s)));
                cond.$iter().chain(step).for_each(|e| $f(Child::Expr(e)));
                $f(Child::Stmt(body));
            }
            StmtKind::Labeled { stmt, .. } => $f(Child::Stmt(stmt)),
            StmtKind::Switch { scrutinee, arms } => {
                $f(Child::Expr(scrutinee));
                arms.$iter().flat_map(|(_, body)| body).for_each(|s| $f(Child::Stmt(s)));
            }
            StmtKind::Break | StmtKind::Continue | StmtKind::Goto(_) | StmtKind::Empty => {}
        }
    };
}

impl Stmt {
    /// Calls `f` on each direct child statement and expression, in source
    /// order (a `do` body before its condition; a `for`'s init, condition,
    /// step, then body; every `switch` arm in turn). Allocates nothing.
    pub fn for_each_child(&self, mut f: impl FnMut(Child<&Stmt, &Expr>)) {
        each_stmt_child!(&self.kind, f, iter)
    }

    /// [`Self::for_each_child`] with mutable access to each child.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(Child<&mut Stmt, &mut Expr>)) {
        each_stmt_child!(&mut self.kind, f, iter_mut)
    }
}

/// Expression kinds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ExprKind {
    /// Integer literal with its original kind.
    IntLit(i64, IntKind),
    /// Floating literal; `bool` is true for `float` (f-suffixed).
    FloatLit(f64, bool),
    /// String literal: its bytes, without the terminating NUL.
    StrLit(Vec<u8>),
    /// Variable or function reference.
    Ident(String),
    /// Unary operator application.
    Unary(UnOp, Box<Expr>),
    /// `e++` / `e--` (postfix).
    Postfix(IncDec, Box<Expr>),
    /// Binary operator application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Assignment; `op` is `None` for `=` and the compound operator otherwise.
    Assign {
        /// `None` for `=`, the operator for `op=` compound forms.
        op: Option<BinOp>,
        /// Assigned-to lvalue.
        target: Box<Expr>,
        /// Right-hand side.
        value: Box<Expr>,
    },
    /// Function call by name.
    Call {
        /// Called function name.
        callee: String,
        /// Arguments in source order.
        args: Vec<Expr>,
    },
    /// `base[index]`
    Index {
        /// Array or pointer expression.
        base: Box<Expr>,
        /// Element index.
        index: Box<Expr>,
    },
    /// `base.field` (`arrow == false`) or `base->field` (`arrow == true`).
    Member {
        /// Struct value or pointer.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// True for `->`, false for `.`.
        arrow: bool,
    },
    /// `(ty) e`
    Cast {
        /// Target type.
        ty: Type,
        /// Cast operand.
        expr: Box<Expr>,
    },
    /// `sizeof(ty)`
    SizeofType(Type),
    /// `sizeof e`
    SizeofExpr(Box<Expr>),
    /// `cond ? then : else`
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when non-zero.
        then_expr: Box<Expr>,
        /// Value when zero.
        else_expr: Box<Expr>,
    },
    /// `a, b`
    Comma(Box<Expr>, Box<Expr>),
}

/// Prefix unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// `-e`
    Neg,
    /// `!e`
    Not,
    /// `~e`
    BitNot,
    /// `*e`
    Deref,
    /// `&e`
    Addr,
    /// `++e`
    PreInc,
    /// `--e`
    PreDec,
    /// `+e` (no-op, kept for round-tripping)
    Plus,
}

/// Whether a postfix operator increments or decrements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IncDec {
    /// `e++`
    Inc,
    /// `e--`
    Dec,
}

/// Binary operators (excluding assignment, which is [`ExprKind::Assign`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
}

impl BinOp {
    /// True for `< <= > >= == !=` — operators whose result is `int` 0/1.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne)
    }

    /// True for `&&`/`||`, which short-circuit.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LogAnd | BinOp::LogOr)
    }

    /// The C spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::LogAnd => "&&",
            BinOp::LogOr => "||",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_program, pretty_expr};

    fn kind_name(s: &Stmt) -> String {
        format!("{:?}", s.kind).chars().take_while(char::is_ascii_alphabetic).collect()
    }

    /// Pre-order: a statement as its kind, an expression as its source.
    fn trace(s: &Stmt, out: &mut Vec<String>) {
        s.for_each_child(|c| match c {
            Child::Stmt(s) => {
                out.push(kind_name(s));
                trace(s, out);
            }
            Child::Expr(e) => out.push(pretty_expr(e)),
        });
    }

    fn trace_mut(s: &mut Stmt, out: &mut Vec<String>) {
        s.for_each_child_mut(|c| match c {
            Child::Stmt(s) => {
                out.push(kind_name(s));
                trace_mut(s, out);
            }
            Child::Expr(e) => out.push(pretty_expr(e)),
        });
    }

    #[test]
    fn statement_children_come_in_source_order() {
        let src = "int f(int a, int *p) {
            int x = a + 1;
            if (x) x = 2; else x = 3;
            while (x < 9) x++;
            do { x--; } while (x > 5);
            for (int i = 0; i < a; i++) p[i] = i;
            switch (a) { case 1: x = 4; break; default: goto L; }
            L: return x;
        }";
        let program = parse_program(src).unwrap();
        let mut body = program.function("f").unwrap().body.clone().unwrap();
        let mut seen = Vec::new();
        trace(&body, &mut seen);
        let want = [
            "Decl", "a + 1", "If", "x", "Expr", "x = 2", "Expr", "x = 3", "While", "x < 9",
            "Expr", "x++", "DoWhile", "Block", "Expr", "x--", "x > 5", "For", "Decl", "0",
            "i < a", "i++", "Expr", "p[i] = i", "Switch", "a", "Expr", "x = 4", "Break",
            "Goto", "Labeled", "Return", "x",
        ];
        assert_eq!(seen, want);
        let mut seen_mut = Vec::new();
        trace_mut(&mut body, &mut seen_mut);
        assert_eq!(seen, seen_mut);
    }
}
