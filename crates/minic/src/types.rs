//! The MiniC type system: scalar kinds, pointers, arrays, structs, typedefs,
//! and layout (size/alignment) computation.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Integer kinds, carrying width and signedness.
///
/// MiniC follows the LP64 model used by both target ISAs: `char` is 8 bits,
/// `short` 16, `int` 32, `long` (and pointers) 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntKind {
    /// `char` (treated as signed, as GCC does on x86-64).
    Char,
    /// `unsigned char`
    UChar,
    /// `short`
    Short,
    /// `unsigned short`
    UShort,
    /// `int`
    Int,
    /// `unsigned int`
    UInt,
    /// `long` / `long long`
    Long,
    /// `unsigned long` / `unsigned long long` / `size_t`
    ULong,
}

impl IntKind {
    /// Size in bytes.
    pub fn size(self) -> usize {
        match self {
            IntKind::Char | IntKind::UChar => 1,
            IntKind::Short | IntKind::UShort => 2,
            IntKind::Int | IntKind::UInt => 4,
            IntKind::Long | IntKind::ULong => 8,
        }
    }

    /// Whether values of this kind are signed.
    pub fn signed(self) -> bool {
        matches!(self, IntKind::Char | IntKind::Short | IntKind::Int | IntKind::Long)
    }

    /// The unsigned kind of the same width.
    pub fn to_unsigned(self) -> IntKind {
        match self {
            IntKind::Char | IntKind::UChar => IntKind::UChar,
            IntKind::Short | IntKind::UShort => IntKind::UShort,
            IntKind::Int | IntKind::UInt => IntKind::UInt,
            IntKind::Long | IntKind::ULong => IntKind::ULong,
        }
    }

    /// Integer-promotion result: anything narrower than `int` promotes to `int`.
    pub fn promote(self) -> IntKind {
        if self.size() < 4 {
            IntKind::Int
        } else {
            self
        }
    }

    /// Conversion rank used by the usual arithmetic conversions.
    pub fn rank(self) -> u8 {
        match self {
            IntKind::Char | IntKind::UChar => 1,
            IntKind::Short | IntKind::UShort => 2,
            IntKind::Int | IntKind::UInt => 3,
            IntKind::Long | IntKind::ULong => 4,
        }
    }

    /// The usual arithmetic conversions (C11 §6.3.1.8) for two integer
    /// operands: both promote; then the higher rank wins, and the unsigned
    /// kind of it when the other side is unsigned and at least as wide.
    ///
    /// ```
    /// use slade_minic::IntKind;
    /// assert_eq!(IntKind::Char.common(IntKind::UShort), IntKind::Int);
    /// assert_eq!(IntKind::Int.common(IntKind::UInt), IntKind::UInt);
    /// assert_eq!(IntKind::UInt.common(IntKind::Long), IntKind::Long);
    /// ```
    pub fn common(self, other: IntKind) -> IntKind {
        let (a, b) = (self.promote(), other.promote());
        let (hi, lo) = if a.rank() >= b.rank() { (a, b) } else { (b, a) };
        if hi.signed() && !lo.signed() && hi.size() == lo.size() {
            hi.to_unsigned()
        } else {
            hi
        }
    }

    /// Wraps `v` (an infinitely-ranged value held in an `i64`) to this kind's
    /// width and signedness.
    ///
    /// ```
    /// use slade_minic::IntKind;
    /// assert_eq!(IntKind::Char.wrap(130), -126);
    /// assert_eq!(IntKind::UChar.wrap(-1), 255);
    /// assert_eq!(IntKind::UInt.wrap(-1), 0xffff_ffff);
    /// ```
    pub fn wrap(self, v: i64) -> i64 {
        match self {
            IntKind::Char => v as i8 as i64,
            IntKind::UChar => v as u8 as i64,
            IntKind::Short => v as i16 as i64,
            IntKind::UShort => v as u16 as i64,
            IntKind::Int => v as i32 as i64,
            IntKind::UInt => v as u32 as i64,
            IntKind::Long => v,
            // ULong keeps the bit pattern; comparisons reinterpret as u64.
            IntKind::ULong => v,
        }
    }

    /// C spelling of this kind.
    pub fn c_name(self) -> &'static str {
        match self {
            IntKind::Char => "char",
            IntKind::UChar => "unsigned char",
            IntKind::Short => "short",
            IntKind::UShort => "unsigned short",
            IntKind::Int => "int",
            IntKind::UInt => "unsigned int",
            IntKind::Long => "long",
            IntKind::ULong => "unsigned long",
        }
    }
}

/// A MiniC type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// `void` (valid only as a return type or pointee).
    Void,
    /// Integer type.
    Int(IntKind),
    /// `float`
    Float,
    /// `double`
    Double,
    /// Pointer to a type.
    Ptr(Box<Type>),
    /// Fixed-size array.
    Array(Box<Type>, usize),
    /// A struct referenced by tag name; the definition lives in the program.
    Struct(String),
    /// A typedef name not yet resolved (resolved away by semantic analysis;
    /// may denote an *unknown* type in lenient mode, which is what the type
    /// inference engine consumes).
    Named(String),
}

impl Type {
    /// Shorthand for `int`.
    pub fn int() -> Type {
        Type::Int(IntKind::Int)
    }

    /// Shorthand for a pointer to `t`.
    pub fn ptr(t: Type) -> Type {
        Type::Ptr(Box::new(t))
    }

    /// True for any integer type.
    pub fn is_integer(&self) -> bool {
        matches!(self, Type::Int(_))
    }

    /// True for `float`/`double`.
    pub fn is_floating(&self) -> bool {
        matches!(self, Type::Float | Type::Double)
    }

    /// True for any arithmetic (integer or floating) type.
    pub fn is_arithmetic(&self) -> bool {
        self.is_integer() || self.is_floating()
    }

    /// True for pointers and arrays (which decay to pointers).
    pub fn is_pointerish(&self) -> bool {
        matches!(self, Type::Ptr(_) | Type::Array(..))
    }

    /// True if values of this type are passed/stored by value as scalars.
    pub fn is_scalar(&self) -> bool {
        self.is_arithmetic() || matches!(self, Type::Ptr(_))
    }

    /// The pointee/element type of a pointer or array, if any.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(t) => Some(t),
            Type::Array(t, _) => Some(t),
            _ => None,
        }
    }

    /// Array/pointer decay: arrays become pointers to their element type.
    pub fn decay(&self) -> Type {
        match self {
            Type::Array(t, _) => Type::Ptr(t.clone()),
            other => other.clone(),
        }
    }

    /// The usual arithmetic conversions for two arithmetic operand types:
    /// `double` wins, then `float`, then [`IntKind::common`]. Sema rejects
    /// arithmetic on anything else before asking; such a pair yields `int`.
    pub fn common_arith(&self, other: &Type) -> Type {
        match (self, other) {
            (Type::Double, _) | (_, Type::Double) => Type::Double,
            (Type::Float, _) | (_, Type::Float) => Type::Float,
            (Type::Int(a), Type::Int(b)) => Type::Int(a.common(*b)),
            _ => Type::int(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int(k) => write!(f, "{}", k.c_name()),
            Type::Float => write!(f, "float"),
            Type::Double => write!(f, "double"),
            Type::Ptr(t) => write!(f, "{t}*"),
            Type::Array(t, n) => write!(f, "{t}[{n}]"),
            Type::Struct(name) => write!(f, "struct {name}"),
            Type::Named(name) => write!(f, "{name}"),
        }
    }
}

/// A struct definition: ordered fields with their types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructDef {
    /// Struct tag.
    pub name: String,
    /// `(field name, field type)` in declaration order.
    pub fields: Vec<(String, Type)>,
}

/// Computed layout of a struct: total size, alignment and field offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructLayout {
    /// Total size in bytes, including tail padding.
    pub size: usize,
    /// Alignment in bytes.
    pub align: usize,
    /// Byte offset of each field, same order as the definition.
    pub offsets: Vec<usize>,
}

/// Resolves types to sizes and alignments, given the program's struct and
/// typedef tables.
///
/// # Example
///
/// ```
/// use slade_minic::types::{LayoutCtx, Type, IntKind};
/// use std::collections::HashMap;
///
/// let ctx = LayoutCtx::new(HashMap::new(), HashMap::new());
/// assert_eq!(ctx.size_of(&Type::Int(IntKind::Int)).unwrap(), 4);
/// assert_eq!(ctx.size_of(&Type::ptr(Type::int())).unwrap(), 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LayoutCtx {
    structs: HashMap<String, StructDef>,
    typedefs: HashMap<String, Type>,
}

impl LayoutCtx {
    /// Creates a layout context from struct and typedef tables.
    pub fn new(structs: HashMap<String, StructDef>, typedefs: HashMap<String, Type>) -> Self {
        LayoutCtx { structs, typedefs }
    }

    /// Resolves typedef names until a structural type is reached.
    ///
    /// Unknown names resolve to themselves so lenient-mode consumers can
    /// observe them.
    pub fn resolve(&self, ty: &Type) -> Type {
        let mut t = ty.clone();
        let mut fuel = 32;
        while let Type::Named(name) = &t {
            match self.typedefs.get(name) {
                Some(next) if fuel > 0 => {
                    fuel -= 1;
                    t = next.clone();
                }
                _ => break,
            }
        }
        // Resolve nested pointee/element types too.
        match t {
            Type::Ptr(inner) => Type::Ptr(Box::new(self.resolve(&inner))),
            Type::Array(inner, n) => Type::Array(Box::new(self.resolve(&inner)), n),
            other => other,
        }
    }

    /// Size of a type in bytes.
    ///
    /// # Errors
    ///
    /// Returns `None` for `void`, unknown named types and undefined structs.
    pub fn size_of(&self, ty: &Type) -> Option<usize> {
        match self.resolve(ty) {
            Type::Void => None,
            Type::Int(k) => Some(k.size()),
            Type::Float => Some(4),
            Type::Double => Some(8),
            Type::Ptr(_) => Some(8),
            Type::Array(t, n) => Some(self.size_of(&t)? * n),
            Type::Struct(name) => Some(self.layout_of(&name)?.size),
            Type::Named(_) => None,
        }
    }

    /// Alignment of a type in bytes.
    pub fn align_of(&self, ty: &Type) -> Option<usize> {
        match self.resolve(ty) {
            Type::Void => None,
            Type::Int(k) => Some(k.size()),
            Type::Float => Some(4),
            Type::Double => Some(8),
            Type::Ptr(_) => Some(8),
            Type::Array(t, _) => self.align_of(&t),
            Type::Struct(name) => Some(self.layout_of(&name)?.align),
            Type::Named(_) => None,
        }
    }

    /// Computes the natural-alignment layout of struct `name`.
    pub fn layout_of(&self, name: &str) -> Option<StructLayout> {
        let def = self.structs.get(name)?;
        let mut size = 0usize;
        let mut align = 1usize;
        let mut offsets = Vec::with_capacity(def.fields.len());
        for (_, fty) in &def.fields {
            let fa = self.align_of(fty)?;
            let fs = self.size_of(fty)?;
            size = size.div_ceil(fa) * fa;
            offsets.push(size);
            size += fs;
            align = align.max(fa);
        }
        size = size.div_ceil(align) * align;
        if size == 0 {
            size = 1; // empty structs still occupy storage
        }
        Some(StructLayout { size, align, offsets })
    }

    /// Offset and type of field `field` within struct `name`.
    pub fn field_of(&self, name: &str, field: &str) -> Option<(usize, Type)> {
        let def = self.structs.get(name)?;
        let layout = self.layout_of(name)?;
        for (i, (fname, fty)) in def.fields.iter().enumerate() {
            if fname == field {
                return Some((layout.offsets[i], self.resolve(fty)));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with(def: StructDef) -> LayoutCtx {
        let mut m = HashMap::new();
        m.insert(def.name.clone(), def);
        LayoutCtx::new(m, HashMap::new())
    }

    #[test]
    fn scalar_sizes_follow_lp64() {
        let ctx = LayoutCtx::default();
        assert_eq!(ctx.size_of(&Type::Int(IntKind::Char)), Some(1));
        assert_eq!(ctx.size_of(&Type::Int(IntKind::Short)), Some(2));
        assert_eq!(ctx.size_of(&Type::Int(IntKind::Int)), Some(4));
        assert_eq!(ctx.size_of(&Type::Int(IntKind::Long)), Some(8));
        assert_eq!(ctx.size_of(&Type::ptr(Type::Void)), Some(8));
        assert_eq!(ctx.size_of(&Type::Double), Some(8));
    }

    #[test]
    fn struct_layout_inserts_padding() {
        let def = StructDef {
            name: "s".into(),
            fields: vec![
                ("c".into(), Type::Int(IntKind::Char)),
                ("d".into(), Type::Double),
                ("i".into(), Type::Int(IntKind::Int)),
            ],
        };
        let ctx = ctx_with(def);
        let layout = ctx.layout_of("s").unwrap();
        assert_eq!(layout.offsets, vec![0, 8, 16]);
        assert_eq!(layout.align, 8);
        assert_eq!(layout.size, 24); // tail padded to alignment
    }

    #[test]
    fn typedef_resolution_is_transitive() {
        let mut tds = HashMap::new();
        tds.insert("a".to_string(), Type::Named("b".into()));
        tds.insert("b".to_string(), Type::Int(IntKind::Long));
        let ctx = LayoutCtx::new(HashMap::new(), tds);
        assert_eq!(ctx.resolve(&Type::Named("a".into())), Type::Int(IntKind::Long));
        assert_eq!(ctx.size_of(&Type::ptr(Type::Named("a".into()))), Some(8));
    }

    #[test]
    fn cyclic_typedefs_terminate() {
        let mut tds = HashMap::new();
        tds.insert("a".to_string(), Type::Named("b".into()));
        tds.insert("b".to_string(), Type::Named("a".into()));
        let ctx = LayoutCtx::new(HashMap::new(), tds);
        // Must not hang; size remains unknown.
        assert_eq!(ctx.size_of(&Type::Named("a".into())), None);
    }

    #[test]
    fn promotion_and_wrapping() {
        assert_eq!(IntKind::Char.promote(), IntKind::Int);
        assert_eq!(IntKind::UInt.promote(), IntKind::UInt);
        assert_eq!(IntKind::Short.wrap(40000), 40000u16 as i16 as i64);
        assert_eq!(IntKind::UShort.wrap(-1), 65535);
    }

    #[test]
    fn array_layouts() {
        let ctx = LayoutCtx::default();
        let arr = Type::Array(Box::new(Type::Int(IntKind::Int)), 10);
        assert_eq!(ctx.size_of(&arr), Some(40));
        assert_eq!(ctx.align_of(&arr), Some(4));
        assert_eq!(arr.decay(), Type::ptr(Type::int()));
    }
}
