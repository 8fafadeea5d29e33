//! Three-address intermediate representation.
//!
//! The IR is deliberately phi-free: values that merge across control flow go
//! through stack slots (the lowerer materializes a slot for every `?:`,
//! `&&`/`||` and every local). That keeps the optimization passes and both
//! backends small, at the cost of some -O3 quality — an acceptable trade for
//! a decompilation-difficulty substrate.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Virtual register index.
pub type VReg = u32;
/// Basic block index into [`Module::blocks`].
pub type BlockId = u32;
/// Stack slot index into [`Module::slots`].
pub type SlotId = u32;

/// Machine-level value types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Ty {
    /// 8-bit integer (memory width only; arithmetic happens at I32/I64).
    I8,
    /// 16-bit integer (memory width only).
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer or pointer.
    I64,
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
    /// 128-bit vector of 4×i32 (x86 `-O3` auto-vectorization only).
    V4I32,
}

impl Ty {
    /// Size in bytes.
    pub fn size(self) -> usize {
        match self {
            Ty::I8 => 1,
            Ty::I16 => 2,
            Ty::I32 | Ty::F32 => 4,
            Ty::I64 | Ty::F64 => 8,
            Ty::V4I32 => 16,
        }
    }

    /// True for F32/F64.
    pub fn is_float(self) -> bool {
        matches!(self, Ty::F32 | Ty::F64)
    }

    /// True for any integer width.
    pub fn is_int(self) -> bool {
        matches!(self, Ty::I8 | Ty::I16 | Ty::I32 | Ty::I64)
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::I8 => "i8",
            Ty::I16 => "i16",
            Ty::I32 => "i32",
            Ty::I64 => "i64",
            Ty::F32 => "f32",
            Ty::F64 => "f64",
            Ty::V4I32 => "v4i32",
        };
        write!(f, "{s}")
    }
}

/// Binary operations. Integer ops operate at the instruction's `ty` width;
/// signedness is encoded in the opcode where it matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IrBinOp {
    /// Wrapping add.
    Add,
    /// Wrapping subtract.
    Sub,
    /// Wrapping multiply.
    Mul,
    /// Signed divide.
    DivS,
    /// Unsigned divide.
    DivU,
    /// Signed remainder.
    RemS,
    /// Unsigned remainder.
    RemU,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    ShrS,
    /// Logical shift right.
    ShrU,
    /// Float add.
    FAdd,
    /// Float subtract.
    FSub,
    /// Float multiply.
    FMul,
    /// Float divide.
    FDiv,
}

/// Comparison predicates; result is an I32 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pred {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// signed `<`
    LtS,
    /// signed `<=`
    LeS,
    /// signed `>`
    GtS,
    /// signed `>=`
    GeS,
    /// unsigned `<`
    LtU,
    /// unsigned `<=`
    LeU,
    /// unsigned `>`
    GtU,
    /// unsigned `>=`
    GeU,
    /// float `==`
    FEq,
    /// float `!=`
    FNe,
    /// float `<`
    FLt,
    /// float `<=`
    FLe,
    /// float `>`
    FGt,
    /// float `>=`
    FGe,
}

impl Pred {
    /// The predicate with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> Pred {
        match self {
            Pred::Eq => Pred::Eq,
            Pred::Ne => Pred::Ne,
            Pred::LtS => Pred::GtS,
            Pred::LeS => Pred::GeS,
            Pred::GtS => Pred::LtS,
            Pred::GeS => Pred::LeS,
            Pred::LtU => Pred::GtU,
            Pred::LeU => Pred::GeU,
            Pred::GtU => Pred::LtU,
            Pred::GeU => Pred::LeU,
            Pred::FEq => Pred::FEq,
            Pred::FNe => Pred::FNe,
            Pred::FLt => Pred::FGt,
            Pred::FLe => Pred::FGe,
            Pred::FGt => Pred::FLt,
            Pred::FGe => Pred::FLe,
        }
    }
}

/// Value-conversion kinds for [`Inst::Cast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CastKind {
    /// Sign-extend I32 → I64.
    Sext32to64,
    /// Zero-extend I32 → I64.
    Zext32to64,
    /// Truncate I64 → I32.
    Trunc64to32,
    /// Re-wrap an I32 value to 8 bits, sign-extended back into I32.
    Wrap8Sext,
    /// Re-wrap an I32 value to 8 bits, zero-extended.
    Wrap8Zext,
    /// Re-wrap an I32 value to 16 bits, sign-extended.
    Wrap16Sext,
    /// Re-wrap an I32 value to 16 bits, zero-extended.
    Wrap16Zext,
    /// Signed I32 → F32.
    S32toF32,
    /// Signed I32 → F64.
    S32toF64,
    /// Signed I64 → F32.
    S64toF32,
    /// Signed I64 → F64.
    S64toF64,
    /// F32 → signed I32 (truncating).
    F32toS32,
    /// F64 → signed I32 (truncating).
    F64toS32,
    /// F32 → signed I64 (truncating).
    F32toS64,
    /// F64 → signed I64 (truncating).
    F64toS64,
    /// F32 → F64.
    F32toF64,
    /// F64 → F32.
    F64toF32,
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Inst {
    /// `dst = const` (integer/pointer).
    IConst {
        /// Destination vreg.
        dst: VReg,
        /// The constant.
        val: i64,
        /// Machine type.
        ty: Ty,
    },
    /// `dst = const` (floating).
    FConst {
        /// Destination vreg.
        dst: VReg,
        /// The constant.
        val: f64,
        /// Machine type.
        ty: Ty,
    },
    /// `dst = a op b`.
    Bin {
        /// The operation.
        op: IrBinOp,
        /// Destination vreg.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
        /// Machine type.
        ty: Ty,
    },
    /// `dst = (a pred b)` as 0/1 in I32.
    Cmp {
        /// Comparison predicate.
        pred: Pred,
        /// Destination vreg.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
        /// Machine type.
        ty: Ty,
    },
    /// `dst = *(ty*)addr`, integer widths extended per `sext`.
    Load {
        /// Destination vreg.
        dst: VReg,
        /// Address operand.
        addr: VReg,
        /// Machine type.
        ty: Ty,
        /// Sign-extend (vs zero-extend) narrow loads.
        sext: bool,
    },
    /// `*(ty*)addr = src` (narrow stores truncate).
    Store {
        /// Address operand.
        addr: VReg,
        /// Source vreg.
        src: VReg,
        /// Machine type.
        ty: Ty,
    },
    /// `dst = &slot`.
    SlotAddr {
        /// Destination vreg.
        dst: VReg,
        /// The stack slot.
        slot: SlotId,
    },
    /// `dst = &global`.
    GlobalAddr {
        /// Destination vreg.
        dst: VReg,
        /// Global symbol name.
        name: String,
    },
    /// Call; `dst` receives the return value when present.
    Call {
        /// Destination vreg.
        dst: Option<VReg>,
        /// Called function name.
        callee: String,
        /// Argument vregs.
        args: Vec<VReg>,
        /// Argument machine types (ABI).
        arg_tys: Vec<Ty>,
        /// Return machine type, `None` for void.
        ret_ty: Option<Ty>,
    },
    /// `dst = cast(src)`.
    Cast {
        /// Destination vreg.
        dst: VReg,
        /// Source vreg.
        src: VReg,
        /// The conversion.
        kind: CastKind,
    },
    /// Register copy.
    Copy {
        /// Destination vreg.
        dst: VReg,
        /// Source vreg.
        src: VReg,
        /// Machine type.
        ty: Ty,
    },
    /// Vector load of 4×i32 (possibly unaligned).
    VecLoad {
        /// Destination vreg.
        dst: VReg,
        /// Address operand.
        addr: VReg,
    },
    /// Broadcast an I32 into all four lanes.
    VecSplat {
        /// Destination vreg.
        dst: VReg,
        /// Source vreg.
        src: VReg,
    },
    /// Lane-wise binary op (Add/Sub/Mul only).
    VecBin {
        /// The operation.
        op: IrBinOp,
        /// Destination vreg.
        dst: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// Vector store of 4×i32.
    VecStore {
        /// Address operand.
        addr: VReg,
        /// Source vreg.
        src: VReg,
    },
}

impl Inst {
    /// The destination register this instruction defines, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            Inst::IConst { dst, .. }
            | Inst::FConst { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::SlotAddr { dst, .. }
            | Inst::GlobalAddr { dst, .. }
            | Inst::Cast { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::VecLoad { dst, .. }
            | Inst::VecSplat { dst, .. }
            | Inst::VecBin { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. } | Inst::VecStore { .. } => None,
        }
    }

    /// Registers this instruction reads, in operand order, without
    /// allocating.
    pub fn uses(&self) -> impl Iterator<Item = VReg> + '_ {
        let (fixed, args): ([Option<VReg>; 2], &[VReg]) = match self {
            Inst::IConst { .. }
            | Inst::FConst { .. }
            | Inst::SlotAddr { .. }
            | Inst::GlobalAddr { .. } => ([None, None], &[]),
            Inst::Bin { a, b, .. } | Inst::Cmp { a, b, .. } | Inst::VecBin { a, b, .. } => {
                ([Some(*a), Some(*b)], &[])
            }
            Inst::Load { addr, .. } | Inst::VecLoad { addr, .. } => ([Some(*addr), None], &[]),
            Inst::Store { addr, src, .. } | Inst::VecStore { addr, src } => {
                ([Some(*addr), Some(*src)], &[])
            }
            Inst::Call { args, .. } => ([None, None], args),
            Inst::Cast { src, .. } | Inst::Copy { src, .. } | Inst::VecSplat { src, .. } => {
                ([Some(*src), None], &[])
            }
        };
        fixed.into_iter().flatten().chain(args.iter().copied())
    }

    /// The address operand of a load or store.
    pub fn mem_addr(&self) -> Option<VReg> {
        match self {
            Inst::Load { addr, .. }
            | Inst::VecLoad { addr, .. }
            | Inst::Store { addr, .. }
            | Inst::VecStore { addr, .. } => Some(*addr),
            _ => None,
        }
    }

    /// True for instructions with side effects (never dead).
    pub fn has_side_effects(&self) -> bool {
        matches!(self, Inst::Store { .. } | Inst::Call { .. } | Inst::VecStore { .. })
    }
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Term {
    /// Unconditional jump.
    Jmp(BlockId),
    /// Branch on `cond != 0`.
    Br {
        /// Branch condition vreg (non-zero = taken).
        cond: VReg,
        /// Target when the condition is non-zero.
        then_bb: BlockId,
        /// Target when the condition is zero.
        else_bb: BlockId,
    },
    /// Return, with optional value.
    Ret(Option<VReg>),
}

impl Term {
    /// Successor block ids, without allocating.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let succ = match *self {
            Term::Jmp(b) => [Some(b), None],
            Term::Br { then_bb, else_bb, .. } => [Some(then_bb), Some(else_bb)],
            Term::Ret(_) => [None, None],
        };
        succ.into_iter().flatten()
    }

    /// The register this terminator reads, if any.
    pub fn use_reg(&self) -> Option<VReg> {
        match *self {
            Term::Br { cond, .. } => Some(cond),
            Term::Ret(v) => v,
            Term::Jmp(_) => None,
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// Straight-line instructions.
    pub insts: Vec<Inst>,
    /// Terminator.
    pub term: Term,
}

/// A stack slot (from a local declaration or a lowering temp).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slot {
    /// Size in bytes.
    pub size: usize,
    /// Alignment in bytes.
    pub align: usize,
    /// Debug name (source variable, or `$tmpN`).
    pub name: String,
}

/// A lowered function plus the module context it needs (string data,
/// referenced globals).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Module {
    /// Function name.
    pub name: String,
    /// Parameter vregs with their machine types, in ABI order.
    pub params: Vec<(VReg, Ty)>,
    /// Return type (`None` = void).
    pub ret_ty: Option<Ty>,
    /// Basic blocks; index 0 is the entry.
    pub blocks: Vec<Block>,
    /// Machine type of each vreg.
    pub vreg_tys: Vec<Ty>,
    /// Stack slots.
    pub slots: Vec<Slot>,
    /// Read-only string data: `(label, bytes-with-NUL)`.
    pub rodata: Vec<(String, Vec<u8>)>,
    /// Names of globals the function references (emitted as symbols).
    pub extern_globals: Vec<String>,
}

impl Module {
    /// Allocates a fresh vreg of type `ty`.
    pub fn new_vreg(&mut self, ty: Ty) -> VReg {
        self.vreg_tys.push(ty);
        (self.vreg_tys.len() - 1) as VReg
    }

    /// Number of vregs.
    pub fn vreg_count(&self) -> usize {
        self.vreg_tys.len()
    }

    /// Renders the IR as text (for tests and debugging).
    pub fn display(&self) -> String {
        let mut out = format!("func {}(", self.name);
        for (i, (r, t)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("v{r}:{t}"));
        }
        out.push_str(")\n");
        for (i, b) in self.blocks.iter().enumerate() {
            out.push_str(&format!("b{i}:\n"));
            for inst in &b.insts {
                out.push_str(&format!("  {inst:?}\n"));
            }
            out.push_str(&format!("  {:?}\n", b.term));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_use_accounting() {
        let i = Inst::Bin { op: IrBinOp::Add, dst: 2, a: 0, b: 1, ty: Ty::I32 };
        assert_eq!(i.def(), Some(2));
        assert_eq!(i.uses().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(i.mem_addr(), None);
        let s = Inst::Store { addr: 3, src: 2, ty: Ty::I32 };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses().collect::<Vec<_>>(), [3, 2]);
        assert_eq!(s.mem_addr(), Some(3));
        assert!(s.has_side_effects());
        let args = vec![4, 5, 6];
        let c =
            Inst::Call { dst: None, callee: "g".into(), args, arg_tys: vec![], ret_ty: None };
        assert_eq!(c.uses().collect::<Vec<_>>(), [4, 5, 6]);
        assert_eq!(Inst::SlotAddr { dst: 1, slot: 0 }.uses().count(), 0);
    }

    #[test]
    fn pred_swapping_is_involutive() {
        for p in [
            Pred::Eq,
            Pred::Ne,
            Pred::LtS,
            Pred::LeS,
            Pred::GtS,
            Pred::GeS,
            Pred::LtU,
            Pred::LeU,
            Pred::GtU,
            Pred::GeU,
            Pred::FLt,
            Pred::FGe,
        ] {
            assert_eq!(p.swapped().swapped(), p);
        }
    }

    #[test]
    fn term_successors() {
        let br = Term::Br { cond: 7, then_bb: 1, else_bb: 2 };
        assert_eq!(Term::Jmp(3).successors().collect::<Vec<_>>(), [3]);
        assert_eq!(br.successors().collect::<Vec<_>>(), [1, 2]);
        assert_eq!(Term::Ret(Some(4)).successors().count(), 0);
        assert_eq!(
            [Term::Jmp(3).use_reg(), br.use_reg(), Term::Ret(Some(4)).use_reg()],
            [None, Some(7), Some(4)]
        );
    }

    #[test]
    fn ty_sizes() {
        assert_eq!(Ty::I8.size(), 1);
        assert_eq!(Ty::V4I32.size(), 16);
        assert!(Ty::F32.is_float());
        assert!(!Ty::V4I32.is_int());
    }
}
