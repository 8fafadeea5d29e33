//! What the x86-64 and AArch64 emulators share: segment memory holding the
//! file's rodata and a stack, the symbol table, the instruction budget, and
//! the libc builtins dispatched by name on a call. An ISA adds its register
//! file (`C`) and says which registers carry a call's arguments and result.

use crate::{EmuError, Result};
use slade_asm::AsmFile;
use slade_minic::mem::Memory;
use slade_minic::value::Pointer;
use std::collections::HashMap;

fn pack(p: Pointer) -> u64 {
    ((p.seg as u64) << 32) | (p.off as u64 & 0xffff_ffff)
}

fn unpack(v: u64) -> Pointer {
    Pointer { seg: (v >> 32) as u32, off: (v & 0xffff_ffff) as i64 }
}

fn fault(e: impl ToString) -> EmuError {
    EmuError::new(e.to_string())
}

/// An emulated machine with register file `C` ([`crate::Emulator`],
/// [`crate::ArmEmulator`]).
#[derive(Debug)]
pub struct Machine<C> {
    pub(crate) file: AsmFile,
    pub(crate) cpu: C,
    mem: Memory,
    pub(crate) symbols: HashMap<String, u64>,
    pub(crate) stack_base: u64,
    pub(crate) fuel: u64,
}

/// What a libc builtin returns, for the ISA's integer or floating-point
/// return register.
pub(crate) enum Ret {
    Int(u64),
    F64(f64),
}

impl<C: Default> Machine<C> {
    /// Builds an emulator for `file`, allocating its rodata and a 1 MiB
    /// stack.
    pub fn new(file: AsmFile) -> Self {
        let mut mem = Memory::new();
        let mut symbols = HashMap::new();
        for (label, bytes) in &file.rodata {
            let p = mem.alloc(bytes.len());
            mem.store_bytes(p, bytes).expect("fresh rodata segment");
            symbols.insert(label.clone(), pack(p));
        }
        let stack_base = pack(mem.alloc(1 << 20)) + (1 << 20) - 64;
        Machine { file, cpu: C::default(), mem, symbols, stack_base, fuel: 0 }
    }

    /// Allocates a buffer with the given contents; returns its packed
    /// address (pass it as an [`crate::Arg::Int`]).
    pub fn alloc_buffer(&mut self, bytes: &[u8]) -> u64 {
        let p = self.mem.alloc(bytes.len());
        self.mem.store_bytes(p, bytes).expect("fresh segment");
        pack(p)
    }

    /// Defines global symbol `name` backed by `bytes`.
    pub fn define_global(&mut self, name: &str, bytes: &[u8]) -> u64 {
        let addr = self.alloc_buffer(bytes);
        self.symbols.insert(name.to_string(), addr);
        addr
    }

    /// Reads memory at a packed address.
    ///
    /// # Errors
    ///
    /// Faults on invalid ranges.
    pub fn read_buffer(&self, addr: u64, len: usize) -> Result<Vec<u8>> {
        self.mem.load_bytes(unpack(addr), len).map_err(fault)
    }

    pub(crate) fn write_buffer(&mut self, addr: u64, bytes: &[u8]) -> Result<()> {
        self.mem.store_bytes(unpack(addr), bytes).map_err(fault)
    }

    /// The libc builtins, one table for both ISAs: `[a, b, c]` are the
    /// first three integer (or pointer) arguments, `[x, y]` the first two
    /// floating-point ones.
    pub(crate) fn libc(
        &mut self,
        name: &str,
        [a, b, c]: [u64; 3],
        [x, y]: [f64; 2],
    ) -> Result<Ret> {
        let cstr = |mem: &Memory, s: u64| mem.load_cstr(unpack(s)).map_err(fault);
        Ok(match name {
            "memcpy" | "memmove" => {
                self.mem.copy(unpack(a), unpack(b), c as usize).map_err(fault)?;
                Ret::Int(a)
            }
            "memset" => {
                self.mem.fill(unpack(a), b as u8, c as usize).map_err(fault)?;
                Ret::Int(a)
            }
            "strlen" => Ret::Int(cstr(&self.mem, a)?.len() as u64),
            "strcmp" => Ret::Int(cstr(&self.mem, a)?.cmp(&cstr(&self.mem, b)?) as i64 as u64),
            "abs" => Ret::Int((a as i32).wrapping_abs() as u32 as u64),
            "labs" => Ret::Int((a as i64).wrapping_abs() as u64),
            // Output goes nowhere; the IO harness compares memory and
            // return values, not stdout.
            "putchar" => Ret::Int(a as u32 as u64),
            "printf" => Ret::Int(0),
            "sqrt" => Ret::F64(x.sqrt()),
            "fabs" => Ret::F64(x.abs()),
            "sin" => Ret::F64(x.sin()),
            "cos" => Ret::F64(x.cos()),
            "tan" => Ret::F64(x.tan()),
            "exp" => Ret::F64(x.exp()),
            "log" => Ret::F64(x.ln()),
            "floor" => Ret::F64(x.floor()),
            "ceil" => Ret::F64(x.ceil()),
            "pow" => Ret::F64(x.powf(y)),
            "fmod" => Ret::F64(x % y),
            "fmin" => Ret::F64(x.min(y)),
            "fmax" => Ret::F64(x.max(y)),
            other => return Err(fault(format!("call to undefined function `{other}`"))),
        })
    }
}
