//! Byte-addressable segment memory for the MiniC interpreter.
//!
//! Every object (global, local, string literal, parameter buffer) lives in
//! its own *segment*; a pointer is a `(segment, offset)` pair. This models
//! real memory closely enough that `memcpy`, offset casts and aliasing all
//! behave like hardware, while still catching out-of-bounds and
//! use-after-free per object — the same checks a sanitizer would perform
//! when the paper's harness executes untrusted decompiled code.

use crate::value::Pointer;
use crate::{ErrorKind, MiniCError, Result};

/// One allocation: raw bytes plus liveness.
#[derive(Debug, Clone)]
struct Segment {
    data: Vec<u8>,
    alive: bool,
}

/// The interpreter's memory: an arena of segments.
///
/// Segment 0 is reserved as the null segment, so a freshly-created
/// [`Pointer::null`] faults on access.
///
/// # Example
///
/// ```
/// use slade_minic::mem::Memory;
///
/// let mut mem = Memory::new();
/// let p = mem.alloc(8);
/// mem.store_bytes(p, &42i64.to_le_bytes()).unwrap();
/// assert_eq!(mem.load_bytes(p, 8).unwrap(), 42i64.to_le_bytes());
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    segments: Vec<Segment>,
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl Memory {
    /// Creates an empty memory with the reserved null segment.
    pub fn new() -> Self {
        Memory { segments: vec![Segment { data: Vec::new(), alive: false }] }
    }

    /// Allocates a zero-initialized segment of `size` bytes and returns a
    /// pointer to its start.
    pub fn alloc(&mut self, size: usize) -> Pointer {
        let seg = self.segments.len() as u32;
        self.segments.push(Segment { data: vec![0; size], alive: true });
        Pointer { seg, off: 0 }
    }

    /// Marks a segment dead (used when a scope exits); later access faults.
    pub fn free(&mut self, p: Pointer) {
        if let Some(s) = self.segments.get_mut(p.seg as usize) {
            s.alive = false;
            s.data.clear();
            s.data.shrink_to_fit();
        }
    }

    fn slice(&self, p: Pointer, len: usize) -> Result<&[u8]> {
        let seg = self
            .segments
            .get(p.seg as usize)
            .filter(|s| s.alive)
            .ok_or_else(|| oob(p, len, "access to dead or null segment"))?;
        let start = usize::try_from(p.off).map_err(|_| oob(p, len, "negative offset"))?;
        let end = start.checked_add(len).ok_or_else(|| oob(p, len, "offset overflow"))?;
        seg.data.get(start..end).ok_or_else(|| oob(p, len, "out of bounds"))
    }

    fn slice_mut(&mut self, p: Pointer, len: usize) -> Result<&mut [u8]> {
        let seg = self
            .segments
            .get_mut(p.seg as usize)
            .filter(|s| s.alive)
            .ok_or_else(|| oob(p, len, "access to dead or null segment"))?;
        let start = usize::try_from(p.off).map_err(|_| oob(p, len, "negative offset"))?;
        let end = start.checked_add(len).ok_or_else(|| oob(p, len, "offset overflow"))?;
        seg.data.get_mut(start..end).ok_or_else(|| oob(p, len, "out of bounds"))
    }

    /// Reads `len` bytes at `p`.
    ///
    /// # Errors
    ///
    /// Faults on null/dead segments and out-of-bounds ranges.
    pub fn load_bytes(&self, p: Pointer, len: usize) -> Result<Vec<u8>> {
        Ok(self.slice(p, len)?.to_vec())
    }

    /// Reads `out.len()` bytes at `p` into `out`.
    ///
    /// # Errors
    ///
    /// Faults on null/dead segments and out-of-bounds ranges.
    pub fn load_into(&self, p: Pointer, out: &mut [u8]) -> Result<()> {
        out.copy_from_slice(self.slice(p, out.len())?);
        Ok(())
    }

    /// Writes `bytes` at `p`.
    ///
    /// # Errors
    ///
    /// Faults on null/dead segments and out-of-bounds ranges.
    pub fn store_bytes(&mut self, p: Pointer, bytes: &[u8]) -> Result<()> {
        self.slice_mut(p, bytes.len())?.copy_from_slice(bytes);
        Ok(())
    }

    /// `memcpy`-style copy between possibly-overlapping regions.
    ///
    /// # Errors
    ///
    /// Faults if either range is invalid.
    pub fn copy(&mut self, dst: Pointer, src: Pointer, len: usize) -> Result<()> {
        let bytes = self.load_bytes(src, len)?;
        self.store_bytes(dst, &bytes)
    }

    /// `memset`-style fill.
    ///
    /// # Errors
    ///
    /// Faults if the range is invalid.
    pub fn fill(&mut self, dst: Pointer, byte: u8, len: usize) -> Result<()> {
        self.slice_mut(dst, len)?.fill(byte);
        Ok(())
    }

    /// Reads a NUL-terminated C string starting at `p` (capped at 1 MiB).
    ///
    /// # Errors
    ///
    /// Faults if the string runs past its segment without a terminator.
    pub fn load_cstr(&self, p: Pointer) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut off = p.off;
        loop {
            let b = self.slice(Pointer { seg: p.seg, off }, 1)?[0];
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
            off += 1;
            if out.len() > 1 << 20 {
                return Err(oob(p, out.len(), "unterminated string"));
            }
        }
    }
}

fn oob(p: Pointer, len: usize, why: &str) -> MiniCError {
    MiniCError::new(
        ErrorKind::Runtime,
        format!("memory fault: {why} (seg {} off {} len {len})", p.seg, p.off),
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_bytes() {
        let mut m = Memory::new();
        let p = m.alloc(16);
        m.store_bytes(p, &[1, 2, 3]).unwrap();
        assert_eq!(m.load_bytes(p, 3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn null_pointer_faults() {
        let m = Memory::new();
        assert!(m.load_bytes(Pointer::null(), 1).is_err());
    }

    #[test]
    fn out_of_bounds_faults() {
        let mut m = Memory::new();
        let p = m.alloc(4);
        assert!(m.load_bytes(p.offset(2), 4).is_err());
        assert!(m.load_bytes(p.offset(-1), 1).is_err());
    }

    #[test]
    fn use_after_free_faults() {
        let mut m = Memory::new();
        let p = m.alloc(4);
        m.free(p);
        assert!(m.load_bytes(p, 1).is_err());
    }

    #[test]
    fn cstr_reads_to_nul() {
        let mut m = Memory::new();
        let p = m.alloc(8);
        m.store_bytes(p, b"hi\0junk").unwrap();
        assert_eq!(m.load_cstr(p).unwrap(), b"hi");
    }

    #[test]
    fn overlapping_copy_behaves_like_memmove() {
        let mut m = Memory::new();
        let p = m.alloc(8);
        m.store_bytes(p, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        m.copy(p.offset(2), p, 4).unwrap();
        assert_eq!(m.load_bytes(p, 8).unwrap(), vec![1, 2, 1, 2, 3, 4, 7, 8]);
    }
}
