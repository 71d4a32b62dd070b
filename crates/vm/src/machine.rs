//! Machine state: stacks, memory and output.

use crate::inst::{Cell, CELL_BYTES};

/// Default data-space size in bytes.
pub const DEFAULT_MEMORY: usize = 1 << 20;
/// Default maximum data-stack depth in cells.
pub const DEFAULT_STACK_LIMIT: usize = 1 << 16;
/// Default maximum return-stack depth in cells.
pub const DEFAULT_RSTACK_LIMIT: usize = 1 << 16;

/// The mutable state of a virtual machine: data stack, return stack,
/// byte-addressable data space and an output buffer.
///
/// The same `Machine` type is shared by every interpreter in the workspace
/// (reference, baseline, top-of-stack, dynamically cached, statically
/// cached), which is what makes their observable behaviour directly
/// comparable in tests.
///
/// # Examples
///
/// ```
/// use stackcache_vm::Machine;
///
/// let mut m = Machine::new();
/// m.push(2);
/// m.push(3);
/// assert_eq!(m.depth(), 2);
/// assert_eq!(m.stack(), &[2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    pub(crate) stack: Vec<Cell>,
    pub(crate) rstack: Vec<Cell>,
    pub(crate) mem: Vec<u8>,
    pub(crate) out: Vec<u8>,
    pub(crate) stack_limit: usize,
    pub(crate) rstack_limit: usize,
}

impl Machine {
    /// A machine with default memory and stack limits.
    #[must_use]
    pub fn new() -> Self {
        Self::with_memory(DEFAULT_MEMORY)
    }

    /// A machine with `bytes` of data space and default stack limits.
    #[must_use]
    pub fn with_memory(bytes: usize) -> Self {
        Machine {
            stack: Vec::with_capacity(256),
            rstack: Vec::with_capacity(256),
            mem: vec![0; bytes],
            out: Vec::new(),
            stack_limit: DEFAULT_STACK_LIMIT,
            rstack_limit: DEFAULT_RSTACK_LIMIT,
        }
    }

    /// Current data-stack contents, bottom first.
    #[must_use]
    pub fn stack(&self) -> &[Cell] {
        &self.stack
    }

    /// Current return-stack contents, bottom first.
    #[must_use]
    pub fn rstack(&self) -> &[Cell] {
        &self.rstack
    }

    /// Current data-stack depth in cells.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Bytes written by output instructions (`emit`, `.`, `type`, `cr`).
    #[must_use]
    pub fn output(&self) -> &[u8] {
        &self.out
    }

    /// Output interpreted as UTF-8 (lossily).
    #[must_use]
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.out).into_owned()
    }

    /// The data space.
    #[must_use]
    pub fn memory(&self) -> &[u8] {
        &self.mem
    }

    /// Mutable access to the data space (for loading initial data).
    pub fn memory_mut(&mut self) -> &mut [u8] {
        &mut self.mem
    }

    /// Push a cell onto the data stack.
    ///
    /// Test/setup convenience; interpreters use their own inlined accessors.
    pub fn push(&mut self, x: Cell) {
        self.stack.push(x);
    }

    /// Pop a cell from the data stack, if present.
    pub fn pop(&mut self) -> Option<Cell> {
        self.stack.pop()
    }

    /// Push a cell onto the return stack.
    pub fn rpush(&mut self, x: Cell) {
        self.rstack.push(x);
    }

    /// Maximum data-stack depth in cells.
    #[must_use]
    pub fn stack_limit(&self) -> usize {
        self.stack_limit
    }

    /// Maximum return-stack depth in cells.
    #[must_use]
    pub fn rstack_limit(&self) -> usize {
        self.rstack_limit
    }

    /// Override the maximum data-stack depth (tests exercising
    /// overflow behavior with small limits).
    pub fn set_stack_limit(&mut self, limit: usize) {
        self.stack_limit = limit;
    }

    /// Override the maximum return-stack depth.
    pub fn set_rstack_limit(&mut self, limit: usize) {
        self.rstack_limit = limit;
    }

    /// Replace the data-stack contents (bottom-first). Used by alternative
    /// interpreters to publish their final stack.
    pub fn set_stack(&mut self, items: &[Cell]) {
        self.stack.clear();
        self.stack.extend_from_slice(items);
    }

    /// Replace the return-stack contents (bottom-first).
    pub fn set_rstack(&mut self, items: &[Cell]) {
        self.rstack.clear();
        self.rstack.extend_from_slice(items);
    }

    /// Append one byte to the output buffer (the `emit` primitive).
    pub fn push_output_byte(&mut self, b: u8) {
        self.out.push(b);
    }

    /// Append a number in Forth `.` format (decimal followed by a space),
    /// formatted in a stack buffer: at most `-`, 19 digits and the space.
    /// Kept out of line, like the range copy below, so the interpreters'
    /// dispatch loops stay small.
    #[inline(never)]
    pub fn push_output_number(&mut self, n: Cell) {
        let mut buf = [0u8; 21];
        let mut i = buf.len() - 1;
        buf[i] = b' ';
        let mut u = n.unsigned_abs();
        loop {
            i -= 1;
            buf[i] = b'0' + (u % 10) as u8;
            u /= 10;
            if u == 0 {
                break;
            }
        }
        if n < 0 {
            i -= 1;
            buf[i] = b'-';
        }
        self.out.extend_from_slice(&buf[i..]);
    }

    /// Append the `len` memory bytes from `addr` on (the `type`
    /// primitive) with one copy. When the range leaves memory, the bytes
    /// before the first invalid address are appended and that address
    /// is returned; a negative `len` appends nothing and is returned.
    ///
    /// # Errors
    /// The faulting address: a negative `len`, or the first address of
    /// the range outside memory.
    #[inline(never)]
    pub fn push_output_range(&mut self, addr: Cell, len: Cell) -> Result<(), Cell> {
        if len <= 0 {
            return if len < 0 { Err(len) } else { Ok(()) };
        }
        let start = usize::try_from(addr).map_err(|_| addr)?;
        let valid = match self.mem.len().checked_sub(start) {
            Some(valid) if valid > 0 => valid,
            _ => return Err(addr), // starts at or past the end
        };
        let n = usize::try_from(len).map_or(valid, |len| len.min(valid));
        self.out.extend_from_slice(&self.mem[start..start + n]);
        if n as Cell == len {
            Ok(())
        } else {
            Err(addr + n as Cell)
        }
    }

    /// Make room for `additional` more output bytes, so native code
    /// (which cannot grow the buffer) can append in place.
    pub fn reserve_output(&mut self, additional: usize) {
        self.out.reserve(additional);
    }

    /// Raw parts of the output buffer `(ptr, len, capacity)` for native
    /// code that appends bytes in place (the template JIT's output
    /// primitives).
    pub fn output_raw_parts(&mut self) -> (*mut u8, usize, usize) {
        (self.out.as_mut_ptr(), self.out.len(), self.out.capacity())
    }

    /// Set the output length after native code appended bytes in place.
    ///
    /// # Safety
    ///
    /// `len` must not exceed the buffer's capacity and every byte below
    /// `len` must have been written.
    pub unsafe fn set_output_len(&mut self, len: usize) {
        self.out.set_len(len);
    }

    /// Clear stacks and output, keep memory contents.
    pub fn reset_stacks(&mut self) {
        self.stack.clear();
        self.rstack.clear();
        self.out.clear();
    }

    /// Make this machine state-identical to `proto`, reusing this
    /// machine's existing buffers instead of allocating fresh ones.
    ///
    /// Semantically equivalent to `*self = proto.clone()`, but the
    /// memory image, stacks, and output buffer are overwritten in place
    /// (`Vec::clone_from`), so a serving layer that runs many requests
    /// from the same prototype pays the allocation once and only the
    /// copies thereafter.
    pub fn reset_from(&mut self, proto: &Machine) {
        self.stack.clone_from(&proto.stack);
        self.rstack.clone_from(&proto.rstack);
        self.mem.clone_from(&proto.mem);
        self.out.clone_from(&proto.out);
        self.stack_limit = proto.stack_limit;
        self.rstack_limit = proto.rstack_limit;
    }

    /// Read the cell at byte address `addr`, or `None` when out of bounds.
    ///
    /// Cells are stored little-endian; `addr` need not be aligned.
    #[must_use]
    pub fn load_cell(&self, addr: i64) -> Option<Cell> {
        let a = usize::try_from(addr).ok()?;
        let end = a.checked_add(CELL_BYTES)?;
        let bytes = self.mem.get(a..end)?;
        Some(Cell::from_le_bytes(
            bytes.try_into().expect("slice length is CELL_BYTES"),
        ))
    }

    /// Write the cell at byte address `addr`. Returns `false` when out of
    /// bounds.
    pub fn store_cell(&mut self, addr: i64, x: Cell) -> bool {
        let Ok(a) = usize::try_from(addr) else {
            return false;
        };
        let Some(end) = a.checked_add(CELL_BYTES) else {
            return false;
        };
        match self.mem.get_mut(a..end) {
            Some(slot) => {
                slot.copy_from_slice(&x.to_le_bytes());
                true
            }
            None => false,
        }
    }

    /// Read the byte at `addr`, zero-extended.
    #[must_use]
    pub fn load_byte(&self, addr: i64) -> Option<Cell> {
        let a = usize::try_from(addr).ok()?;
        self.mem.get(a).map(|&b| Cell::from(b))
    }

    /// Write the low byte of `x` at `addr`. Returns `false` when out of
    /// bounds.
    pub fn store_byte(&mut self, addr: i64, x: Cell) -> bool {
        let Ok(a) = usize::try_from(addr) else {
            return false;
        };
        match self.mem.get_mut(a) {
            Some(slot) => {
                *slot = x as u8;
                true
            }
            None => false,
        }
    }
}

impl Default for Machine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_roundtrip_little_endian() {
        let mut m = Machine::with_memory(64);
        assert!(m.store_cell(8, -123456789));
        assert_eq!(m.load_cell(8), Some(-123456789));
        assert_eq!(m.memory()[8], (-123456789i64).to_le_bytes()[0]);
    }

    #[test]
    fn unaligned_cell_access_works() {
        let mut m = Machine::with_memory(64);
        assert!(m.store_cell(3, 0x0102030405060708));
        assert_eq!(m.load_cell(3), Some(0x0102030405060708));
    }

    #[test]
    fn out_of_bounds_access_is_rejected() {
        let mut m = Machine::with_memory(16);
        assert_eq!(m.load_cell(9), None); // 9 + 8 > 16
        assert_eq!(m.load_cell(-1), None);
        assert!(!m.store_cell(9, 1));
        assert!(!m.store_cell(i64::MAX, 1));
        assert_eq!(m.load_byte(16), None);
        assert!(!m.store_byte(16, 1));
        assert!(m.store_byte(15, 0xAB));
        assert_eq!(m.load_byte(15), Some(0xAB));
    }

    #[test]
    fn bytes_are_zero_extended() {
        let mut m = Machine::with_memory(16);
        assert!(m.store_byte(0, -1));
        assert_eq!(m.load_byte(0), Some(255));
    }

    #[test]
    fn reset_keeps_memory() {
        let mut m = Machine::with_memory(16);
        m.push(1);
        m.rpush(2);
        m.out.extend_from_slice(b"x");
        m.store_cell(0, 42);
        m.reset_stacks();
        assert!(m.stack().is_empty());
        assert!(m.rstack().is_empty());
        assert!(m.output().is_empty());
        assert_eq!(m.load_cell(0), Some(42));
    }

    #[test]
    fn reset_from_restores_the_prototype_exactly() {
        let mut proto = Machine::with_memory(32);
        proto.push(7);
        proto.rpush(9);
        proto.store_cell(8, -1);

        let mut m = Machine::with_memory(16);
        m.push(100);
        m.out.extend_from_slice(b"dirty");
        m.store_cell(0, 5);

        m.reset_from(&proto);
        assert_eq!(m.stack(), proto.stack());
        assert_eq!(m.rstack(), proto.rstack());
        assert_eq!(m.memory(), proto.memory());
        assert_eq!(m.output(), proto.output());
        assert_eq!(m.stack_limit(), proto.stack_limit());
        assert_eq!(m.rstack_limit(), proto.rstack_limit());

        // and again after running: still byte-identical to the prototype
        m.push(1);
        m.store_byte(0, 0xEE);
        m.reset_from(&proto);
        assert_eq!(m.memory(), proto.memory());
        assert_eq!(m.stack(), proto.stack());
    }

    #[test]
    fn numbers_format_like_to_string() {
        let mut values = vec![0, 1, -1, Cell::MIN, Cell::MAX, Cell::MIN + 1];
        for k in 1..=18 {
            let p = 10i64.pow(k);
            values.extend([p, -p, p - 1, 1 - p]);
        }
        for n in values {
            let mut m = Machine::with_memory(0);
            m.push_output_number(n);
            assert_eq!(m.output(), format!("{n} ").as_bytes(), "{n}");
        }
    }

    #[test]
    fn output_ranges_stop_at_the_first_invalid_address() {
        let mut m = Machine::with_memory(8);
        m.memory_mut().copy_from_slice(b"abcdefgh");
        assert_eq!(m.push_output_range(2, 3), Ok(()));
        assert_eq!(m.push_output_range(-4, 0), Ok(()));
        assert_eq!(m.push_output_range(0, -3), Err(-3));
        assert_eq!(m.push_output_range(6, 5), Err(8));
        assert_eq!(m.push_output_range(-1, 2), Err(-1));
        assert_eq!(m.push_output_range(8, 1), Err(8));
        assert_eq!(m.push_output_range(9, 1), Err(9));
        assert_eq!(m.push_output_range(1 << 40, 1), Err(1 << 40));
        assert_eq!(m.push_output_range(Cell::MAX, 2), Err(Cell::MAX));
        assert_eq!(m.push_output_range(7, Cell::MAX), Err(8));
        assert_eq!(m.output(), b"cdeghh");
    }
}
