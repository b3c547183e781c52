//! The VM's flat memory: globals, heap with allocation states, and
//! per-thread stack regions.
//!
//! The address space is laid out so that address classes are decidable from
//! the address alone — the watchpoint planner needs to know "is this a
//! stack address?" (Gist never watches stack variables, §3.2.3 and §6):
//!
//! ```text
//! 0x0000_0000_0000           NULL page (any access faults)
//! 0x0000_0000_1000 ..        globals (one cell per address unit)
//! 0x0000_0010_0000 ..        heap
//! 0x0000_4000_0000 + t*2^20  stack of thread t
//! 0x4000_0000_0000 ..        encoded function addresses (never dereferenced)
//! ```
//!
//! Each segment is stored densely: the globals in one `Vec` indexed from
//! [`GLOBALS_BASE`], the heap in one `Vec` indexed from [`HEAP_BASE`] with
//! a parallel per-cell owner index into the allocation table (0 marks a
//! red-zone cell), and each thread's stack in its own `Vec` indexed from
//! its region base. An access is a subtraction and a bounds check, not a
//! hash probe. The layout above is the whole contract; the storage behind
//! it is not observable.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use gist_ir::{Program, Value};

use crate::failure::FailureKind;

/// A fast multiply-rotate hasher for the VM's address-keyed mutex-owner
/// map.
///
/// Addresses are attacker-free simulation values, so a non-cryptographic
/// mix is safe, and nothing iterates the map, so hash order cannot leak
/// into the deterministic event stream.
#[derive(Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// Address-keyed map with the fast hasher.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Recycled allocations of a finished run's [`Memory`], handed back to
/// [`Memory::with_scratch`] so batched fleet runs stop re-growing the
/// segment vectors from empty every run.
#[derive(Debug, Default)]
pub struct MemScratch {
    mem: Memory,
}

/// Base address of the globals segment.
pub const GLOBALS_BASE: u64 = 0x1000;
/// Base address of the heap.
pub const HEAP_BASE: u64 = 0x10_0000;
/// Base address of thread stacks.
pub const STACK_BASE: u64 = 0x4000_0000;
/// Size of one thread's stack region.
pub const STACK_SIZE: u64 = 1 << 20;

/// State of a heap allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AllocState {
    Live,
    Freed,
}

#[derive(Clone, Debug)]
struct AllocInfo {
    base: u64,
    state: AllocState,
}

/// Where an accessible address is stored.
enum Cell {
    Global(usize),
    Heap(usize),
    Stack(usize, usize),
}

/// The VM's memory.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    /// Global cells, indexed by `addr - GLOBALS_BASE`.
    globals: Vec<Value>,
    /// Heap cells (live, freed and red zone), indexed by
    /// `addr - HEAP_BASE`; its length is the bump pointer's offset.
    heap: Vec<Value>,
    /// Per heap cell: 1 + the index into `allocs` of the allocation that
    /// owns it, or 0 for a red-zone cell.
    owner: Vec<u32>,
    /// Heap allocations in address order.
    allocs: Vec<AllocInfo>,
    /// Stack cells of each thread, indexed by tid, then by offset from the
    /// thread's region base; a stack's length is its bump pointer.
    stacks: Vec<Vec<Value>>,
    /// Map from global id to base address.
    global_bases: Vec<u64>,
}

impl Memory {
    /// Creates memory with the program's globals materialized.
    pub fn new(program: &Program) -> Memory {
        Memory::with_scratch(program, MemScratch::default())
    }

    /// Creates memory reusing a previous run's allocations.
    ///
    /// Behaviorally identical to [`Memory::new`]; the recycled segment
    /// vectors keep their capacity, so a pooled fleet run skips the
    /// growth of cold ones.
    pub fn with_scratch(program: &Program, scratch: MemScratch) -> Memory {
        let mut m = scratch.mem;
        m.clear();
        let mut addr = GLOBALS_BASE;
        for g in &program.globals {
            m.global_bases.push(addr);
            let base = (addr - GLOBALS_BASE) as usize;
            let (size, init) = (g.size as usize, g.init.len());
            let end = base + size.max(init);
            if m.globals.len() < end {
                m.globals.resize(end, 0);
            }
            m.globals[base..base + init].copy_from_slice(&g.init);
            // Remaining cells implicitly 0 but must still be mapped.
            if init < size {
                m.globals[base + init..base + size].fill(0);
            }
            addr += g.size as u64;
        }
        m
    }

    /// Empties every segment, keeping the capacities.
    fn clear(&mut self) {
        self.globals.clear();
        self.heap.clear();
        self.owner.clear();
        self.allocs.clear();
        for s in &mut self.stacks {
            s.clear();
        }
        self.global_bases.clear();
    }

    /// Tears the memory down to its reusable allocations.
    pub fn into_scratch(self) -> MemScratch {
        MemScratch { mem: self }
    }

    /// The base address of a global.
    pub fn global_base(&self, g: gist_ir::GlobalId) -> u64 {
        self.global_bases[g.index()]
    }

    /// All global base addresses (compile-time layout verification).
    pub(crate) fn global_bases(&self) -> &[u64] {
        &self.global_bases
    }

    /// True if `addr` lies in some thread's stack region.
    pub fn is_stack_addr(addr: u64) -> bool {
        (STACK_BASE..gist_ir::Program::FUNC_ADDR_BASE as u64).contains(&addr)
    }

    /// Allocates `size` heap cells, zero-initialized. Returns the base.
    ///
    /// An allocation whose cells would reach the stack segment returns
    /// NULL (0), as `malloc` does when the heap is exhausted; nothing is
    /// allocated.
    pub fn heap_alloc(&mut self, size: u64) -> u64 {
        let size = size.max(1);
        let offset = self.heap.len() as u64;
        if size > (STACK_BASE - HEAP_BASE).saturating_sub(offset) {
            return 0;
        }
        self.allocs.push(AllocInfo {
            base: HEAP_BASE + offset,
            state: AllocState::Live,
        });
        let id = self.allocs.len() as u32;
        // The cells, then a one-cell red zone between allocations.
        let end = (offset + size) as usize;
        self.heap.resize(end + 1, 0);
        self.owner.resize(end, id);
        self.owner.push(0);
        HEAP_BASE + offset
    }

    /// Frees a heap allocation. Fails with `DoubleFree` / `InvalidFree`.
    pub fn heap_free(&mut self, addr: u64) -> Result<(), FailureKind> {
        if addr == 0 {
            // free(NULL) is a no-op, as in C.
            return Ok(());
        }
        let owner = addr
            .checked_sub(HEAP_BASE)
            .and_then(|off| self.owner.get(off as usize))
            .copied()
            .unwrap_or(0);
        match owner.checked_sub(1).map(|i| &mut self.allocs[i as usize]) {
            Some(info) if info.base == addr => match info.state {
                AllocState::Live => {
                    info.state = AllocState::Freed;
                    Ok(())
                }
                AllocState::Freed => Err(FailureKind::DoubleFree { addr }),
            },
            _ => Err(FailureKind::InvalidFree { addr }),
        }
    }

    /// Allocates `size` cells on thread `tid`'s stack.
    ///
    /// Fails with `SegFault` at the first address past the thread's region
    /// when the allocation would cross it (a stack overflow), rather than
    /// spilling into the next thread's stack.
    pub fn stack_alloc(&mut self, tid: u32, size: u64) -> Result<u64, FailureKind> {
        let region = STACK_BASE + tid as u64 * STACK_SIZE;
        let t = tid as usize;
        if self.stacks.len() <= t {
            self.stacks.resize_with(t + 1, Vec::new);
        }
        let stack = &mut self.stacks[t];
        let top = stack.len() as u64;
        if size.max(1) > STACK_SIZE - top {
            return Err(FailureKind::SegFault {
                addr: region + STACK_SIZE,
            });
        }
        stack.resize((top + size.max(1)) as usize, 0);
        Ok(region + top)
    }

    /// Locates an accessible address, or returns the failure that
    /// accessing it raises.
    #[inline]
    fn locate(&self, addr: u64) -> Result<Cell, FailureKind> {
        let fault = FailureKind::SegFault { addr };
        if addr < GLOBALS_BASE || addr >= gist_ir::Program::FUNC_ADDR_BASE as u64 {
            return Err(fault);
        }
        if addr < HEAP_BASE {
            let i = (addr - GLOBALS_BASE) as usize;
            return if i < self.globals.len() {
                Ok(Cell::Global(i))
            } else {
                Err(fault)
            };
        }
        if addr < STACK_BASE {
            // Heap: must be inside a live allocation.
            let i = (addr - HEAP_BASE) as usize;
            return match self.owner.get(i) {
                None | Some(0) => Err(fault),
                Some(&id) => match self.allocs[id as usize - 1].state {
                    AllocState::Live => Ok(Cell::Heap(i)),
                    AllocState::Freed => Err(FailureKind::UseAfterFree { addr }),
                },
            };
        }
        // Stack: must be below its thread's bump pointer.
        let off = addr - STACK_BASE;
        let (t, i) = ((off / STACK_SIZE) as usize, (off % STACK_SIZE) as usize);
        match self.stacks.get(t) {
            Some(s) if i < s.len() => Ok(Cell::Stack(t, i)),
            _ => Err(fault),
        }
    }

    /// Reads a cell.
    #[inline]
    pub fn load(&self, addr: u64) -> Result<Value, FailureKind> {
        Ok(match self.locate(addr)? {
            Cell::Global(i) => self.globals[i],
            Cell::Heap(i) => self.heap[i],
            Cell::Stack(t, i) => self.stacks[t][i],
        })
    }

    /// Writes a cell.
    #[inline]
    pub fn store(&mut self, addr: u64, value: Value) -> Result<(), FailureKind> {
        let cell = match self.locate(addr)? {
            Cell::Global(i) => &mut self.globals[i],
            Cell::Heap(i) => &mut self.heap[i],
            Cell::Stack(t, i) => &mut self.stacks[t][i],
        };
        *cell = value;
        Ok(())
    }

    /// Materializes a NUL-terminated "string" (one char per cell) on the
    /// heap, returning its base address (NULL if the heap is exhausted).
    /// Used for string workload inputs.
    pub fn intern_string(&mut self, chars: &[Value]) -> u64 {
        let base = self.heap_alloc(chars.len() as u64 + 1);
        if base != 0 {
            // The allocation's cells are the heap's last ones before its
            // red zone, and already zero: the terminator is in place.
            let start = (base - HEAP_BASE) as usize;
            self.heap[start..start + chars.len()].copy_from_slice(chars);
        }
        base
    }

    /// Reads a NUL-terminated string starting at `addr` (for diagnostics).
    pub fn read_string(&self, addr: u64, max: usize) -> Result<Vec<Value>, FailureKind> {
        let mut out = Vec::new();
        for a in addr..addr + max as u64 {
            let v = self.load(a)?;
            if v == 0 {
                break;
            }
            out.push(v);
        }
        Ok(out)
    }

    /// Number of live heap allocations (for leak diagnostics in tests).
    pub fn live_allocs(&self) -> usize {
        self.allocs
            .iter()
            .filter(|a| a.state == AllocState::Live)
            .count()
    }

    /// End of globals, used by tests to confirm layout: one past the last
    /// mapped global cell below the heap.
    pub fn globals_extent(&self) -> u64 {
        GLOBALS_BASE + (self.globals.len() as u64).min(HEAP_BASE - GLOBALS_BASE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::builder::ProgramBuilder;

    fn prog_with_globals() -> Program {
        let mut pb = ProgramBuilder::new("t");
        pb.global("a", 7);
        pb.global_array("buf", 4, vec![1, 2]);
        let mut f = pb.function("main", &[]);
        f.ret(None);
        f.finish();
        pb.finish().unwrap()
    }

    #[test]
    fn globals_initialized_and_readable() {
        let p = prog_with_globals();
        let m = Memory::new(&p);
        let a = m.global_base(p.globals[0].id);
        let buf = m.global_base(p.globals[1].id);
        assert_eq!(m.load(a).unwrap(), 7);
        assert_eq!(m.load(buf).unwrap(), 1);
        assert_eq!(m.load(buf + 1).unwrap(), 2);
        assert_eq!(m.load(buf + 3).unwrap(), 0, "tail cells are zero");
    }

    #[test]
    fn null_deref_faults() {
        let p = prog_with_globals();
        let m = Memory::new(&p);
        assert_eq!(m.load(0), Err(FailureKind::SegFault { addr: 0 }));
        let mut m2 = m.clone();
        assert_eq!(m2.store(0, 1), Err(FailureKind::SegFault { addr: 0 }));
    }

    #[test]
    fn heap_alloc_free_cycle() {
        let p = prog_with_globals();
        let mut m = Memory::new(&p);
        let a = m.heap_alloc(4);
        assert!(a >= HEAP_BASE);
        m.store(a + 3, 99).unwrap();
        assert_eq!(m.load(a + 3).unwrap(), 99);
        m.heap_free(a).unwrap();
        assert_eq!(m.load(a), Err(FailureKind::UseAfterFree { addr: a }));
        assert_eq!(m.heap_free(a), Err(FailureKind::DoubleFree { addr: a }));
    }

    #[test]
    fn free_null_is_noop() {
        let p = prog_with_globals();
        let mut m = Memory::new(&p);
        assert!(m.heap_free(0).is_ok());
    }

    #[test]
    fn invalid_free_detected() {
        let p = prog_with_globals();
        let mut m = Memory::new(&p);
        let a = m.heap_alloc(4);
        assert_eq!(
            m.heap_free(a + 1),
            Err(FailureKind::InvalidFree { addr: a + 1 })
        );
    }

    #[test]
    fn out_of_bounds_heap_access_faults() {
        let p = prog_with_globals();
        let mut m = Memory::new(&p);
        let a = m.heap_alloc(2);
        // One past the end hits the red zone.
        assert!(matches!(m.load(a + 2), Err(FailureKind::SegFault { .. })));
    }

    #[test]
    fn stack_addresses_are_classified() {
        let p = prog_with_globals();
        let mut m = Memory::new(&p);
        let s = m.stack_alloc(3, 8).unwrap();
        assert!(Memory::is_stack_addr(s));
        assert!(!Memory::is_stack_addr(HEAP_BASE));
        assert!(!Memory::is_stack_addr(GLOBALS_BASE));
        m.store(s, 5).unwrap();
        assert_eq!(m.load(s).unwrap(), 5);
    }

    #[test]
    fn distinct_threads_get_distinct_stacks() {
        let p = prog_with_globals();
        let mut m = Memory::new(&p);
        let a = m.stack_alloc(0, 4).unwrap();
        let b = m.stack_alloc(1, 4).unwrap();
        assert_ne!(a, b);
        assert!(b - a >= STACK_SIZE || a - b >= STACK_SIZE);
    }

    #[test]
    fn stack_overflow_faults_past_the_region() {
        let p = prog_with_globals();
        let mut m = Memory::new(&p);
        let a = m.stack_alloc(0, STACK_SIZE - 1).unwrap();
        assert_eq!(m.stack_alloc(0, 1), Ok(a + STACK_SIZE - 1), "fills exactly");
        let end = STACK_BASE + STACK_SIZE;
        assert_eq!(
            m.stack_alloc(0, 1),
            Err(FailureKind::SegFault { addr: end })
        );
        // The next thread's region is untouched.
        assert_eq!(m.load(end), Err(FailureKind::SegFault { addr: end }));
        assert_eq!(m.stack_alloc(1, 1), Ok(end));
    }

    #[test]
    fn heap_allocation_reaching_the_stack_returns_null() {
        let p = prog_with_globals();
        let mut m = Memory::new(&p);
        assert_eq!(m.heap_alloc(STACK_BASE - HEAP_BASE + 1), 0);
        assert_eq!(m.heap_alloc(u64::MAX), 0);
        assert_eq!(m.live_allocs(), 0, "a refused allocation allocates nothing");
        let a = m.heap_alloc(4);
        assert_eq!(a, HEAP_BASE, "refusals do not move the bump pointer");
    }

    #[test]
    fn string_interning_roundtrip() {
        let p = prog_with_globals();
        let mut m = Memory::new(&p);
        let s = m.intern_string(&[104, 105]); // "hi"
        assert_eq!(m.read_string(s, 16).unwrap(), vec![104, 105]);
        assert_eq!(m.load(s + 2).unwrap(), 0);
    }

    #[test]
    fn function_address_region_faults_on_access() {
        let p = prog_with_globals();
        let m = Memory::new(&p);
        let fa = gist_ir::Program::FUNC_ADDR_BASE as u64;
        assert!(matches!(m.load(fa), Err(FailureKind::SegFault { .. })));
    }

    #[test]
    fn live_alloc_counting() {
        let p = prog_with_globals();
        let mut m = Memory::new(&p);
        let a = m.heap_alloc(1);
        let _b = m.heap_alloc(1);
        assert_eq!(m.live_allocs(), 2);
        m.heap_free(a).unwrap();
        assert_eq!(m.live_allocs(), 1);
    }
}
