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

use gist_ir::{Program, Value};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::failure::FailureKind;

/// A fast multiply-rotate hasher for the address-keyed shadow maps.
///
/// Cell lookups are the single hottest memory operation of a fleet run;
/// SipHash's per-lookup cost dominates it. Addresses are attacker-free
/// simulation values, so a non-cryptographic mix is safe. Nothing
/// iterates these maps in an order-sensitive way (the only scan,
/// [`Memory::globals_extent`], takes a max), so hash order cannot leak
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
/// [`Memory::with_scratch`] so batched fleet runs stop re-growing the cell
/// map from empty every run.
#[derive(Debug, Default)]
pub struct MemScratch {
    cells: FxHashMap<u64, Value>,
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
    size: u64,
    state: AllocState,
}

/// The VM's memory.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    cells: FxHashMap<u64, Value>,
    /// Heap allocations by base address.
    allocs: BTreeMap<u64, AllocInfo>,
    next_heap: u64,
    /// Per-thread stack bump pointers.
    stack_tops: FxHashMap<u32, u64>,
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
    /// Behaviorally identical to [`Memory::new`]; the recycled cell map
    /// keeps its capacity, so a pooled fleet run skips the rehash-growth
    /// of a cold map.
    pub fn with_scratch(program: &Program, mut scratch: MemScratch) -> Memory {
        scratch.cells.clear();
        let mut m = Memory {
            cells: scratch.cells,
            next_heap: HEAP_BASE,
            ..Memory::default()
        };
        let mut addr = GLOBALS_BASE;
        for g in &program.globals {
            m.global_bases.push(addr);
            for (i, v) in g.init.iter().enumerate() {
                m.cells.insert(addr + i as u64, *v);
            }
            // Remaining cells implicitly 0 but must still be mapped.
            for i in g.init.len()..g.size as usize {
                m.cells.insert(addr + i as u64, 0);
            }
            addr += g.size as u64;
        }
        m
    }

    /// Tears the memory down to its reusable allocations.
    pub fn into_scratch(mut self) -> MemScratch {
        self.cells.clear();
        MemScratch { cells: self.cells }
    }

    /// The base address of a global.
    pub fn global_base(&self, g: gist_ir::GlobalId) -> u64 {
        self.global_bases[g.index()]
    }

    /// All global base addresses (compile-time layout verification).
    pub(crate) fn global_bases(&self) -> &[u64] {
        &self.global_bases
    }

    /// End of the globals segment (exclusive).
    fn globals_end(&self) -> u64 {
        self.global_bases
            .last()
            .map(|&b| b + 1)
            .map(|_| {
                // Recompute precisely: last base + its mapped extent.
                // Cells map tracks exact mapping, so use max mapped global addr + 1.
                self.cells
                    .keys()
                    .filter(|&&a| a < HEAP_BASE)
                    .max()
                    .map(|&a| a + 1)
                    .unwrap_or(GLOBALS_BASE)
            })
            .unwrap_or(GLOBALS_BASE)
    }

    /// True if `addr` lies in some thread's stack region.
    pub fn is_stack_addr(addr: u64) -> bool {
        (STACK_BASE..gist_ir::Program::FUNC_ADDR_BASE as u64).contains(&addr)
    }

    /// Allocates `size` heap cells, zero-initialized. Returns the base.
    pub fn heap_alloc(&mut self, size: u64) -> u64 {
        let size = size.max(1);
        let base = self.next_heap;
        self.next_heap += size + 1; // one-cell red zone between allocations
        self.allocs.insert(
            base,
            AllocInfo {
                size,
                state: AllocState::Live,
            },
        );
        for i in 0..size {
            self.cells.insert(base + i, 0);
        }
        base
    }

    /// Frees a heap allocation. Fails with `DoubleFree` / `InvalidFree`.
    pub fn heap_free(&mut self, addr: u64) -> Result<(), FailureKind> {
        if addr == 0 {
            // free(NULL) is a no-op, as in C.
            return Ok(());
        }
        match self.allocs.get_mut(&addr) {
            Some(info) if info.state == AllocState::Live => {
                info.state = AllocState::Freed;
                Ok(())
            }
            Some(_) => Err(FailureKind::DoubleFree { addr }),
            None => Err(FailureKind::InvalidFree { addr }),
        }
    }

    /// Allocates `size` cells on thread `tid`'s stack.
    pub fn stack_alloc(&mut self, tid: u32, size: u64) -> u64 {
        let region = STACK_BASE + tid as u64 * STACK_SIZE;
        let top = self.stack_tops.entry(tid).or_insert(region);
        let base = *top;
        *top += size.max(1);
        for i in 0..size.max(1) {
            self.cells.insert(base + i, 0);
        }
        base
    }

    /// Classifies an address: `Ok(())` if accessible, or the failure that
    /// accessing it raises.
    fn check(&self, addr: u64) -> Result<(), FailureKind> {
        if addr == 0 || addr < GLOBALS_BASE {
            return Err(FailureKind::SegFault { addr });
        }
        if addr >= gist_ir::Program::FUNC_ADDR_BASE as u64 {
            return Err(FailureKind::SegFault { addr });
        }
        if (HEAP_BASE..STACK_BASE).contains(&addr) {
            // Heap: must be inside a live allocation.
            if let Some((&base, info)) = self.allocs.range(..=addr).next_back() {
                if addr < base + info.size {
                    return match info.state {
                        AllocState::Live => Ok(()),
                        AllocState::Freed => Err(FailureKind::UseAfterFree { addr }),
                    };
                }
            }
            return Err(FailureKind::SegFault { addr });
        }
        if addr < HEAP_BASE {
            // Globals: must be mapped.
            if self.cells.contains_key(&addr) {
                return Ok(());
            }
            return Err(FailureKind::SegFault { addr });
        }
        // Stack: must be mapped (below some thread's bump pointer).
        if self.cells.contains_key(&addr) {
            Ok(())
        } else {
            Err(FailureKind::SegFault { addr })
        }
    }

    /// Reads a cell.
    pub fn load(&self, addr: u64) -> Result<Value, FailureKind> {
        self.check(addr)?;
        Ok(self.cells.get(&addr).copied().unwrap_or(0))
    }

    /// Writes a cell.
    pub fn store(&mut self, addr: u64, value: Value) -> Result<(), FailureKind> {
        self.check(addr)?;
        self.cells.insert(addr, value);
        Ok(())
    }

    /// Materializes a NUL-terminated "string" (one char per cell) on the
    /// heap, returning its base address. Used for string workload inputs.
    pub fn intern_string(&mut self, chars: &[Value]) -> u64 {
        let base = self.heap_alloc(chars.len() as u64 + 1);
        for (i, &c) in chars.iter().enumerate() {
            self.cells.insert(base + i as u64, c);
        }
        self.cells.insert(base + chars.len() as u64, 0);
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
            .values()
            .filter(|a| a.state == AllocState::Live)
            .count()
    }

    /// End of globals, used by tests to confirm layout.
    pub fn globals_extent(&self) -> u64 {
        self.globals_end()
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
        let s = m.stack_alloc(3, 8);
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
        let a = m.stack_alloc(0, 4);
        let b = m.stack_alloc(1, 4);
        assert_ne!(a, b);
        assert!(b - a >= STACK_SIZE || a - b >= STACK_SIZE);
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
