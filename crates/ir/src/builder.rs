//! A fluent builder API for constructing MiniC programs from Rust.
//!
//! The builder is how the evaluation bug programs and the unit tests
//! construct IR without going through the text parser.

use std::collections::HashMap;

use crate::instr::{BinKind, Callee, CmpKind, Instr, IntrinsicKind, Op, Operand, Terminator};
use crate::program::{BasicBlock, Function, Global, Program, ValidationError};
use crate::srcmap::SrcLoc;
use crate::types::{BlockId, FuncId, GlobalId, InstrId, Value, VarId};

/// Builds a [`Program`].
pub struct ProgramBuilder {
    program: Program,
    func_names: HashMap<String, FuncId>,
    /// Forward-declared functions not yet defined.
    pending: Vec<FuncId>,
}

impl ProgramBuilder {
    /// Creates a builder for a program called `name`.
    pub fn new(name: &str) -> Self {
        ProgramBuilder {
            program: Program::empty(name),
            func_names: HashMap::new(),
            pending: Vec::new(),
        }
    }

    /// Declares (or finds) a global scalar with an initial value.
    pub fn global(&mut self, name: &str, init: Value) -> GlobalId {
        self.global_array(name, 1, vec![init])
    }

    /// Declares (or finds) a global array of `size` cells.
    pub fn global_array(&mut self, name: &str, size: u32, init: Vec<Value>) -> GlobalId {
        if let Some(g) = self.program.globals.iter().find(|g| g.name == name) {
            return g.id;
        }
        let id = GlobalId(self.program.globals.len() as u32);
        self.program.globals.push(Global {
            id,
            name: name.to_owned(),
            size,
            init,
            loc: SrcLoc::UNKNOWN,
        });
        id
    }

    /// Interns a source file name in the program's source map.
    pub fn file(&mut self, name: &str) -> crate::types::FileId {
        self.program.source_map.intern_file(name)
    }

    /// Registers original source text for a line (used in sketch rendering).
    pub fn line_text(&mut self, loc: SrcLoc, text: &str) {
        self.program.source_map.set_line_text(loc, text);
    }

    /// Forward-declares a function so mutually recursive code can be built.
    pub fn declare(&mut self, name: &str, params: &[&str]) -> FuncId {
        if let Some(&id) = self.func_names.get(name) {
            return id;
        }
        let id = FuncId(self.program.functions.len() as u32);
        self.func_names.insert(name.to_owned(), id);
        self.program.functions.push(Function {
            id,
            name: name.to_owned(),
            params: (0..params.len() as u32).map(VarId).collect(),
            var_names: params.iter().map(|s| (*s).to_owned()).collect(),
            blocks: Vec::new(),
            loc: SrcLoc::UNKNOWN,
        });
        self.pending.push(id);
        id
    }

    /// Starts building a function body. The function is created (or the
    /// forward declaration is completed) and a [`FunctionBuilder`] is
    /// returned positioned at a fresh entry block.
    pub fn function<'a>(&'a mut self, name: &str, params: &[&str]) -> FunctionBuilder<'a> {
        let id = self.declare(name, params);
        self.pending.retain(|&p| p != id);
        FunctionBuilder::new(self, id)
    }

    /// Finishes the program: finalizes statement ids and validates.
    pub fn finish(mut self) -> Result<Program, Vec<ValidationError>> {
        // The entry point is the function named `main`, wherever it was
        // declared — not function 0. (The parser has always resolved the
        // entry by name; the builder used to leave `entry` at the default
        // `FuncId(0)`, so any built program that defined a worker routine
        // before `main` started execution in the worker instead.)
        if let Some(&main) = self.func_names.get("main") {
            self.program.entry = main;
        }
        // Give any still-pending declarations a trivial body so validation
        // treats calls to them as arity-checked no-ops.
        for id in std::mem::take(&mut self.pending) {
            let f = &mut self.program.functions[id.index()];
            if f.blocks.is_empty() {
                f.blocks.push(BasicBlock {
                    id: BlockId(0),
                    label: "entry".to_owned(),
                    instrs: Vec::new(),
                    term: Terminator::Ret {
                        id: InstrId(0),
                        value: None,
                        loc: SrcLoc::UNKNOWN,
                    },
                });
            }
        }
        self.program.finalize();
        self.program.validate()?;
        Ok(self.program)
    }
}

/// Builds one function's body. Obtained from [`ProgramBuilder::function`].
pub struct FunctionBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    func: FuncId,
    current: BlockId,
    /// Current source location applied to emitted statements.
    loc: SrcLoc,
    /// Blocks that still need a terminator, with their instruction lists.
    open: HashMap<BlockId, Vec<Instr>>,
    /// Finished blocks.
    done: HashMap<BlockId, BasicBlock>,
    labels: Vec<String>,
    var_names: HashMap<String, VarId>,
}

impl<'a> FunctionBuilder<'a> {
    fn new(pb: &'a mut ProgramBuilder, func: FuncId) -> Self {
        let f = &pb.program.functions[func.index()];
        let var_names = f
            .var_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), VarId(i as u32)))
            .collect();
        let mut b = FunctionBuilder {
            pb,
            func,
            current: BlockId(0),
            loc: SrcLoc::UNKNOWN,
            open: HashMap::new(),
            done: HashMap::new(),
            labels: vec!["entry".to_owned()],
            var_names,
        };
        b.open.insert(BlockId(0), Vec::new());
        b
    }

    /// The function being built.
    pub fn id(&self) -> FuncId {
        self.func
    }

    /// Sets the source location applied to subsequently emitted statements.
    pub fn at(&mut self, loc: SrcLoc) -> &mut Self {
        self.loc = loc;
        self
    }

    /// Sets the source location from a file id and line.
    pub fn at_line(&mut self, file: crate::types::FileId, line: u32) -> &mut Self {
        self.loc = SrcLoc::new(file, line);
        self
    }

    /// Returns (creating if needed) the register named `name`.
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(&v) = self.var_names.get(name) {
            return v;
        }
        let f = &mut self.pb.program.functions[self.func.index()];
        let v = VarId(f.var_names.len() as u32);
        f.var_names.push(name.to_owned());
        self.var_names.insert(name.to_owned(), v);
        v
    }

    /// Creates a new (empty, open) block with the given label.
    pub fn new_block(&mut self, label: &str) -> BlockId {
        let id = BlockId(self.labels.len() as u32);
        self.labels.push(label.to_owned());
        self.open.insert(id, Vec::new());
        id
    }

    /// Switches emission to the given open block.
    ///
    /// # Panics
    ///
    /// Panics if the block has already been terminated.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(
            self.open.contains_key(&block),
            "block {block} is not open (already terminated?)"
        );
        self.current = block;
    }

    fn emit(&mut self, op: Op) {
        let loc = self.loc;
        self.open
            .get_mut(&self.current)
            .expect("current block is open")
            .push(Instr {
                id: InstrId(0),
                op,
                loc,
            });
    }

    fn terminate(&mut self, term: Terminator) {
        let instrs = self
            .open
            .remove(&self.current)
            .expect("current block is open");
        let id = self.current;
        self.done.insert(
            id,
            BasicBlock {
                id,
                label: self.labels[id.index()].clone(),
                instrs,
                term,
            },
        );
    }

    // ---- instruction emitters -------------------------------------------

    /// `dst = const v`
    pub fn const_i64(&mut self, dst: &str, v: Value) -> VarId {
        let dst = self.var(dst);
        self.emit(Op::Const { dst, value: v });
        dst
    }

    /// `dst = <kind> a, b`
    pub fn bin(&mut self, dst: &str, kind: BinKind, a: Operand, b: Operand) -> VarId {
        let dst = self.var(dst);
        self.emit(Op::Bin { dst, kind, a, b });
        dst
    }

    /// `dst = add a, b`
    pub fn add(&mut self, dst: &str, a: Operand, b: Operand) -> VarId {
        self.bin(dst, BinKind::Add, a, b)
    }

    /// `dst = sub a, b`
    pub fn sub(&mut self, dst: &str, a: Operand, b: Operand) -> VarId {
        self.bin(dst, BinKind::Sub, a, b)
    }

    /// `dst = cmp <kind> a, b`
    pub fn cmp(&mut self, dst: &str, kind: CmpKind, a: Operand, b: Operand) -> VarId {
        let dst = self.var(dst);
        self.emit(Op::Cmp { dst, kind, a, b });
        dst
    }

    /// `dst = load addr`
    pub fn load(&mut self, dst: &str, addr: Operand) -> VarId {
        let dst = self.var(dst);
        self.emit(Op::Load { dst, addr });
        dst
    }

    /// `store addr, value`
    pub fn store(&mut self, addr: Operand, value: Operand) {
        self.emit(Op::Store { addr, value });
    }

    /// `dst = gep base, offset`
    pub fn gep(&mut self, dst: &str, base: Operand, offset: Operand) -> VarId {
        let dst = self.var(dst);
        self.emit(Op::Gep { dst, base, offset });
        dst
    }

    /// `dst = alloc size`
    pub fn alloc(&mut self, dst: &str, size: Operand) -> VarId {
        let dst = self.var(dst);
        self.emit(Op::Alloc { dst, size });
        dst
    }

    /// `free addr`
    pub fn free(&mut self, addr: Operand) {
        self.emit(Op::Free { addr });
    }

    /// `dst = stackalloc size`
    pub fn stack_alloc(&mut self, dst: &str, size: Operand) -> VarId {
        let dst = self.var(dst);
        self.emit(Op::StackAlloc { dst, size });
        dst
    }

    /// `dst? = call callee(args...)`
    pub fn call(&mut self, dst: Option<&str>, callee: Callee, args: &[Operand]) -> Option<VarId> {
        let dst = dst.map(|d| self.var(d));
        self.emit(Op::Call {
            dst,
            callee,
            args: args.to_vec(),
        });
        dst
    }

    /// `dst = call f(args...)` by function id, returning the value.
    pub fn call_direct(&mut self, dst: &str, f: FuncId, args: &[Operand]) -> VarId {
        self.call(Some(dst), Callee::Direct(f), args)
            .expect("dst provided")
    }

    /// `call f(args...)` discarding any return value.
    pub fn call_void(&mut self, f: FuncId, args: &[Operand]) {
        self.call(None, Callee::Direct(f), args);
    }

    /// `dst = funcaddr f`
    pub fn func_addr(&mut self, dst: &str, f: FuncId) -> VarId {
        let dst = self.var(dst);
        self.emit(Op::FuncAddr { dst, func: f });
        dst
    }

    /// `tid = spawn f(arg)`
    pub fn spawn(&mut self, dst: Option<&str>, routine: Callee, arg: Operand) -> Option<VarId> {
        let dst = dst.map(|d| self.var(d));
        self.emit(Op::ThreadCreate { dst, routine, arg });
        dst
    }

    /// `join tid`
    pub fn join(&mut self, tid: Operand) {
        self.emit(Op::ThreadJoin { tid });
    }

    /// `lock addr`
    pub fn lock(&mut self, addr: Operand) {
        self.emit(Op::MutexLock { addr });
    }

    /// `unlock addr`
    pub fn unlock(&mut self, addr: Operand) {
        self.emit(Op::MutexUnlock { addr });
    }

    /// `assert cond, msg`
    pub fn assert(&mut self, cond: Operand, msg: &str) {
        self.emit(Op::Assert {
            cond,
            msg: msg.to_owned(),
        });
    }

    /// `print args...`
    pub fn print(&mut self, args: &[Operand]) {
        self.emit(Op::Print {
            args: args.to_vec(),
        });
    }

    /// `dst? = <intrinsic>(args...)`
    pub fn intrinsic(
        &mut self,
        dst: Option<&str>,
        kind: IntrinsicKind,
        args: &[Operand],
    ) -> Option<VarId> {
        let dst = dst.map(|d| self.var(d));
        self.emit(Op::Intrinsic {
            dst,
            kind,
            args: args.to_vec(),
        });
        dst
    }

    /// `dst = input n` — reads the n-th workload input.
    pub fn read_input(&mut self, dst: &str, index: usize) -> VarId {
        let dst = self.var(dst);
        self.emit(Op::ReadInput { dst, index });
        dst
    }

    /// `nop`
    pub fn nop(&mut self) {
        self.emit(Op::Nop);
    }

    // ---- terminators -----------------------------------------------------

    /// `br target`
    pub fn br(&mut self, target: BlockId) {
        let loc = self.loc;
        self.terminate(Terminator::Br {
            id: InstrId(0),
            target,
            loc,
        });
    }

    /// `condbr cond, then, else`
    pub fn condbr(&mut self, cond: Operand, then_bb: BlockId, else_bb: BlockId) {
        let loc = self.loc;
        self.terminate(Terminator::CondBr {
            id: InstrId(0),
            cond,
            then_bb,
            else_bb,
            loc,
        });
    }

    /// `ret v?`
    pub fn ret(&mut self, value: Option<Operand>) {
        let loc = self.loc;
        self.terminate(Terminator::Ret {
            id: InstrId(0),
            value,
            loc,
        });
    }

    /// `unreachable`
    pub fn unreachable(&mut self) {
        let loc = self.loc;
        self.terminate(Terminator::Unreachable {
            id: InstrId(0),
            loc,
        });
    }

    /// Completes the function, installing its blocks into the program.
    ///
    /// # Panics
    ///
    /// Panics if any created block was left without a terminator.
    pub fn finish(self) -> FuncId {
        assert!(
            self.open.is_empty(),
            "function {} has unterminated blocks: {:?}",
            self.pb.program.functions[self.func.index()].name,
            self.open.keys().collect::<Vec<_>>()
        );
        let mut blocks: Vec<BasicBlock> = self.done.into_values().collect();
        blocks.sort_by_key(|b| b.id);
        let f = &mut self.pb.program.functions[self.func.index()];
        f.blocks = blocks;
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straightline_function() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.function("main", &[]);
        let a = f.const_i64("a", 2);
        let b = f.const_i64("b", 3);
        let c = f.add("c", a.into(), b.into());
        f.print(&[c.into()]);
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].blocks.len(), 1);
        assert_eq!(p.functions[0].blocks[0].instrs.len(), 4);
    }

    #[test]
    fn params_are_first_vars() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.function("g", &["x", "y"]);
        let x = f.var("x");
        let y = f.var("y");
        assert_eq!(x, VarId(0));
        assert_eq!(y, VarId(1));
        let z = f.var("z");
        assert_eq!(z, VarId(2));
        f.ret(Some(z.into()));
        f.finish();
        let p = pb.finish().unwrap();
        assert_eq!(p.functions[0].params, vec![VarId(0), VarId(1)]);
    }

    #[test]
    fn forward_declaration_allows_mutual_calls() {
        let mut pb = ProgramBuilder::new("t");
        let g = pb.declare("g", &["n"]);
        let mut f = pb.function("main", &[]);
        let one = f.const_i64("one", 1);
        f.call(Some("r"), Callee::Direct(g), &[one.into()]);
        f.ret(None);
        f.finish();
        let mut gb = pb.function("g", &["n"]);
        let n = gb.var("n");
        gb.ret(Some(n.into()));
        gb.finish();
        let p = pb.finish().unwrap();
        assert_eq!(p.functions.len(), 2);
    }

    #[test]
    fn pending_declaration_gets_stub_body() {
        let mut pb = ProgramBuilder::new("t");
        let g = pb.declare("g", &[]);
        let mut f = pb.function("main", &[]);
        f.call(None, Callee::Direct(g), &[]);
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        assert_eq!(p.functions[g.index()].blocks.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unterminated")]
    fn unterminated_block_panics() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.function("main", &[]);
        f.const_i64("a", 1);
        f.finish();
    }

    #[test]
    fn entry_is_main_even_when_declared_after_workers() {
        // Regression: the synthetic-bugbase generator emits worker
        // routines before `main`; the builder used to leave the entry at
        // function 0, silently running the first worker as the program.
        let mut pb = ProgramBuilder::new("t");
        let mut w = pb.function("worker", &["x"]);
        w.ret(None);
        w.finish();
        let mut m = pb.function("main", &[]);
        m.ret(None);
        m.finish();
        let p = pb.finish().unwrap();
        assert_eq!(p.entry, p.function_by_name("main").unwrap().id);
    }

    #[test]
    fn globals_are_deduped() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.global("head", 7);
        let b = pb.global("head", 9);
        assert_eq!(a, b);
        let mut f = pb.function("main", &[]);
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.globals[0].init, vec![7]);
    }

    #[test]
    fn loop_shape() {
        let mut pb = ProgramBuilder::new("t");
        let n = pb.global("n", 3);
        let mut f = pb.function("main", &[]);
        let head = f.new_block("head");
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        f.br(head);
        f.switch_to(head);
        let cur = f.load("cur", n.into());
        let c = f.cmp("c", CmpKind::Gt, cur.into(), 0.into());
        f.condbr(c.into(), body, exit);
        f.switch_to(body);
        let dec = f.sub("dec", cur.into(), 1.into());
        f.store(n.into(), dec.into());
        f.br(head);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        let p = pb.finish().unwrap();
        let main = p.function_by_name("main").unwrap();
        assert_eq!(main.blocks.len(), 4);
        // Entry must be block 0.
        assert_eq!(main.blocks[0].id, BlockId(0));
    }
}
