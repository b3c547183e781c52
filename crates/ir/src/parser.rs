//! Parser for the MiniC textual format.
//!
//! The format is line-oriented. A program is a sequence of global
//! declarations and function definitions:
//!
//! ```text
//! ; comments start with ';' or '#'
//! global head = 0
//! global buf[8] = [1, 2, 3]
//!
//! fn main(argc) {
//! entry:
//!   x = const 10            @ main.c:3
//!   q = call init(x)        @ main.c:4
//!   t = spawn cons(q)       @ main.c:5
//!   condbr x, body, exit
//! body:
//!   store $head, x
//!   br exit
//! exit:
//!   join t
//!   ret
//! }
//! ```
//!
//! Operands: bare identifiers are registers, `$name` references a global's
//! address, and integer literals are constants. A trailing `@ file:line`
//! attaches a source location; the location is sticky until changed.

use std::collections::HashMap;

use crate::instr::{BinKind, Callee, CmpKind, Instr, IntrinsicKind, Op, Operand, Terminator};
use crate::program::{BasicBlock, Function, Global, Program, ValidationError};
use crate::srcmap::SrcLoc;
use crate::types::{BlockId, FuncId, GlobalId, InstrId, Value, VarId};

/// A parse error with its 1-based line number in the input text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line in the input.
    pub line: usize,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<Vec<ValidationError>> for ParseError {
    fn from(errs: Vec<ValidationError>) -> Self {
        ParseError {
            line: 0,
            msg: format!(
                "validation failed: {}",
                errs.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ")
            ),
        }
    }
}

/// Parses a program from text.
pub fn parse_program(name: &str, text: &str) -> Result<Program, ParseError> {
    Parser::new(name, text).run()
}

struct Parser<'t> {
    program: Program,
    lines: Vec<(usize, &'t str)>,
    pos: usize,
    func_ids: HashMap<String, FuncId>,
    global_ids: HashMap<String, GlobalId>,
}

impl<'t> Parser<'t> {
    fn new(name: &str, text: &'t str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                // Strip comments.
                let no_comment = match l.find([';', '#']) {
                    Some(p) => &l[..p],
                    None => l,
                };
                (i + 1, no_comment.trim())
            })
            .filter(|(_, l)| !l.is_empty())
            .collect();
        Parser {
            program: Program::empty(name),
            lines,
            pos: 0,
            func_ids: HashMap::new(),
            global_ids: HashMap::new(),
        }
    }

    fn err(&self, line: usize, msg: impl Into<String>) -> ParseError {
        ParseError {
            line,
            msg: msg.into(),
        }
    }

    fn run(mut self) -> Result<Program, ParseError> {
        while self.pos < self.lines.len() {
            let (lineno, line) = self.lines[self.pos];
            if let Some(rest) = line.strip_prefix("global ") {
                self.parse_global(lineno, rest)?;
                self.pos += 1;
            } else if line.starts_with("fn ") {
                self.parse_function()?;
            } else {
                return Err(self.err(lineno, format!("expected 'global' or 'fn', got '{line}'")));
            }
        }
        // Entry is 'main' if present, else the first function.
        if let Some(&main) = self.func_ids.get("main") {
            self.program.entry = main;
        }
        self.program.finalize();
        self.program.validate()?;
        Ok(self.program)
    }

    fn parse_global(&mut self, lineno: usize, rest: &str) -> Result<(), ParseError> {
        // `name = init` or `name[size] = [v, v, ...]` or `name[size]`
        let (decl, init_s) = match rest.split_once('=') {
            Some((d, i)) => (d.trim(), Some(i.trim())),
            None => (rest.trim(), None),
        };
        let (name, size) = if let Some((name, rest)) = decl.split_once('[') {
            let size_s = rest
                .strip_suffix(']')
                .ok_or_else(|| self.err(lineno, "global array must end with ']'"))?;
            let size: u32 = size_s
                .trim()
                .parse()
                .map_err(|_| self.err(lineno, "bad array size"))?;
            (name.trim(), size)
        } else {
            (decl, 1u32)
        };
        let init = match init_s {
            None => Vec::new(),
            Some(s) if s.starts_with('[') => {
                let inner = s
                    .strip_prefix('[')
                    .and_then(|s| s.strip_suffix(']'))
                    .ok_or_else(|| self.err(lineno, "bad array initializer"))?;
                inner
                    .split(',')
                    .filter(|p| !p.trim().is_empty())
                    .map(|p| {
                        p.trim()
                            .parse::<Value>()
                            .map_err(|_| self.err(lineno, format!("bad initializer '{p}'")))
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
            Some(s) => vec![s
                .parse::<Value>()
                .map_err(|_| self.err(lineno, format!("bad initializer '{s}'")))?],
        };
        if init.len() > size as usize {
            return Err(self.err(
                lineno,
                format!(
                    "initializer has {} values but '{name}' holds {size}",
                    init.len()
                ),
            ));
        }
        if self.global_ids.contains_key(name) {
            return Err(self.err(lineno, format!("duplicate global '{name}'")));
        }
        let id = GlobalId(self.program.globals.len() as u32);
        self.global_ids.insert(name.to_owned(), id);
        self.program.globals.push(Global {
            id,
            name: name.to_owned(),
            size,
            init,
            loc: SrcLoc::UNKNOWN,
        });
        Ok(())
    }

    fn intern_func(&mut self, name: &str) -> FuncId {
        if let Some(&id) = self.func_ids.get(name) {
            return id;
        }
        let id = FuncId(self.program.functions.len() as u32);
        self.func_ids.insert(name.to_owned(), id);
        self.program.functions.push(Function {
            id,
            name: name.to_owned(),
            params: Vec::new(),
            var_names: Vec::new(),
            blocks: Vec::new(),
            loc: SrcLoc::UNKNOWN,
        });
        id
    }

    fn parse_function(&mut self) -> Result<(), ParseError> {
        let (lineno, header) = self.lines[self.pos];
        self.pos += 1;
        // `fn name(p1, p2) {`
        let rest = header.strip_prefix("fn ").expect("checked by caller");
        let (name, rest) = rest
            .split_once('(')
            .ok_or_else(|| self.err(lineno, "missing '(' in fn header"))?;
        let name = name.trim();
        let (params_s, rest) = rest
            .split_once(')')
            .ok_or_else(|| self.err(lineno, "missing ')' in fn header"))?;
        if !rest.trim_end().ends_with('{') {
            return Err(self.err(lineno, "fn header must end with '{'"));
        }
        let params: Vec<String> = params_s
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(str::to_owned)
            .collect();
        if let Some(dup) = params
            .iter()
            .enumerate()
            .find_map(|(i, p)| params[..i].contains(p).then_some(p))
        {
            return Err(self.err(lineno, format!("duplicate parameter '{dup}'")));
        }
        let fid = self.intern_func(name);
        {
            let f = &mut self.program.functions[fid.index()];
            if !f.blocks.is_empty() {
                return Err(self.err(lineno, format!("duplicate function '{name}'")));
            }
            f.params = (0..params.len() as u32).map(VarId).collect();
            f.var_names = params;
        }

        let mut fb = FnParser {
            fid,
            vars: HashMap::new(),
            blocks: Vec::new(),
            block_ids: HashMap::new(),
            current_instrs: Vec::new(),
            current_label: None,
            cur_loc: SrcLoc::UNKNOWN,
        };
        for (i, n) in self.program.functions[fid.index()]
            .var_names
            .iter()
            .enumerate()
        {
            fb.vars.insert(n.clone(), VarId(i as u32));
        }

        loop {
            if self.pos >= self.lines.len() {
                return Err(self.err(lineno, format!("unterminated function '{name}'")));
            }
            let (ln, line) = self.lines[self.pos];
            self.pos += 1;
            if line == "}" {
                break;
            }
            if let Some(label) = line.strip_suffix(':') {
                if !label.contains(char::is_whitespace) {
                    fb.start_block(label, self, ln)?;
                    continue;
                }
            }
            self.parse_stmt(&mut fb, ln, line)?;
        }
        fb.finish(self, lineno)?;
        Ok(())
    }

    /// Splits a trailing ` @ file:line` annotation.
    fn split_loc<'a>(&mut self, line: &'a str) -> (&'a str, Option<SrcLoc>) {
        if let Some(at) = line.rfind(" @ ") {
            let ann = line[at + 3..].trim();
            if let Some((file, lno)) = ann.rsplit_once(':') {
                if let Ok(lno) = lno.parse::<u32>() {
                    let fid = self.program.source_map.intern_file(file.trim());
                    return (line[..at].trim_end(), Some(SrcLoc::new(fid, lno)));
                }
            }
        }
        (line, None)
    }

    fn parse_stmt(&mut self, fb: &mut FnParser, ln: usize, line: &str) -> Result<(), ParseError> {
        let (line, loc) = self.split_loc(line);
        if let Some(loc) = loc {
            fb.cur_loc = loc;
        }
        let loc = fb.cur_loc;

        // Terminators.
        if let Some(rest) = line.strip_prefix("br ") {
            let target = fb.block_ref(rest.trim());
            fb.terminate(Terminator::Br {
                id: InstrId(0),
                target,
                loc,
            });
            return Ok(());
        }
        if let Some(rest) = line.strip_prefix("condbr ") {
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if parts.len() != 3 {
                return Err(self.err(ln, "condbr needs 'cond, then, else'"));
            }
            let cond = self.operand(fb, parts[0], ln)?;
            let then_bb = fb.block_ref(parts[1]);
            let else_bb = fb.block_ref(parts[2]);
            fb.terminate(Terminator::CondBr {
                id: InstrId(0),
                cond,
                then_bb,
                else_bb,
                loc,
            });
            return Ok(());
        }
        if line == "ret" {
            fb.terminate(Terminator::Ret {
                id: InstrId(0),
                value: None,
                loc,
            });
            return Ok(());
        }
        if let Some(rest) = line.strip_prefix("ret ") {
            let value = Some(self.operand(fb, rest.trim(), ln)?);
            fb.terminate(Terminator::Ret {
                id: InstrId(0),
                value,
                loc,
            });
            return Ok(());
        }
        if line == "unreachable" {
            fb.terminate(Terminator::Unreachable {
                id: InstrId(0),
                loc,
            });
            return Ok(());
        }

        // `dst = rhs` or bare op.
        let (dst, rhs) = match find_top_level_eq(line) {
            Some(p) => {
                let d = line[..p].trim();
                (Some(d), line[p + 1..].trim())
            }
            None => (None, line),
        };
        let op = self.parse_op(fb, ln, dst, rhs)?;
        fb.current_instrs.push(Instr {
            id: InstrId(0),
            op,
            loc,
        });
        Ok(())
    }

    fn parse_op(
        &mut self,
        fb: &mut FnParser,
        ln: usize,
        dst: Option<&str>,
        rhs: &str,
    ) -> Result<Op, ParseError> {
        let dst_var =
            |s: &mut Self, fb: &mut FnParser, d: Option<&str>| -> Result<VarId, ParseError> {
                let _ = s;
                match d {
                    Some(d) => Ok(fb.var(d)),
                    None => Err(ParseError {
                        line: ln,
                        msg: "this operation requires a destination".into(),
                    }),
                }
            };
        let (kw, rest) = match rhs.split_once(char::is_whitespace) {
            Some((k, r)) => (k, r.trim()),
            None => (rhs, ""),
        };
        // Call syntax: `call name(args)` / `icall ptr(args)` / `spawn name(arg)`.
        if kw == "call" || kw == "icall" || kw == "spawn" {
            let (target, args_s) = rest
                .split_once('(')
                .ok_or_else(|| self.err(ln, format!("{kw} needs '(args)'")))?;
            let target = target.trim();
            let (args_s, _) = args_s
                .rsplit_once(')')
                .ok_or_else(|| self.err(ln, format!("{kw} needs ')'")))?;
            let args: Vec<Operand> = args_s
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(|a| self.operand(fb, a, ln))
                .collect::<Result<_, _>>()?;
            let d = dst.map(|d| fb.var(d));
            if kw == "icall" {
                let ptr = self.operand(fb, target, ln)?;
                return Ok(Op::Call {
                    dst: d,
                    callee: Callee::Indirect(ptr),
                    args,
                });
            }
            // Direct call / spawn: resolve function name lazily.
            let callee = Callee::Direct(self.intern_func(target));
            if kw == "spawn" {
                if args.len() != 1 {
                    return Err(self.err(ln, "spawn takes exactly one argument"));
                }
                return Ok(Op::ThreadCreate {
                    dst: d,
                    routine: callee,
                    arg: args[0],
                });
            }
            return Ok(Op::Call {
                dst: d,
                callee,
                args,
            });
        }
        match kw {
            "const" => {
                let v: Value = rest
                    .parse()
                    .map_err(|_| self.err(ln, format!("bad constant '{rest}'")))?;
                Ok(Op::Const {
                    dst: dst_var(self, fb, dst)?,
                    value: v,
                })
            }
            "cmp" => {
                let (kind_s, ops) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| self.err(ln, "cmp needs kind and operands"))?;
                let kind = CmpKind::from_mnemonic(kind_s)
                    .ok_or_else(|| self.err(ln, format!("bad cmp kind '{kind_s}'")))?;
                let (a, b) = self.two_operands(fb, ops, ln)?;
                Ok(Op::Cmp {
                    dst: dst_var(self, fb, dst)?,
                    kind,
                    a,
                    b,
                })
            }
            "load" => Ok(Op::Load {
                dst: dst_var(self, fb, dst)?,
                addr: self.operand(fb, rest, ln)?,
            }),
            "store" => {
                let (a, b) = self.two_operands(fb, rest, ln)?;
                Ok(Op::Store { addr: a, value: b })
            }
            "gep" => {
                let (a, b) = self.two_operands(fb, rest, ln)?;
                Ok(Op::Gep {
                    dst: dst_var(self, fb, dst)?,
                    base: a,
                    offset: b,
                })
            }
            "alloc" => Ok(Op::Alloc {
                dst: dst_var(self, fb, dst)?,
                size: self.operand(fb, rest, ln)?,
            }),
            "stackalloc" => Ok(Op::StackAlloc {
                dst: dst_var(self, fb, dst)?,
                size: self.operand(fb, rest, ln)?,
            }),
            "free" => Ok(Op::Free {
                addr: self.operand(fb, rest, ln)?,
            }),
            "funcaddr" => Ok(Op::FuncAddr {
                dst: dst_var(self, fb, dst)?,
                func: self.intern_func(rest.trim()),
            }),
            "join" => Ok(Op::ThreadJoin {
                tid: self.operand(fb, rest, ln)?,
            }),
            "lock" => Ok(Op::MutexLock {
                addr: self.operand(fb, rest, ln)?,
            }),
            "unlock" => Ok(Op::MutexUnlock {
                addr: self.operand(fb, rest, ln)?,
            }),
            "assert" => {
                let (cond_s, msg) = match rest.split_once(',') {
                    Some((c, m)) => (c.trim(), m.trim().trim_matches('"').to_owned()),
                    None => (rest, String::new()),
                };
                Ok(Op::Assert {
                    cond: self.operand(fb, cond_s, ln)?,
                    msg,
                })
            }
            "print" => {
                let args = rest
                    .split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(|a| self.operand(fb, a, ln))
                    .collect::<Result<_, _>>()?;
                Ok(Op::Print { args })
            }
            "input" => {
                let idx: usize = rest
                    .parse()
                    .map_err(|_| self.err(ln, format!("bad input index '{rest}'")))?;
                Ok(Op::ReadInput {
                    dst: dst_var(self, fb, dst)?,
                    index: idx,
                })
            }
            "nop" => Ok(Op::Nop),
            _ => {
                if let Some(kind) = BinKind::from_mnemonic(kw) {
                    let (a, b) = self.two_operands(fb, rest, ln)?;
                    return Ok(Op::Bin {
                        dst: dst_var(self, fb, dst)?,
                        kind,
                        a,
                        b,
                    });
                }
                if let Some(kind) = IntrinsicKind::from_mnemonic(kw) {
                    let args = rest
                        .split(',')
                        .map(str::trim)
                        .filter(|a| !a.is_empty())
                        .map(|a| self.operand(fb, a, ln))
                        .collect::<Result<_, _>>()?;
                    return Ok(Op::Intrinsic {
                        dst: dst.map(|d| fb.var(d)),
                        kind,
                        args,
                    });
                }
                Err(self.err(ln, format!("unknown operation '{kw}'")))
            }
        }
    }

    fn two_operands(
        &mut self,
        fb: &mut FnParser,
        s: &str,
        ln: usize,
    ) -> Result<(Operand, Operand), ParseError> {
        let parts: Vec<&str> = s.split(',').map(str::trim).collect();
        if parts.len() != 2 {
            return Err(self.err(ln, format!("expected two operands in '{s}'")));
        }
        Ok((
            self.operand(fb, parts[0], ln)?,
            self.operand(fb, parts[1], ln)?,
        ))
    }

    fn operand(&mut self, fb: &mut FnParser, s: &str, ln: usize) -> Result<Operand, ParseError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(self.err(ln, "empty operand"));
        }
        if let Some(gname) = s.strip_prefix('$') {
            let id = self
                .global_ids
                .get(gname)
                .copied()
                .ok_or_else(|| self.err(ln, format!("unknown global '${gname}'")))?;
            return Ok(Operand::Global(id));
        }
        if s.starts_with('-') || s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            let v: Value = s
                .parse()
                .map_err(|_| self.err(ln, format!("bad integer '{s}'")))?;
            return Ok(Operand::Const(v));
        }
        Ok(Operand::Var(fb.var(s)))
    }
}

/// Finds a top-level `=` that is an assignment (not part of `==`, which the
/// format doesn't have; and not inside a string).
fn find_top_level_eq(line: &str) -> Option<usize> {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '=' if !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

struct FnParser {
    fid: FuncId,
    vars: HashMap<String, VarId>,
    blocks: Vec<BasicBlock>,
    block_ids: HashMap<String, BlockId>,
    current_instrs: Vec<Instr>,
    current_label: Option<String>,
    cur_loc: SrcLoc,
}

impl FnParser {
    fn var(&mut self, name: &str) -> VarId {
        if let Some(&v) = self.vars.get(name) {
            return v;
        }
        let v = VarId(self.vars.len() as u32);
        self.vars.insert(name.to_owned(), v);
        v
    }

    fn block_ref(&mut self, label: &str) -> BlockId {
        if let Some(&b) = self.block_ids.get(label) {
            return b;
        }
        let b = BlockId(self.block_ids.len() as u32);
        self.block_ids.insert(label.to_owned(), b);
        b
    }

    fn start_block(&mut self, label: &str, p: &Parser<'_>, ln: usize) -> Result<(), ParseError> {
        if self.current_label.is_some() || !self.current_instrs.is_empty() {
            return Err(p.err(
                ln,
                format!(
                    "block '{}' starts before previous block was terminated",
                    label
                ),
            ));
        }
        // Reserve the id now so the label order defines block ids.
        self.block_ref(label);
        self.current_label = Some(label.to_owned());
        Ok(())
    }

    fn terminate(&mut self, term: Terminator) {
        let label = self
            .current_label
            .take()
            .unwrap_or_else(|| "entry".to_owned());
        let id = if let Some(&b) = self.block_ids.get(&label) {
            b
        } else {
            let b = BlockId(self.block_ids.len() as u32);
            self.block_ids.insert(label.clone(), b);
            b
        };
        self.blocks.push(BasicBlock {
            id,
            label,
            instrs: std::mem::take(&mut self.current_instrs),
            term,
        });
    }

    fn finish(mut self, p: &mut Parser<'_>, ln: usize) -> Result<(), ParseError> {
        if !self.current_instrs.is_empty() || self.current_label.is_some() {
            return Err(p.err(ln, "function ends with an unterminated block"));
        }
        self.blocks.sort_by_key(|b| b.id);
        // Check density: every referenced label must have been defined.
        for (i, b) in self.blocks.iter().enumerate() {
            if b.id.index() != i {
                let missing: Vec<&String> = self
                    .block_ids
                    .iter()
                    .filter(|(_, &v)| self.blocks.iter().all(|bb| bb.id != v))
                    .map(|(k, _)| k)
                    .collect();
                return Err(p.err(ln, format!("undefined block labels: {missing:?}")));
            }
        }
        let defined: Vec<BlockId> = self.blocks.iter().map(|b| b.id).collect();
        for (label, id) in &self.block_ids {
            if !defined.contains(id) {
                return Err(p.err(ln, format!("undefined block label '{label}'")));
            }
        }
        let f = &mut p.program.functions[self.fid.index()];
        let mut names: Vec<(VarId, String)> = self.vars.into_iter().map(|(n, v)| (v, n)).collect();
        names.sort_by_key(|(v, _)| *v);
        f.var_names = names.into_iter().map(|(_, n)| n).collect();
        f.blocks = self.blocks;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_program;

    const PBZIP_LIKE: &str = r#"
; pbzip2-like demo
global mut_cell = 0

fn main() {
entry:
  q = alloc 2              @ pbzip2.c:10
  m = alloc 1              @ pbzip2.c:11
  store q, m               @ pbzip2.c:11
  t = spawn cons(q)        @ pbzip2.c:13
  free m                   @ pbzip2.c:20
  store q, 0               @ pbzip2.c:21
  join t                   @ pbzip2.c:22
  ret
}

fn cons(q) {
entry:
  m2 = load q              @ pbzip2.c:40
  unlock m2                @ pbzip2.c:41
  ret
}
"#;

    #[test]
    fn parses_pbzip_like_program() {
        let p = parse_program("pbzip2", PBZIP_LIKE).unwrap();
        assert_eq!(p.functions.len(), 2);
        assert_eq!(p.globals.len(), 1);
        let main = p.function_by_name("main").unwrap();
        assert_eq!(main.blocks.len(), 1);
        assert_eq!(main.blocks[0].instrs.len(), 7);
        assert_eq!(p.entry, main.id);
        // Source locations attached and sticky.
        let store = &main.blocks[0].instrs[2];
        assert_eq!(p.source_map.display(store.loc), "pbzip2.c:11");
    }

    #[test]
    fn roundtrips_through_printer() {
        let p1 = parse_program("pbzip2", PBZIP_LIKE).unwrap();
        let text = print_program(&p1);
        let p2 = parse_program("pbzip2", &text).unwrap();
        assert_eq!(p1.functions.len(), p2.functions.len());
        assert_eq!(p1.stmt_count(), p2.stmt_count());
        for (f1, f2) in p1.functions.iter().zip(&p2.functions) {
            assert_eq!(f1.name, f2.name);
            assert_eq!(f1.blocks.len(), f2.blocks.len());
            for (b1, b2) in f1.blocks.iter().zip(&f2.blocks) {
                assert_eq!(b1.instrs.len(), b2.instrs.len(), "fn {}", f1.name);
                for (i1, i2) in b1.instrs.iter().zip(&b2.instrs) {
                    assert_eq!(i1.op, i2.op, "fn {}", f1.name);
                }
            }
        }
    }

    #[test]
    fn parses_branches_and_blocks() {
        let text = r#"
fn main() {
entry:
  n = const 3
  br head
head:
  c = cmp gt n, 0
  condbr c, body, exit
body:
  n = sub n, 1
  br head
exit:
  ret
}
"#;
        let p = parse_program("loop", text).unwrap();
        let f = &p.functions[0];
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.blocks[0].label, "entry");
        // Labels referenced before definition resolve correctly.
        match &f.blocks[1].term {
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                assert_eq!(f.block(*then_bb).label, "body");
                assert_eq!(f.block(*else_bb).label, "exit");
            }
            t => panic!("expected condbr, got {t:?}"),
        }
    }

    #[test]
    fn error_on_unknown_op() {
        let text = "fn main() {\nentry:\n  frobnicate x\n  ret\n}\n";
        let e = parse_program("t", text).unwrap_err();
        assert!(e.msg.contains("unknown operation"), "{e}");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn error_on_undefined_label() {
        let text = "fn main() {\nentry:\n  br nowhere\n}\n";
        let e = parse_program("t", text).unwrap_err();
        assert!(e.msg.contains("undefined block label"), "{e}");
    }

    #[test]
    fn error_on_unknown_global() {
        let text = "fn main() {\nentry:\n  x = load $nope\n  ret\n}\n";
        let e = parse_program("t", text).unwrap_err();
        assert!(e.msg.contains("unknown global"), "{e}");
    }

    #[test]
    fn parses_assert_with_message() {
        let text = "fn main() {\nentry:\n  x = const 1\n  assert x, \"x must be set\"\n  ret\n}\n";
        let p = parse_program("t", text).unwrap();
        match &p.functions[0].blocks[0].instrs[1].op {
            Op::Assert { msg, .. } => assert_eq!(msg, "x must be set"),
            o => panic!("expected assert, got {o:?}"),
        }
    }

    #[test]
    fn parses_global_array() {
        let text = "global buf[4] = [1, 2]\nfn main() {\nentry:\n  ret\n}\n";
        let p = parse_program("t", text).unwrap();
        assert_eq!(p.globals[0].size, 4);
        assert_eq!(p.globals[0].init, vec![1, 2]);
    }

    #[test]
    fn parses_indirect_call_and_funcaddr() {
        let text = r#"
fn cb(x) {
entry:
  ret x
}
fn main() {
entry:
  fp = funcaddr cb
  r = icall fp(7)
  print r
  ret
}
"#;
        let p = parse_program("t", text).unwrap();
        let main = p.function_by_name("main").unwrap();
        match &main.blocks[0].instrs[1].op {
            Op::Call {
                callee: Callee::Indirect(_),
                ..
            } => {}
            o => panic!("expected icall, got {o:?}"),
        }
    }

    #[test]
    fn calls_may_reference_later_functions() {
        let text = r#"
fn main() {
entry:
  r = call helper(1)
  ret
}
fn helper(x) {
entry:
  ret x
}
"#;
        let p = parse_program("t", text).unwrap();
        assert_eq!(p.functions.len(), 2);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn entry_is_main_even_if_not_first() {
        let text = "fn helper() {\nentry:\n  ret\n}\nfn main() {\nentry:\n  ret\n}\n";
        let p = parse_program("t", text).unwrap();
        assert_eq!(p.function(p.entry).name, "main");
    }

    #[test]
    fn error_on_reversed_global_brackets() {
        let e = parse_program("t", "global x]y[\n").unwrap_err();
        assert!(e.msg.contains("must end with ']'"), "{e}");
        assert_eq!(e.line, 1);
    }

    #[test]
    fn error_on_reversed_fn_header_parens() {
        let e = parse_program("t", "fn )f( {\n}\n").unwrap_err();
        assert!(e.msg.contains("missing ')'"), "{e}");
        assert_eq!(e.line, 1);
    }

    #[test]
    fn error_on_reversed_call_parens() {
        let text = "fn main() {\nentry:\n  r = call )f(\n  ret\n}\n";
        let e = parse_program("t", text).unwrap_err();
        assert!(e.msg.contains("call needs ')'"), "{e}");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn error_on_oversized_global_initializer() {
        let text = "global g[2] = [1, 2, 3]\nglobal h = 0\nfn main() {\nentry:\n  ret\n}\n";
        let e = parse_program("t", text).unwrap_err();
        assert!(e.msg.contains("3 values but 'g' holds 2"), "{e}");
        assert_eq!(e.line, 1);
    }

    #[test]
    fn error_on_duplicate_parameter() {
        let e = parse_program("t", "fn main(a, a) {\nentry:\n  ret\n}\n").unwrap_err();
        assert!(e.msg.contains("duplicate parameter 'a'"), "{e}");
    }
}
