//! The PT decoder: packets + static CFG → executed statement sequence.
//!
//! A real PT decoder walks the program binary alongside the packet stream:
//! straight-line code and direct branches are followed from the binary
//! alone; each conditional branch consumes one TNT bit; each indirect
//! transfer consumes a TIP packet; compressed RETs pop the decoder's own
//! call stack. This module does exactly that over MiniC programs.
//!
//! The output of decoding is what Gist's refinement step consumes: the set
//! (and per-core sequence) of statements that *actually executed* during
//! the traced windows (paper §3.2.2: "control flow traces identify
//! statements that get executed during production runs").

use std::collections::{HashMap, HashSet};

use gist_ir::{Callee, InstrId, Op, Program, Terminator};

use crate::packet::Packet;

/// A decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte stream was malformed.
    BadBytes(String),
    /// A packet arrived that the walker state cannot apply.
    Desync {
        /// Explanation.
        what: String,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadBytes(m) => write!(f, "malformed packet bytes: {m}"),
            DecodeError::Desync { what } => write!(f, "decoder desync: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The decoded control flow of one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecodedTrace {
    /// Per-core statement sequences `(tid, stmt)`, in core-trace order.
    /// Only *per-core* order is meaningful — Intel PT does not order
    /// across cores (paper §6).
    pub per_core: Vec<Vec<(u32, InstrId)>>,
    /// Branch outcomes observed: `(tid, condbr stmt, taken)`.
    pub branches: Vec<(u32, InstrId, bool)>,
    /// True if any core's buffer overflowed (OVF seen).
    pub overflowed: bool,
}

impl DecodedTrace {
    /// All distinct statements that executed, across cores.
    pub fn executed(&self) -> HashSet<InstrId> {
        self.per_core
            .iter()
            .flat_map(|c| c.iter().map(|&(_, s)| s))
            .collect()
    }

    /// The statements executed by one thread, in that thread's order.
    /// (Within one thread, per-core order *is* program order because a
    /// thread never migrates cores in the VM.)
    pub fn thread_stmts(&self, tid: u32) -> Vec<InstrId> {
        self.per_core
            .iter()
            .flat_map(|c| c.iter())
            .filter(|&&(t, _)| t == tid)
            .map(|&(_, s)| s)
            .collect()
    }
}

/// What a walker needs next.
enum Need {
    /// A TNT bit (walker is at a conditional branch).
    Tnt,
    /// A TIP packet (indirect call, or ret with empty decoder stack).
    Tip,
}

/// Per-thread walker state.
#[derive(Debug, Default)]
struct Walker {
    /// Next statement to execute (None = window closed).
    pos: Option<InstrId>,
    /// Return-site stack for RET compression.
    stack: Vec<InstrId>,
    /// Last statement emitted for this walker (PGD/FUP may point at it
    /// when the window closed immediately after a consumed decision).
    last_emitted: Option<InstrId>,
}

/// Decodes one core's byte stream, emitting statements into `core_seq`
/// and branches into `out`.
fn decode_core(
    program: &Program,
    bytes: &[u8],
    out: &mut DecodedTrace,
    core_seq: &mut Vec<(u32, InstrId)>,
) -> Result<(), DecodeError> {
    let packets = Packet::decode_all(bytes).map_err(DecodeError::BadBytes)?;
    gist_obs::counter!("pt.packets_decoded").add(packets.len() as u64);
    // Walkers are per (core, tid); threads never migrate cores.
    let mut walkers: HashMap<u32, Walker> = HashMap::new();
    let mut current: Option<u32> = None;
    for p in &packets {
        match p {
            Packet::Psb => {}
            Packet::Ovf => {
                out.overflowed = true;
                // All walker state on this core is unreliable now.
                for (_, w) in walkers.iter_mut() {
                    w.pos = None;
                }
            }
            Packet::Pip { tid } => current = Some(*tid),
            Packet::Pge { ip } => {
                let tid = current.ok_or_else(|| DecodeError::Desync {
                    what: "PGE before any PIP".into(),
                })?;
                let w = walkers.entry(tid).or_default();
                w.pos = Some(*ip);
                w.stack.clear();
            }
            Packet::Tnt { bits } => {
                let tid = current.ok_or_else(|| DecodeError::Desync {
                    what: "TNT before any PIP".into(),
                })?;
                for &taken in bits {
                    let condbr = walk_to_need(program, &mut walkers, tid, core_seq, Need::Tnt)?;
                    out.branches.push((tid, condbr, taken));
                    let w = walkers.get_mut(&tid).expect("walker exists");
                    let target = match program.terminator(condbr) {
                        Some(Terminator::CondBr {
                            then_bb, else_bb, ..
                        }) => {
                            let pos = program.stmt_pos(condbr).expect("known stmt");
                            let f = program.function(pos.func);
                            let bb = if taken { *then_bb } else { *else_bb };
                            first_stmt_of_block(program, f.id, bb)
                        }
                        _ => {
                            return Err(DecodeError::Desync {
                                what: format!("TNT bit but walker not at condbr ({condbr})"),
                            })
                        }
                    };
                    w.pos = Some(target);
                }
            }
            Packet::Tip { ip } => {
                let tid = current.ok_or_else(|| DecodeError::Desync {
                    what: "TIP before any PIP".into(),
                })?;
                let at = walk_to_need(program, &mut walkers, tid, core_seq, Need::Tip)?;
                let w = walkers.get_mut(&tid).expect("walker exists");
                // An indirect call pushes its return site before jumping.
                if let Some(instr) = program.instr(at) {
                    if matches!(
                        instr.op,
                        Op::Call {
                            callee: Callee::Indirect(_),
                            ..
                        }
                    ) {
                        if let Some(after) = stmt_after(program, at) {
                            w.stack.push(after);
                        }
                    }
                }
                w.pos = Some(*ip);
            }
            Packet::Pgd { ip } | Packet::Fup { ip } => {
                let tid = current.ok_or_else(|| DecodeError::Desync {
                    what: "PGD/FUP before any PIP".into(),
                })?;
                walk_until_ip(program, &mut walkers, tid, core_seq, *ip)?;
                let w = walkers.get_mut(&tid).expect("walker exists");
                w.pos = None;
            }
        }
    }
    Ok(())
}

/// Decodes all cores' streams of one run.
pub fn decode(program: &Program, core_bytes: &[Vec<u8>]) -> Result<DecodedTrace, DecodeError> {
    let _span = gist_obs::span("pt.decode");
    gist_obs::counter!("pt.decodes").inc();
    gist_obs::counter!("pt.bytes_decoded")
        .add(core_bytes.iter().map(|b| b.len() as u64).sum::<u64>());
    let mut out = DecodedTrace::default();
    for (core, bytes) in core_bytes.iter().enumerate() {
        let mut seq = Vec::new();
        decode_core(program, bytes, &mut out, &mut seq)?;
        // One journal event per core buffer, recorded once the core's
        // stream has decoded.
        gist_obs::event!(PtSegmentDecoded {
            core: core as u32,
            segment: core as u64,
            bytes: bytes.len() as u64,
            stmts: seq.len() as u64,
        });
        out.per_core.push(seq);
    }
    gist_obs::counter!("pt.stmts_decoded")
        .add(out.per_core.iter().map(|c| c.len() as u64).sum::<u64>());
    Ok(out)
}

/// Advances `tid`'s walker, emitting statements, until it reaches a
/// statement that needs the given packet kind. Returns that statement
/// (also emitted).
fn walk_to_need(
    program: &Program,
    walkers: &mut HashMap<u32, Walker>,
    tid: u32,
    seq: &mut Vec<(u32, InstrId)>,
    need: Need,
) -> Result<InstrId, DecodeError> {
    let w = walkers.entry(tid).or_default();
    let mut guard = 0usize;
    loop {
        let pos = w.pos.ok_or_else(|| DecodeError::Desync {
            what: format!("packet for tid {tid} with no open window"),
        })?;
        guard += 1;
        if guard > 10_000_000 {
            return Err(DecodeError::Desync {
                what: "walker did not reach a decision point".into(),
            });
        }
        match classify(program, pos, &mut w.stack) {
            Step::Plain(next) => {
                seq.push((tid, pos));
                w.last_emitted = Some(pos);
                w.pos = Some(next);
            }
            Step::End => {
                return Err(DecodeError::Desync {
                    what: format!("walker fell off the program at {pos}"),
                });
            }
            Step::NeedTnt => {
                seq.push((tid, pos));
                w.last_emitted = Some(pos);
                return match need {
                    Need::Tnt => Ok(pos),
                    Need::Tip => Err(DecodeError::Desync {
                        what: format!("expected TIP consumer, found condbr at {pos}"),
                    }),
                };
            }
            Step::NeedTip => {
                seq.push((tid, pos));
                w.last_emitted = Some(pos);
                return match need {
                    Need::Tip => Ok(pos),
                    Need::Tnt => Err(DecodeError::Desync {
                        what: format!("expected condbr, found TIP consumer at {pos}"),
                    }),
                };
            }
        }
    }
}

/// Advances the walker, emitting statements, until `ip` is emitted.
fn walk_until_ip(
    program: &Program,
    walkers: &mut HashMap<u32, Walker>,
    tid: u32,
    seq: &mut Vec<(u32, InstrId)>,
    ip: InstrId,
) -> Result<(), DecodeError> {
    let w = walkers.entry(tid).or_default();
    // The window may close immediately after a consumed decision point; the
    // PGD/FUP ip then names the statement the walker just emitted.
    if w.last_emitted == Some(ip) {
        return Ok(());
    }
    let mut guard = 0usize;
    loop {
        let pos = match w.pos {
            Some(p) => p,
            // Window already closed (e.g. FUP then PGD): nothing to do.
            None => return Ok(()),
        };
        seq.push((tid, pos));
        w.last_emitted = Some(pos);
        if pos == ip {
            return Ok(());
        }
        guard += 1;
        if guard > 10_000_000 {
            return Err(DecodeError::Desync {
                what: format!("never reached PGD/FUP ip {ip}"),
            });
        }
        match classify(program, pos, &mut w.stack) {
            Step::Plain(next) => w.pos = Some(next),
            Step::End | Step::NeedTnt | Step::NeedTip => {
                return Err(DecodeError::Desync {
                    what: format!("hit decision point {pos} before PGD/FUP target {ip}"),
                });
            }
        }
    }
}

/// How the walker leaves statement `pos`. May pop `stack` for rets and
/// push it for direct calls.
enum Step {
    /// Deterministic successor.
    Plain(InstrId),
    /// Conditional branch: needs a TNT bit.
    NeedTnt,
    /// Indirect transfer: needs a TIP packet.
    NeedTip,
    /// No successor (thread exit via ret with empty stack handled as
    /// NeedTip in real PT; End is for unreachable).
    End,
}

fn classify(program: &Program, pos: InstrId, stack: &mut Vec<InstrId>) -> Step {
    if let Some(instr) = program.instr(pos) {
        match &instr.op {
            Op::Call {
                callee: Callee::Direct(f),
                ..
            } => {
                if let Some(after) = stmt_after(program, pos) {
                    stack.push(after);
                }
                Step::Plain(entry_stmt(program, *f))
            }
            Op::Call {
                callee: Callee::Indirect(_),
                ..
            } => Step::NeedTip,
            _ => match stmt_after(program, pos) {
                Some(next) => Step::Plain(next),
                None => Step::End,
            },
        }
    } else if let Some(term) = program.terminator(pos) {
        match term {
            Terminator::Br { target, .. } => {
                let p = program.stmt_pos(pos).expect("known stmt");
                Step::Plain(first_stmt_of_block(program, p.func, *target))
            }
            Terminator::CondBr { .. } => Step::NeedTnt,
            Terminator::Ret { .. } => match stack.pop() {
                Some(site) => Step::Plain(site),
                None => Step::NeedTip,
            },
            Terminator::Unreachable { .. } => Step::End,
        }
    } else {
        Step::End
    }
}

/// The first statement of a function's entry block.
fn entry_stmt(program: &Program, f: gist_ir::FuncId) -> InstrId {
    let func = program.function(f);
    let b = func.block(func.entry());
    b.instrs
        .first()
        .map(|i| i.id)
        .unwrap_or_else(|| b.term.id())
}

/// The first statement of a block.
fn first_stmt_of_block(program: &Program, f: gist_ir::FuncId, b: gist_ir::BlockId) -> InstrId {
    let block = program.function(f).block(b);
    block
        .instrs
        .first()
        .map(|i| i.id)
        .unwrap_or_else(|| block.term.id())
}

/// The statement after `pos` within its block (terminator if last).
fn stmt_after(program: &Program, pos: InstrId) -> Option<InstrId> {
    let p = program.stmt_pos(pos)?;
    let block = program.function(p.func).block(p.block);
    if p.index < block.instrs.len() {
        Some(
            block
                .instrs
                .get(p.index + 1)
                .map(|i| i.id)
                .unwrap_or_else(|| block.term.id()),
        )
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PtDriver;
    use crate::tracer::{PtConfig, PtTracer};
    use gist_ir::parser::parse_program;
    use gist_vm::{Event, Observer, SchedulerKind, Vm, VmConfig};

    /// Runs with full tracing and checks the decoded statement stream for
    /// each thread matches exactly the statements the VM retired.
    fn assert_roundtrip(text: &str, cfg: VmConfig) {
        let p = parse_program("t", text).unwrap();
        let mut tracer = PtTracer::new(
            &p,
            PtDriver::always_on(),
            PtConfig {
                num_cores: cfg.num_cores,
                buffer_capacity: crate::buffer::DEFAULT_CAPACITY,
            },
        );
        let mut truth = gist_vm::event::EventLog::default();
        let mut vm = Vm::new(&p, cfg);
        vm.run(&mut [&mut truth, &mut tracer]);
        tracer.finish();
        let traces = tracer.take_traces();
        let decoded = decode(&p, &traces).expect("decode");
        assert!(!decoded.overflowed);
        // Per-thread retired sequences from ground truth.
        let mut tids: Vec<u32> = truth
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Retired { tid, .. } => Some(*tid),
                _ => None,
            })
            .collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let truth_seq: Vec<InstrId> = truth
                .events
                .iter()
                .filter_map(|e| match e {
                    Event::Retired { tid: t, iid, .. } if *t == tid => Some(*iid),
                    _ => None,
                })
                .collect();
            let got = decoded.thread_stmts(tid);
            assert_eq!(got, truth_seq, "thread {tid} statement stream");
        }
    }

    #[test]
    fn roundtrip_straightline() {
        assert_roundtrip(
            "fn main() {\nentry:\n  x = const 1\n  y = add x, 2\n  print y\n  ret\n}\n",
            VmConfig::default(),
        );
    }

    #[test]
    fn roundtrip_loop() {
        assert_roundtrip(
            r#"
fn main() {
entry:
  n = const 25
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
"#,
            VmConfig::default(),
        );
    }

    #[test]
    fn roundtrip_calls_and_branches() {
        assert_roundtrip(
            r#"
fn collatz(n) {
entry:
  c = cmp eq n, 1
  condbr c, done, step
step:
  r = rem n, 2
  z = cmp eq r, 0
  condbr z, even, odd
even:
  h = div n, 2
  v = call collatz(h)
  ret v
odd:
  t = mul n, 3
  t1 = add t, 1
  v2 = call collatz(t1)
  ret v2
done:
  ret 1
}
fn main() {
entry:
  r = call collatz(27)
  print r
  ret
}
"#,
            VmConfig::default(),
        );
    }

    #[test]
    fn roundtrip_indirect_calls() {
        assert_roundtrip(
            r#"
fn inc(x) {
entry:
  y = add x, 1
  ret y
}
fn dec(x) {
entry:
  y = sub x, 1
  ret y
}
fn main() {
entry:
  f1 = funcaddr inc
  f2 = funcaddr dec
  a = icall f1(10)
  b = icall f2(a)
  print b
  ret
}
"#,
            VmConfig::default(),
        );
    }

    #[test]
    fn roundtrip_multithreaded_single_core() {
        assert_roundtrip(
            r#"
global x = 0
fn worker(arg) {
entry:
  i = const 0
  br head
head:
  c = cmp lt i, 8
  condbr c, body, exit
body:
  v = load $x
  v2 = add v, 1
  store $x, v2
  i = add i, 1
  br head
exit:
  ret
}
fn main() {
entry:
  t1 = spawn worker(0)
  t2 = spawn worker(0)
  join t1
  join t2
  ret
}
"#,
            VmConfig {
                num_cores: 1,
                scheduler: SchedulerKind::Random {
                    seed: 9,
                    preempt: 0.5,
                },
                ..VmConfig::default()
            },
        );
    }

    #[test]
    fn roundtrip_multithreaded_multicore() {
        assert_roundtrip(
            r#"
global m = 0
global x = 0
fn worker(arg) {
entry:
  lock $m
  v = load $x
  v2 = add v, arg
  store $x, v2
  unlock $m
  ret
}
fn main() {
entry:
  t1 = spawn worker(1)
  t2 = spawn worker(2)
  t3 = spawn worker(3)
  join t1
  join t2
  join t3
  v = load $x
  print v
  ret
}
"#,
            VmConfig {
                num_cores: 4,
                scheduler: SchedulerKind::Random {
                    seed: 4,
                    preempt: 0.6,
                },
                ..VmConfig::default()
            },
        );
    }

    #[test]
    fn roundtrip_crashing_run() {
        assert_roundtrip(
            r#"
fn main() {
entry:
  p = alloc 2
  free p
  v = load p
  print v
  ret
}
"#,
            VmConfig::default(),
        );
    }

    #[test]
    fn windowed_tracing_decodes_only_the_window() {
        // Enable tracing in the middle of the run; the decoded set must
        // contain only post-enable statements.
        let text = r#"
fn main() {
entry:
  a = const 1
  b = add a, 1
  c = add b, 1
  d = add c, 1
  print d
  ret
}
"#;
        let p = parse_program("t", text).unwrap();
        let main = p.function_by_name("main").unwrap();
        let c_iid = main.blocks[0].instrs[2].id;
        let driver = PtDriver::new();
        struct At {
            driver: PtDriver,
            at: InstrId,
        }
        impl Observer for At {
            fn on_event(&mut self, ev: &Event) {
                if let Event::Retired { iid, .. } = ev {
                    if *iid == self.at {
                        self.driver.set_default(true);
                    }
                }
            }
        }
        let mut en = At {
            driver: driver.clone(),
            at: c_iid,
        };
        let mut tracer = PtTracer::new(&p, driver, PtConfig::default());
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.run(&mut [&mut en, &mut tracer]);
        tracer.finish();
        let decoded = decode(&p, &tracer.take_traces()).unwrap();
        let executed = decoded.executed();
        let a_iid = main.blocks[0].instrs[0].id;
        let d_iid = main.blocks[0].instrs[3].id;
        assert!(!executed.contains(&a_iid), "pre-window stmt must be absent");
        assert!(
            executed.contains(&d_iid),
            "post-enable stmt must be present"
        );
        // The enabler observer runs before the tracer sees c's Retired
        // event, so the window opens exactly at c.
        assert!(executed.contains(&c_iid));
    }

    #[test]
    fn overflow_truncates_but_decodes() {
        let text = r#"
fn main() {
entry:
  n = const 10000
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
        let p = parse_program("t", text).unwrap();
        let mut tracer = PtTracer::new(
            &p,
            PtDriver::always_on(),
            PtConfig {
                num_cores: 4,
                buffer_capacity: 256,
            },
        );
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.run(&mut [&mut tracer]);
        tracer.finish();
        assert!(tracer.buffers()[0].overflowed());
        let decoded = decode(&p, &tracer.take_traces()).unwrap();
        assert!(decoded.overflowed);
        // Some prefix decoded.
        assert!(!decoded.per_core[0].is_empty());
    }
}
