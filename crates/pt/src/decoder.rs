//! The PT decoder: packets + the program's code map → executed statement
//! sequence.
//!
//! A real PT decoder walks the program binary alongside the packet stream:
//! straight-line code and direct branches are followed from the binary
//! alone; each conditional branch consumes one TNT bit; each indirect
//! transfer consumes a TIP packet; compressed RETs pop the decoder's own
//! call stack. This module does exactly that over MiniC programs, reading
//! successors from the dense [`CodeMap`] and packets in place from the
//! trace bytes.
//!
//! The output of decoding is what Gist's refinement step consumes: the set
//! (and per-core sequence) of statements that *actually executed* during
//! the traced windows (paper §3.2.2: "control flow traces identify
//! statements that get executed during production runs").

use std::collections::HashSet;

use gist_ir::InstrId;

use crate::code_map::{CodeMap, Exit};
use crate::packet::{tnt_bits, PacketReader, Parsed};

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

fn desync(what: String) -> DecodeError {
    DecodeError::Desync { what }
}

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

/// Most statements one walk may emit before the decoder gives up on
/// reaching the statement a packet needs.
const WALK_LIMIT: usize = 10_000_000;

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

impl Walker {
    /// The statement after one whose exit is `exit` when no packet decides
    /// it, pushing or popping the return-site stack at calls and rets;
    /// `None` at a statement that needs a packet, or has no successor.
    fn follow(&mut self, exit: Exit) -> Option<InstrId> {
        match exit {
            Exit::Next(next) => Some(next),
            Exit::Call { entry, ret_site } => {
                self.stack.push(ret_site);
                Some(entry)
            }
            Exit::Ret => self.stack.pop(),
            Exit::IndirectCall { .. } | Exit::CondBr { .. } | Exit::End => None,
        }
    }

    /// Advances the walker, emitting statements into `seq`, to the next
    /// statement that needs a packet: a conditional branch, an indirect
    /// call, or a `ret` with an empty stack. Returns that statement (also
    /// emitted) and its exit; the caller moves the walker past it. On an
    /// error the decode ends, so the walker's position is left stale.
    fn walk_to_decision(
        &mut self,
        code: &CodeMap,
        tid: u32,
        seq: &mut Vec<(u32, InstrId)>,
    ) -> Result<(InstrId, Exit), DecodeError> {
        let mut pos = self
            .pos
            .ok_or_else(|| desync(format!("packet for tid {tid} with no open window")))?;
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > WALK_LIMIT {
                return Err(desync("walker did not reach a decision point".into()));
            }
            let exit = code.exit(pos);
            match self.follow(exit) {
                Some(next) => {
                    seq.push((tid, pos));
                    pos = next;
                }
                None if exit == Exit::End => {
                    return Err(desync(format!("walker fell off the program at {pos}")));
                }
                None => {
                    seq.push((tid, pos));
                    self.last_emitted = Some(pos);
                    return Ok((pos, exit));
                }
            }
        }
    }

    /// Advances the walker, emitting statements, until `ip` is emitted.
    /// The caller then closes the window.
    fn walk_until_ip(
        &mut self,
        code: &CodeMap,
        tid: u32,
        seq: &mut Vec<(u32, InstrId)>,
        ip: InstrId,
    ) -> Result<(), DecodeError> {
        // The window may close immediately after a consumed decision point;
        // the PGD/FUP ip then names the statement the walker just emitted.
        if self.last_emitted == Some(ip) {
            return Ok(());
        }
        // Window already closed (e.g. FUP then PGD): nothing to do.
        let Some(mut pos) = self.pos else {
            return Ok(());
        };
        let mut guard = 0usize;
        loop {
            seq.push((tid, pos));
            if pos == ip {
                self.last_emitted = Some(ip);
                return Ok(());
            }
            guard += 1;
            if guard > WALK_LIMIT {
                return Err(desync(format!("never reached PGD/FUP ip {ip}")));
            }
            pos = self.follow(code.exit(pos)).ok_or_else(|| {
                desync(format!(
                    "hit decision point {pos} before PGD/FUP target {ip}"
                ))
            })?;
        }
    }
}

/// The walker of the thread `current` names, or the error for a packet
/// of kind `what` that arrived before any PIP.
fn current_walker<'w>(
    walkers: &'w mut [(u32, Walker)],
    current: Option<usize>,
    what: &str,
) -> Result<(u32, &'w mut Walker), DecodeError> {
    let slot = current.ok_or_else(|| desync(format!("{what} before any PIP")))?;
    let (tid, w) = &mut walkers[slot];
    Ok((*tid, w))
}

/// Walks one core's packets, emitting statements into `seq` and branches
/// into `out`.
fn walk_core(
    code: &CodeMap,
    packets: &mut PacketReader<'_>,
    out: &mut DecodedTrace,
    seq: &mut Vec<(u32, InstrId)>,
) -> Result<(), DecodeError> {
    // Walkers are per (core, tid); threads never migrate cores. A core
    // interleaves a handful of threads, so a list beats a map, and its
    // slots are never indexed by a tid read from the trace.
    let mut walkers: Vec<(u32, Walker)> = Vec::new();
    let mut current: Option<usize> = None;
    for p in packets {
        match p.map_err(DecodeError::BadBytes)? {
            Parsed::Psb => {}
            Parsed::Ovf => {
                out.overflowed = true;
                // All walker state on this core is unreliable now.
                for (_, w) in &mut walkers {
                    w.pos = None;
                }
            }
            Parsed::Pip { tid } => {
                let slot = match walkers.iter().position(|&(t, _)| t == tid) {
                    Some(slot) => slot,
                    None => {
                        walkers.push((tid, Walker::default()));
                        walkers.len() - 1
                    }
                };
                current = Some(slot);
            }
            Parsed::Pge { ip } => {
                let (_, w) = current_walker(&mut walkers, current, "PGE")?;
                w.pos = Some(ip);
                w.stack.clear();
            }
            Parsed::Tnt { payload } => {
                let (tid, w) = current_walker(&mut walkers, current, "TNT")?;
                for taken_bit in tnt_bits(payload) {
                    let (at, exit) = w.walk_to_decision(code, tid, seq)?;
                    let Exit::CondBr { taken, not_taken } = exit else {
                        return Err(desync(format!(
                            "expected condbr, found TIP consumer at {at}"
                        )));
                    };
                    out.branches.push((tid, at, taken_bit));
                    w.pos = Some(if taken_bit { taken } else { not_taken });
                }
            }
            Parsed::Tip { ip } => {
                let (tid, w) = current_walker(&mut walkers, current, "TIP")?;
                match w.walk_to_decision(code, tid, seq)? {
                    (at, Exit::CondBr { .. }) => {
                        return Err(desync(format!(
                            "expected TIP consumer, found condbr at {at}"
                        )));
                    }
                    // An indirect call pushes its return site before jumping.
                    (_, Exit::IndirectCall { ret_site }) => w.stack.push(ret_site),
                    _ => {}
                }
                w.pos = Some(ip);
            }
            Parsed::Pgd { ip } | Parsed::Fup { ip } => {
                let (tid, w) = current_walker(&mut walkers, current, "PGD/FUP")?;
                w.walk_until_ip(code, tid, seq, ip)?;
                w.pos = None;
            }
        }
    }
    Ok(())
}

/// Decodes one core's byte stream, emitting statements into `core_seq`
/// and branches into `out`.
fn decode_core(
    code: &CodeMap,
    bytes: &[u8],
    out: &mut DecodedTrace,
    core_seq: &mut Vec<(u32, InstrId)>,
) -> Result<(), DecodeError> {
    let mut packets = PacketReader::new(bytes);
    let walked = walk_core(code, &mut packets, out, core_seq);
    match walked {
        Err(DecodeError::BadBytes(_)) => return walked,
        // A stream is malformed if any of its bytes are, wherever the
        // walk stopped.
        Err(DecodeError::Desync { .. }) => {
            for p in packets.by_ref() {
                p.map_err(DecodeError::BadBytes)?;
            }
        }
        Ok(()) => {}
    }
    gist_obs::counter!("pt.packets_decoded").add(packets.read);
    walked
}

/// Decodes all cores' streams of one run over the traced program's code
/// map.
pub fn decode(code: &CodeMap, core_bytes: &[Vec<u8>]) -> Result<DecodedTrace, DecodeError> {
    let _span = gist_obs::span("pt.decode");
    gist_obs::counter!("pt.decodes").inc();
    gist_obs::counter!("pt.bytes_decoded")
        .add(core_bytes.iter().map(|b| b.len() as u64).sum::<u64>());
    let mut out = DecodedTrace {
        per_core: Vec::with_capacity(core_bytes.len()),
        ..DecodedTrace::default()
    };
    for (core, bytes) in core_bytes.iter().enumerate() {
        // About one statement per trace byte: sized once, a core's
        // sequence rarely grows.
        let mut seq = Vec::with_capacity(2 * bytes.len());
        decode_core(code, bytes, &mut out, &mut seq)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PtDriver;
    use crate::tracer::{EnableAt, PtConfig, PtTracer};
    use gist_ir::parser::parse_program;
    use gist_vm::{Event, SchedulerKind, Vm, VmConfig};

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
        let decoded = decode(tracer.code_map(), &traces).expect("decode");
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
        let mut en = EnableAt {
            tracer: PtTracer::new(&p, PtDriver::new(), PtConfig::default()),
            at: c_iid,
        };
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.run(&mut [&mut en]);
        let tracer = &mut en.tracer;
        tracer.finish();
        let traces = tracer.take_traces();
        let decoded = decode(tracer.code_map(), &traces).unwrap();
        let executed = decoded.executed();
        let a_iid = main.blocks[0].instrs[0].id;
        let d_iid = main.blocks[0].instrs[3].id;
        assert!(!executed.contains(&a_iid), "pre-window stmt must be absent");
        assert!(
            executed.contains(&d_iid),
            "post-enable stmt must be present"
        );
        // Tracing turns on before the tracer sees c's Retired event, so
        // the window opens exactly at c.
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
        let traces = tracer.take_traces();
        let decoded = decode(tracer.code_map(), &traces).unwrap();
        assert!(decoded.overflowed);
        // Some prefix decoded.
        assert!(!decoded.per_core[0].is_empty());
    }
}
