//! Property test: Intel PT round-trips arbitrary programs.
//!
//! For randomly generated MiniC programs (loops, branches, calls, threads,
//! shared memory), fully tracing a run and decoding the packet streams
//! must reproduce each thread's retired-statement sequence exactly. For
//! arbitrary packet streams and raw bytes, the decoder must fail cleanly
//! rather than panic, and decode the same bytes the same way every time.

use std::sync::OnceLock;

use bytes::BytesMut;
use gist_ir::builder::ProgramBuilder;
use gist_ir::parser::parse_program;
use gist_ir::{Callee, CmpKind, InstrId, Program};
use gist_pt::packet::TNT_CAPACITY;
use gist_pt::{decoder, Packet, PtConfig, PtDriver, PtTracer};
use gist_vm::event::EventLog;
use gist_vm::{Event, SchedulerKind, Vm, VmConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a random but structurally valid program from a seed: a few
/// worker functions with bounded loops and data-dependent branches, plus a
/// main that may spawn them as threads or call them.
fn random_program(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new("random");
    let g = pb.global("shared", rng.gen_range(0..4));

    let nworkers = rng.gen_range(1..=3u32);
    let mut workers = Vec::new();
    for w in 0..nworkers {
        let name = format!("worker{w}");
        let mut f = pb.function(&name, &["arg"]);
        let arg = f.var("arg");
        let iters = rng.gen_range(1..=4i64);
        let n = f.const_i64("n", iters);
        let head = f.new_block("head");
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        f.br(head);
        f.switch_to(head);
        let c = f.cmp("c", CmpKind::Gt, n.into(), 0.into());
        f.condbr(c.into(), body, exit);
        f.switch_to(body);
        // Random body shape: arithmetic, shared loads/stores, inner branch.
        match rng.gen_range(0..3) {
            0 => {
                let v = f.load("v", g.into());
                let v2 = f.add("v2", v.into(), arg.into());
                f.store(g.into(), v2.into());
            }
            1 => {
                let v = f.load("v", g.into());
                let odd = f.bin("odd", gist_ir::BinKind::And, v.into(), 1.into());
                let t = f.new_block("odd_b");
                let e = f.new_block("even_b");
                let join = f.new_block("join_b");
                f.condbr(odd.into(), t, e);
                f.switch_to(t);
                f.store(g.into(), 7.into());
                f.br(join);
                f.switch_to(e);
                f.store(g.into(), 8.into());
                f.br(join);
                f.switch_to(join);
            }
            _ => {
                let x = f.bin("x", gist_ir::BinKind::Mul, arg.into(), 3.into());
                f.print(&[x.into()]);
            }
        }
        let n2 = f.sub("n2", n.into(), 1.into());
        let n_again = f.var("n");
        let _ = n_again;
        f.store(g.into(), n2.into());
        // Re-bind the loop counter.
        let nn = f.var("n");
        let dec = f.sub("dec", nn.into(), 1.into());
        let nvar = f.var("n");
        let _ = nvar;
        // n = dec
        let _ = f.add("n", dec.into(), 0.into());
        f.br(head);
        f.switch_to(exit);
        f.ret(Some(arg.into()));
        workers.push(f.finish());
    }

    let mut m = pb.function("main", &[]);
    let mut tids = Vec::new();
    for (i, &w) in workers.iter().enumerate() {
        if rng.gen_bool(0.5) {
            let t = m
                .spawn(Some(&format!("t{i}")), Callee::Direct(w), (i as i64).into())
                .expect("dst");
            tids.push(t);
        } else {
            m.call_direct(&format!("r{i}"), w, &[(i as i64).into()]);
        }
    }
    for t in tids {
        m.join(t.into());
    }
    let v = m.load("final", g.into());
    m.print(&[v.into()]);
    m.ret(None);
    m.finish();
    pb.finish().expect("random program is valid")
}

fn check_roundtrip(program_seed: u64, sched_seed: u64) {
    let program = random_program(program_seed);
    let cfg = VmConfig {
        scheduler: SchedulerKind::Random {
            seed: sched_seed,
            preempt: 0.5,
        },
        max_steps: 50_000,
        ..VmConfig::default()
    };
    let mut tracer = PtTracer::new(&program, PtDriver::always_on(), PtConfig::default());
    let mut truth = EventLog::default();
    let mut vm = Vm::new(&program, cfg);
    vm.run(&mut [&mut truth, &mut tracer]);
    tracer.finish();
    let decoded = decoder::decode(&program, &tracer.take_traces()).expect("decodes");
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
        let want: Vec<_> = truth
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Retired { tid: t, iid, .. } if *t == tid => Some(*iid),
                _ => None,
            })
            .collect();
        let got = decoded.thread_stmts(tid);
        assert_eq!(
            got, want,
            "program {program_seed}, sched {sched_seed}, tid {tid}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pt_roundtrips_random_programs(program_seed in 0u64..5_000, sched_seed in 0u64..1_000) {
        check_roundtrip(program_seed, sched_seed);
    }
}

#[test]
fn pt_roundtrips_known_seeds() {
    for s in 0..30 {
        check_roundtrip(s, s.wrapping_mul(7));
    }
}

/// Strategy producing any single packet, including the markers (PSB, OVF)
/// a real stream interleaves with payload packets, with `ip`s below
/// `ips` and tids below `tids`.
fn arb_packet(ips: u32, tids: u32) -> impl Strategy<Value = Packet> {
    let ip = move || (0..ips).prop_map(InstrId);
    prop_oneof![
        Just(Packet::Psb),
        (0..tids).prop_map(|tid| Packet::Pip { tid }),
        ip().prop_map(|ip| Packet::Pge { ip }),
        ip().prop_map(|ip| Packet::Pgd { ip }),
        proptest::collection::vec((0u32..2).prop_map(|b| b == 1), 1..TNT_CAPACITY + 1)
            .prop_map(|bits| Packet::Tnt { bits }),
        ip().prop_map(|ip| Packet::Tip { ip }),
        ip().prop_map(|ip| Packet::Fup { ip }),
        Just(Packet::Ovf),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Byte-level property: ANY packet sequence — arbitrary ordering,
    /// PSB resync points and OVF markers anywhere in the stream —
    /// encodes to exactly the modeled sizes and decodes back verbatim.
    #[test]
    fn packet_streams_roundtrip(packets in proptest::collection::vec(arb_packet(100_000, 64), 0..200)) {
        let mut buf = BytesMut::new();
        let mut modeled = 0usize;
        for p in &packets {
            p.encode(&mut buf);
            modeled += p.encoded_len();
        }
        prop_assert_eq!(buf.len(), modeled, "encoded_len must match encoding");
        let decoded = Packet::decode_all(&buf);
        prop_assert_eq!(decoded.as_ref(), Ok(&packets));
    }
}

/// OVF semantics end to end: with a buffer far too small for the trace,
/// the tracer stops on full with a single OVF marker, and the decoded
/// per-thread statement sequences are exact prefixes of the true ones.
#[test]
fn overflowed_trace_decodes_to_prefixes() {
    for seed in 0..10u64 {
        let program = random_program(seed);
        let cfg = VmConfig {
            scheduler: SchedulerKind::Random {
                seed: seed.wrapping_mul(13).wrapping_add(1),
                preempt: 0.5,
            },
            max_steps: 50_000,
            ..VmConfig::default()
        };
        let mut tracer = PtTracer::new(
            &program,
            PtDriver::always_on(),
            PtConfig {
                num_cores: 1,
                buffer_capacity: 96,
            },
        );
        let mut truth = EventLog::default();
        let mut vm = Vm::new(&program, cfg);
        vm.run(&mut [&mut truth, &mut tracer]);
        tracer.finish();
        let traces = tracer.take_traces();
        let per_stream_ovf: Vec<usize> = traces
            .iter()
            .map(|t| {
                Packet::decode_all(t)
                    .expect("stream decodes")
                    .iter()
                    .filter(|p| matches!(p, Packet::Ovf))
                    .count()
            })
            .collect();
        for (core, &n) in per_stream_ovf.iter().enumerate() {
            assert!(
                n <= 1,
                "seed {seed}, core {core}: stop-on-full emits at most one OVF per stream"
            );
        }
        let decoded = decoder::decode(&program, &traces).expect("decodes");
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
            let want: Vec<_> = truth
                .events
                .iter()
                .filter_map(|e| match e {
                    Event::Retired { tid: t, iid, .. } if *t == tid => Some(*iid),
                    _ => None,
                })
                .collect();
            let got = decoded.thread_stmts(tid);
            assert!(
                got.len() <= want.len() && got == want[..got.len()],
                "seed {seed}, tid {tid}: decoded sequence must be a prefix \
                 of the true sequence (got {} stmts, want {})",
                got.len(),
                want.len()
            );
        }
        if decoded.overflowed {
            assert!(
                per_stream_ovf.iter().sum::<usize>() >= 1,
                "seed {seed}: decoder reports overflow but no stream carries OVF"
            );
        }
    }
}

/// A small program with loops, calls, and indirect transfers, so generated
/// `ip` payloads land on real statements of every flavor.
fn hostile_target() -> &'static Program {
    static P: OnceLock<Program> = OnceLock::new();
    P.get_or_init(|| {
        parse_program(
            "prop",
            r#"
fn inc(x) {
entry:
  y = add x, 1
  ret y
}
fn main() {
entry:
  n = const 3
  f = funcaddr inc
  br head
head:
  c = cmp gt n, 0
  condbr c, body, exit
body:
  n = sub n, 1
  m = icall f(n)
  br head
exit:
  print n
  ret
}
"#,
        )
        .expect("valid program")
    })
}

/// One core's stream: encoded packets (OVF and mid-stream PSB anywhere),
/// optionally truncated mid-packet the way a wrapped ring buffer cuts its
/// tail, or raw arbitrary bytes.
fn arb_core_bytes(stmt_count: usize) -> impl Strategy<Value = Vec<u8>> {
    let packets = (
        // `ip`s on the target's statements plus a few out of range, so
        // both clean walks and desync errors are reached.
        proptest::collection::vec(arb_packet(stmt_count as u32 + 3, 3), 0..24),
        0usize..4096,
        (0u32..2).prop_map(|b| b == 1),
    )
        .prop_map(|(packets, cut, truncate)| {
            let mut buf = BytesMut::new();
            for p in &packets {
                p.encode(&mut buf);
            }
            let mut bytes = buf.into_vec();
            if truncate && !bytes.is_empty() {
                bytes.truncate(cut % bytes.len());
            }
            bytes
        });
    prop_oneof![packets, proptest::collection::vec(0u8..=255, 0..64)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile trace bytes never panic the decoder: every input yields
    /// `Ok` or `Err`, and decoding the same bytes twice gives the same
    /// result.
    #[test]
    fn decode_of_hostile_bytes_is_total_and_deterministic(
        cores in proptest::collection::vec(arb_core_bytes(hostile_target().stmt_count()), 1..4),
    ) {
        let p = hostile_target();
        let first = decoder::decode(p, &cores);
        let second = decoder::decode(p, &cores);
        prop_assert_eq!(first, second, "cores {:?}", cores);
    }
}
