//! Property test: Intel PT round-trips arbitrary programs.
//!
//! For randomly generated MiniC programs (loops, branches, calls, threads,
//! shared memory), fully tracing a run and decoding the packet streams
//! must reproduce each thread's retired-statement sequence exactly. For
//! arbitrary packet streams and raw bytes, the decoder must fail cleanly
//! rather than panic, and decode the same bytes the same way every time.
//! A tracker whose events the VM filters must trace a run as one that
//! gets every event.

use std::sync::OnceLock;

use bytes::BytesMut;
use gist_bugbase::all_bugs;
use gist_coop::{EvalConfig, SimulatedFleet};
use gist_core::{Fleet, GistServer};
use gist_ir::builder::ProgramBuilder;
use gist_ir::icfg::Icfg;
use gist_ir::parser::parse_program;
use gist_ir::{Callee, CmpKind, InstrId, Program};
use gist_pt::packet::TNT_CAPACITY;
use gist_pt::{decoder, CodeMap, Packet, PtConfig, PtDriver, PtTracer};
use gist_tracking::{InstrumentationPatch, Planner, TrackerRuntime};
use gist_vm::event::EventLog;
use gist_vm::{DeliveryFilter, Event, Observer, SchedulerKind, Vm, VmConfig};
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
    let traces = tracer.take_traces();
    let decoded = decoder::decode(tracer.code_map(), &traces).expect("decodes");
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
        let decoded = decoder::decode(tracer.code_map(), &traces).expect("decodes");
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

/// Flips per-core tracing at random between the events of a run, on
/// cores 0–4 while the tracer starts with a buffer for core 0 only, and
/// checks each event that passes [`PtTracer::idle`]: handling it must
/// leave the tracer's buffers, windows, per-core state, driver and
/// counters as they were. `TrackerRuntime` skips such events.
struct IdleCheck {
    tracer: PtTracer,
    rng: SplitMix64,
    idle_events: u64,
}

impl Observer for IdleCheck {
    fn on_event(&mut self, ev: &Event) {
        if self.rng.below(4) == 0 {
            let (core, action) = (self.rng.below(5) as u32, self.rng.below(8));
            let driver = self.tracer.driver_mut();
            match action {
                0 => driver.set_default(false),
                1 => driver.set_default(true),
                2..=4 => driver.trace_on(core),
                _ => driver.trace_off(core),
            }
        }
        if !self.tracer.idle(ev.core(), ev.tid()) {
            self.tracer.handle(ev);
            return;
        }
        let before = format!("{:?}", self.tracer);
        self.tracer.handle(ev);
        assert_eq!(
            format!("{:?}", self.tracer),
            before,
            "an idle event changed the tracer: {ev:?}"
        );
        self.idle_events += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The premise of the tracker's fast path: an event that passes the
    /// idle check would change nothing in the tracer.
    #[test]
    fn idle_events_leave_the_tracer_unchanged(
        program_seed in 0u64..5_000,
        sched_seed in 0u64..1_000,
        toggle_seed in 0u64..u64::MAX,
    ) {
        let program = random_program(program_seed);
        let cfg = VmConfig {
            scheduler: SchedulerKind::Random {
                seed: sched_seed,
                preempt: 0.5,
            },
            max_steps: 50_000,
            ..VmConfig::default()
        };
        let mut check = IdleCheck {
            tracer: PtTracer::new(
                &program,
                PtDriver::new(),
                PtConfig {
                    num_cores: 1,
                    ..PtConfig::default()
                },
            ),
            rng: SplitMix64(toggle_seed),
            idle_events: 0,
        };
        Vm::new(&program, cfg).run(&mut [&mut check]);
        prop_assert!(check.idle_events > 0, "no event was idle");
    }
}

/// Hands a run's events to a tracker and counts them. With `filtered` it
/// passes the VM the tracker's delivery filter; without it the VM
/// delivers every event.
struct Delivery<'a> {
    tracker: &'a mut TrackerRuntime,
    filtered: bool,
    delivered: u64,
}

impl Observer for Delivery<'_> {
    fn on_event(&mut self, ev: &Event) {
        self.delivered += 1;
        self.tracker.on_event(ev);
    }

    fn filter(&self) -> Option<&DeliveryFilter> {
        if self.filtered {
            self.tracker.filter()
        } else {
            None
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The delivery filter skips only events on which the tracker does
    /// nothing: under random patches and full-trace plans, with a tracker
    /// built for as many cores as the VM uses or fewer, filtered and
    /// unfiltered delivery give the same run result and run trace.
    #[test]
    fn filtered_delivery_gives_the_unfiltered_trace(
        program_seed in 0u64..5_000,
        sched_seed in 0u64..1_000,
        patch_seed in 0u64..u64::MAX,
        plan_kind in 0u32..4,
        vm_cores in 1u32..=4,
        fewer_cores in 0u32..4,
    ) {
        let program = random_program(program_seed);
        let ticfg = Icfg::build_ticfg(&program);
        let planner = Planner::new(&program, &ticfg);
        // One case in four runs a full-trace plan.
        let patch = if plan_kind == 0 {
            planner.plan_full_trace()
        } else {
            let stmts: Vec<InstrId> = program.all_stmt_ids().collect();
            let mut rng = SplitMix64(patch_seed);
            let tracked: Vec<InstrId> = (0..1 + rng.below(8))
                .map(|_| stmts[rng.below(stmts.len() as u64) as usize])
                .collect();
            planner.plan(&tracked, rng.below(2) as usize)
        };
        let tracker_cores = vm_cores.saturating_sub(fewer_cores).max(1);
        let cfg = VmConfig {
            scheduler: SchedulerKind::Random {
                seed: sched_seed,
                preempt: 0.5,
            },
            max_steps: 50_000,
            num_cores: vm_cores,
            ..VmConfig::default()
        };
        let run = |filtered: bool| {
            let mut tracker = TrackerRuntime::new(&program, patch.clone(), tracker_cores);
            let mut delivery = Delivery {
                tracker: &mut tracker,
                filtered,
                delivered: 0,
            };
            let result = Vm::new(&program, cfg.clone()).run(&mut [&mut delivery]);
            let delivered = delivery.delivered;
            let mut trace = tracker.finish();
            trace.hit_events.iter_mut().for_each(|s| *s = 0);
            trace.decode_event = 0;
            (format!("{result:?}"), format!("{trace:?}"), delivered)
        };
        let (filtered, unfiltered) = (run(true), run(false));
        prop_assert_eq!(&filtered.0, &unfiltered.0, "run results differ");
        prop_assert_eq!(&filtered.1, &unfiltered.1, "run traces differ");
        prop_assert!(filtered.2 <= unfiltered.2);
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
        let code = CodeMap::new(hostile_target());
        let first = decoder::decode(&code, &cores);
        let second = decoder::decode(&code, &cores);
        prop_assert_eq!(first, second, "cores {:?}", cores);
    }
}

/// SplitMix64, the fixed generator of the decode golden's hostile corpus:
/// the corpus must not move when a vendored RNG or proptest does.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One packet of the hostile corpus: `ip`s on the target's statements and
/// a few past them; tids 0–2, or `u32::MAX`, which no table may be
/// indexed by.
fn corpus_packet(rng: &mut SplitMix64, stmt_count: usize) -> Packet {
    let ip = InstrId(rng.below(stmt_count as u64 + 3) as u32);
    match rng.below(8) {
        0 => Packet::Psb,
        1 => Packet::Pip {
            tid: match rng.below(6) {
                5 => u32::MAX,
                t => (t % 3) as u32,
            },
        },
        2 => Packet::Pge { ip },
        3 => Packet::Pgd { ip },
        4 => Packet::Tnt {
            bits: (0..1 + rng.below(TNT_CAPACITY as u64))
                .map(|_| rng.below(2) == 1)
                .collect(),
        },
        5 => Packet::Tip { ip },
        6 => Packet::Fup { ip },
        _ => Packet::Ovf,
    }
}

/// One core's stream of the hostile corpus, built like `arb_core_bytes`:
/// encoded packets, cut mid-packet half the time, or raw bytes. Half the
/// packet streams open a window first, so the walker gets past the
/// opening packets.
fn corpus_core(rng: &mut SplitMix64, stmt_count: usize) -> Vec<u8> {
    if rng.below(4) == 0 {
        return (0..rng.below(64)).map(|_| rng.next() as u8).collect();
    }
    let mut buf = BytesMut::new();
    if rng.below(2) == 0 {
        Packet::Pip {
            tid: rng.below(3) as u32,
        }
        .encode(&mut buf);
        Packet::Pge {
            ip: InstrId(rng.below(stmt_count as u64) as u32),
        }
        .encode(&mut buf);
    }
    for _ in 0..rng.below(24) {
        corpus_packet(rng, stmt_count).encode(&mut buf);
    }
    let mut bytes = buf.into_vec();
    if rng.below(2) == 1 && !bytes.is_empty() {
        bytes.truncate(rng.below(4096) as usize % bytes.len());
    }
    bytes
}

/// FNV-1a over `words`: a hash that no toolchain or dependency moves.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One golden line: the input's size and hash, then the decode outcome as
/// per-core statement counts, branch count, overflow flag and a hash of
/// the decoded sequences, or the error text.
fn golden_line(name: &str, code: &CodeMap, cores: &[Vec<u8>]) -> String {
    let input = fnv(cores
        .iter()
        .flat_map(|c| std::iter::once(c.len() as u64).chain(c.iter().map(|&b| u64::from(b)))));
    let size: usize = cores.iter().map(Vec::len).sum();
    let outcome = match decoder::decode(code, cores) {
        Ok(d) => {
            let counts: Vec<String> = d.per_core.iter().map(|c| c.len().to_string()).collect();
            let seq = fnv(d
                .per_core
                .iter()
                .flat_map(|c| {
                    std::iter::once(c.len() as u64).chain(
                        c.iter()
                            .map(|&(t, s)| (u64::from(t) << 32) | u64::from(s.0)),
                    )
                })
                .chain(d.branches.iter().map(|&(t, s, k)| {
                    (u64::from(t) << 33) | (u64::from(s.0) << 1) | u64::from(k)
                })));
            format!(
                "ok stmts [{}] branches {} ovf {} seq {seq:016x}",
                counts.join(","),
                d.branches.len(),
                u8::from(d.overflowed)
            )
        }
        Err(e) => format!("err {e}"),
    };
    format!("{name}: in {size}B {input:016x} -> {outcome}\n")
}

/// A tracer that applies a patch's PT start and stop points the way
/// `TrackerRuntime` does, after the tracer has seen each event, so a test
/// holds the raw trace bytes that the runtime decodes internally.
struct PatchTracer<'a> {
    tracer: PtTracer,
    patch: &'a InstrumentationPatch,
    pending_resume: Vec<bool>,
}

impl Observer for PatchTracer<'_> {
    fn on_event(&mut self, ev: &Event) {
        self.tracer.handle(ev);
        let driver = self.tracer.driver_mut();
        match ev {
            Event::Retired { iid, core, .. } => {
                if self.patch.pt_off_after.contains(iid) {
                    driver.trace_off(*core);
                }
                if self.patch.pt_on_after.contains(iid) {
                    driver.trace_on(*core);
                }
                if std::mem::take(&mut self.pending_resume[*core as usize]) {
                    driver.trace_on(*core);
                }
            }
            Event::Enter { func, core, .. } if self.patch.pt_on_enter.contains(func) => {
                driver.trace_on(*core);
            }
            Event::Return {
                to: Some(to), core, ..
            } if self.patch.pt_on_return_to.contains(to) => {
                self.pending_resume[*core as usize] = true;
            }
            _ => {}
        }
    }
}

/// The trace bytes of one run of `program` under `patch`, checked against
/// what `TrackerRuntime` decodes from the same run.
fn tracked_run_bytes(
    program: &Program,
    patch: &InstrumentationPatch,
    cfg: VmConfig,
) -> Vec<Vec<u8>> {
    let mut driver = PtDriver::new();
    if patch.pt_on_at_start {
        driver.set_default(true);
    }
    let pt = PtConfig {
        num_cores: cfg.num_cores,
        ..PtConfig::default()
    };
    let mut run = PatchTracer {
        tracer: PtTracer::new(program, driver, pt),
        patch,
        pending_resume: vec![false; cfg.num_cores.max(1) as usize],
    };
    Vm::new(program, cfg.clone()).run(&mut [&mut run]);
    run.tracer.finish();
    let bytes = run.tracer.take_traces();
    let mut tracker = TrackerRuntime::new(program, patch.clone(), cfg.num_cores);
    Vm::new(program, cfg).run(&mut [&mut tracker]);
    assert_eq!(
        decoder::decode(run.tracer.code_map(), &bytes).expect("tracked run decodes"),
        tracker.finish().decoded,
        "the patch tracer replays the runtime's tracing"
    );
    bytes
}

/// The first distinct patches a default diagnosis of `bug` ships in its
/// first AsT iteration (at most `n`).
fn first_patches(bug: &gist_bugbase::BugSpec, n: usize) -> Vec<InstrumentationPatch> {
    let (_, report) = bug.find_failure(2_000).expect("bug manifests");
    let cfg = EvalConfig::default();
    let server = GistServer::new(&bug.program, cfg.gist_config(String::new(), String::new()));
    let mut fleet = SimulatedFleet::for_bug(bug, cfg.fleet.clone());
    let mut patches: Vec<InstrumentationPatch> = Vec::new();
    let mut recording = |patch: &InstrumentationPatch| {
        if patches.len() < n && !patches.contains(patch) {
            patches.push(patch.clone());
        }
        fleet.next_run(patch)
    };
    server.diagnose(&report, &mut recording, None, &mut |_| true);
    patches
}

/// The decoder's outcome on a fixed input set, pinned in
/// `tests/golden/pt-decode.txt` (`UPDATE_GOLDEN=1` to accept): a
/// SplitMix64 corpus of hostile streams over `hostile_target`, full and
/// overflowing traces of generated programs, and tracked runs of the
/// first patches every bugbase diagnosis ships.
#[test]
fn decode_outcomes_match_golden() {
    let mut out = String::new();
    let target = hostile_target();
    let target_code = CodeMap::new(target);
    let mut rng = SplitMix64(0x5EED_0FDE_C0DE);
    // A window opened by a thread whose tid no dense table could hold.
    let mut huge_tid = BytesMut::new();
    for p in [
        Packet::Psb,
        Packet::Pip { tid: u32::MAX },
        Packet::Pge { ip: InstrId(0) },
        Packet::Pgd { ip: InstrId(2) },
    ] {
        p.encode(&mut huge_tid);
    }
    out += &golden_line("hostile-tid-max", &target_code, &[huge_tid.into_vec()]);
    for case in 0..300 {
        let cores: Vec<Vec<u8>> = (0..1 + rng.below(3))
            .map(|_| corpus_core(&mut rng, target.stmt_count()))
            .collect();
        out += &golden_line(&format!("hostile-{case:03}"), &target_code, &cores);
    }
    for seed in 0..12u64 {
        let program = random_program(seed);
        for (kind, num_cores, capacity) in [
            ("full", 4, gist_pt::buffer::DEFAULT_CAPACITY),
            ("ovf", 1, 48),
        ] {
            let cfg = VmConfig {
                scheduler: SchedulerKind::Random {
                    seed: seed.wrapping_mul(13).wrapping_add(1),
                    preempt: 0.5,
                },
                max_steps: 50_000,
                num_cores,
                ..VmConfig::default()
            };
            let mut tracer = PtTracer::new(
                &program,
                PtDriver::always_on(),
                PtConfig {
                    num_cores,
                    buffer_capacity: capacity,
                },
            );
            Vm::new(&program, cfg).run(&mut [&mut tracer]);
            tracer.finish();
            let bytes = tracer.take_traces();
            out += &golden_line(
                &format!("random-{seed:02}-{kind}"),
                tracer.code_map(),
                &bytes,
            );
        }
    }
    for bug in all_bugs() {
        let code = CodeMap::new(&bug.program);
        for (i, patch) in first_patches(&bug, 2).iter().enumerate() {
            for seed in 1..=3 {
                let bytes = tracked_run_bytes(&bug.program, patch, bug.vm_config(seed));
                let name = format!("{}-patch{i}-seed{seed}", bug.name);
                out += &golden_line(&name, &code, &bytes);
            }
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/pt-decode.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &out).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("no golden at {path} ({e}); run with UPDATE_GOLDEN=1"));
    if out != want {
        let first = out
            .lines()
            .zip(want.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("\n got: {a}\nwant: {b}"))
            .unwrap_or_default();
        panic!("decode outcomes differ from {path}{first}");
    }
}
