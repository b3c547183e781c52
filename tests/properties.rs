//! Property-based tests over the core data structures and invariants.

use gist_analysis::race::{lockset_intersect, Lockset};
use gist_analysis::{Loc, MemOrigin};
use gist_ir::builder::ProgramBuilder;
use gist_ir::cfg::Cfg;
use gist_ir::dom::DomTree;
use gist_ir::{BlockId, CmpKind, GlobalId, InstrId};
use gist_predictors::pattern::{AvPattern, RacePattern, Rw};
use gist_predictors::{rank, Predictor, PredictorStats, RunObservations};
use gist_sketch::kendall::kendall_tau_counts;
use gist_slicing::StaticSlicer;
use gist_vm::{AccessKind, SchedulerKind, Vm, VmConfig};
use gist_watch::{WatchCondition, WatchUnit};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    /// Kendall tau distance is symmetric, zero on identity, and bounded by
    /// the pair count.
    #[test]
    fn kendall_tau_properties(a in proptest::collection::vec(0u32..12, 0..10),
                              b in proptest::collection::vec(0u32..12, 0..10)) {
        let (d_ab, p_ab) = kendall_tau_counts(&a, &b);
        let (d_ba, p_ba) = kendall_tau_counts(&b, &a);
        prop_assert_eq!(p_ab, p_ba);
        prop_assert_eq!(d_ab, d_ba, "distance is symmetric");
        prop_assert!(d_ab <= p_ab, "distance bounded by pairs");
        let (d_aa, _) = kendall_tau_counts(&a, &a);
        prop_assert_eq!(d_aa, 0, "identity has distance 0");
    }

    /// Precision, recall and Fβ stay in [0, 1]; Fβ = 0 iff the predictor
    /// never occurs in failing runs.
    #[test]
    fn f_measure_bounds(in_failing in 0usize..20, in_successful in 0usize..20,
                        extra_failing in 0usize..20, extra_successful in 0usize..20,
                        beta in 0.1f64..4.0) {
        let s = PredictorStats {
            predictor: Predictor::Value { stmt: InstrId(0), value: 0 },
            in_failing,
            in_successful,
            total_failing: in_failing + extra_failing,
            total_successful: in_successful + extra_successful,
        };
        let (p, r, f) = (s.precision(), s.recall(), s.f_measure(beta));
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((0.0..=1.0).contains(&r));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
        if in_failing == 0 {
            prop_assert_eq!(f, 0.0);
        }
    }

    /// Ranking is a permutation of the distinct predictors and is sorted
    /// by descending Fβ.
    #[test]
    fn ranking_is_sorted_and_complete(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let runs: Vec<RunObservations> = (0..8).map(|_| RunObservations {
            failing: rng.gen_bool(0.5),
            values: (0..rng.gen_range(0..4))
                .map(|_| (InstrId(rng.gen_range(0..3)), rng.gen_range(0..2)))
                .collect(),
            ..Default::default()
        }).collect();
        let stats = rank(&runs, 0.5);
        for w in stats.windows(2) {
            prop_assert!(w[0].f_measure(0.5) >= w[1].f_measure(0.5) - 1e-12);
        }
        // Distinctness.
        for i in 0..stats.len() {
            for j in i + 1..stats.len() {
                prop_assert!(stats[i].predictor != stats[j].predictor);
            }
        }
    }

    /// The watch unit never traps on untouched addresses, never exceeds
    /// four armed slots, and its hit log is strictly ordered by seq.
    #[test]
    fn watch_unit_invariants(addrs in proptest::collection::vec(0u64..32, 1..60),
                             watched in proptest::collection::vec(0u64..32, 1..8)) {
        let mut unit = WatchUnit::new();
        let mut armed = Vec::new();
        for &w in &watched {
            if unit.set(w, 1, WatchCondition::ReadWrite).is_ok() {
                armed.push(w);
            }
        }
        prop_assert!(armed.len() <= gist_watch::NUM_SLOTS);
        for (i, &a) in addrs.iter().enumerate() {
            unit.check_access(i as u64 + 1, 0, 0, InstrId(0), AccessKind::Read, a, 0);
        }
        for h in unit.hits() {
            prop_assert!(armed.contains(&h.addr), "trap on unwatched address");
        }
        let seqs: Vec<u64> = unit.hits().iter().map(|h| h.seq).collect();
        prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        let expected = addrs.iter().filter(|a| armed.contains(a)).count();
        prop_assert_eq!(unit.hits().len(), expected, "every watched access traps");
    }
}

/// Strategy for one access kind.
fn rw() -> impl Strategy<Value = Rw> {
    prop_oneof![Just(Rw::R), Just(Rw::W)]
}

/// Strategy for one lock location (a few distinct origins and offsets so
/// intersections are non-trivial).
fn lock_loc() -> impl Strategy<Value = Loc> {
    (
        0u32..4,
        0u32..3,
        prop_oneof![Just(None), (0i64..3).prop_map(Some)],
    )
        .prop_map(|(kind, id, offset)| {
            let origin = match kind % 3 {
                0 => MemOrigin::Global(GlobalId(id)),
                1 => MemOrigin::Heap(InstrId(id)),
                _ => MemOrigin::Stack(InstrId(id)),
            };
            Loc { origin, offset }
        })
}

fn lockset() -> impl Strategy<Value = Lockset> {
    proptest::collection::btree_set(lock_loc(), 0..6)
}

proptest! {
    /// `AvPattern::classify` is total over all kind triples and agrees
    /// with Fig. 5: it fires exactly on the four unserializable
    /// interleavings — both adjacent pairs conflict and the triple is not
    /// all-writes — and the pattern's name spells the triple.
    #[test]
    fn av_classify_is_total_and_matches_fig5(a in rw(), b in rw(), c in rw()) {
        let conflicts = |x: Rw, y: Rw| x == Rw::W || y == Rw::W;
        let unserializable =
            conflicts(a, b) && conflicts(b, c) && !(a == Rw::W && b == Rw::W && c == Rw::W);
        let got = AvPattern::classify(a, b, c);
        prop_assert_eq!(got.is_some(), unserializable, "triple {:?}", (a, b, c));
        if let Some(p) = got {
            let letter = |x: Rw| if x == Rw::W { 'W' } else { 'R' };
            let spelled: String = [a, b, c].iter().map(|&x| letter(x)).collect();
            prop_assert_eq!(p.name(), spelled.as_str());
        }
        // The race half of Fig. 5 is consistent with the same conflict
        // notion: a pair classifies iff it conflicts.
        prop_assert_eq!(RacePattern::classify(a, b).is_some(), conflicts(a, b));
    }

    /// Lockset intersection is commutative, associative, idempotent, has
    /// the empty set as absorbing element, and only shrinks its operands.
    #[test]
    fn lockset_intersection_is_a_meet(a in lockset(), b in lockset(), c in lockset()) {
        prop_assert_eq!(lockset_intersect(&a, &b), lockset_intersect(&b, &a));
        prop_assert_eq!(
            lockset_intersect(&lockset_intersect(&a, &b), &c),
            lockset_intersect(&a, &lockset_intersect(&b, &c))
        );
        prop_assert_eq!(lockset_intersect(&a, &a), a.clone());
        prop_assert_eq!(lockset_intersect(&a, &Lockset::new()), Lockset::new());
        let ab = lockset_intersect(&a, &b);
        prop_assert!(ab.is_subset(&a) && ab.is_subset(&b));
    }
}

/// Dominator-tree sanity on randomly shaped (reducible and irreducible)
/// CFGs: the entry dominates every reachable block; immediate dominators
/// are strict dominators; postdominators mirror it for exits.
#[test]
fn dominator_properties_on_random_cfgs() {
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..10usize);
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.function("main", &[]);
        let blocks: Vec<BlockId> = (1..n).map(|i| f.new_block(&format!("b{i}"))).collect();
        let all: Vec<BlockId> = std::iter::once(BlockId(0)).chain(blocks.clone()).collect();
        // Give every block a terminator: random branch shapes; last block
        // always returns so an exit exists.
        for (i, &b) in all.iter().enumerate() {
            if i > 0 {
                f.switch_to(b);
            }
            if i == all.len() - 1 {
                f.ret(None);
            } else {
                let c = f.const_i64(&format!("c{i}"), 1);
                if rng.gen_bool(0.5) {
                    let t1 = all[rng.gen_range(0..all.len())];
                    let t2 = all[rng.gen_range(0..all.len())];
                    f.condbr(c.into(), t1, t2);
                } else {
                    f.br(all[rng.gen_range(0..all.len())]);
                }
            }
        }
        f.finish();
        let p = pb.finish().unwrap();
        let cfg = Cfg::build(&p.functions[0]);
        let dom = DomTree::dominators(&cfg);
        for b in &cfg.rpo {
            assert!(
                dom.dominates(BlockId(0), *b),
                "entry dominates {b} (seed {seed})"
            );
            if let Some(idom) = dom.idom(*b) {
                assert!(
                    dom.strictly_dominates(idom, *b),
                    "idom strict (seed {seed})"
                );
            }
        }
        let pdom = DomTree::postdominators(&cfg);
        for b in &cfg.rpo {
            if let Some(ip) = pdom.idom(*b) {
                assert!(
                    pdom.strictly_dominates(ip, *b),
                    "ipdom strict (seed {seed}, block {b})"
                );
            }
        }
    }
}

/// Slices always contain their criterion and never exceed the program.
#[test]
fn slice_contains_criterion_for_every_statement() {
    let mut pb = ProgramBuilder::new("t");
    let g = pb.global("g", 3);
    let helper = {
        let mut h = pb.function("helper", &["x"]);
        let x = h.var("x");
        let v = h.load("v", g.into());
        let s = h.add("s", x.into(), v.into());
        h.store(g.into(), s.into());
        h.ret(Some(s.into()));
        h.finish()
    };
    let mut m = pb.function("main", &[]);
    let a = m.const_i64("a", 2);
    let head = m.new_block("head");
    let body = m.new_block("body");
    let exit = m.new_block("exit");
    m.br(head);
    m.switch_to(head);
    let v = m.load("v", g.into());
    let c = m.cmp("c", CmpKind::Gt, v.into(), 0.into());
    m.condbr(c.into(), body, exit);
    m.switch_to(body);
    m.call_direct("r", helper, &[a.into()]);
    m.br(head);
    m.switch_to(exit);
    m.ret(None);
    m.finish();
    let p = pb.finish().unwrap();
    let slicer = StaticSlicer::new(&p);
    for id in p.all_stmt_ids() {
        let slice = slicer.compute(id);
        assert!(slice.contains(id), "criterion {id} in its own slice");
        assert!(slice.len() <= p.stmt_count());
        assert_eq!(slice.ordered[0], id, "criterion first in backward order");
    }
}

/// VM determinism: identical seeds give identical outcomes and outputs,
/// across every scheduler kind.
#[test]
fn vm_determinism_across_scheduler_kinds() {
    let text = r#"
global x = 0
fn w(a) {
entry:
  v = load $x
  v2 = add v, a
  store $x, v2
  ret
}
fn main() {
entry:
  t1 = spawn w(1)
  t2 = spawn w(2)
  join t1
  join t2
  v = load $x
  print v
  ret
}
"#;
    let p = gist_ir::parser::parse_program("t", text).unwrap();
    let kinds = [
        SchedulerKind::RoundRobin { quantum: 2 },
        SchedulerKind::Random {
            seed: 11,
            preempt: 0.4,
        },
        SchedulerKind::Fixed {
            script: vec![0, 1, 2, 0, 1, 2],
        },
    ];
    for kind in kinds {
        let run = |k: SchedulerKind| {
            let cfg = VmConfig {
                scheduler: k,
                ..VmConfig::default()
            };
            let r = Vm::new(&p, cfg).run(&mut []);
            (format!("{:?}", r.outcome), r.output, r.steps)
        };
        assert_eq!(run(kind.clone()), run(kind));
    }
}

/// The textual format round-trips: printing a program and re-parsing it
/// yields an identical program (checked by a second print reaching a
/// fixpoint), for every bugbase program.
#[test]
fn text_format_roundtrips_all_bugbase_programs() {
    use gist_ir::parser::parse_program;
    use gist_ir::printer::print_program;
    for bug in gist_bugbase::all_bugs() {
        let once = print_program(&bug.program);
        let reparsed = parse_program(&bug.program.name, &once)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}", bug.name));
        let twice = print_program(&reparsed);
        assert_eq!(once, twice, "{}: printer/parser fixpoint", bug.name);
        assert_eq!(
            bug.program.stmt_count(),
            reparsed.stmt_count(),
            "{}: statement count preserved",
            bug.name
        );
        // The reparsed program behaves identically.
        let run = |p: &gist_ir::Program| {
            let mut vm = Vm::new(p, bug.vm_config(3));
            let r = vm.run(&mut []);
            (format!("{:?}", r.outcome), r.output, r.steps)
        };
        assert_eq!(run(&bug.program), run(&reparsed), "{}", bug.name);
    }
}

/// One edit of a program's text. Positions are raw draws, reduced modulo
/// the text's current byte or line count when the edit is applied.
#[derive(Clone, Debug)]
enum TextEdit {
    DeleteByte(usize),
    DuplicateByte(usize),
    SwapBytes(usize, usize),
    /// Inserts arbitrary ASCII (control characters included).
    Splice(usize, Vec<u8>),
    DeleteLine(usize),
    DuplicateLine(usize, usize),
    SwapLines(usize, usize),
}

fn arb_text_edit() -> impl Strategy<Value = TextEdit> {
    let at = || 0usize..1 << 20;
    prop_oneof![
        at().prop_map(TextEdit::DeleteByte),
        at().prop_map(TextEdit::DuplicateByte),
        (at(), at()).prop_map(|(i, j)| TextEdit::SwapBytes(i, j)),
        (at(), proptest::collection::vec(0u8..128, 1..8))
            .prop_map(|(i, ascii)| TextEdit::Splice(i, ascii)),
        at().prop_map(TextEdit::DeleteLine),
        (at(), at()).prop_map(|(i, j)| TextEdit::DuplicateLine(i, j)),
        (at(), at()).prop_map(|(i, j)| TextEdit::SwapLines(i, j)),
    ]
}

fn apply_text_edits(text: &str, edits: &[TextEdit]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for edit in edits {
        let n = bytes.len().max(1);
        let mut lines: Vec<Vec<u8>> = bytes.split(|&c| c == b'\n').map(<[u8]>::to_vec).collect();
        let l = lines.len();
        match edit {
            TextEdit::DeleteByte(i) if !bytes.is_empty() => {
                bytes.remove(i % n);
            }
            TextEdit::DuplicateByte(i) if !bytes.is_empty() => {
                bytes.insert(i % n, bytes[i % n]);
            }
            TextEdit::SwapBytes(i, j) if !bytes.is_empty() => bytes.swap(i % n, j % n),
            TextEdit::Splice(i, ascii) => {
                let at = i % (bytes.len() + 1);
                bytes.splice(at..at, ascii.iter().copied());
            }
            TextEdit::DeleteLine(i) => {
                lines.remove(i % l);
                bytes = lines.join(&b'\n');
            }
            TextEdit::DuplicateLine(i, j) => {
                let line = lines[i % l].clone();
                lines.insert(j % (l + 1), line);
                bytes = lines.join(&b'\n');
            }
            TextEdit::SwapLines(i, j) => {
                lines.swap(i % l, j % l);
                bytes = lines.join(&b'\n');
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every bugbase program's printed text, the seed of the mutation tests.
fn bugbase_texts() -> &'static [String] {
    static TEXTS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    TEXTS.get_or_init(|| {
        gist_bugbase::all_bugs()
            .iter()
            .map(|bug| gist_ir::printer::print_program(&bug.program))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile IR text never panics the parser: every bugbase program's
    /// printed text, after a handful of byte and line edits, parses to a
    /// program or to a `ParseError`.
    #[test]
    fn parser_survives_mutated_bugbase_text(
        edits in proptest::collection::vec(arb_text_edit(), 1..6),
    ) {
        for text in bugbase_texts() {
            let mutated = apply_text_edits(text, &edits);
            let _ = gist_ir::parser::parse_program("mutated", &mutated);
        }
    }
}

proptest! {
    // 384 cases parse about 700 mutated programs and take about 13 s in a
    // debug build on 2 vCPUs.
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// The static analyses survive odd programs, and which pass builds a
    /// shared fact first changes nothing. On every mutated bugbase text
    /// that parses, both pass pipelines and the predicted sketches return,
    /// and the lint pipeline over one shared `AnalysisCtx` reports exactly
    /// the verifier's and each lint pass's findings, each run alone on a
    /// fresh context.
    #[test]
    fn analyses_survive_mutated_bugbase_text_and_share_facts(
        edits in proptest::collection::vec(arb_text_edit(), 1..6),
    ) {
        use gist_analysis::verify::VerifierPass;
        use gist_analysis::{
            default_passes, lint_passes, predicted_sketches, sort_diagnostics, AtomicityLintPass,
            NullFlowLintPass, OrderLintPass, Pass, PassManager, UafLintPass,
        };
        fn alone(pass: impl Pass + 'static, p: &gist_ir::Program) -> Vec<gist_analysis::Diagnostic> {
            PassManager::new().with_pass(pass).run(p)
        }
        for text in bugbase_texts() {
            let mutated = apply_text_edits(text, &edits);
            let Ok(p) = gist_ir::parser::parse_program("mutated", &mutated) else {
                continue;
            };
            default_passes().run(&p);
            predicted_sketches(&p);
            let mut separate = alone(VerifierPass, &p);
            separate.extend(alone(UafLintPass::default(), &p));
            separate.extend(alone(AtomicityLintPass::default(), &p));
            separate.extend(alone(NullFlowLintPass::default(), &p));
            separate.extend(alone(OrderLintPass::default(), &p));
            sort_diagnostics(&mut separate);
            prop_assert_eq!(lint_passes().run(&p), separate);
        }
    }
}

/// Dataflow consistency (the monotone framework's two flagship problems
/// agree): at every register *use site* in every bugbase program, the used
/// register is live-in there, and it either has a reaching definition at
/// that point or is a parameter of its function. Liveness flows backward
/// and reaching definitions forward over the same TICFG, so any path that
/// reads a register must have passed its (never-killed, SSA) def — a
/// mismatch would mean a transfer function or the worklist solver is
/// wrong.
///
/// The check anchors at use sites rather than raw live-in sets: the
/// may-TICFG conflates all spawn/join pairs of a routine, so a joined tid
/// can leak backward through the routine into an *earlier* spawn site
/// where its def genuinely does not reach. At the use itself both
/// solutions must agree.
#[test]
fn used_registers_are_live_with_reaching_defs_in_all_bugbase_programs() {
    use gist_analysis::{live_variables, reaching_definitions, PointsTo};
    use gist_ir::icfg::Icfg;
    for bug in gist_bugbase::all_bugs() {
        let p = &bug.program;
        let ticfg = Icfg::build_ticfg(p);
        let pts = PointsTo::compute(p, &ticfg);
        let live = live_variables(p, &ticfg);
        let reach = reaching_definitions(p, &ticfg, &pts);
        let mut use_sites = 0usize;
        for id in p.all_stmt_ids() {
            let Some(f) = p.stmt_func(id) else { continue };
            let uses: Vec<_> = match (p.instr(id), p.terminator(id)) {
                (Some(i), _) => i.op.uses(),
                (None, Some(t)) => t.uses(),
                _ => continue,
            };
            for v in uses.iter().filter_map(|u| u.as_var()) {
                use_sites += 1;
                assert!(
                    live.before(id).contains(&(f, v)),
                    "{}: {:?} used at {:?} but not live-in",
                    bug.name,
                    (f, v),
                    id
                );
                let is_param = p.function(f).params.contains(&v);
                let has_def = reach.before(id).iter().any(|&d| {
                    p.stmt_func(d) == Some(f) && p.instr(d).and_then(|i| i.op.def()) == Some(v)
                });
                assert!(
                    has_def || is_param,
                    "{}: {:?} used at {:?} with no reaching def",
                    bug.name,
                    (f, v),
                    id
                );
            }
        }
        assert!(use_sites > 0, "{}: no register uses visited", bug.name);
    }
}
