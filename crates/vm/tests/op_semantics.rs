//! The compiled VM's operator semantics, pinned by table: every `BinKind`
//! (wrapping at `i64::MIN` and `i64::MAX`, `i64::MIN / -1`, `div` and
//! `rem` by zero failing with `DivByZero`, shift counts masked to 63,
//! arithmetic `shr`), every `CmpKind`, and `strlen`, `memset` and
//! `memcpy` at lengths 0 and 1.
//!
//! Operands arrive as run inputs, so no operation can be folded before
//! the engine executes it.

use std::cmp::Ordering::{self, Equal, Greater, Less};

use gist_ir::parser::parse_program;
use gist_vm::{FailureKind, Input, RunOutcome, Vm, VmConfig};

const MIN: i64 = i64::MIN;
const MAX: i64 = i64::MAX;

/// Runs `body` (statements of `main`'s single block, before `ret`) with
/// scalar inputs, returning the printed values or the failure kind.
fn run(body: &str, inputs: Vec<Input>) -> Result<Vec<i64>, FailureKind> {
    let text = format!("fn main() {{\nentry:\n{body}\n  ret\n}}\n");
    let program = parse_program("ops", &text).unwrap_or_else(|e| panic!("{e:?}\n{text}"));
    let config = VmConfig {
        inputs,
        ..VmConfig::default()
    };
    let result = Vm::new(&program, config).run(&mut []);
    match result.outcome {
        RunOutcome::Finished => Ok(result.output),
        RunOutcome::Failed(report) => Err(report.kind),
    }
}

/// `op a, b` over scalar inputs.
fn eval(op: &str, a: i64, b: i64) -> Result<i64, FailureKind> {
    let body = format!("  a = input 0\n  b = input 1\n  r = {op} a, b\n  print r");
    run(&body, vec![Input::Scalar(a), Input::Scalar(b)]).map(|out| out[0])
}

#[test]
fn every_binary_op_matches_its_table() {
    let div0 = Err(FailureKind::DivByZero);
    let table: &[(&str, i64, i64, Result<i64, FailureKind>)] = &[
        ("add", 2, 3, Ok(5)),
        ("add", -5, 3, Ok(-2)),
        ("add", MAX, 1, Ok(MIN)),
        ("add", MIN, -1, Ok(MAX)),
        ("sub", 5, 7, Ok(-2)),
        ("sub", MIN, 1, Ok(MAX)),
        ("sub", MAX, -1, Ok(MIN)),
        ("sub", 0, MIN, Ok(MIN)),
        ("mul", 6, -7, Ok(-42)),
        ("mul", MAX, 2, Ok(-2)),
        ("mul", MIN, -1, Ok(MIN)),
        ("div", 7, 2, Ok(3)),
        ("div", -7, 2, Ok(-3)),
        ("div", 7, -2, Ok(-3)),
        ("div", MIN, -1, Ok(MIN)),
        ("div", 1, 0, div0.clone()),
        ("div", 0, 0, div0.clone()),
        ("rem", 7, 3, Ok(1)),
        ("rem", -7, 3, Ok(-1)),
        ("rem", 7, -3, Ok(1)),
        ("rem", MIN, -1, Ok(0)),
        ("rem", 1, 0, div0.clone()),
        ("rem", MIN, 0, div0),
        ("and", 0b1100, 0b1010, Ok(0b1000)),
        ("and", -1, 5, Ok(5)),
        ("and", MIN, MAX, Ok(0)),
        ("or", 0b1100, 0b1010, Ok(0b1110)),
        ("or", MIN, MAX, Ok(-1)),
        ("or", 0, 0, Ok(0)),
        ("xor", 0b1100, 0b1010, Ok(0b0110)),
        ("xor", -1, MAX, Ok(MIN)),
        ("xor", 5, 5, Ok(0)),
        ("shl", 3, 1, Ok(6)),
        ("shl", 1, 0, Ok(1)),
        ("shl", 1, 63, Ok(MIN)),
        ("shl", 1, 64, Ok(1)),
        ("shl", 1, -1, Ok(MIN)),
        ("shl", -1, 63, Ok(MIN)),
        ("shr", 16, 2, Ok(4)),
        ("shr", -8, 1, Ok(-4)),
        ("shr", -1, 5, Ok(-1)),
        ("shr", 5, 0, Ok(5)),
        ("shr", MIN, 63, Ok(-1)),
        ("shr", MAX, 63, Ok(0)),
        ("shr", 16, 64, Ok(16)),
        ("shr", MIN, -1, Ok(-1)),
    ];
    for (op, a, b, want) in table {
        assert_eq!(eval(op, *a, *b), *want, "{op} {a}, {b}");
    }
}

#[test]
fn every_comparison_matches_its_table() {
    // Each kind holds for the listed signed orderings of `a` against `b`.
    let table: &[(&str, &[Ordering])] = &[
        ("eq", &[Equal]),
        ("ne", &[Less, Greater]),
        ("lt", &[Less]),
        ("le", &[Less, Equal]),
        ("gt", &[Greater]),
        ("ge", &[Equal, Greater]),
    ];
    let pairs = [(1, 2), (2, 2), (3, 2), (MIN, MAX), (MAX, MIN), (-1, 0)];
    for (kind, holds) in table {
        for (a, b) in pairs {
            let want = i64::from(holds.contains(&a.cmp(&b)));
            assert_eq!(
                eval(&format!("cmp {kind}"), a, b),
                Ok(want),
                "cmp {kind} {a}, {b}"
            );
        }
    }
}

#[test]
fn strlen_counts_cells_before_the_terminator() {
    for (text, want) in [("", 0), ("a", 1)] {
        let got = run(
            "  s = input 0\n  n = strlen s\n  print n",
            vec![Input::str_from(text)],
        );
        assert_eq!(got, Ok(vec![want]), "strlen {text:?}");
    }
}

#[test]
fn memset_fills_exactly_n_cells() {
    // Two cells holding 5 and 6; `memset p, 9, n` for n = 0 and 1.
    let body = "  n = input 0\n  p = alloc 2\n  q = gep p, 1\n  store p, 5\n  store q, 6\n  \
                memset p, 9, n\n  x = load p\n  y = load q\n  print x\n  print y";
    for (n, want) in [(0, vec![5, 6]), (1, vec![9, 6])] {
        assert_eq!(run(body, vec![Input::Scalar(n)]), Ok(want), "memset n={n}");
    }
}

#[test]
fn memcpy_copies_exactly_n_cells() {
    // Source cells 7, 8 into destination cells 1, 2; n = 0 and 1.
    let body = "  n = input 0\n  s = alloc 2\n  s1 = gep s, 1\n  store s, 7\n  store s1, 8\n  \
                d = alloc 2\n  d1 = gep d, 1\n  store d, 1\n  store d1, 2\n  memcpy d, s, n\n  \
                x = load d\n  y = load d1\n  print x\n  print y";
    for (n, want) in [(0, vec![1, 2]), (1, vec![7, 2])] {
        assert_eq!(run(body, vec![Input::Scalar(n)]), Ok(want), "memcpy n={n}");
    }
}
