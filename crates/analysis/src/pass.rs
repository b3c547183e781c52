//! A small pass framework for static analyses, and the context that owns a
//! program's whole-program facts.
//!
//! An [`AnalysisCtx`] builds each fact — the TICFG, points-to, locksets,
//! shared origins, race candidates, MHP, constants and the SVFG — on first
//! use and at most once, so every pass, lint and client reading from one
//! context shares a single copy. The [`PassManager`] runs a list of passes
//! over one context and collects their diagnostics into one sorted report,
//! mirroring how the paper's prototype chains LLVM analysis passes on the
//! Gist server before computing instrumentation plans.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use gist_ir::icfg::{Icfg, Ticfg};
use gist_ir::{InstrId, Program};

use crate::dataflow::ConstProp;
use crate::diag::{sort_diagnostics, Diagnostic};
use crate::mhp::Mhp;
use crate::points_to::{MemOrigin, PointsTo};
use crate::race::{self, Lockset, RaceAnalysis};
use crate::svfg::Svfg;

/// The whole-program facts of one program, each built on first use.
pub struct AnalysisCtx<'p> {
    /// The program under analysis.
    pub program: &'p Program,
    /// A TICFG the caller already built, used instead of building one.
    given_ticfg: Option<&'p Ticfg>,
    ticfg: OnceLock<Ticfg>,
    points_to: OnceLock<PointsTo>,
    locksets: OnceLock<BTreeMap<InstrId, Lockset>>,
    shared_origins: OnceLock<BTreeSet<MemOrigin>>,
    races: OnceLock<RaceAnalysis>,
    mhp: OnceLock<Mhp>,
    consts: OnceLock<ConstProp>,
    svfg: OnceLock<Svfg>,
}

impl<'p> AnalysisCtx<'p> {
    /// Creates a context for `program`. Nothing is computed up front.
    pub fn new(program: &'p Program) -> Self {
        AnalysisCtx {
            program,
            given_ticfg: None,
            ticfg: OnceLock::new(),
            points_to: OnceLock::new(),
            locksets: OnceLock::new(),
            shared_origins: OnceLock::new(),
            races: OnceLock::new(),
            mhp: OnceLock::new(),
            consts: OnceLock::new(),
            svfg: OnceLock::new(),
        }
    }

    /// A context that reads `ticfg` instead of building its own.
    pub(crate) fn with_ticfg(program: &'p Program, ticfg: &'p Ticfg) -> Self {
        AnalysisCtx {
            given_ticfg: Some(ticfg),
            ..AnalysisCtx::new(program)
        }
    }

    /// The thread-interprocedural CFG.
    pub fn ticfg(&self) -> &Ticfg {
        match self.given_ticfg {
            Some(ticfg) => ticfg,
            None => self.ticfg.get_or_init(|| Icfg::build_ticfg(self.program)),
        }
    }

    /// The Andersen-style points-to result.
    pub fn points_to(&self) -> &PointsTo {
        self.points_to
            .get_or_init(|| PointsTo::compute(self.program, self.ticfg()))
    }

    /// The locks certainly held before each statement. Pre-spawn
    /// suppression does not touch locksets, so one map serves the race
    /// detector, MHP, the deadlock detector and the atomicity lint.
    pub(crate) fn locksets(&self) -> &BTreeMap<InstrId, Lockset> {
        self.locksets.get_or_init(|| race::locksets(self))
    }

    /// Memory origins accessible from more than one thread context (or
    /// from a multiply-spawned one): the cells where cross-thread aliasing
    /// matters. Single-threaded programs have none.
    ///
    /// This is not the race detector's internal shared set: pre-spawn
    /// suppression is deliberately *not* applied, because initialization
    /// writes to a cell that later escapes still belong in a slice.
    pub fn shared_origins(&self) -> &BTreeSet<MemOrigin> {
        self.shared_origins
            .get_or_init(|| race::shared_origins(self))
    }

    /// The ranked race candidates.
    pub fn races(&self) -> &RaceAnalysis {
        self.races.get_or_init(|| race::candidates(self))
    }

    /// The may-happen-in-parallel relation.
    pub fn mhp(&self) -> &Mhp {
        self.mhp.get_or_init(|| Mhp::build(self))
    }

    /// Sparse constant propagation.
    pub fn consts(&self) -> &ConstProp {
        self.consts
            .get_or_init(|| ConstProp::compute(self.program, self.ticfg()))
    }

    /// The sparse value-flow graph.
    pub fn svfg(&self) -> &Svfg {
        self.svfg.get_or_init(|| Svfg::build(self))
    }
}

/// One static analysis that reports diagnostics.
pub trait Pass {
    /// Short name used in reports and debugging.
    fn name(&self) -> &'static str;
    /// Runs the pass, returning its findings.
    fn run(&self, cx: &AnalysisCtx<'_>) -> Vec<Diagnostic>;
}

/// Runs a sequence of passes over one shared context.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// Creates an empty pass manager.
    pub fn new() -> Self {
        PassManager::default()
    }

    /// Appends a pass (builder style).
    pub fn with_pass(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Names of the registered passes, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs all passes over `program` and returns the sorted diagnostics.
    pub fn run(&self, program: &Program) -> Vec<Diagnostic> {
        let cx = AnalysisCtx::new(program);
        let mut diags = Vec::new();
        for pass in &self.passes {
            diags.extend(pass.run(&cx));
        }
        sort_diagnostics(&mut diags);
        diags
    }
}

/// The default pipeline: the IR verifier followed by the dataflow lints
/// (race, lock-order deadlock, dead store).
pub fn default_passes() -> PassManager {
    PassManager::new()
        .with_pass(crate::verify::VerifierPass)
        .with_pass(crate::race::RaceLintPass::default())
        .with_pass(crate::deadlock::DeadlockLintPass::default())
        .with_pass(crate::dataflow::DeadStoreLintPass::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::builder::ProgramBuilder;

    fn tiny_program() -> Program {
        let mut pb = ProgramBuilder::new("tiny");
        let mut f = pb.function("main", &[]);
        f.ret(None);
        f.finish();
        pb.finish().unwrap()
    }

    #[test]
    fn default_pipeline_accepts_a_trivial_program() {
        let p = tiny_program();
        let pm = default_passes();
        assert_eq!(
            pm.pass_names(),
            vec!["verify", "race-lint", "deadlock-lint", "dead-store-lint"]
        );
        assert!(pm.run(&p).is_empty());
    }

    #[test]
    fn ticfg_is_built_lazily_and_cached() {
        let p = tiny_program();
        let cx = AnalysisCtx::new(&p);
        assert!(cx.ticfg.get().is_none() && cx.points_to.get().is_none());
        let ticfg: *const Ticfg = cx.ticfg();
        // Later calls, direct or through a dependent fact, reuse the graph.
        cx.points_to();
        assert!(std::ptr::eq(ticfg, cx.ticfg()));
        assert!(cx.svfg.get().is_none(), "nothing asked for the SVFG");
    }
}
