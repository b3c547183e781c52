//! Adaptive Slice Tracking (AsT, §3.2.1).
//!
//! AsT "initially enables runtime tracking for a small number of
//! statements (σ = 2 in our experiments) backward from the failure point"
//! — two, "because even a simple concurrency bug is likely to be caused by
//! two statements from different threads" — and "employs a multiplicative
//! increase strategy", doubling σ each iteration until the developer stops
//! it. The growth strategy is pluggable so the ablation bench can compare
//! multiplicative against linear growth.

use gist_ir::InstrId;
use gist_slicing::Slice;

/// The paper's initial tracked-slice size.
pub const DEFAULT_SIGMA: usize = 2;

/// How σ grows between AsT iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Growth {
    /// Double each iteration (the paper's strategy).
    Multiplicative,
    /// Add a fixed increment each iteration (ablation baseline).
    Linear(usize),
}

/// The AsT state machine for one failure's diagnosis.
#[derive(Clone, Debug)]
pub struct AstController {
    slice: Slice,
    sigma: usize,
    iteration: usize,
    growth: Growth,
}

impl AstController {
    /// Starts AsT over a slice with the default σ = 2 and doubling.
    pub fn new(slice: Slice) -> Self {
        Self::with_sigma(slice, DEFAULT_SIGMA, Growth::Multiplicative)
    }

    /// Starts AsT with an explicit initial σ and growth strategy
    /// (Fig. 12 sweeps the initial σ).
    pub fn with_sigma(slice: Slice, sigma: usize, growth: Growth) -> Self {
        AstController {
            slice,
            sigma: sigma.max(1),
            iteration: 0,
            growth,
        }
    }

    /// The slice being tracked.
    pub fn slice(&self) -> &Slice {
        &self.slice
    }

    /// Gives up the slice being tracked.
    pub(crate) fn into_slice(self) -> Slice {
        self.slice
    }

    /// Current σ.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Completed iterations.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// The slice portion tracked this iteration: the σ statements nearest
    /// the failure.
    pub fn tracked_portion(&self) -> &[InstrId] {
        self.slice.prefix(self.sigma)
    }

    /// True once σ covers the whole slice (growing further is pointless).
    pub fn saturated(&self) -> bool {
        self.sigma >= self.slice.len()
    }

    /// Advances to the next iteration, growing σ. Returns the new σ.
    pub fn advance(&mut self) -> usize {
        self.iteration += 1;
        self.sigma = match self.growth {
            Growth::Multiplicative => self.sigma.saturating_mul(2),
            Growth::Linear(step) => self.sigma.saturating_add(step.max(1)),
        };
        gist_obs::counter!("server.ast_advances").inc();
        gist_obs::histogram!("server.ast_sigma").record(self.sigma as u64);
        self.sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::parser::parse_program;
    use gist_slicing::StaticSlicer;

    fn slice() -> Slice {
        let p = parse_program(
            "t",
            r#"
fn main() {
entry:
  a = const 1
  b = add a, 1
  c = add b, 1
  d = add c, 1
  e = add d, 1
  assert e, "boom"
  ret
}
"#,
        )
        .unwrap();
        let crit = p.functions[0].blocks[0].instrs[5].id;
        StaticSlicer::new(&p).compute(crit)
    }

    #[test]
    fn starts_at_sigma_two_and_doubles() {
        let mut ast = AstController::new(slice());
        assert_eq!(ast.sigma(), 2);
        assert_eq!(ast.tracked_portion().len(), 2);
        assert_eq!(ast.advance(), 4);
        assert_eq!(ast.advance(), 8);
        assert_eq!(ast.iteration(), 2);
    }

    #[test]
    fn tracked_portion_starts_at_criterion() {
        let ast = AstController::new(slice());
        assert_eq!(ast.tracked_portion()[0], ast.slice().criterion);
    }

    #[test]
    fn saturates_when_sigma_covers_slice() {
        let s = slice();
        let n = s.len();
        let mut ast = AstController::new(s);
        let mut guard = 0;
        while !ast.saturated() {
            ast.advance();
            guard += 1;
            assert!(guard < 32);
        }
        assert!(ast.sigma() >= n);
        assert_eq!(ast.tracked_portion().len(), n);
    }

    #[test]
    fn linear_growth_for_ablation() {
        let mut ast = AstController::with_sigma(slice(), 2, Growth::Linear(2));
        assert_eq!(ast.advance(), 4);
        assert_eq!(ast.advance(), 6);
        assert_eq!(ast.advance(), 8);
    }

    #[test]
    fn sigma_zero_clamped_to_one() {
        let ast = AstController::with_sigma(slice(), 0, Growth::Multiplicative);
        assert_eq!(ast.sigma(), 1);
    }
}
