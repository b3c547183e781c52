//! The evaluation harness: one function per table/figure of the paper's §5.
//!
//! Everything here is also reachable from the `repro` binary:
//!
//! ```text
//! cargo run -p gist-bench --bin repro --release -- all
//! cargo run -p gist-bench --bin repro --release -- table1
//! cargo run -p gist-bench --bin repro --release -- sketch pbzip2-1
//! ```
//!
//! Absolute numbers differ from the paper (our substrate is a simulator and
//! our programs are miniatures — see DESIGN.md's substitution table); the
//! *shape* of every result is asserted by the integration tests in
//! `tests/`.

pub mod ablations;
pub mod bench_report;
pub mod expectations;
pub mod experiments;
pub mod format;
pub mod races;
pub mod synth_report;
pub mod trace_tool;

/// `print!` for the command-line tools: exits with status 2 instead of
/// panicking when stdout cannot be written.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::format::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` counterpart of [`out!`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::format::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

pub use experiments::{
    fig10, fig11, fig12, fig13, overhead_sigma2, sketch_for, swtrace_rows, table1, Fig10Row,
    Fig11Row, Fig12Row, Fig13Row, OverheadRow,
};
