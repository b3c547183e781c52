//! Software control-flow tracing — the stand-in for the paper's PIN-based
//! Intel PT software simulator (§4, §6).
//!
//! Produces the same control-flow information as the PT hardware, but by
//! instrumentation executed *inline*: every retired statement pays the
//! injected-code tax and every conditional branch additionally pays for
//! packet emission in software. The events captured are identical to
//! hardware PT (the paper: "failure sketching is completely independent
//! from Intel PT; it can be entirely implemented using software
//! instrumentation, although ... overheads range from 3× to 5,000×").

use gist_ir::InstrId;
use gist_vm::{Event, Observer};

/// A software tracer: counts the work its instrumentation would perform
/// and collects the same branch outcomes as the hardware tracer.
#[derive(Debug, Default)]
pub struct SoftwareTracer {
    /// Statements instrumented (one callout each).
    pub instrumented_stmts: u64,
    /// Branches whose outcome was recorded in software.
    pub recorded_branches: u64,
    /// Indirect transfers recorded.
    pub recorded_indirects: u64,
    /// The captured branch log (proof the information matches hardware PT).
    pub branch_log: Vec<(u32, InstrId, bool)>,
}

impl SoftwareTracer {
    /// Creates an idle tracer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for SoftwareTracer {
    fn on_event(&mut self, ev: &Event) {
        match ev {
            Event::Retired { .. } => self.instrumented_stmts += 1,
            Event::Branch {
                tid, iid, taken, ..
            } => {
                self.recorded_branches += 1;
                self.branch_log.push((*tid, *iid, *taken));
            }
            Event::IndirectTransfer { .. } | Event::Return { .. } => {
                self.recorded_indirects += 1;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use gist_bugbase::bug_by_name;
    use gist_vm::Vm;

    #[test]
    fn captures_same_branches_as_hardware_pt() {
        use gist_pt::{decoder, PtConfig, PtDriver, PtTracer};
        let bug = bug_by_name("curl-965").unwrap();
        let cfg = bug.vm_config(1);
        let mut sw = SoftwareTracer::new();
        let mut hw = PtTracer::new(&bug.program, PtDriver::always_on(), PtConfig::default());
        let mut vm = Vm::new(&bug.program, cfg);
        vm.run(&mut [&mut sw, &mut hw]);
        hw.finish();
        let traces = hw.take_traces();
        let decoded = decoder::decode(hw.code_map(), &traces).unwrap();
        // Hardware-decoded branch outcomes equal software-captured ones,
        // modulo ordering across cores (compare per thread).
        let mut tids: Vec<u32> = sw.branch_log.iter().map(|&(t, _, _)| t).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let sw_seq: Vec<(InstrId, bool)> = sw
                .branch_log
                .iter()
                .filter(|&&(t, _, _)| t == tid)
                .map(|&(_, s, k)| (s, k))
                .collect();
            let hw_seq: Vec<(InstrId, bool)> = decoded
                .branches
                .iter()
                .filter(|&&(t, _, _)| t == tid)
                .map(|&(_, s, k)| (s, k))
                .collect();
            assert_eq!(sw_seq, hw_seq, "thread {tid}");
        }
    }

    #[test]
    fn software_overhead_is_orders_above_hardware() {
        let bug = bug_by_name("curl-965").unwrap();
        let cfg = bug.vm_config(1);
        let mut sw = SoftwareTracer::new();
        let mut vm = Vm::new(&bug.program, cfg);
        let r = vm.run(&mut [&mut sw]);
        let m = CostModel::default();
        let sw_pct = m.sw_trace_overhead_pct(sw.instrumented_stmts, sw.recorded_branches);
        // Hardware full tracing of the same run would cost well under 100%.
        assert!(sw_pct > 300.0, "{sw_pct}");
        assert_eq!(sw.instrumented_stmts, r.steps);
    }
}
