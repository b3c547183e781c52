//! The hardware side of Intel PT: turns the VM's architectural events into
//! packet streams, one [`TraceBuffer`] per core.
//!
//! Faithfulness notes:
//!
//! * Only **control flow** is captured: conditional branch outcomes become
//!   TNT bits (6 to a byte), indirect transfers become TIP packets. Data
//!   values never appear in the trace (paper §6: "Intel PT only traces
//!   control flow, and does not contain any data values").
//! * Traces are **per core** and only ordered within a core (§6). Threads
//!   time-sharing a core are demultiplexed by PIP context packets.
//! * **RET compression**: a `ret` whose matching call was traced in the
//!   same window produces no packet; the decoder pops its call stack. Rets
//!   that cross a window boundary need an explicit TIP.
//! * Tracing windows open/close via the tracer's [`PtDriver`] — emitting
//!   PSB/PIP/TIP.PGE on open and a flush + TIP.PGD on close, which is how
//!   Gist's instrumentation brackets slice statements (§3.2.2).

use gist_ir::{InstrId, Program};
use gist_vm::{Event, Observer};

use crate::buffer::TraceBuffer;
use crate::code_map::{CodeMap, Exit};
use crate::driver::PtDriver;
use crate::packet::{Packet, TNT_CAPACITY};

/// Tracer configuration.
#[derive(Clone, Debug)]
pub struct PtConfig {
    /// Number of core buffers.
    pub num_cores: u32,
    /// Capacity of each core buffer, in bytes.
    pub buffer_capacity: usize,
}

impl Default for PtConfig {
    fn default() -> Self {
        PtConfig {
            num_cores: 4,
            buffer_capacity: crate::buffer::DEFAULT_CAPACITY,
        }
    }
}

#[derive(Debug, Default)]
struct TidWindow {
    active: bool,
    /// Call depth since the window opened (for RET compression).
    depth: u64,
    /// Pending TNT bits, oldest first: the first `pending_len` entries.
    /// They are flushed when a short TNT packet's worth has gathered.
    pending: [bool; TNT_CAPACITY],
    pending_len: usize,
    /// Last statement retired in this window.
    last_ip: Option<InstrId>,
    /// Core this thread is pinned to (learned from events).
    core: u32,
}

/// The PT tracer. Attach as a VM [`Observer`]; control it through its
/// [`PtDriver`] ([`PtTracer::driver_mut`]).
#[derive(Debug)]
pub struct PtTracer {
    driver: PtDriver,
    buffers: Vec<TraceBuffer>,
    /// Which thread's packets a core's stream is currently attributed to.
    core_tid: Vec<Option<u32>>,
    /// Bytes emitted on each core since its last PSB (real PT emits PSB
    /// periodically — about every 4 KB — not at every trace window).
    since_psb: Vec<usize>,
    /// Per-thread trace windows, indexed by tid (dense: the scheduler
    /// numbers tids from 0, and `handle` runs once per VM event).
    windows: Vec<TidWindow>,
    /// Open trace windows per core, so that [`PtTracer::idle_core`] is
    /// O(1). Grown with the buffers.
    open: Vec<u32>,
    /// The configured core count (`PtConfig.num_cores`): the number of
    /// buffers a new or reset tracer has.
    cores: usize,
    /// Capacity for core buffers allocated after construction (the VM may
    /// schedule onto more cores than `PtConfig.num_cores` anticipated).
    buffer_capacity: usize,
    /// The program's code map (which statements are calls and rets).
    code: CodeMap,
    /// Total branch events observed while tracing was enabled.
    traced_branches: u64,
    /// Total statements retired while tracing was enabled.
    traced_retired: u64,
    /// Guards the one-shot metrics flush in [`PtTracer::finish`].
    metrics_flushed: bool,
}

impl PtTracer {
    /// Creates a tracer for `program`, starting from `driver`'s state.
    pub fn new(program: &Program, driver: PtDriver, config: PtConfig) -> Self {
        Self::with_code_map(CodeMap::new(program), driver, config)
    }

    /// Creates a tracer over a prebuilt [`CodeMap`] of the traced program,
    /// so a caller running many traced runs of one program maps it once.
    pub fn with_code_map(code: CodeMap, driver: PtDriver, config: PtConfig) -> Self {
        let n = config.num_cores.max(1) as usize;
        PtTracer {
            driver,
            buffers: (0..n)
                .map(|_| TraceBuffer::with_capacity(config.buffer_capacity))
                .collect(),
            core_tid: vec![None; n],
            since_psb: vec![usize::MAX; n],
            windows: Vec::new(),
            open: vec![0; n],
            cores: n,
            buffer_capacity: config.buffer_capacity,
            code,
            traced_branches: 0,
            traced_retired: 0,
            metrics_flushed: false,
        }
    }

    /// Returns the tracer to the state [`PtTracer::with_code_map`] builds
    /// over `code` with a new [`PtDriver`], keeping its allocations: each
    /// configured core's buffer is emptied in place, and the buffers of
    /// cores the last run added are dropped. Trace windows close
    /// unflushed, and the counters restart. The paper's driver allocates
    /// its buffers once (§4); a fleet executor resets its tracer between
    /// runs.
    pub fn reset(&mut self, code: CodeMap) {
        self.driver.reset();
        self.buffers.truncate(self.cores);
        self.buffers.iter_mut().for_each(TraceBuffer::clear);
        self.core_tid.truncate(self.cores);
        self.core_tid.fill(None);
        self.since_psb.truncate(self.cores);
        self.since_psb.fill(usize::MAX);
        self.windows.clear();
        self.open.truncate(self.cores);
        self.open.fill(0);
        self.code = code;
        self.traced_branches = 0;
        self.traced_retired = 0;
        self.metrics_flushed = false;
    }

    /// True if `tid` currently has an open trace window.
    #[inline]
    fn window_active(&self, tid: u32) -> bool {
        self.windows.get(tid as usize).is_some_and(|w| w.active)
    }

    /// True when [`PtTracer::handle`] would change nothing for an event of
    /// `tid` on `core`: tracing is off on the core, the thread has no open
    /// window to close, and the core already has a buffer. A caller may
    /// skip such events.
    #[inline]
    pub fn idle(&self, core: u32, tid: u32) -> bool {
        !self.driver.is_enabled(core)
            && !self.window_active(tid)
            && (core as usize) < self.buffers.len()
    }

    /// True when [`PtTracer::handle`] would change nothing for an event of
    /// any thread on `core`: tracing is off on the core, no window is open
    /// on it, and the core already has a buffer. A window is open on the
    /// core its thread's events come from, and the VM pins each thread to
    /// one core, so this implies [`PtTracer::idle`] for every thread the
    /// VM runs there.
    #[inline]
    pub fn idle_core(&self, core: u32) -> bool {
        !self.driver.is_enabled(core) && self.open.get(core as usize) == Some(&0)
    }

    /// The tracing control interface.
    pub fn driver(&self) -> &PtDriver {
        &self.driver
    }

    /// The tracing control interface, to turn tracing on and off between
    /// events.
    pub fn driver_mut(&mut self) -> &mut PtDriver {
        &mut self.driver
    }

    /// The code map of the traced program, which [`crate::decode`] walks.
    pub fn code_map(&self) -> &CodeMap {
        &self.code
    }

    /// Grows the per-core state when the VM schedules onto a core the
    /// tracer has not seen. Real PT allocates a buffer per logical core at
    /// driver load; here the VM's core count is its own config, so a
    /// mismatch must open a fresh stream rather than index out of bounds.
    fn ensure_core(&mut self, core: u32) {
        let idx = core as usize;
        if self.buffers.len() <= idx {
            let cap = self.buffer_capacity;
            self.buffers
                .resize_with(idx + 1, || TraceBuffer::with_capacity(cap));
            self.core_tid.resize(idx + 1, None);
            self.since_psb.resize(idx + 1, usize::MAX);
            self.open.resize(idx + 1, 0);
        }
    }

    /// The window slot for `tid`, growing the table on first sight.
    fn window_mut(&mut self, tid: u32) -> &mut TidWindow {
        let idx = tid as usize;
        if self.windows.len() <= idx {
            self.windows.resize_with(idx + 1, TidWindow::default);
        }
        &mut self.windows[idx]
    }

    /// The per-core trace buffers.
    pub fn buffers(&self) -> &[TraceBuffer] {
        &self.buffers
    }

    /// Takes the encoded bytes of every core's buffer.
    pub fn take_traces(&mut self) -> Vec<Vec<u8>> {
        self.buffers.iter_mut().map(TraceBuffer::take).collect()
    }

    /// Total encoded trace bytes across cores.
    pub fn total_bytes(&self) -> usize {
        self.buffers.iter().map(TraceBuffer::len).sum()
    }

    /// Branches observed while enabled.
    pub fn traced_branches(&self) -> u64 {
        self.traced_branches
    }

    /// Statements retired while enabled.
    pub fn traced_retired(&self) -> u64 {
        self.traced_retired
    }

    /// Trace compression ratio: bits per retired statement, the figure the
    /// paper quotes as "~0.5 bits per retired assembly instruction".
    pub fn bits_per_retired(&self) -> f64 {
        if self.traced_retired == 0 {
            return 0.0;
        }
        (self.total_bytes() as f64 * 8.0) / self.traced_retired as f64
    }

    /// Closes all open windows (call at end of run before decoding).
    pub fn finish(&mut self) {
        for tid in 0..self.windows.len() as u32 {
            self.close_window(tid);
        }
        // Metrics are flushed from buffer aggregates once per run, not per
        // packet, so the encode path carries no atomic traffic.
        if !self.metrics_flushed {
            self.metrics_flushed = true;
            gist_obs::counter!("pt.traced_retired").add(self.traced_retired);
            gist_obs::counter!("pt.bytes_encoded").add(self.total_bytes() as u64);
            for b in &self.buffers {
                gist_obs::counter!("pt.packets_encoded").add(b.offered() - b.dropped());
                gist_obs::counter!("pt.packets_dropped").add(b.dropped());
                if b.overflowed() {
                    gist_obs::counter!("pt.buffer_overflows").inc();
                }
            }
        }
    }

    /// Interval between PSB sync packets (real PT: every 4 KB of trace).
    const PSB_INTERVAL: usize = 4096;

    /// Emits the periodic PSB on core `c` when one is due, then charges
    /// `len` bytes of the next packet to the PSB interval.
    fn sync(&mut self, c: usize, len: usize) {
        if self.since_psb[c] >= Self::PSB_INTERVAL {
            self.buffers[c].push(&Packet::Psb);
            self.since_psb[c] = 0;
        }
        self.since_psb[c] += len;
    }

    fn push(&mut self, core: u32, p: Packet) {
        let c = core as usize;
        self.sync(c, p.encoded_len());
        self.buffers[c].push(&p);
    }

    /// Encodes `tid`'s pending TNT bits, if any, as one short TNT packet
    /// on `core`'s stream.
    fn emit_pending(&mut self, core: u32, tid: u32) {
        let Some(w) = self.windows.get_mut(tid as usize) else {
            return;
        };
        let n = std::mem::take(&mut w.pending_len);
        if n == 0 {
            return;
        }
        let bits = w.pending;
        let c = core as usize;
        // A short TNT packet encodes to one byte.
        self.sync(c, 1);
        self.buffers[c].push_tnt(&bits[..n]);
    }

    fn flush_tnt(&mut self, tid: u32) {
        let w = &self.windows[tid as usize];
        if w.pending_len == 0 {
            return;
        }
        let core = w.core;
        self.switch_core_to(core, tid);
        self.emit_pending(core, tid);
    }

    /// Makes `core`'s stream attribute packets to `tid`, flushing any other
    /// thread's pending bits first and emitting a PIP if switching.
    fn switch_core_to(&mut self, core: u32, tid: u32) {
        if self.core_tid[core as usize] == Some(tid) {
            return;
        }
        if let Some(old) = self.core_tid[core as usize] {
            // Flush the outgoing thread's bits while still attributed.
            self.emit_pending(core, old);
        }
        self.core_tid[core as usize] = Some(tid);
        self.push(core, Packet::Pip { tid });
    }

    /// Ensures `tid` has an open window; opens one starting at `ip` if not.
    fn ensure_window(&mut self, tid: u32, core: u32, ip: InstrId) {
        let (active, was_on) = {
            let w = self.window_mut(tid);
            (w.active, std::mem::replace(&mut w.core, core))
        };
        if active && was_on != core {
            // A thread that changed cores takes its open window along.
            self.open[was_on as usize] -= 1;
            self.open[core as usize] += 1;
        }
        if !active {
            self.open[core as usize] += 1;
            self.core_tid[core as usize] = None; // force a PIP
            self.switch_core_to(core, tid);
            self.push(core, Packet::Pge { ip });
            let w = &mut self.windows[tid as usize];
            w.active = true;
            w.depth = 0;
            w.pending_len = 0;
            w.last_ip = Some(ip);
        } else {
            self.switch_core_to(core, tid);
        }
    }

    fn close_window(&mut self, tid: u32) {
        let (core, last_ip, active) = {
            let w = &self.windows[tid as usize];
            (w.core, w.last_ip, w.active)
        };
        if !active {
            return;
        }
        self.flush_tnt(tid);
        self.switch_core_to(core, tid);
        if let Some(ip) = last_ip {
            self.push(core, Packet::Pgd { ip });
        }
        self.open[core as usize] -= 1;
        let w = &mut self.windows[tid as usize];
        w.active = false;
        w.depth = 0;
    }

    /// Processes one VM event (also available via the [`Observer`] impl).
    pub fn handle(&mut self, ev: &Event) {
        let tid = ev.tid();
        self.ensure_core(ev.core());
        let enabled = self.driver.is_enabled(ev.core());
        if !enabled {
            // The first event a thread produces on a disabled core closes
            // its window: the flow from here on is untraced, and the
            // window must not silently resume later with a gap.
            if self.window_active(tid) {
                self.close_window(tid);
            }
            return;
        }
        match ev {
            Event::Retired { tid, core, iid, .. } => {
                // Never *open* a window at a `ret` or an indirect call: the
                // flow has already left the statement, and the decoder
                // would need a TIP that was decided before the window
                // existed. (A callee-entry start point enables tracing at
                // the `Enter` event, between the call's transfer and its
                // retirement.) The next statement, at the caller's resume
                // point or the callee's entry, opens the window instead.
                let exit = self.code.exit(*iid);
                if !self.window_active(*tid)
                    && matches!(exit, Exit::Ret | Exit::IndirectCall { .. })
                {
                    return;
                }
                self.ensure_window(*tid, *core, *iid);
                self.traced_retired += 1;
                let w = &mut self.windows[*tid as usize];
                w.last_ip = Some(*iid);
                if matches!(exit, Exit::Call { .. } | Exit::IndirectCall { .. }) {
                    w.depth += 1;
                }
            }
            Event::Branch {
                tid,
                core,
                iid,
                taken,
                ..
            } => {
                self.ensure_window(*tid, *core, *iid);
                self.traced_branches += 1;
                let flush = {
                    let w = &mut self.windows[*tid as usize];
                    w.pending[w.pending_len] = *taken;
                    w.pending_len += 1;
                    w.pending_len == TNT_CAPACITY
                };
                if flush {
                    self.flush_tnt(*tid);
                }
            }
            Event::IndirectTransfer {
                tid,
                core,
                iid,
                target,
                ..
            } => {
                self.ensure_window(*tid, *core, *iid);
                self.flush_tnt(*tid);
                self.switch_core_to(*core, *tid);
                self.push(*core, Packet::Tip { ip: *target });
            }
            Event::Return {
                tid, core, iid, to, ..
            } => {
                // A return with no open window needs no packet (nothing was
                // being decoded); the resume point re-opens tracing.
                if !self.window_active(*tid) {
                    return;
                }
                self.ensure_window(*tid, *core, *iid);
                let compressed = {
                    let w = &mut self.windows[*tid as usize];
                    if w.depth > 0 {
                        w.depth -= 1;
                        true
                    } else {
                        false
                    }
                };
                if !compressed {
                    if let Some(t) = to {
                        self.flush_tnt(*tid);
                        self.switch_core_to(*core, *tid);
                        self.push(*core, Packet::Tip { ip: *t });
                    }
                    // Outermost return (`to == None`): no packet here; the
                    // ThreadExit event (which follows the ret's Retired
                    // event) closes the window at the ret statement.
                }
            }
            Event::ThreadExit { tid, .. } => {
                if self.window_active(*tid) {
                    self.close_window(*tid);
                }
            }
            Event::Failure { tid, iid, .. } => {
                if self.window_active(*tid) {
                    self.flush_tnt(*tid);
                    let core = self.windows[*tid as usize].core;
                    self.switch_core_to(core, *tid);
                    self.push(core, Packet::Fup { ip: *iid });
                    self.open[core as usize] -= 1;
                    let w = &mut self.windows[*tid as usize];
                    w.active = false;
                }
            }
            // PT carries no data; thread management needs no packets
            // (children open their own windows at their first event).
            Event::Mem { .. }
            | Event::PreAccess { .. }
            | Event::Enter { .. }
            | Event::Spawn { .. } => {}
        }
    }
}

impl Observer for PtTracer {
    fn on_event(&mut self, ev: &Event) {
        self.handle(ev);
    }
}

/// A tracer that turns tracing on for every core when statement `at`
/// retires, before it sees that statement's event (tests).
#[cfg(test)]
pub(crate) struct EnableAt {
    pub(crate) tracer: PtTracer,
    pub(crate) at: InstrId,
}

#[cfg(test)]
impl Observer for EnableAt {
    fn on_event(&mut self, ev: &Event) {
        if matches!(ev, Event::Retired { iid, .. } if *iid == self.at) {
            self.tracer.driver_mut().set_default(true);
        }
        self.tracer.handle(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_ir::parser::parse_program;
    use gist_vm::{Vm, VmConfig};

    const LOOP: &str = r#"
fn main() {
entry:
  n = const 10
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

    #[test]
    fn full_trace_contains_tnt_bits() {
        let p = parse_program("loop", LOOP).unwrap();
        let driver = PtDriver::always_on();
        let mut tracer = PtTracer::new(&p, driver, PtConfig::default());
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.run(&mut [&mut tracer]);
        tracer.finish();
        assert_eq!(tracer.traced_branches(), 11, "10 taken + 1 not-taken");
        let pkts = Packet::decode_all(tracer.buffers()[0].as_bytes()).unwrap();
        let tnt_bits: usize = pkts
            .iter()
            .filter_map(|p| match p {
                Packet::Tnt { bits } => Some(bits.len()),
                _ => None,
            })
            .sum();
        assert_eq!(tnt_bits, 11);
        assert!(matches!(pkts[0], Packet::Psb));
        assert!(pkts.iter().any(|p| matches!(p, Packet::Pge { .. })));
        assert!(pkts.iter().any(|p| matches!(p, Packet::Pgd { .. })));
    }

    /// Turns tracing on at `func`'s `Enter` event, after the tracer has
    /// seen it, as a callee-entry start point of the tracking runtime does.
    struct EnableOnEnter {
        tracer: PtTracer,
        func: gist_ir::FuncId,
    }

    impl Observer for EnableOnEnter {
        fn on_event(&mut self, ev: &Event) {
            self.tracer.handle(ev);
            if matches!(ev, Event::Enter { func, .. } if *func == self.func) {
                self.tracer.driver_mut().set_default(true);
            }
        }
    }

    #[test]
    fn tracing_enabled_at_an_indirect_callee_entry_opens_there() {
        // The indirect call's TIP goes by while tracing is off; its
        // retirement follows the callee's `Enter`, when tracing is on. A
        // window opened at the call would need that TIP to decode.
        let p = parse_program(
            "icall",
            r#"
fn inc(x) {
entry:
  y = add x, 1
  ret y
}
fn main() {
entry:
  f = funcaddr inc
  r = icall f(1)
  print r
  ret
}
"#,
        )
        .unwrap();
        let inc = p.function_by_name("inc").unwrap();
        let main = p.function_by_name("main").unwrap();
        let mut obs = EnableOnEnter {
            tracer: PtTracer::new(&p, PtDriver::new(), PtConfig::default()),
            func: inc.id,
        };
        Vm::new(&p, VmConfig::default()).run(&mut [&mut obs]);
        obs.tracer.finish();
        let traces = obs.tracer.take_traces();
        let decoded = crate::decode(obs.tracer.code_map(), &traces).expect("decodes");
        let want: Vec<(u32, InstrId)> = inc
            .stmt_ids()
            .chain(main.stmt_ids().skip(2))
            .map(|s| (0, s))
            .collect();
        assert_eq!(decoded.per_core[0], want);
    }

    #[test]
    fn disabled_driver_produces_no_packets() {
        let p = parse_program("loop", LOOP).unwrap();
        let driver = PtDriver::new();
        let mut tracer = PtTracer::new(&p, driver, PtConfig::default());
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.run(&mut [&mut tracer]);
        tracer.finish();
        assert_eq!(tracer.total_bytes(), 0);
        assert_eq!(tracer.traced_retired(), 0);
    }

    #[test]
    fn compression_is_well_under_a_byte_per_statement() {
        // A long loop amortizes window-open costs: the per-statement cost
        // must approach the TNT regime (a few tenths of a bit in real PT;
        // our statement granularity is coarser but still far below 8).
        let text = r#"
fn main() {
entry:
  n = const 5000
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
        let p = parse_program("bigloop", text).unwrap();
        let mut tracer = PtTracer::new(&p, PtDriver::always_on(), PtConfig::default());
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.run(&mut [&mut tracer]);
        tracer.finish();
        let bpr = tracer.bits_per_retired();
        assert!(bpr > 0.0 && bpr < 1.0, "bits/retired = {bpr}");
    }

    #[test]
    fn ret_compression_skips_traced_calls() {
        let text = r#"
fn leaf(x) {
entry:
  y = add x, 1
  ret y
}
fn main() {
entry:
  a = call leaf(1)
  b = call leaf(2)
  ret
}
"#;
        let p = parse_program("calls", text).unwrap();
        let mut tracer = PtTracer::new(&p, PtDriver::always_on(), PtConfig::default());
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.run(&mut [&mut tracer]);
        tracer.finish();
        let pkts = Packet::decode_all(tracer.buffers()[0].as_bytes()).unwrap();
        // Both leaf returns are compressed: the only non-window packets
        // are for main's outermost ret (window close), so no TIP at all.
        let tips = pkts
            .iter()
            .filter(|p| matches!(p, Packet::Tip { .. }))
            .count();
        assert_eq!(tips, 0, "packets: {pkts:?}");
    }

    #[test]
    fn uncompressed_ret_emits_tip() {
        // Enable tracing only *inside* leaf (simulated by enabling after
        // the call was retired): leaf's ret then crosses the window start.
        let text = r#"
fn leaf(x) {
entry:
  y = add x, 1
  ret y
}
fn main() {
entry:
  a = call leaf(1)
  b = add a, 1
  ret
}
"#;
        let p = parse_program("calls", text).unwrap();
        let leaf = p.function_by_name("leaf").unwrap();
        let add_iid = leaf.blocks[0].instrs[0].id;
        let mut enabler = EnableAt {
            tracer: PtTracer::new(&p, PtDriver::new(), PtConfig::default()),
            at: add_iid,
        };
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.run(&mut [&mut enabler]);
        let tracer = &mut enabler.tracer;
        tracer.finish();
        let pkts = Packet::decode_all(tracer.buffers()[0].as_bytes()).unwrap();
        assert!(
            pkts.iter().any(|p| matches!(p, Packet::Tip { .. })),
            "ret crossing window start needs a TIP: {pkts:?}"
        );
    }

    #[test]
    fn multithreaded_trace_has_pip_context_switches() {
        let text = r#"
global x = 0
fn worker(arg) {
entry:
  i = const 0
  br head
head:
  c = cmp lt i, 5
  condbr c, body, exit
body:
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
"#;
        let p = parse_program("mt", text).unwrap();
        let mut tracer = PtTracer::new(
            &p,
            PtDriver::always_on(),
            PtConfig {
                num_cores: 1,
                buffer_capacity: crate::buffer::DEFAULT_CAPACITY,
            },
        );
        let mut vm = Vm::new(
            &p,
            VmConfig {
                num_cores: 1,
                ..VmConfig::default()
            },
        );
        vm.run(&mut [&mut tracer]);
        tracer.finish();
        let pkts = Packet::decode_all(tracer.buffers()[0].as_bytes()).unwrap();
        let pips: Vec<u32> = pkts
            .iter()
            .filter_map(|p| match p {
                Packet::Pip { tid } => Some(*tid),
                _ => None,
            })
            .collect();
        // All three threads shared core 0.
        assert!(pips.contains(&0) && pips.contains(&1) && pips.contains(&2));
        // Round-robin quantum 1 forces many context switches.
        assert!(pips.len() > 6, "pips: {pips:?}");
    }

    #[test]
    fn tracer_grows_when_vm_schedules_onto_unconfigured_cores() {
        // Regression: a tracer sized for one core panicked with an
        // out-of-bounds index when the VM (4 cores by default) placed a
        // spawned thread on core 1+. The tracer must open fresh streams
        // for cores it did not anticipate.
        let text = r#"
fn worker(arg) {
entry:
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
"#;
        let p = parse_program("grow", text).unwrap();
        let mut tracer = PtTracer::new(
            &p,
            PtDriver::always_on(),
            PtConfig {
                num_cores: 1,
                buffer_capacity: crate::buffer::DEFAULT_CAPACITY,
            },
        );
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.run(&mut [&mut tracer]);
        tracer.finish();
        assert!(
            tracer.buffers().len() > 1,
            "spawned threads never left core 0"
        );
        for b in tracer.buffers() {
            Packet::decode_all(b.as_bytes()).expect("every grown stream decodes");
        }
    }

    #[test]
    fn crash_window_ends_with_fup() {
        let text = "fn main() {\nentry:\n  x = load 0\n  ret\n}\n";
        let p = parse_program("crash", text).unwrap();
        let mut tracer = PtTracer::new(&p, PtDriver::always_on(), PtConfig::default());
        let mut vm = Vm::new(&p, VmConfig::default());
        vm.run(&mut [&mut tracer]);
        tracer.finish();
        let pkts = Packet::decode_all(tracer.buffers()[0].as_bytes()).unwrap();
        assert!(
            pkts.iter().any(|p| matches!(p, Packet::Fup { .. })),
            "{pkts:?}"
        );
    }
}
