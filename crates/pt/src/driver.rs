//! The kernel-driver control interface.
//!
//! The paper's trace collection "is implemented via a Linux kernel module
//! ... Gist-instrumented programs use an ioctl interface that our driver
//! provides to turn tracing on/off" (§4). Intel PT is configured through
//! **per-logical-core** MSRs (`IA32_RTIT_CTL`), so the driver keeps
//! per-core enable state: one thread toggling tracing at its
//! instrumentation points does not disturb tracing on other cores — which
//! matters because Gist's start/stop points execute concurrently in
//! different threads.
//!
//! [`PtDriver`] is a cheaply cloneable handle; it also counts control
//! transitions so overhead models can charge per-ioctl cost.

use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Default)]
struct DriverState {
    /// Enable state for cores without an explicit override.
    default_on: bool,
    /// Per-core overrides, indexed by core id (`None` = use the default).
    /// A dense vector, not a map: [`PtDriver::is_enabled`] runs once per
    /// VM event, and core ids are small integers.
    cores: Vec<Option<bool>>,
    /// Number of state-changing control operations ("ioctls issued").
    transitions: u64,
}

impl DriverState {
    #[inline]
    fn core_state(&self, core: u32) -> bool {
        self.cores
            .get(core as usize)
            .copied()
            .flatten()
            .unwrap_or(self.default_on)
    }

    fn set_core(&mut self, core: u32, on: bool) {
        let idx = core as usize;
        if self.cores.len() <= idx {
            self.cores.resize(idx + 1, None);
        }
        self.cores[idx] = Some(on);
    }
}

/// A handle to the simulated PT kernel driver.
#[derive(Clone, Debug, Default)]
pub struct PtDriver {
    state: Rc<RefCell<DriverState>>,
}

impl PtDriver {
    /// Creates a driver with tracing disabled on every core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a driver with tracing enabled on every core (full-trace
    /// mode, used for the Fig. 13 comparison).
    pub fn always_on() -> Self {
        let d = Self::new();
        d.set_default(true);
        d
    }

    /// Sets the default state for all cores (clears per-core overrides).
    pub fn set_default(&self, on: bool) {
        let mut s = self.state.borrow_mut();
        if s.default_on != on || s.cores.iter().any(Option::is_some) {
            s.transitions += 1;
        }
        s.default_on = on;
        s.cores.clear();
    }

    /// Enables tracing on one core (no-op if already on).
    pub fn trace_on(&self, core: u32) {
        let mut s = self.state.borrow_mut();
        if !s.core_state(core) {
            s.set_core(core, true);
            s.transitions += 1;
        }
    }

    /// Disables tracing on one core (no-op if already off).
    pub fn trace_off(&self, core: u32) {
        let mut s = self.state.borrow_mut();
        if s.core_state(core) {
            s.set_core(core, false);
            s.transitions += 1;
        }
    }

    /// True if tracing is enabled on the core.
    #[inline]
    pub fn is_enabled(&self, core: u32) -> bool {
        self.state.borrow().core_state(core)
    }

    /// Number of state-changing control operations so far.
    pub fn transitions(&self) -> u64 {
        self.state.borrow().transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_disabled_and_toggles_per_core() {
        let d = PtDriver::new();
        assert!(!d.is_enabled(0));
        d.trace_on(0);
        assert!(d.is_enabled(0));
        assert!(!d.is_enabled(1), "other cores unaffected");
        d.trace_off(0);
        assert!(!d.is_enabled(0));
        assert_eq!(d.transitions(), 2);
    }

    #[test]
    fn redundant_toggles_do_not_count() {
        let d = PtDriver::new();
        d.trace_on(2);
        d.trace_on(2);
        d.trace_on(2);
        assert_eq!(d.transitions(), 1);
    }

    #[test]
    fn clones_share_state() {
        let d = PtDriver::new();
        let d2 = d.clone();
        d.trace_on(3);
        assert!(d2.is_enabled(3));
        d2.trace_off(3);
        assert!(!d.is_enabled(3));
    }

    #[test]
    fn always_on_enables_every_core() {
        let d = PtDriver::always_on();
        assert!(d.is_enabled(0));
        assert!(d.is_enabled(7));
    }

    #[test]
    fn default_with_overrides() {
        let d = PtDriver::new();
        d.set_default(true);
        d.trace_off(1);
        assert!(d.is_enabled(0));
        assert!(!d.is_enabled(1));
        d.set_default(false);
        assert!(!d.is_enabled(1), "set_default clears overrides");
    }
}
