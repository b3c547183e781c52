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
//! The tracer owns its [`PtDriver`] ([`crate::PtTracer::driver_mut`]),
//! so reading the enable state on the per-event path is a plain field
//! access; the driver also counts control transitions so overhead models
//! can charge per-ioctl cost.

/// The simulated PT kernel driver's per-core enable state.
#[derive(Clone, Debug, Default)]
pub struct PtDriver {
    /// Enable state for cores without an explicit override.
    default_on: bool,
    /// Per-core overrides, indexed by core id (`None` = use the default).
    /// A dense vector, not a map: [`PtDriver::is_enabled`] runs once per
    /// VM event, and core ids are small integers.
    cores: Vec<Option<bool>>,
    /// Number of state-changing control operations ("ioctls issued").
    transitions: u64,
}

impl PtDriver {
    /// Creates a driver with tracing disabled on every core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a driver with tracing enabled on every core (full-trace
    /// mode, used for the Fig. 13 comparison).
    pub fn always_on() -> Self {
        let mut d = Self::new();
        d.set_default(true);
        d
    }

    /// Returns the driver to the state [`PtDriver::new`] builds: tracing
    /// off on every core and no transitions counted, keeping the override
    /// table's allocation.
    pub fn reset(&mut self) {
        self.default_on = false;
        self.cores.clear();
        self.transitions = 0;
    }

    /// Sets the default state for all cores (clears per-core overrides).
    pub fn set_default(&mut self, on: bool) {
        if self.default_on != on || self.cores.iter().any(Option::is_some) {
            self.transitions += 1;
        }
        self.default_on = on;
        self.cores.clear();
    }

    /// Enables tracing on one core (no-op if already on).
    pub fn trace_on(&mut self, core: u32) {
        if !self.is_enabled(core) {
            self.set_core(core, true);
        }
    }

    /// Disables tracing on one core (no-op if already off).
    pub fn trace_off(&mut self, core: u32) {
        if self.is_enabled(core) {
            self.set_core(core, false);
        }
    }

    fn set_core(&mut self, core: u32, on: bool) {
        let idx = core as usize;
        if self.cores.len() <= idx {
            self.cores.resize(idx + 1, None);
        }
        self.cores[idx] = Some(on);
        self.transitions += 1;
    }

    /// True if tracing is enabled on the core.
    #[inline]
    pub fn is_enabled(&self, core: u32) -> bool {
        self.cores
            .get(core as usize)
            .copied()
            .flatten()
            .unwrap_or(self.default_on)
    }

    /// Number of state-changing control operations so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_disabled_and_toggles_per_core() {
        let mut d = PtDriver::new();
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
        let mut d = PtDriver::new();
        d.trace_on(2);
        d.trace_on(2);
        d.trace_on(2);
        assert_eq!(d.transitions(), 1);
    }

    #[test]
    fn always_on_enables_every_core() {
        let d = PtDriver::always_on();
        assert!(d.is_enabled(0));
        assert!(d.is_enabled(7));
    }

    #[test]
    fn reset_restores_a_new_driver() {
        let mut d = PtDriver::always_on();
        d.trace_off(3);
        d.reset();
        assert!(!d.is_enabled(0) && !d.is_enabled(3));
        assert_eq!(d.transitions(), 0);
    }

    #[test]
    fn default_with_overrides() {
        let mut d = PtDriver::new();
        d.set_default(true);
        d.trace_off(1);
        assert!(d.is_enabled(0));
        assert!(!d.is_enabled(1));
        d.set_default(false);
        assert!(!d.is_enabled(1), "set_default clears overrides");
    }
}
