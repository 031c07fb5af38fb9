//! Zero-cost-when-disabled counters and gauges.
//!
//! Both types expose the same API in both feature states. Enabled they
//! are relaxed [`core::sync::atomic::AtomicU64`]s — the kernel is shared
//! across `diagnose_batch_lanes` worker threads, so interior mutability
//! must be `Sync`; relaxed ordering suffices because counts are only
//! ever read via whole-registry snapshots, never used for
//! synchronization.
//! Disabled they are zero-sized unit structs whose methods are empty
//! inline bodies, which the optimizer erases entirely.

#[cfg(feature = "enabled")]
use core::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
#[derive(Debug)]
pub struct Counter {
    #[cfg(feature = "enabled")]
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero (usable in `static` items).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            #[cfg(feature = "enabled")]
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "enabled")]
        self.value.fetch_add(n, Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = n;
    }

    /// Current count (always 0 with the `enabled` feature off).
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.value.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        {
            0
        }
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A last-write-wins level indicator (e.g. pool idle sessions).
#[derive(Debug)]
pub struct Gauge {
    #[cfg(feature = "enabled")]
    value: AtomicU64,
}

impl Gauge {
    /// A gauge starting at zero (usable in `static` items).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            #[cfg(feature = "enabled")]
            value: AtomicU64::new(0),
        }
    }

    /// Overwrites the level.
    #[inline]
    pub fn set(&self, v: u64) {
        #[cfg(feature = "enabled")]
        self.value.store(v, Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }

    /// Current level (always 0 with the `enabled` feature off).
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.value.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        {
            0
        }
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

// The zero-cost guarantee: with counters compiled out, the types carry
// no state at all, so instrumented structs have the exact layout of
// their uninstrumented ancestors.
#[cfg(not(feature = "enabled"))]
const _: () = {
    assert!(core::mem::size_of::<Counter>() == 0);
    assert!(core::mem::size_of::<Gauge>() == 0);
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_when_enabled() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        if cfg!(feature = "enabled") {
            assert_eq!(c.get(), 5);
        } else {
            assert_eq!(c.get(), 0);
        }
    }

    #[test]
    fn gauge_holds_last_value_when_enabled() {
        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), if cfg!(feature = "enabled") { 3 } else { 0 });
    }

    #[test]
    fn counters_are_sync() {
        const fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Counter>();
        assert_sync::<Gauge>();
    }
}
