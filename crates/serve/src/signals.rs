//! Minimal async-signal-safe SIGTERM latch.
//!
//! `qsdnn-cli serve` wants to write a flight-recorder post-mortem dump on
//! SIGTERM before shutting down, which requires *observing* the signal
//! rather than dying to the default disposition. This is the smallest
//! possible handler: it stores into one static atomic and returns —
//! nothing else is async-signal-safe, and nothing else is needed. The
//! serving loop polls [`term_requested`] at its leisure.
//!
//! Like the reactor, the binding is direct `extern "C"` FFI: this
//! build is offline and one syscall does not justify a vendored libc.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler when SIGTERM arrives. SeqCst on both sides: the
/// flag is a cross-thread shutdown edge, not a statistic.
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    use std::os::raw::c_int;

    /// POSIX `SIGTERM` — 15 on every Unix this workspace targets.
    pub const SIGTERM: c_int = 15;

    extern "C" {
        /// `signal(2)`. The simplest installer suffices here: one signal,
        /// one process-lifetime handler, no need for `sigaction` flags.
        pub fn signal(signum: c_int, handler: usize) -> usize;
    }
}

#[cfg(unix)]
extern "C" fn on_sigterm(_sig: std::os::raw::c_int) {
    // Only an atomic store: the one operation unconditionally
    // async-signal-safe in Rust.
    // SeqCst: a shutdown edge crossing from signal context to the serving
    // loop; cold path, strongest order costs nothing here.
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM latch. Idempotent; later installs are harmless
/// (the same handler replaces itself). On non-Unix targets this is a
/// no-op and [`term_requested`] never fires.
pub fn install_term_handler() {
    #[cfg(unix)]
    // SAFETY: `on_sigterm` is an `extern "C" fn(c_int)` — the exact shape
    // `signal` expects — and its body is a single atomic store, which is
    // async-signal-safe. The handler address outlives the process.
    unsafe {
        sys::signal(sys::SIGTERM, on_sigterm as *const () as usize);
    }
}

/// Whether SIGTERM has arrived since [`install_term_handler`].
pub fn term_requested() -> bool {
    // SeqCst: pairs with the handler's store; polled 5x/s, not hot.
    TERM_REQUESTED.load(Ordering::SeqCst)
}
