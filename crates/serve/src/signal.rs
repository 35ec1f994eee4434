//! A minimal SIGTERM trap, kept deliberately tiny: one async-signal-safe
//! handler that sets an [`AtomicBool`], polled every 15 ms by the daemon's
//! signal watcher thread (not its accept loop, which blocks in `accept`).
//! Installing it is opt-in ([`install_sigterm`]) so embedded servers
//! (tests, library users) never have their process-wide signal disposition
//! changed behind their back.
//!
//! This is the only module in the workspace that needs `unsafe`: the
//! `signal(2)` registration itself. Everything observable from the outside
//! is a safe atomic flag.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler; consumed by [`sigterm_pending`].
static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
const SIGTERM: i32 = 15;

#[cfg(unix)]
extern "C" fn on_sigterm(_signum: i32) {
    // An atomic store is async-signal-safe; nothing else happens here.
    TERM.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" {
    /// `signal(2)`. Declared directly — the workspace vendors no libc
    /// crate. The handler argument and return are the C `sighandler_t`,
    /// which is a function pointer; `usize` has the same representation on
    /// every platform this builds for.
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Installs the SIGTERM handler. Idempotent; returns an error only if the
/// kernel refuses the registration. On non-Unix platforms this is a no-op
/// (the flag simply never fires).
pub fn install_sigterm() -> Result<(), String> {
    #[cfg(unix)]
    {
        const SIG_ERR: usize = usize::MAX;
        // SAFETY: `on_sigterm` is async-signal-safe (a single atomic
        // store), and `signal` is only handed that handler for SIGTERM.
        let handler = on_sigterm as extern "C" fn(i32) as usize;
        let previous = unsafe { signal(SIGTERM, handler) };
        if previous == SIG_ERR {
            return Err("cannot install SIGTERM handler".to_owned());
        }
    }
    Ok(())
}

/// Consumes a pending SIGTERM: `true` exactly once per delivered signal
/// burst. Always `false` when [`install_sigterm`] was never called.
pub fn sigterm_pending() -> bool {
    TERM.swap(false, Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The end-to-end SIGTERM behaviour (install + raise + graceful server
    // exit) lives in the `serve_signal` integration test, which owns its
    // process; these unit tests only cover the flag mechanics that are safe
    // to exercise alongside other tests.
    #[test]
    fn flag_starts_clear_and_swap_consumes() {
        assert!(!sigterm_pending());
        TERM.store(true, Ordering::SeqCst);
        assert!(sigterm_pending());
        assert!(!sigterm_pending());
    }
}
