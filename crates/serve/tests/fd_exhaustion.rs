//! Regression for the acceptor hot-loop: a transient `accept()` failure
//! (here, fd exhaustion via `setrlimit(RLIMIT_NOFILE)`) used to make the
//! acceptor spin — `listener.incoming()` yields the same error instantly,
//! and the loop `continue`d at 100% CPU. The reactor must count the
//! failure in `accept_errors`, back off exponentially, and recover once
//! fds free up.
//!
//! This file holds a single test: it manipulates the *process-wide* fd
//! limit, which would race any parallel test in the same binary. Each
//! integration-test file is its own binary, so isolation is structural.

#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::time::{Duration, Instant};

use qsdnn_serve::{PlanClient, PlanServer, ServerConfig};

mod rlimit {
    use std::os::raw::c_int;

    const RLIMIT_NOFILE: c_int = 7;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    extern "C" {
        fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    }

    /// Lowers the soft `RLIMIT_NOFILE` for the whole process and restores
    /// the original on drop, so a panicking test cannot leak a crippled
    /// limit into the harness.
    pub struct SoftLimitGuard {
        original: u64,
    }

    impl SoftLimitGuard {
        pub fn lower_to(soft: u64) -> SoftLimitGuard {
            let mut lim = Rlimit { cur: 0, max: 0 };
            // SAFETY: `lim` is a live, writable `#[repr(C)]` Rlimit
            // matching the kernel's struct rlimit (two u64s on Linux).
            assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
            let original = lim.cur;
            lim.cur = soft.min(lim.max);
            // SAFETY: `lim` is a valid Rlimit passed read-only; lowering
            // the soft limit never exceeds the hard limit.
            assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0);
            SoftLimitGuard { original }
        }
    }

    impl Drop for SoftLimitGuard {
        fn drop(&mut self) {
            let mut lim = Rlimit { cur: 0, max: 0 };
            // SAFETY: `lim` is a live, writable `#[repr(C)]` Rlimit
            // matching the kernel's struct rlimit layout.
            if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } == 0 {
                lim.cur = self.original.min(lim.max);
                // SAFETY: `lim` is a valid Rlimit passed read-only;
                // restoring the saved soft limit stays within the hard cap.
                unsafe { setrlimit(RLIMIT_NOFILE, &lim) };
            }
        }
    }
}

/// Highest open fd number right now. `RLIMIT_NOFILE` bounds fd *numbers*
/// (one past the highest allocatable), not the open count — and new fds
/// fill the lowest free slot — so exhaustion must be engineered by
/// plugging every hole, not by counting.
fn highest_fd() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .max()
        .unwrap_or(0)
}

#[test]
fn accept_errors_back_off_and_recover() {
    let server = PlanServer::start(ServerConfig::default()).expect("start server");
    let addr = server.local_addr();

    // Connected *before* the squeeze: our observation channel needs no new
    // fds for requests, only for connections.
    let mut observer = PlanClient::connect(addr).expect("observer connects");
    observer
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let baseline = observer.stats().expect("stats").accept_errors;

    // Squeeze: cap the fd space a little above the highest fd in use,
    // plug every remaining slot (holes included) with dummies, then free
    // exactly one. The client's socket() takes that slot, the kernel
    // completes the handshake via the listen backlog, and the server-side
    // accept() hits EMFILE.
    //
    // One subtlety makes this a retry loop rather than a single shot: in
    // a multithreaded process some other thread can hold an fd
    // transiently (and invisibly) across the fill and release it later —
    // the acceptor then wins that freed slot, the accept *succeeds*, and
    // the pending connection is consumed without ever erroring. Each
    // attempt therefore keeps plugging freshly freed slots while it
    // polls, and a consumed-hostage attempt is simply retried from a
    // clean slate.
    let mut errored = false;
    'attempts: for _ in 0..6 {
        let _guard = rlimit::SoftLimitGuard::lower_to(highest_fd() + 16);
        let mut dummies = Vec::new();
        while let Ok(f) = std::fs::File::open("/dev/null") {
            dummies.push(f);
        }
        assert!(dummies.pop().is_some(), "no fd slot to free for the client");
        let Ok(_hostage) = TcpStream::connect(addr) else {
            // A gremlin beat us to the freed slot; next attempt.
            continue;
        };
        let deadline = Instant::now() + Duration::from_secs(3);
        while Instant::now() < deadline && !errored {
            std::thread::sleep(Duration::from_millis(20));
            // Plug any transiently freed slot before the acceptor can
            // claim it for the hostage.
            if let Ok(f) = std::fs::File::open("/dev/null") {
                dummies.push(f);
            }
            errored = observer.stats().expect("stats").accept_errors > baseline;
        }
        if !errored {
            continue; // hostage consumed by a gremlin race; retry
        }

        // Back-off, not a hot loop: while the fd squeeze persists, a
        // spinning acceptor would rack up tens of thousands of errors in
        // 400 ms; exponential back-off stays in single digits.
        let before = observer.stats().expect("stats").accept_errors;
        std::thread::sleep(Duration::from_millis(400));
        let after = observer.stats().expect("stats").accept_errors;
        assert!(
            after - before <= 40,
            "{} accept errors in 400ms — the acceptor is spinning",
            after - before
        );
        break 'attempts;
    }
    assert!(errored, "fd exhaustion never surfaced as accept_errors");

    // Recovery: the squeeze is released (guard + dummies dropped at the
    // end of the successful attempt) and the server accepts again.
    let deadline = Instant::now() + Duration::from_secs(10);
    let recovered = loop {
        match PlanClient::connect(addr) {
            Ok(mut fresh) => {
                fresh.stats().expect("stats on a fresh connection");
                break true;
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => break false,
        }
    };
    assert!(recovered, "server never recovered from fd exhaustion");
    server.shutdown();
}
