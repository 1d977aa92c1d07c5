//! SIGTERM/SIGINT → graceful shutdown via a self-pipe.
//!
//! `std` exposes no signal API, and the hermetic build cannot add a
//! crate for one, so this module carries the crate's only `unsafe`: three
//! libc declarations (`pipe`, `write`, `signal`) that std already links.
//! The classic self-pipe trick keeps the handler async-signal-safe — it
//! only calls `write(2)` on a pre-opened pipe; a watcher thread blocks
//! on the read end and calls [`ServerHandle::shutdown`] when a byte (or
//! pipe closure) arrives.
//!
//! On non-Unix targets installation is a no-op returning `false`;
//! callers fall back to stdin-EOF shutdown (see the `hls-serve` binary).
//!
//! [`ServerHandle::shutdown`]: crate::ServerHandle::shutdown

use crate::ServerHandle;

/// Installs handlers for SIGTERM and SIGINT that gracefully drain the
/// worker or front behind `handle`. Returns `true` when the handlers are
/// in place, `false` when the platform (or pipe creation) does not
/// cooperate.
pub fn drain_on_termination(handle: ServerHandle) -> bool {
    imp::install(Box::new(move || handle.shutdown()))
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use std::fs::File;
    use std::io::Read;
    use std::os::fd::FromRawFd;
    use std::sync::atomic::{AtomicI32, Ordering};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn pipe(fds: *mut i32) -> i32;
        fn write(fd: i32, buf: *const core::ffi::c_void, count: usize) -> isize;
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Write end of the self-pipe; -1 until installed.
    static WRITE_FD: AtomicI32 = AtomicI32::new(-1);

    /// The signal handler: async-signal-safe by construction — one
    /// `write(2)` on the pre-opened pipe, nothing else.
    extern "C" fn on_signal(_signum: i32) {
        let fd = WRITE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            let byte = [1u8];
            unsafe {
                write(fd, byte.as_ptr().cast(), 1);
            }
        }
    }

    pub fn install(shutdown: Box<dyn FnOnce() + Send>) -> bool {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a valid out-pointer for two descriptors.
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return false;
        }
        WRITE_FD.store(fds[1], Ordering::SeqCst);
        // SAFETY: `on_signal` is an `extern "C" fn(i32)`, the shape
        // `signal(2)` expects; it touches only async-signal-safe state.
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
        // SAFETY: fds[0] is a freshly created pipe read end owned by no
        // other File.
        let mut read_end = unsafe { File::from_raw_fd(fds[0]) };
        std::thread::Builder::new()
            .name("hls-serve-signal".into())
            .spawn(move || {
                let mut byte = [0u8; 1];
                // Blocks until the handler writes (or the pipe breaks).
                let _ = read_end.read(&mut byte);
                shutdown();
            })
            .is_ok()
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install(_shutdown: Box<dyn FnOnce() + Send>) -> bool {
        false
    }
}
