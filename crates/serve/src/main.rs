//! The `fe-serve` daemon: binds the experiment service to a TCP
//! address and serves until SIGINT/SIGTERM, then shuts down gracefully
//! (in-flight cell completes and persists, idle connections are closed,
//! pending jobs stay on disk for the next start).
//!
//! ```text
//! fe-serve [--root DIR] [--addr HOST:PORT] [--cache-max-bytes N]
//! ```
//!
//! Defaults: root `fe-serve-data` in the working directory, address
//! `127.0.0.1:7407`. `--addr 127.0.0.1:0` picks a free port and prints
//! it. `--cache-max-bytes` bounds the disk cell cache: after every
//! finished job the least-recently-used cells are evicted until the
//! cache fits (underscores allowed, e.g. `512_000_000`); without the
//! flag the cache grows unbounded.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fe_serve::{ExperimentService, Server};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_sig: i32) {
    // Async-signal-safe: a single atomic store, which the server's stop watcher polls.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" {
    // libc's classic signal(2) entry point — enough for two
    // terminate-and-drain signals without pulling in a crate.
    fn signal(signum: i32, handler: usize) -> usize;
}

fn install_signal_handlers() {
    // audit-allow(forbid-unsafe): lone unsafe block in the workspace — raw signal(2) registration so the daemon can drain gracefully without a signal crate
    // SAFETY: `on_signal` is an `extern "C" fn` with the exact
    // signature signal(2) expects, and its body is async-signal-safe
    // (a single atomic store, no allocation, no locks). The handler
    // pointer outlives the process, and `signal` itself is the libc
    // entry point with no aliasing or lifetime obligations beyond a
    // valid function pointer.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

fn main() -> ExitCode {
    let mut root = String::from("fe-serve-data");
    let mut addr = String::from("127.0.0.1:7407");
    let mut cache_max_bytes = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = v,
                None => return usage("--root needs a directory"),
            },
            "--addr" => match args.next() {
                Some(v) => addr = v,
                None => return usage("--addr needs host:port"),
            },
            "--cache-max-bytes" => {
                match args
                    .next()
                    .and_then(|v| v.replace('_', "").parse::<u64>().ok())
                {
                    Some(v) => cache_max_bytes = Some(v),
                    None => return usage("--cache-max-bytes needs a byte count"),
                }
            }
            "--help" | "-h" => {
                println!("usage: fe-serve [--root DIR] [--addr HOST:PORT] [--cache-max-bytes N]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    install_signal_handlers();
    let service = match ExperimentService::open_with_cache_limit(&root, cache_max_bytes) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("fe-serve: cannot open root `{root}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(Arc::clone(&service), &addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fe-serve: cannot bind `{addr}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(bound) => println!("fe-serve: listening on {bound}, root `{root}`"),
        Err(_) => println!("fe-serve: listening on {addr}, root `{root}`"),
    }
    server.run_until(&SHUTDOWN);
    println!("fe-serve: drained, shutting down");
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "fe-serve: {problem}\nusage: fe-serve [--root DIR] [--addr HOST:PORT] [--cache-max-bytes N]"
    );
    ExitCode::FAILURE
}
