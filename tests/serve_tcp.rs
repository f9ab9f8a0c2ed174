//! `fe-serve` over TCP against a live daemon core: a repeated
//! submission must be a 100% cache hit with a report byte-identical to
//! the computed one, a malformed job or a hostile frame must be refused
//! without wedging the daemon, and a server must stop when asked, idle
//! or holding a connection that never sends anything.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use fe_serve::protocol::{read_message, write_frame};
use fe_serve::{submit_job, ExperimentService, JobSpec, JobWorkload, Server};
use fe_sim::json::Json;
use fe_sim::{RunLength, SchemeSpec};

fn tmp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fe-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const LEN: RunLength = RunLength {
    warmup: 20_000,
    measure: 50_000,
};

#[test]
fn tcp_round_trip_serves_second_submission_from_cache() {
    let root = tmp_root("tcp");
    let service = Arc::new(ExperimentService::open(&root).expect("opens"));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("binds");
    let addr = server.local_addr().expect("bound").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || server.run_until(&stop))
    };

    let spec = JobSpec {
        workloads: vec![JobWorkload {
            name: "nutch".into(),
            scale: Some(0.05),
        }],
        schemes: vec![SchemeSpec::NoPrefetch, SchemeSpec::shotgun()],
        len: LEN,
        seed: 9,
        sampling: None,
        threads: 1,
    };
    let total = spec.cell_count();

    let first = submit_job(&addr, &spec).expect("first submission");
    assert_eq!(first.progress.len(), total, "one tick per cell");
    assert_eq!(first.cached_cells(), 0, "cold cache computes everything");

    let second = submit_job(&addr, &spec).expect("second submission");
    assert_eq!(
        second.cached_cells(),
        total,
        "the repeated sweep must be a 100% cache hit"
    );
    assert_eq!(
        second.report, first.report,
        "served report must be byte-identical to the computed one"
    );
    assert!(second.job_id > first.job_id);

    // A duplicate scheme is refused with an error frame, and the daemon
    // serves the next job.
    let mut duplicate = spec.clone();
    duplicate.schemes = vec![SchemeSpec::NoPrefetch, SchemeSpec::NoPrefetch];
    let err = submit_job(&addr, &duplicate).expect_err("duplicate scheme refused");
    assert!(
        err.to_string().contains("duplicate scheme"),
        "the refusal must say why: {err}"
    );
    let third = submit_job(&addr, &spec).expect("the daemon still serves");
    assert_eq!(third.report, first.report);

    stop.store(true, Ordering::SeqCst);
    server_thread.join().expect("server drains");
    let _ = std::fs::remove_dir_all(&root);
}

/// A small frame nested far deeper than any real message must get an
/// error frame, not overflow the handler's stack and abort the daemon.
#[test]
fn deeply_nested_frame_is_refused_and_the_next_job_is_served() {
    let root = tmp_root("deep");
    let service = Arc::new(ExperimentService::open(&root).expect("opens"));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("binds");
    let addr = server.local_addr().expect("bound").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || server.run_until(&stop))
    };

    for open in ["[", "{\"a\":"] {
        let mut conn = TcpStream::connect(&addr).expect("connects");
        write_frame(&mut conn, open.repeat(100_000).as_bytes()).expect("frame sent");
        let reply = read_message(&mut conn)
            .expect("the daemon answers")
            .expect("an error frame, not a closed socket");
        assert_eq!(reply.get("type"), Some(&Json::Str("error".into())));
        let message = reply
            .req("message")
            .and_then(Json::as_str)
            .expect("says why");
        assert!(message.contains("nesting deeper than"), "{message}");
    }

    let spec = JobSpec {
        workloads: vec![JobWorkload {
            name: "nutch".into(),
            scale: Some(0.05),
        }],
        schemes: vec![SchemeSpec::NoPrefetch],
        len: LEN,
        seed: 9,
        sampling: None,
        threads: 1,
    };
    let served = submit_job(&addr, &spec).expect("the daemon still serves");
    assert_eq!(served.progress.len(), spec.cell_count());

    stop.store(true, Ordering::SeqCst);
    server_thread.join().expect("server drains");
    let _ = std::fs::remove_dir_all(&root);
}

/// The listener blocks in `accept`, so with no client ever connecting
/// only the stop watcher's wake-up connection lets `run_until` return —
/// on a wildcard bind too, where it must connect to loopback instead.
#[test]
fn run_until_returns_on_stop_with_no_client() {
    for (tag, addr) in [("idle-v4", "127.0.0.1:0"), ("idle-any", "0.0.0.0:0")] {
        let root = tmp_root(tag);
        let service = Arc::new(ExperimentService::open(&root).expect("opens"));
        let server = Server::bind(service, addr).expect("binds");
        let stop = Arc::new(AtomicBool::new(false));
        let (returned, on_return) = mpsc::channel();
        {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                server.run_until(&stop);
                let _ = returned.send(());
            });
        }
        // Let the server settle into its blocking accept first.
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::SeqCst);
        assert!(
            on_return.recv_timeout(Duration::from_secs(10)).is_ok(),
            "run_until on {addr} did not return after stop"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A client that connects and never sends its submit must not hold the
/// drain: `run_until` shuts the read half of every open connection once
/// it stops accepting, so the idle handler sees end-of-stream.
#[test]
fn run_until_returns_on_stop_with_an_idle_connection_open() {
    let root = tmp_root("idle-conn");
    let service = Arc::new(ExperimentService::open(&root).expect("opens"));
    let server = Server::bind(service, "127.0.0.1:0").expect("binds");
    let addr = server.local_addr().expect("bound");
    let stop = Arc::new(AtomicBool::new(false));
    let (returned, on_return) = mpsc::channel();
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            server.run_until(&stop);
            let _ = returned.send(());
        });
    }
    let idle = TcpStream::connect(addr).expect("connects");
    // Let the server accept it and park its handler in the read.
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);
    assert!(
        on_return.recv_timeout(Duration::from_secs(10)).is_ok(),
        "run_until did not return after stop with an idle connection open"
    );
    drop(idle);
    let _ = std::fs::remove_dir_all(&root);
}
