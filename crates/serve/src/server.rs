//! The TCP front of the service: accepts connections, speaks the
//! [`protocol`](crate::protocol), and forwards jobs to an
//! [`ExperimentService`].
//!
//! The listener blocks in `accept`, so a connection is taken the moment
//! it arrives. Shutdown is a flag: a watcher thread checks it every
//! `ACCEPT_POLL` and, once it is set, connects to the listener to
//! wake the blocked `accept`. A signal delivered to the daemon thus
//! stops new connections within about one poll period, while the
//! service layer finishes the in-flight cell. The read half of every
//! open connection is then shut, so a client that never sends its
//! submit cannot hold the drain. One connection carries one job;
//! per-connection handler threads stream progress as the job produces
//! it.

use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::{
    accepted_message, error_message, progress_message, read_message, report_message, write_frame,
    write_message,
};
use crate::service::{ExperimentService, JobSpec, JobState};

/// How often the stop watcher re-checks the shutdown flag (and retries
/// its wake-up connection). Bounds how long a drain takes to start; no
/// connection waits on it.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// A bound TCP server over an experiment service.
pub struct Server {
    listener: TcpListener,
    service: Arc<ExperimentService>,
}

impl Server {
    /// Binds to `addr` (use port 0 to let the OS pick — tests and the
    /// bench smoke do).
    pub fn bind(service: Arc<ExperimentService>, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { listener, service })
    }

    /// The bound address, e.g. to print or to hand to a client.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `stop` becomes true, then drains: stops accepting,
    /// shuts the read half of every open connection (a handler still
    /// waiting for its submit sees end-of-stream; one streaming a job
    /// only writes), shuts the service down gracefully (in-flight cell
    /// completes and persists), and joins the connection handlers.
    pub fn run_until(&self, stop: &AtomicBool) {
        let accepting = AtomicBool::new(true);
        let handlers = std::thread::scope(|scope| {
            let mut handlers = Vec::new();
            let watcher = scope.spawn(|| self.wake_on_stop(stop, &accepting));
            loop {
                let accepted = self.listener.accept();
                // Whatever woke `accept` once `stop` is set — the
                // watcher's connection or a late client — ends the loop.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                match accepted {
                    Ok((conn, _peer)) => {
                        let service = Arc::clone(&self.service);
                        // A second handle on the socket, kept to shut
                        // its read half at drain.
                        let reader = conn.try_clone().ok();
                        let handler = std::thread::spawn(move || handle_connection(conn, &service));
                        handlers.push((handler, reader));
                    }
                    Err(e) => {
                        eprintln!("fe-serve: accept failed: {e}");
                        // Back off so a lasting failure (out of file
                        // descriptors) does not spin the loop.
                        std::thread::sleep(ACCEPT_POLL);
                    }
                }
                let (finished, running) = handlers.into_iter().partition(|(h, _)| h.is_finished());
                handlers = running;
                join_handlers(finished);
            }
            accepting.store(false, Ordering::SeqCst);
            watcher.thread().unpark();
            handlers
        });
        for reader in handlers.iter().filter_map(|(_, reader)| reader.as_ref()) {
            let _ = reader.shutdown(Shutdown::Read);
        }
        self.service.shutdown();
        join_handlers(handlers);
    }

    /// Until the accept loop exits, checks `stop` every [`ACCEPT_POLL`];
    /// once it is set, connects to the listener so the blocked `accept`
    /// returns, retrying each period in case a connect fails.
    fn wake_on_stop(&self, stop: &AtomicBool, accepting: &AtomicBool) {
        while accepting.load(Ordering::SeqCst) {
            if stop.load(Ordering::SeqCst) {
                if let Ok(addr) = self.listener.local_addr() {
                    let _ = TcpStream::connect_timeout(&wake_addr(addr), ACCEPT_POLL);
                }
            }
            std::thread::park_timeout(ACCEPT_POLL);
        }
    }
}

/// Where to connect to reach a listener bound to `bound`: an unspecified
/// IP (`0.0.0.0`, `[::]`) is not a destination, so it maps to the
/// loopback address of its family.
fn wake_addr(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        bound.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    bound
}

/// Joins connection handlers, reporting any that panicked; each one's
/// spare socket handle closes with it.
fn join_handlers(handlers: Vec<(JoinHandle<()>, Option<TcpStream>)>) {
    for (handler, _reader) in handlers {
        if handler.join().is_err() {
            eprintln!("fe-serve: connection handler panicked");
        }
    }
}

/// Speaks one job's worth of protocol on `conn`. Protocol errors are
/// reported to the client when the socket still works, and logged
/// otherwise; a broken client never takes the daemon down.
fn handle_connection(mut conn: TcpStream, service: &ExperimentService) {
    if let Err(e) = try_handle(&mut conn, service) {
        let _ = write_message(&mut conn, &error_message(&e));
    }
}

fn try_handle(conn: &mut TcpStream, service: &ExperimentService) -> Result<(), String> {
    let msg = read_message(conn)
        .map_err(|e| format!("reading submit: {e}"))?
        .ok_or("connection closed before a submit")?;
    match msg.req("type").and_then(|t| Ok(t.as_str()?.to_string())) {
        Ok(kind) if kind == "submit" => {}
        Ok(kind) => return Err(format!("expected a submit, got `{kind}`")),
        Err(e) => return Err(e),
    }
    let spec = JobSpec::from_json(msg.req("job")?)?;
    let (id, progress) = service.submit(&spec)?;
    write_message(conn, &accepted_message(id, spec.cell_count()))
        .map_err(|e| format!("writing accept: {e}"))?;
    // Stream progress until the worker drops the sender (job done or
    // interrupted). A vanished client only kills its own streaming.
    for tick in progress {
        if write_message(conn, &progress_message(&tick)).is_err() {
            break;
        }
    }
    match service.wait(id) {
        Some(JobState::Done(report)) => write_message(conn, &report_message(id))
            .and_then(|()| write_frame(conn, report.as_bytes()))
            .and_then(|()| conn.flush())
            .map_err(|e| format!("writing report: {e}")),
        Some(JobState::Interrupted) => {
            Err("job interrupted by shutdown; resubmit after restart to resume".into())
        }
        Some(JobState::Failed(e)) => Err(e),
        Some(JobState::Queued | JobState::Running) | None => {
            Err("job vanished mid-run (service shutting down?)".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_maps_unspecified_ips_to_loopback() {
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7407"), "127.0.0.1:7407");
        assert_eq!(wake("[::]:7407"), "[::1]:7407");
        assert_eq!(wake("192.0.2.7:7407"), "192.0.2.7:7407");
        assert_eq!(wake("[2001:db8::1]:7407"), "[2001:db8::1]:7407");
    }
}
