//! `sammy-serve` — a long-running experiment service over the Sammy
//! A/B harness.
//!
//! The daemon accepts experiment and search submissions as JSON
//! [`spec`] documents over a hand-rolled HTTP/1.1 API ([`api`]), runs
//! them one at a time on a single worker thread ([`scheduler`]), and
//! persists everything under a runs directory ([`store`]) such that a
//! killed daemon restarted on the same directory finishes every
//! in-flight job with **byte-identical** final artifacts:
//!
//! * experiment runs checkpoint through the streaming runner's codec
//!   (`ckpt/`, resume bit-identical at any thread count),
//! * halving searches append each fresh evaluation to `evals.jsonl`
//!   before advancing; on restart the journal's complete lines replay by
//!   position (still counted in the budget), a torn tail is cut off and
//!   simulated again, and the search continues where it stopped.
//!
//! Quick tour (see the README for a curl transcript):
//!
//! ```text
//! sammy-serve --addr 127.0.0.1:7787 --runs-dir /tmp/sammy-runs
//! curl -d '{"users_per_arm":64}'            localhost:7787/runs
//! curl localhost:7787/runs/r0001            # {"id":"r0001","state":"running"}
//! curl localhost:7787/runs/r0001/metrics    # live per-shard JSONL tail
//! curl localhost:7787/runs/r0001/result     # deterministic final report
//! curl -d '{"arms":[{"c0":2.0,"c1":1.75}]}' localhost:7787/searches
//! ```

pub mod api;
pub mod http;
pub mod scheduler;
pub mod store;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use netsim::SimError;

pub use scheduler::ServeConfig;
pub use store::{JobKind, JobState, Store};

/// A running daemon: TCP acceptor + scheduler worker.
///
/// Dropping a `Daemon` without calling [`stop`](Daemon::stop) detaches
/// the threads (the process exit reaps them); tests call `stop` to get
/// a clean join and a quiescent runs directory.
pub struct Daemon {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    sched: scheduler::Scheduler,
    recovered: usize,
}

impl Daemon {
    /// Bind `addr` (use port 0 for an ephemeral port), scan the runs
    /// directory for unfinished jobs, and start serving.
    pub fn start(addr: &str, cfg: ServeConfig) -> Result<Daemon, SimError> {
        let store = Store::open(&cfg.runs_dir)?;
        let sched = scheduler::Scheduler::start(store.clone(), cfg);
        let recovered = sched.recover(&store)?;

        let listener =
            TcpListener::bind(addr).map_err(|e| SimError::Io(format!("bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| SimError::Io(format!("local_addr: {e}")))?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let state = Arc::new(api::ApiState {
            store,
            sched: sched.handle.clone(),
            submit_lock: Mutex::new(()),
            shutdown: Arc::clone(&shutdown),
        });

        let accept_shutdown = Arc::clone(&shutdown);
        let accept = std::thread::Builder::new()
            .name("sammy-serve-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let state = Arc::clone(&state);
                    // One thread per connection: the API is low-volume
                    // (submissions + polls + a few live tails).
                    let _ = std::thread::Builder::new()
                        .name("sammy-serve-conn".into())
                        .spawn(move || api::handle_connection(stream, &state));
                }
            })
            .map_err(|e| SimError::Io(format!("spawn acceptor: {e}")))?;

        Ok(Daemon {
            addr: local,
            shutdown,
            accept: Some(accept),
            sched,
            recovered,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs re-enqueued by the startup scan.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// Graceful stop: stop accepting, finish the in-flight job, leave
    /// everything else `queued` on disk for the next start.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        self.sched.stop();
    }
}
