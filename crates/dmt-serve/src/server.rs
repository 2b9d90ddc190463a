//! The request plane: a hand-rolled, thread-per-core TCP server.
//!
//! No async runtime — each worker thread owns a clone of one listening
//! socket, accepts connections, and serves each to completion with blocking
//! I/O. Predict traffic scales because the hot path never blocks on the
//! model writer: tenants answer from a pinned epoch snapshot
//! (see [`dmt_core::epoch`]), so a client hammering `predict` observes the
//! same latency whether or not a `learn` batch is splitting nodes next door.
//!
//! # Connection contract
//!
//! * One frame in, one frame out, in order.
//! * A malformed frame *payload* (CRC mismatch, garbage body) gets a typed
//!   error response and the connection keeps serving.
//! * A malformed frame *header* (bad magic, forged length) gets a typed
//!   error response and then the connection is closed — framing sync is
//!   unrecoverable (see the [protocol docs](crate::protocol)).
//! * No request, however hostile, may panic the worker thread.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use dmt::registry::ModelRegistry;

use crate::error::ServeError;
use crate::protocol::{read_frame, write_frame, FrameIssue, FrameRead, Request, Response};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (read it back via
    /// [`DmtServer::local_addr`]).
    pub addr: String,
    /// Worker (acceptor) threads; `0` means one per available core.
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
        }
    }
}

/// A running serve plane. Dropping it shuts the workers down (after any
/// in-flight connections drain).
pub struct DmtServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl DmtServer {
    /// Bind `config.addr` and spawn the worker threads, each accepting on
    /// its own clone of the listening socket.
    pub fn start(config: ServeConfig, registry: Arc<ModelRegistry>) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let threads = match config.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let listener = listener.try_clone()?;
            let registry = Arc::clone(&registry);
            let shutdown = Arc::clone(&shutdown);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dmt-serve-{i}"))
                    .spawn(move || worker_loop(&listener, &registry, &shutdown))?,
            );
        }
        Ok(Self {
            local_addr,
            shutdown,
            workers,
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, wake every worker, and join them. In-flight
    /// connections are served to completion first. Idempotent.
    pub fn shutdown(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // Each worker exits after its next accept returns; one wake-up
        // connection per worker guarantees that many returns.
        for _ in 0..self.workers.len() {
            drop(TcpStream::connect(self.local_addr));
        }
        for worker in self.workers.drain(..) {
            drop(worker.join());
        }
    }
}

impl Drop for DmtServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(listener: &TcpListener, registry: &ModelRegistry, shutdown: &AtomicBool) {
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => serve_connection(stream, registry),
            // Transient accept failures (e.g. a peer resetting mid-handshake)
            // must not kill the worker.
            Err(_) => continue,
        }
    }
}

/// Serve one connection until EOF, I/O failure, or loss of framing sync.
fn serve_connection(stream: TcpStream, registry: &ModelRegistry) {
    drop(stream.set_nodelay(true));
    let reader = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader);
    let mut writer = BufWriter::new(stream);
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(FrameRead::Payload(payload)) => payload,
            Ok(FrameRead::Eof) | Err(FrameIssue::Io(_)) => return,
            Err(FrameIssue::Header(msg)) => {
                // Framing sync is lost: best-effort typed error, then close.
                respond(&mut writer, &Response::Error(ServeError::BadHeader(msg)));
                return;
            }
            Err(FrameIssue::Payload(msg)) => {
                // Exactly one frame was consumed; the connection stays usable.
                if !respond(&mut writer, &Response::Error(ServeError::BadFrame(msg))) {
                    return;
                }
                continue;
            }
        };
        let response = match Request::decode(&payload) {
            Ok(request) => execute(registry, request),
            Err(e) => Response::Error(e),
        };
        if !respond(&mut writer, &response) {
            return;
        }
    }
}

fn respond<W: Write>(writer: &mut W, response: &Response) -> bool {
    write_frame(writer, &response.encode()).is_ok()
}

/// Execute one decoded request against the registry. Every failure is a
/// typed [`Response::Error`]; this function cannot panic on hostile input
/// because the registry validates batches before touching model state.
fn execute(registry: &ModelRegistry, request: Request) -> Response {
    let result = match request {
        Request::Predict { tenant, features } => {
            let rows = features.as_rows();
            registry
                .predict(&tenant, &rows)
                .map(|outcome| Response::Predictions {
                    epoch: outcome.epoch,
                    predictions: outcome.predictions.into_iter().map(|p| p as u32).collect(),
                })
        }
        Request::Learn {
            tenant,
            features,
            labels,
        } => {
            let rows = features.as_rows();
            let ys: Vec<usize> = labels.into_iter().map(|y| y as usize).collect();
            registry
                .learn(&tenant, &rows, &ys)
                .map(|outcome| Response::Learned {
                    epoch: outcome.epoch,
                    observations: outcome.observations,
                })
        }
        Request::Stats { tenant } => registry.stats(&tenant).map(Response::Stats),
    };
    result.unwrap_or_else(|e| Response::Error(e.into()))
}

/// Blocking connect with a handful of retries — spawning the acceptor
/// threads races the first client in tests on a single-core box.
pub(crate) fn connect_with_retry<A: ToSocketAddrs + Copy>(addr: A) -> io::Result<TcpStream> {
    let mut last = None;
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("connect failed")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt::registry::RegistryConfig;
    use dmt::zoo::ZooModel;
    use dmt_core::{DmtConfig, DynamicModelTree};
    use dmt_stream::StreamSchema;

    use crate::client::{ClientError, ServeClient};

    fn registry_with_dmt() -> Arc<ModelRegistry> {
        let registry = ModelRegistry::new(RegistryConfig::default());
        let schema = StreamSchema::numeric("toy", 3, 2);
        let tree = DynamicModelTree::new(schema.clone(), DmtConfig::default());
        registry
            .register("m", schema, ZooModel::Dmt(tree))
            .expect("register");
        Arc::new(registry)
    }

    #[test]
    fn server_answers_typed_errors_and_survives_them() {
        let registry = registry_with_dmt();
        let mut server = DmtServer::start(
            ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
            registry,
        )
        .expect("start");
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");

        // Unknown tenant: typed error, connection survives.
        match client.stats("ghost") {
            Err(ClientError::Server(ServeError::UnknownTenant(_))) => {}
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
        // Same connection serves a real request afterwards.
        let stats = client.stats("m").expect("stats");
        assert_eq!(stats.name, "m");
        assert_eq!(stats.epoch, 0);

        // A hostile batch (non-finite feature) is rejected, tenant unharmed.
        match client.learn("m", &[&[f64::NAN, 0.0, 0.0]], &[0]) {
            Err(ClientError::Server(ServeError::RejectedBatch(_))) => {}
            other => panic!("expected RejectedBatch, got {other:?}"),
        }
        let (epoch, predictions) = client.predict("m", &[&[0.1, 0.2, 0.3]]).expect("predict");
        assert_eq!(epoch, Some(0));
        assert_eq!(predictions.len(), 1);

        // Learning publishes the next epoch.
        let (epoch, observations) = client
            .learn("m", &[&[0.1, 0.2, 0.3], &[0.4, 0.5, 0.6]], &[0, 1])
            .expect("learn");
        assert_eq!(epoch, Some(1));
        assert_eq!(observations, 2);

        drop(client);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_all_workers() {
        let registry = registry_with_dmt();
        let mut server =
            DmtServer::start(ServeConfig::default(), Arc::clone(&registry)).expect("start");
        server.shutdown();
        server.shutdown();
        assert!(server.workers.is_empty());
    }
}
