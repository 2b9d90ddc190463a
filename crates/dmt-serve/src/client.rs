//! A blocking client for the serve wire protocol.
//!
//! [`ServeClient`] speaks one request / one response over a single TCP
//! connection. The typed helpers ([`ServeClient::predict`],
//! [`ServeClient::learn`], [`ServeClient::stats`]) cover the whole opcode
//! table; the raw hooks
//! ([`ServeClient::send_raw`], [`ServeClient::read_response`]) exist so the
//! fuzz battery can push hostile bytes through a real connection and still
//! decode whatever the server answers.

use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use dmt::registry::TenantStats;

use crate::error::ServeError;
use crate::protocol::{
    read_frame, write_frame, FrameIssue, FrameRead, Request, Response, WireMatrix,
};
use crate::server::connect_with_retry;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (connect, write, or the server closed mid-frame).
    Io(io::Error),
    /// The response frame was corrupt on the wire.
    Frame(FrameIssue),
    /// The response frame decoded to garbage, or to a variant the call did
    /// not ask for.
    Decode(ServeError),
    /// The server answered with a typed error response.
    Server(ServeError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Frame(issue) => write!(f, "corrupt response frame: {issue:?}"),
            ClientError::Decode(e) => write!(f, "undecodable response: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to a [`DmtServer`](crate::server::DmtServer).
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServeClient {
    /// Connect (with a short retry loop — worker spawn races the first
    /// client on small machines).
    pub fn connect<A: ToSocketAddrs + Copy>(addr: A) -> io::Result<Self> {
        let stream = connect_with_retry(addr)?;
        drop(stream.set_nodelay(true));
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
        })
    }

    /// Send one typed request and read its response frame.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, &request.encode())?;
        self.read_response()
    }

    /// Push raw, possibly hostile bytes down the connection (the fuzz hook —
    /// bytes go on the wire exactly as given, no envelope added).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Read and decode one response frame.
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.reader) {
            Ok(FrameRead::Payload(payload)) => {
                Response::decode(&payload).map_err(ClientError::Decode)
            }
            Ok(FrameRead::Eof) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            Err(FrameIssue::Io(e)) => Err(ClientError::Io(e)),
            Err(issue) => Err(ClientError::Frame(issue)),
        }
    }

    /// Predict a feature batch; returns the serving epoch the predictions
    /// are bit-identical to and one class per row. The epoch is optional on
    /// the wire; this server always sends it.
    pub fn predict(
        &mut self,
        tenant: &str,
        rows: &[&[f64]],
    ) -> Result<(Option<u64>, Vec<u32>), ClientError> {
        let response = self.request(&Request::Predict {
            tenant: tenant.to_string(),
            features: WireMatrix::from_rows(rows),
        })?;
        match response {
            Response::Predictions { epoch, predictions } => Ok((epoch, predictions)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Learn a labelled batch; returns the newly published epoch and the
    /// tenant's total observation count.
    pub fn learn(
        &mut self,
        tenant: &str,
        rows: &[&[f64]],
        labels: &[usize],
    ) -> Result<(Option<u64>, u64), ClientError> {
        let response = self.request(&Request::Learn {
            tenant: tenant.to_string(),
            features: WireMatrix::from_rows(rows),
            labels: labels.iter().map(|&y| y as u32).collect(),
        })?;
        match response {
            Response::Learned {
                epoch,
                observations,
            } => Ok((epoch, observations)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Fetch the tenant's serving stats.
    pub fn stats(&mut self, tenant: &str) -> Result<TenantStats, ClientError> {
        let response = self.request(&Request::Stats {
            tenant: tenant.to_string(),
        })?;
        match response {
            Response::Stats(stats) => Ok(stats),
            other => Err(Self::unexpected(other)),
        }
    }

    fn unexpected(response: Response) -> ClientError {
        match response {
            Response::Error(e) => ClientError::Server(e),
            other => ClientError::Decode(ServeError::BadResponse(format!(
                "unexpected response variant {other:?}"
            ))),
        }
    }
}
