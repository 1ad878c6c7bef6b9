//! A minimal blocking client for the wire protocol, used by the loopback
//! integration tests and by benchmark load drivers.
//!
//! The client is split-safe: [`SpecQpClient::try_clone`] yields a second
//! handle over the same TCP connection, so an open-loop driver can send
//! from one thread while another drains responses (responses arrive in
//! request order per connection; correlate via `request_id`).

use crate::protocol::{
    decode_response, encode_request, encode_write, read_frame, write_frame, WireError, WireRequest,
    WireResponse, WireWrite,
};
use specqp_service::{ExecMode, WriteBatch};
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking connection to a Spec-QP wire server.
#[derive(Debug)]
pub struct SpecQpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl SpecQpClient {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<SpecQpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(SpecQpClient {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
        })
    }

    /// Bounds blocking reads on this handle (`None` blocks forever). Lets
    /// open-loop drivers fail instead of hanging if the server wedges.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// A second handle over the same connection (shared socket, independent
    /// buffers) for split send/receive threads.
    pub fn try_clone(&self) -> io::Result<SpecQpClient> {
        let stream = self.writer.try_clone()?;
        let writer = stream.try_clone()?;
        Ok(SpecQpClient {
            reader: BufReader::new(stream),
            writer,
            // Clones used for receiving should not send; ids spaced far
            // apart keep accidental overlap visible in tests.
            next_id: self.next_id.wrapping_add(1 << 32),
        })
    }

    /// Sends one query request; returns the request id to correlate the
    /// response with. `client_id` travels in the frame as an opaque label
    /// the server does not read.
    pub fn send(
        &mut self,
        query: &str,
        mode: ExecMode,
        k: u32,
        deadline_ms: u32,
        client_id: u64,
    ) -> Result<u64, WireError> {
        let request_id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let req = WireRequest {
            request_id,
            client_id,
            mode: mode.index() as u8,
            k,
            deadline_ms,
            query: query.to_string(),
        };
        write_frame(&mut self.writer, &encode_request(&req))?;
        Ok(request_id)
    }

    /// Sends one write batch; returns the request id to correlate the
    /// `WriteOk` (or error) response with. Ops are applied atomically
    /// server-side under a single new epoch. `client_id` is an opaque
    /// label, as in [`SpecQpClient::send`].
    pub fn send_writes(&mut self, batch: WriteBatch, client_id: u64) -> Result<u64, WireError> {
        let request_id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let write = WireWrite {
            request_id,
            client_id,
            batch,
        };
        write_frame(&mut self.writer, &encode_write(&write))?;
        Ok(request_id)
    }

    /// Send a write batch + receive its response in one call. Returns the
    /// published epoch on success; any other response (an error frame, or a
    /// mis-ordered answers frame) comes back as [`WireError::Malformed`]
    /// carrying the rendered response.
    pub fn apply_writes(&mut self, batch: WriteBatch, client_id: u64) -> Result<u64, WireError> {
        let id = self.send_writes(batch, client_id)?;
        match self.recv()? {
            WireResponse::WriteOk { request_id, epoch } if request_id == id => Ok(epoch),
            other => Err(WireError::Malformed(format!(
                "expected WriteOk for request {id}, got {other:?}"
            ))),
        }
    }

    /// Sends a raw, possibly malformed payload (tests of the server's
    /// protocol-error path).
    pub fn send_raw(&mut self, payload: &[u8]) -> Result<(), WireError> {
        write_frame(&mut self.writer, payload)
    }

    /// Receives the next response frame.
    pub fn recv(&mut self) -> Result<WireResponse, WireError> {
        let payload = read_frame(&mut self.reader)?;
        decode_response(&payload)
    }

    /// Send + receive in one call (closed-loop usage).
    pub fn roundtrip(
        &mut self,
        query: &str,
        mode: ExecMode,
        k: u32,
        deadline_ms: u32,
        client_id: u64,
    ) -> Result<WireResponse, WireError> {
        self.send(query, mode, k, deadline_ms, client_id)?;
        self.recv()
    }
}
