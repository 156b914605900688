//! A reader connection built on the public wire codec. It never
//! retries, so every I/O or protocol failure reaches the failure count
//! (the pooled `NetClient` retries idempotent requests on a fresh
//! connection, which would hide them).

use scaddar_net::{decode_frame, Frame, FrameError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Why a request produced no usable answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// Socket error or early close.
    Io,
    /// Undecodable or unexpected frame.
    Protocol,
    /// The daemon answered with an `Error` frame.
    ErrorFrame,
    /// The reply's epoch matches no state live during the request.
    TornEpoch,
    /// The answer disagrees with the oracle.
    Oracle,
}

/// One blocking connection with its receive buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    out: Vec<u8>,
}

impl Conn {
    /// Dials `addr` with Nagle off and a 10 s read deadline.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
            out: Vec::with_capacity(1 << 12),
        })
    }

    /// Writes `frames` in one `write_all`.
    pub fn send(&mut self, frames: &[Frame]) -> Result<(), Failure> {
        self.out.clear();
        for f in frames {
            f.encode(&mut self.out);
        }
        self.stream.write_all(&self.out).map_err(|_| Failure::Io)
    }

    /// Reads the next frame. `Error` frames come back as
    /// [`Failure::ErrorFrame`].
    pub fn recv(&mut self) -> Result<Frame, Failure> {
        loop {
            match decode_frame(&self.buf[self.start..]) {
                Ok((Frame::Error { .. }, used)) => {
                    self.consume(used);
                    return Err(Failure::ErrorFrame);
                }
                Ok((frame, used)) => {
                    self.consume(used);
                    return Ok(frame);
                }
                Err(FrameError::Incomplete { .. }) => {}
                Err(_) => return Err(Failure::Protocol),
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let len = self.buf.len();
            self.buf.resize(len + (1 << 16), 0);
            match self.stream.read(&mut self.buf[len..]) {
                Ok(0) | Err(_) => {
                    self.buf.truncate(len);
                    return Err(Failure::Io);
                }
                Ok(n) => self.buf.truncate(len + n),
            }
        }
    }

    fn consume(&mut self, used: usize) {
        self.start += used;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
    }
}
