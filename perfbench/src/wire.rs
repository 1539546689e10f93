//! The load generator's line client for the PROTOCOL.md wire format.
//!
//! A thin blocking client rather than `mirabel_net::NetClient`: it
//! stamps every `epoch` push with the instant it was read (freshness is
//! measured from it) and returns the raw reply line, so the check can
//! compare it with the reference encoding.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mirabel_net::{parse_greeting, Reply, Request, ServerLine, PROTOCOL_VERSION};

/// A reply slower than this is a failed (timed-out) operation.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One attached connection.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    addr: SocketAddr,
    token: String,
    line: String,
    /// Every `epoch` push read so far, with the instant it was read.
    pub epochs: Vec<(u64, Instant)>,
}

fn protocol_error(detail: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail)
}

impl Client {
    /// Connects, checks the greeting and opens a fresh session.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let mut client = Client::open(addr)?;
        client.attach(&Request::Hello { version: PROTOCOL_VERSION })?;
        Ok(client)
    }

    fn open(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            addr,
            token: String::new(),
            line: String::new(),
            epochs: Vec::new(),
        };
        client.read_line()?;
        let version = parse_greeting(client.line.trim_end())
            .map_err(|e| protocol_error(format!("greeting: {e}")))?;
        if version != PROTOCOL_VERSION {
            return Err(protocol_error(format!("server speaks protocol {version}")));
        }
        Ok(client)
    }

    fn attach(&mut self, request: &Request) -> std::io::Result<()> {
        let reply = self.call(&request.encode())?.to_string();
        match Reply::decode(&reply) {
            Ok(Reply::Session { resume, .. }) => {
                self.token = resume;
                Ok(())
            }
            other => Err(protocol_error(format!("attach got {other:?}"))),
        }
    }

    /// Drops the connection without `bye` (the server parks the
    /// session) and re-attaches with the resume token. Pushes seen so
    /// far carry over.
    pub fn resume(self) -> std::io::Result<Client> {
        let Client { reader, writer, addr, token, epochs, .. } = self;
        drop(reader);
        drop(writer);
        let mut client = Client::open(addr)?;
        client.epochs = epochs;
        client.attach(&Request::Resume { token })?;
        Ok(client)
    }

    /// Orderly close.
    pub fn bye(mut self) -> std::io::Result<()> {
        let reply = self.call("bye")?;
        if reply != "ok bye" {
            return Err(protocol_error(format!("bye got {reply:?}")));
        }
        Ok(())
    }

    fn read_line(&mut self) -> std::io::Result<()> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }

    /// Sends one request line and returns its reply line (trailing
    /// newline removed), recording the pushes read on the way.
    pub fn call(&mut self, request: &str) -> std::io::Result<&str> {
        let mut out = String::with_capacity(request.len() + 1);
        out.push_str(request);
        out.push('\n');
        self.writer.write_all(out.as_bytes())?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> std::io::Result<&str> {
        loop {
            self.read_line()?;
            if self.line.starts_with("epoch ") {
                match ServerLine::decode(&self.line) {
                    Ok(ServerLine::Epoch(e)) => self.epochs.push((e, Instant::now())),
                    _ => return Err(protocol_error(format!("bad push {:?}", self.line))),
                }
                continue;
            }
            return Ok(self.line.trim_end());
        }
    }

    /// Highest epoch pushed so far.
    pub fn epoch(&self) -> u64 {
        self.epochs.last().map_or(0, |&(e, _)| e)
    }

    /// Waits up to `timeout` for a push of `epoch` or newer while no
    /// request is in flight.
    pub fn wait_for_epoch(&mut self, epoch: u64, timeout: Duration) -> std::io::Result<bool> {
        let deadline = Instant::now() + timeout;
        self.line.clear();
        let reached = loop {
            if self.epoch() >= epoch {
                break true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break false;
            }
            self.writer.set_read_timeout(Some(left.min(Duration::from_millis(100))))?;
            // A timed-out read keeps what it consumed in `line`; the
            // next read appends the rest of the line.
            match self.reader.read_line(&mut self.line) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(_) if self.line.ends_with('\n') => {
                    match ServerLine::decode(&self.line) {
                        Ok(ServerLine::Epoch(e)) => self.epochs.push((e, Instant::now())),
                        _ => return Err(protocol_error(format!("unsolicited {:?}", self.line))),
                    }
                    self.line.clear();
                }
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(e),
            }
        };
        self.writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(reached)
    }
}
