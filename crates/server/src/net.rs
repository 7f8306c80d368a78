//! The wire protocol: line-delimited JSON over localhost TCP.
//!
//! Requests are one compact JSON object per line:
//!
//! ```text
//! {"type": "ping"}
//! {"type": "stats"}
//! {"type": "submit", "jobs": [<spec>, <spec>, ...]}
//! {"type": "shutdown"}
//! ```
//!
//! A `submit` streams one `{"type": "job", ...}` event per result in
//! *completion* order (each tagged with its batch index); successful
//! events are followed by the result document **verbatim on its own
//! line**. Documents are compact canonical JSON, so one line always holds
//! one whole document — and shipping it verbatim (never re-encoded from a
//! parsed value) is what keeps cache hits byte-identical end to end. The
//! stream ends with a `{"type": "done", ...}` summary line.
//!
//! `shutdown` drains the service queue, stops the accept loop, and ends
//! the process-level `serve` command.
//!
//! Request lines are untrusted: one longer than [`MAX_REQUEST_LINE`], not
//! UTF-8, nested deeper than [`json::MAX_DEPTH`] or otherwise malformed
//! gets a `{"type": "error", ...}` line, and the connection keeps serving.

use crate::job::{JobSpec, CODE_VERSION};
use crate::service::{JobStatus, Service, ServiceSnapshot};
use platoon_sim::harness::json::{self, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A listening protocol server wrapped around a [`Service`].
pub struct NetServer {
    addr: SocketAddr,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept loop on its own thread. Each connection is served by a
    /// dedicated thread; the loop exits after a `shutdown` request.
    pub fn spawn(service: Arc<Service>, addr: &str) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = std::thread::Builder::new()
            .name("platoon-server-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let service = Arc::clone(&service);
                    let stop = Arc::clone(&stop);
                    let _ = std::thread::Builder::new()
                        .name("platoon-server-conn".into())
                        .spawn(move || {
                            let _ = handle_connection(stream, &service, &stop, addr);
                        });
                }
            })?;
        Ok(NetServer {
            addr,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the accept loop exits (i.e. a client sent `shutdown`).
    pub fn join(mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The longest request line the server reads, newline excluded. Far above
/// any real batch (a spec's canonical spelling is a few hundred bytes), far
/// below what could exhaust memory.
pub const MAX_REQUEST_LINE: usize = 4 << 20;

/// One request line read with [`read_request_line`].
#[derive(Debug, PartialEq, Eq)]
enum RequestLine {
    /// A complete line (newline stripped).
    Line(String),
    /// A line over [`MAX_REQUEST_LINE`] bytes, or not UTF-8; it was
    /// consumed through its newline without being kept.
    Rejected(String),
    /// The client closed the connection.
    Eof,
}

/// Reads one line of at most `max` bytes from `reader` into `buf`. An
/// over-long line is skipped in bounded chunks up to and including its
/// newline, so the connection stays usable for the next request.
fn read_request_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<RequestLine> {
    buf.clear();
    let n = Read::take(&mut *reader, max as u64 + 1).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(RequestLine::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > max {
        // Discard the rest of the line without buffering it.
        reader.skip_until(b'\n')?;
        return Ok(RequestLine::Rejected(format!(
            "request line longer than {max} bytes"
        )));
    }
    match std::str::from_utf8(buf) {
        Ok(line) => Ok(RequestLine::Line(line.trim_end_matches('\r').to_string())),
        Err(_) => Ok(RequestLine::Rejected("request line is not UTF-8".into())),
    }
}

fn handle_connection(
    stream: TcpStream,
    service: &Service,
    stop: &AtomicBool,
    addr: SocketAddr,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        let line = match read_request_line(&mut reader, &mut buf, MAX_REQUEST_LINE)? {
            RequestLine::Eof => break,
            RequestLine::Rejected(reason) => {
                writeln!(writer, "{}", error_line(&reason))?;
                continue;
            }
            RequestLine::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let shutdown = handle_request(&line, service, &mut writer)?;
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            service.shutdown();
            // The accept loop is blocked in `incoming()`; poke it awake so
            // it observes the stop flag and exits.
            let _ = TcpStream::connect(addr);
            break;
        }
    }
    Ok(())
}

/// Serves one request line; returns whether it was a shutdown.
fn handle_request(line: &str, service: &Service, out: &mut TcpStream) -> std::io::Result<bool> {
    let parsed = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            writeln!(out, "{}", error_line(&format!("bad request JSON: {e}")))?;
            return Ok(false);
        }
    };
    let kind = match parsed.get("type") {
        Some(Value::Str(s)) => s.clone(),
        _ => {
            writeln!(out, "{}", error_line("request needs a \"type\" field"))?;
            return Ok(false);
        }
    };
    match kind.as_str() {
        "ping" => {
            let mut w = json::Writer::compact();
            w.obj(|w| {
                w.field_str("type", "pong");
                w.field_str("code_version", CODE_VERSION);
            });
            writeln!(out, "{}", w.finish())?;
            Ok(false)
        }
        "stats" => {
            writeln!(out, "{}", stats_line(&service.snapshot()))?;
            Ok(false)
        }
        "shutdown" => {
            let mut w = json::Writer::compact();
            w.obj(|w| w.field_str("type", "ok"));
            writeln!(out, "{}", w.finish())?;
            Ok(true)
        }
        "submit" => {
            let specs = match parse_jobs(&parsed) {
                Ok(specs) => specs,
                Err(e) => {
                    writeln!(out, "{}", error_line(&e))?;
                    return Ok(false);
                }
            };
            let n = specs.len();
            let rx = service.submit_batch(specs);
            let (mut hits, mut executed, mut failed) = (0u64, 0u64, 0u64);
            for result in rx.into_iter().take(n) {
                match result.status {
                    JobStatus::Hit => hits += 1,
                    JobStatus::Executed => executed += 1,
                    JobStatus::Failed => failed += 1,
                }
                let mut w = json::Writer::compact();
                w.obj(|w| {
                    w.field_str("type", "job");
                    w.field_u64("index", result.index as u64);
                    w.field_str("label", &result.label);
                    w.field_str("key", &format!("{:016x}", result.key));
                    w.field_str(
                        "status",
                        match result.status {
                            JobStatus::Hit => "hit",
                            JobStatus::Executed => "done",
                            JobStatus::Failed => "failed",
                        },
                    );
                    if let Some(error) = &result.error {
                        w.field_str("error", error);
                    }
                    w.field_f64("queue_ms", result.timing.queue_wait.as_secs_f64() * 1e3);
                    w.field_f64("exec_ms", result.timing.execution.as_secs_f64() * 1e3);
                });
                writeln!(out, "{}", w.finish())?;
                if let Some(document) = &result.document {
                    writeln!(out, "{document}")?;
                }
                // Stream each result as it completes.
                out.flush()?;
            }
            let mut w = json::Writer::compact();
            w.obj(|w| {
                w.field_str("type", "done");
                w.field_u64("jobs", n as u64);
                w.field_u64("hits", hits);
                w.field_u64("executed", executed);
                w.field_u64("failed", failed);
            });
            writeln!(out, "{}", w.finish())?;
            Ok(false)
        }
        other => {
            writeln!(
                out,
                "{}",
                error_line(&format!("unknown request type {other:?}"))
            )?;
            Ok(false)
        }
    }
}

fn parse_jobs(request: &Value) -> Result<Vec<JobSpec>, String> {
    let jobs = match request.get("jobs") {
        Some(Value::Arr(jobs)) => jobs,
        _ => return Err("submit needs a \"jobs\" array".into()),
    };
    jobs.iter()
        .enumerate()
        .map(|(i, v)| JobSpec::from_json(v).map_err(|e| format!("jobs[{i}]: {e}")))
        .collect()
}

fn error_line(message: &str) -> String {
    let mut w = json::Writer::compact();
    w.obj(|w| {
        w.field_str("type", "error");
        w.field_str("error", message);
    });
    w.finish()
}

/// The canonical stats document (one line): also the CI artifact body.
pub fn stats_line(snapshot: &ServiceSnapshot) -> String {
    let mut w = json::Writer::compact();
    w.obj(|w| {
        w.field_str("type", "stats");
        w.field_str("code_version", CODE_VERSION);
        w.field_u64("submitted", snapshot.service.submitted);
        w.field_u64("hits", snapshot.service.hits);
        w.field_u64("coalesced", snapshot.service.coalesced);
        w.field_u64("executed", snapshot.service.executed);
        w.field_u64("failed", snapshot.service.failed);
        w.field_u64("cache_hits", snapshot.cache.hits);
        w.field_u64("cache_misses", snapshot.cache.misses);
        w.field_u64("cache_insertions", snapshot.cache.insertions);
        w.field_u64("cache_evictions", snapshot.cache.evictions);
        w.field_u64("cache_loaded", snapshot.cache.loaded);
        w.field_u64("cache_rejected", snapshot.cache.rejected);
        w.field_u64("cache_entries", snapshot.cache_entries as u64);
        w.field_u64("cache_bytes", snapshot.cache_bytes as u64);
    });
    w.finish()
}

/// One job result as seen by a protocol client. The document is the
/// verbatim line the server streamed — bytes preserved, never re-encoded.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientJobResult {
    /// Position in the submitted batch.
    pub index: usize,
    /// The spec's display label.
    pub label: String,
    /// The content-address key, as 16 hex digits.
    pub key: String,
    /// `hit`, `done`, or `failed`.
    pub status: String,
    /// The result document (`None` on failure).
    pub document: Option<String>,
    /// The failure reason (`None` on success).
    pub error: Option<String>,
}

impl ClientJobResult {
    /// Whether this result was served from the cache.
    pub fn is_hit(&self) -> bool {
        self.status == "hit"
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr`, retrying for up to `retry_for` (covering the
    /// serve-then-submit race in scripts that background the server).
    pub fn connect(addr: &str, retry_for: Option<Duration>) -> std::io::Result<Client> {
        let deadline = retry_for.map(|d| Instant::now() + d);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok(Client {
                        reader,
                        writer: stream,
                    });
                }
                Err(e) => match deadline {
                    Some(deadline) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    _ => return Err(e),
                },
            }
        }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    /// Round-trips a ping, returning the server's code version.
    pub fn ping(&mut self) -> Result<String, String> {
        self.send("{\"type\": \"ping\"}")?;
        let reply = self.recv()?;
        let v = json::parse(&reply)?;
        match (v.get("type"), v.get("code_version")) {
            (Some(Value::Str(t)), Some(Value::Str(cv))) if t == "pong" => Ok(cv.clone()),
            _ => Err(format!("unexpected ping reply: {reply}")),
        }
    }

    /// Fetches the stats document line.
    pub fn stats(&mut self) -> Result<String, String> {
        self.send("{\"type\": \"stats\"}")?;
        let reply = self.recv()?;
        match json::parse(&reply)?.get("type") {
            Some(Value::Str(t)) if t == "stats" => Ok(reply),
            _ => Err(format!("unexpected stats reply: {reply}")),
        }
    }

    /// Submits a batch and collects every result, returned in submission
    /// order.
    pub fn submit(&mut self, specs: &[JobSpec]) -> Result<Vec<ClientJobResult>, String> {
        // The request line only has to parse, not be canonical — build it
        // directly around the specs' canonical spellings.
        let mut line = String::from("{\"type\": \"submit\", \"jobs\": [");
        for (i, spec) in specs.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            line.push_str(&spec.to_canonical_json());
        }
        line.push_str("]}");
        self.send(&line)?;

        let mut results = Vec::with_capacity(specs.len());
        loop {
            let event_line = self.recv()?;
            let event = json::parse(&event_line)?;
            let kind = match event.get("type") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err(format!("untyped event: {event_line}")),
            };
            match kind.as_str() {
                "job" => {
                    let status = match event.get("status") {
                        Some(Value::Str(s)) => s.clone(),
                        _ => return Err(format!("job event without status: {event_line}")),
                    };
                    let document = if status == "failed" {
                        None
                    } else {
                        Some(self.recv()?)
                    };
                    results.push(ClientJobResult {
                        index: event
                            .get("index")
                            .and_then(Value::as_f64)
                            .ok_or("job event without index")?
                            as usize,
                        label: match event.get("label") {
                            Some(Value::Str(s)) => s.clone(),
                            _ => String::new(),
                        },
                        key: match event.get("key") {
                            Some(Value::Str(s)) => s.clone(),
                            _ => String::new(),
                        },
                        status,
                        document,
                        error: match event.get("error") {
                            Some(Value::Str(s)) => Some(s.clone()),
                            _ => None,
                        },
                    });
                }
                "done" => break,
                "error" => {
                    return Err(match event.get("error") {
                        Some(Value::Str(e)) => e.clone(),
                        _ => event_line,
                    })
                }
                other => return Err(format!("unexpected event type {other:?}")),
            }
        }
        results.sort_by_key(|r| r.index);
        Ok(results)
    }

    /// Asks the server to shut down.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send("{\"type\": \"shutdown\"}")?;
        let reply = self.recv()?;
        match json::parse(&reply)?.get("type") {
            Some(Value::Str(t)) if t == "ok" => Ok(()),
            _ => Err(format!("unexpected shutdown reply: {reply}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_all(input: &[u8], max: usize) -> Vec<RequestLine> {
        // A tiny buffer so over-long lines span several buffer refills.
        let mut reader = BufReader::with_capacity(3, Cursor::new(input.to_vec()));
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            let line = read_request_line(&mut reader, &mut buf, max).expect("in-memory read");
            if line == RequestLine::Eof {
                return out;
            }
            out.push(line);
        }
    }

    #[test]
    fn lines_up_to_the_cap_are_read_and_longer_ones_skipped() {
        let got = read_all(b"abcd\nabcd\r\nabcdefghij\nok\nlast", 5);
        assert_eq!(
            got,
            [
                RequestLine::Line("abcd".into()),
                RequestLine::Line("abcd".into()),
                RequestLine::Rejected("request line longer than 5 bytes".into()),
                RequestLine::Line("ok".into()),
                RequestLine::Line("last".into()),
            ]
        );
    }

    #[test]
    fn an_over_long_final_line_without_newline_is_rejected() {
        assert_eq!(
            read_all(b"0123456789", 4),
            [RequestLine::Rejected(
                "request line longer than 4 bytes".into()
            )]
        );
    }

    #[test]
    fn non_utf8_lines_are_rejected_without_ending_the_stream() {
        assert_eq!(
            read_all(b"\xff\xfe\nok\n", 16),
            [
                RequestLine::Rejected("request line is not UTF-8".into()),
                RequestLine::Line("ok".into()),
            ]
        );
    }
}
