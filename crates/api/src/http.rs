//! Minimal HTTP/1.1 server and client over `std::net`.
//!
//! The server parses one request per connection (`Connection: close`
//! semantics), dispatches it to a handler on a crossbeam-fed worker pool
//! ("an asynchronous API allows the server side calculation pipelines to
//! run concurrently", paper §III-A) and writes the response. No external
//! web framework is on the offline dependency allow-list, so this is a
//! deliberately small, well-tested implementation.
//!
//! Nothing on the request path waits on a timer: the accept thread blocks
//! in `accept` (shutdown wakes it with a throwaway connection), and each
//! message goes to its socket in one `write`.

use crossbeam::channel::{unbounded, Sender};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker waits for a whole request, counted from when it
/// starts reading; a request not read by then is answered `408`.
const REQUEST_READ_DEADLINE: Duration = Duration::from_secs(10);
/// Maximum accepted request body (1 MiB) — model requests are small.
const MAX_BODY: usize = 1024 * 1024;
/// Longest accepted request or header line, terminator included.
const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most header lines accepted in one request.
const MAX_HEADER_LINES: usize = 100;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method (`GET`, `POST`, ...), upper-case.
    pub method: String,
    /// Path without the query string, e.g. `/model/traffic/heron/wc`.
    pub path: String,
    /// Decoded query parameters.
    pub query: BTreeMap<String, String>,
    /// Headers, keys lower-cased.
    pub headers: BTreeMap<String, String>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

/// Header carrying the request id (lower-case, as parsed).
pub const REQUEST_ID_HEADER: &str = "x-request-id";

impl Request {
    /// The body as UTF-8, if valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// The request id minted at the server edge (or supplied by the
    /// client). Always present on requests delivered through
    /// [`HttpServer::serve`]; absent only on hand-built requests.
    pub fn request_id(&self) -> Option<caladrius_obs::RequestId> {
        self.headers
            .get(REQUEST_ID_HEADER)
            .and_then(|v| caladrius_obs::RequestId::parse(v))
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Content type header value.
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Extra response headers beyond the standard set (e.g.
    /// `Retry-After` on a per-topology cap's 429).
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "application/json".into(),
            body: body.into().into_bytes(),
            headers: Vec::new(),
        }
    }

    /// A JSON response with an explicit status.
    pub fn json_status(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            ..Response::json(body)
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".into(),
            body: body.into().into_bytes(),
            headers: Vec::new(),
        }
    }

    /// Builder-style extra header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }

    /// Renders the whole message into one buffer and hands it over in one
    /// `write_all`: on a socket every `write` is a syscall and a segment.
    fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        let mut message = Vec::with_capacity(160 + self.body.len());
        write!(
            message,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.status_text(),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(message, "{name}: {value}\r\n")?;
        }
        message.extend_from_slice(b"\r\n");
        message.extend_from_slice(&self.body);
        stream.write_all(&message)?;
        stream.flush()
    }
}

/// The request handler signature.
pub type Handler = Arc<dyn Fn(Request) -> Response + Send + Sync>;

/// A running HTTP server; dropping it (or calling
/// [`HttpServer::shutdown`]) stops the accept loop.
pub struct HttpServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl HttpServer {
    /// Binds and starts serving on `addr` (use port 0 for an ephemeral
    /// port) with `workers` handler threads.
    pub fn serve(
        addr: impl ToSocketAddrs,
        workers: usize,
        handler: Handler,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let (tx, rx) = unbounded::<TcpStream>();
        for _ in 0..workers.max(1) {
            let rx = rx.clone();
            let handler = Arc::clone(&handler);
            std::thread::spawn(move || {
                while let Ok(stream) = rx.recv() {
                    handle_connection(stream, &handler, REQUEST_READ_DEADLINE);
                }
            });
        }

        let stop_flag = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(listener, tx, stop_flag);
        });

        Ok(HttpServer {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let Some(handle) = self.accept_thread.take() else {
            return;
        };
        // The accept thread is blocked in `accept`: one throwaway
        // connection wakes it, it sees the flag and exits. If the
        // connection cannot be made the thread is left detached rather
        // than joined, so shutdown never hangs.
        if TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1)).is_ok() {
            let _ = handle.join();
        }
    }
}

/// Where to connect to reach a listener bound to `bound`: a listener on
/// the unspecified address is reached through its family's loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound {
        SocketAddr::V4(a) if a.ip().is_unspecified() => Ipv4Addr::LOCALHOST.into(),
        SocketAddr::V6(a) if a.ip().is_unspecified() => Ipv6Addr::LOCALHOST.into(),
        _ => bound.ip(),
    };
    SocketAddr::new(ip, bound.port())
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Only the stop flag ends the loop: a failed `accept` is retried, so one
/// aborted handshake or a spell of fd exhaustion cannot leave a server
/// that still reports its address but no longer listens.
fn accept_loop(listener: TcpListener, tx: Sender<TcpStream>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Checked again because `shutdown` wakes this thread with
                // a connection, which is dropped here unserved.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) => {
                if let Some(pause) = accept_backoff(e.kind()) {
                    caladrius_obs::global_registry()
                        .counter("caladrius_http_accept_errors_total", &[])
                        .inc();
                    std::thread::sleep(pause);
                }
            }
        }
    }
}

/// How long to pause after a failed `accept` before trying again. A
/// failure of the one connection being accepted (`None`) says nothing
/// about the next; anything else (fd exhaustion included) would fail
/// again at once, so it is counted and waited out.
fn accept_backoff(kind: ErrorKind) -> Option<Duration> {
    match kind {
        ErrorKind::ConnectionAborted | ErrorKind::ConnectionReset | ErrorKind::Interrupted => None,
        _ => Some(Duration::from_millis(10)),
    }
}

/// A socket read against one deadline for the whole request: each
/// `read` may block only for the time that is left, so a client that
/// trickles bytes cannot hold a worker past the deadline.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// Reads one request off `stream` within `read_deadline`, answers it
/// through `handler` (or with the rejection) and writes the response.
fn handle_connection(stream: TcpStream, handler: &Handler, read_deadline: Duration) {
    let mut stream = stream;
    let mut reader = DeadlineReader {
        stream: &stream,
        deadline: Instant::now() + read_deadline,
    };
    let response = match read_request(&mut reader) {
        Ok(mut request) => {
            // Mint a request id at the service edge when the client did
            // not send one; every downstream span records under it.
            request
                .headers
                .entry(REQUEST_ID_HEADER.to_string())
                .or_insert_with(|| caladrius_obs::next_request_id().to_string());
            handler(request)
        }
        Err(rejection) => rejection,
    };
    let _ = response.write_to(&mut stream);
}

fn bad_request(message: impl Into<String>) -> Response {
    Response::text(400, message)
}

/// The rejection for a failed read: `408` when the read deadline ran
/// out, `400` for anything else.
fn read_failure(what: &str, e: &std::io::Error) -> Response {
    match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => {
            Response::text(408, "request not received before the read deadline")
        }
        _ => bad_request(format!("{what}: {e}")),
    }
}

/// Reads one line of the header section into `line`, refusing (`431`) to
/// buffer more than [`MAX_HEADER_LINE`] bytes of a line that never ends.
fn read_header_line(reader: &mut impl BufRead, line: &mut String) -> Result<(), Response> {
    line.clear();
    reader
        .take(MAX_HEADER_LINE as u64)
        .read_line(line)
        .map_err(|e| read_failure("read error", &e))?;
    if line.len() == MAX_HEADER_LINE && !line.ends_with('\n') {
        return Err(Response::text(
            431,
            format!("header line longer than {MAX_HEADER_LINE} bytes"),
        ));
    }
    Ok(())
}

/// Reads and parses one HTTP/1.1 request from a stream. The error is the
/// response that rejects the request (`400`, `408`, `413` or `431`).
pub fn read_request(stream: &mut impl Read) -> Result<Request, Response> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    read_header_line(&mut reader, &mut line)?;
    let mut parts = line.split_whitespace();
    let mut next_part = |what| {
        parts
            .next()
            .ok_or_else(|| bad_request(format!("missing {what}")))
    };
    let method = next_part("method")?.to_uppercase();
    let target = next_part("request target")?.to_string();
    let version = next_part("HTTP version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad_request(format!("unsupported version {version}")));
    }

    let mut headers = BTreeMap::new();
    for lines_read in 0.. {
        read_header_line(&mut reader, &mut line)?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if lines_read == MAX_HEADER_LINES {
            return Err(Response::text(
                431,
                format!("more than {MAX_HEADER_LINES} header lines"),
            ));
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(bad_request(format!("malformed header {trimmed:?}")));
        };
        headers.insert(name.trim().to_lowercase(), value.trim().to_string());
    }

    let content_length: usize = headers
        .get("content-length")
        .map(|v| v.parse().map_err(|_| bad_request("invalid content-length")))
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(Response::text(
            413,
            format!("body too large ({content_length} bytes)"),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| read_failure("body read error", &e))?;

    let (path, query) = parse_target(&target);
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// Splits a request target into path + decoded query map.
pub fn parse_target(target: &str) -> (String, BTreeMap<String, String>) {
    match target.split_once('?') {
        None => (percent_decode(target), BTreeMap::new()),
        Some((path, query_string)) => {
            let mut query = BTreeMap::new();
            for pair in query_string.split('&').filter(|p| !p.is_empty()) {
                match pair.split_once('=') {
                    Some((k, v)) => query.insert(percent_decode(k), percent_decode(v)),
                    None => query.insert(percent_decode(pair), String::new()),
                };
            }
            (percent_decode(path), query)
        }
    }
}

/// Percent-decodes a URL component (also maps `+` to space). Malformed
/// escapes are passed through verbatim.
pub fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 3 <= bytes.len() {
            if let Some(b) = std::str::from_utf8(&bytes[i + 1..i + 3])
                .ok()
                .and_then(|hex| u8::from_str_radix(hex, 16).ok())
            {
                out.push(b);
                i += 3;
                continue;
            }
        }
        out.push(if bytes[i] == b'+' { b' ' } else { bytes[i] });
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A tiny blocking HTTP client for tests, examples and the CLI.
#[derive(Debug, Clone)]
pub struct HttpClient {
    addr: std::net::SocketAddr,
}

impl HttpClient {
    /// Creates a client for a server address.
    pub fn new(addr: std::net::SocketAddr) -> Self {
        Self { addr }
    }

    /// Issues a GET and returns `(status, body)`.
    pub fn get(&self, target: &str) -> std::io::Result<(u16, String)> {
        let (status, _, body) = self.request("GET", target, None, &[])?;
        Ok((status, body))
    }

    /// Issues a POST with a JSON body and returns `(status, body)`.
    pub fn post(&self, target: &str, body: &str) -> std::io::Result<(u16, String)> {
        let (status, _, body) = self.request("POST", target, Some(body), &[])?;
        Ok((status, body))
    }

    /// [`HttpClient::post`] with request headers, returning the response
    /// headers too (keys lower-cased), e.g. `Retry-After` off a 429.
    pub fn post_full(
        &self,
        target: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> std::io::Result<(u16, BTreeMap<String, String>, String)> {
        self.request("POST", target, Some(body), headers)
    }

    fn request(
        &self,
        method: &str,
        target: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<(u16, BTreeMap<String, String>, String)> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let body = body.unwrap_or("");
        let mut message = format!(
            "{method} {target} HTTP/1.1\r\nHost: caladrius\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
            body.len()
        );
        for (name, value) in extra_headers {
            message.push_str(&format!("{name}: {value}\r\n"));
        }
        message.push_str("\r\n");
        message.push_str(body);
        stream.write_all(message.as_bytes())?;
        stream.flush()?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        let status = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other("malformed response"))?;
        let (head, body) = raw
            .split_once("\r\n\r\n")
            .map(|(h, b)| (h.to_string(), b.to_string()))
            .unwrap_or_default();
        let mut headers = BTreeMap::new();
        for line in head.lines().skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                headers.insert(name.trim().to_lowercase(), value.trim().to_string());
            }
        }
        Ok((status, headers, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_target_splits_query() {
        let (path, query) = parse_target("/model/traffic/heron/wc?model=prophet&h=60");
        assert_eq!(path, "/model/traffic/heron/wc");
        assert_eq!(query["model"], "prophet");
        assert_eq!(query["h"], "60");
        let (path, query) = parse_target("/health");
        assert_eq!(path, "/health");
        assert!(query.is_empty());
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b"), "a b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%2Fx"), "/x");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn read_request_parses_post() {
        let raw = b"POST /x?a=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/x");
        assert_eq!(req.query["a"], "1");
        assert_eq!(req.headers["host"], "h");
        assert_eq!(req.body_str(), Some("body"));
    }

    #[test]
    fn read_request_rejects_garbage() {
        assert!(read_request(&mut &b"NOT-HTTP\r\n\r\n"[..]).is_err());
        assert!(read_request(&mut &b"GET / SPDY/1\r\n\r\n"[..]).is_err());
        assert!(read_request(&mut &b"GET / HTTP/1.1\r\nbad header\r\n\r\n"[..]).is_err());
        assert!(
            read_request(&mut &b"GET / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"[..])
                .is_err()
        );
    }

    #[test]
    fn server_roundtrip() {
        let handler: Handler = Arc::new(|req: Request| {
            Response::json(format!(
                "{{\"path\":\"{}\",\"method\":\"{}\"}}",
                req.path, req.method
            ))
        });
        let server = HttpServer::serve("127.0.0.1:0", 2, handler).unwrap();
        let client = HttpClient::new(server.local_addr());
        let (status, body) = client.get("/hello?x=1").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"/hello\""));
        let (status, body) = client.post("/submit", "{\"a\":1}").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("POST"));
    }

    #[test]
    fn server_concurrent_requests() {
        let handler: Handler = Arc::new(|_req: Request| {
            std::thread::sleep(Duration::from_millis(30));
            Response::json("{\"ok\":true}")
        });
        let server = HttpServer::serve("127.0.0.1:0", 4, handler).unwrap();
        let addr = server.local_addr();
        let start = std::time::Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(move || HttpClient::new(addr).get("/").unwrap().0))
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 200);
        }
        // 4 requests at 30ms on 4 workers should take well under 4x30ms.
        assert!(start.elapsed() < Duration::from_millis(110));
    }

    #[test]
    fn shutdown_stops_accepting() {
        let handler: Handler = Arc::new(|_| Response::json("{}"));
        let mut server = HttpServer::serve("127.0.0.1:0", 1, handler).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        // After shutdown new connections must fail (refused) or at least
        // not be answered.
        let result = HttpClient::new(addr).get("/");
        assert!(result.is_err() || result.unwrap().0 != 200);
    }

    #[test]
    fn oversized_header_section_is_rejected_unread() {
        // A header line that never ends: refused once the cap is buffered,
        // with all but a read-ahead's worth of the 1 MiB left unread.
        let mut raw = b"GET / HTTP/1.1\r\nx-filler: ".to_vec();
        raw.resize(raw.len() + MAX_BODY, b'a');
        let mut rest = &raw[..];
        let rejection = read_request(&mut rest).unwrap_err();
        assert_eq!(rejection.status, 431);
        assert!(raw.len() - rest.len() <= 4 * MAX_HEADER_LINE);

        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..10_000 {
            raw.extend_from_slice(format!("x-h{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let mut rest = &raw[..];
        let rejection = read_request(&mut rest).unwrap_err();
        assert_eq!(rejection.status, 431);
        assert!(raw.len() - rest.len() <= 4 * MAX_HEADER_LINE);

        // The caps themselves are accepted.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADER_LINES - 1 {
            raw.extend_from_slice(format!("x-h{i}: v\r\n").as_bytes());
        }
        let mut longest = b"x-long: ".to_vec();
        longest.resize(MAX_HEADER_LINE - 2, b'a');
        raw.extend_from_slice(&longest);
        raw.extend_from_slice(b"\r\n\r\n");
        let request = read_request(&mut &raw[..]).unwrap();
        assert_eq!(request.headers.len(), MAX_HEADER_LINES);

        let too_big = b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n";
        let rejection = read_request(&mut &too_big[..]).unwrap_err();
        assert_eq!(rejection.status, 413);
        assert_eq!(rejection.status_text(), "Payload Too Large");
        assert_eq!(
            Response::text(431, "").status_text(),
            "Request Header Fields Too Large"
        );
    }

    #[test]
    fn accept_errors_never_end_the_server() {
        for kind in [
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
            ErrorKind::Interrupted,
        ] {
            assert_eq!(accept_backoff(kind), None, "{kind:?} is retried at once");
        }
        // EMFILE/ENFILE surface as uncategorised kinds; they and everything
        // else are waited out, not treated as fatal.
        for kind in [
            ErrorKind::Other,
            ErrorKind::OutOfMemory,
            ErrorKind::WouldBlock,
        ] {
            assert!(accept_backoff(kind).is_some(), "{kind:?} backs off");
        }
    }

    #[test]
    fn no_timer_on_the_request_path() {
        let handler: Handler = Arc::new(|_| Response::json("{}"));
        let server = HttpServer::serve("127.0.0.1:0", 1, handler).unwrap();
        let client = HttpClient::new(server.local_addr());
        let start = std::time::Instant::now();
        for _ in 0..50 {
            assert_eq!(client.get("/").unwrap().0, 200);
        }
        // A closed-loop client lands just after an accept poll went to
        // sleep, so a 5 ms poll interval costs 50 x ~5 ms here.
        assert!(
            start.elapsed() < Duration::from_millis(125),
            "50 sequential requests took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn shutdown_is_prompt_and_idempotent() {
        let handler: Handler = Arc::new(|_| Response::json("{}"));
        let mut server = HttpServer::serve("127.0.0.1:0", 1, handler).unwrap();
        let addr = server.local_addr();
        let start = std::time::Instant::now();
        server.shutdown();
        assert!(start.elapsed() < Duration::from_secs(1));
        server.shutdown();
        assert!(TcpStream::connect(addr).is_err(), "listener is closed");
    }

    #[test]
    fn drop_does_not_wait_for_a_running_handler() {
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let handler: Handler = Arc::new(move |_| {
            entered_tx.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(200));
            Response::json("{}")
        });
        let server = HttpServer::serve("127.0.0.1:0", 1, handler).unwrap();
        let addr = server.local_addr();
        let client = std::thread::spawn(move || HttpClient::new(addr).get("/"));
        entered_rx.recv().unwrap();
        let start = std::time::Instant::now();
        drop(server);
        assert!(start.elapsed() < Duration::from_millis(150));
        // The request already handed to a worker is still answered.
        assert_eq!(client.join().unwrap().unwrap().0, 200);
    }

    #[test]
    fn wake_addr_reaches_unspecified_binds_through_loopback() {
        let wake = |s: &str| wake_addr(s.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:81"), "127.0.0.1:81");
        assert_eq!(wake("[::]:81"), "[::1]:81");
        assert_eq!(wake("127.0.0.1:81"), "127.0.0.1:81");
        let handler: Handler = Arc::new(|_| Response::json("{}"));
        let mut server = HttpServer::serve("0.0.0.0:0", 1, handler).unwrap();
        let start = std::time::Instant::now();
        server.shutdown();
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn response_is_one_write() {
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let response = Response::json_status(429, "{\"error\":\"shed\"}")
            .with_header("Retry-After", "2")
            .with_header("x-request-id", "00ff");
        let mut sink = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        response.write_to(&mut sink).unwrap();
        assert_eq!(sink.writes, 1);
        assert_eq!(
            String::from_utf8(sink.bytes).unwrap(),
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
             Content-Length: 16\r\nConnection: close\r\nRetry-After: 2\r\n\
             x-request-id: 00ff\r\n\r\n{\"error\":\"shed\"}"
        );
    }

    /// A client that sends one header byte every 50 ms is answered `408`
    /// once the 300-ms read deadline has passed, not when it stops.
    #[test]
    fn a_trickling_client_is_cut_off_at_the_read_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut writer = stream.try_clone().unwrap();
            let trickle = std::thread::spawn(move || {
                // 45 bytes at 50 ms each: over two seconds to send in full.
                for &byte in b"GET / HTTP/1.1\r\nx-pad: aaaaaaaaaaaaaaaaaa\r\n\r\n" {
                    if writer.write_all(&[byte]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            });
            let mut response = Vec::new();
            let _ = (&stream).read_to_end(&mut response);
            trickle.join().unwrap();
            String::from_utf8_lossy(&response).into_owned()
        });
        let (stream, _) = listener.accept().unwrap();
        let handler: Handler = Arc::new(|_| Response::json("{}"));
        let start = Instant::now();
        handle_connection(stream, &handler, Duration::from_millis(300));
        let held = start.elapsed();
        let response = client.join().unwrap();
        assert!(
            response.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "{response:?}"
        );
        assert!(held < Duration::from_secs(1), "worker held for {held:?}");
    }

    #[test]
    fn response_status_text() {
        assert_eq!(Response::text(404, "nope").status_text(), "Not Found");
        assert_eq!(Response::json_status(202, "{}").status_text(), "Accepted");
        assert_eq!(Response::text(408, "").status_text(), "Request Timeout");
        assert_eq!(Response::json("{}").status_text(), "OK");
        assert_eq!(Response::text(599, "?").status_text(), "Unknown");
    }
}
