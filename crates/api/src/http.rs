//! Minimal HTTP/1.1 server and client over `std::net`.
//!
//! The server parses one request per connection (`Connection: close`
//! semantics), dispatches it to a handler on a crossbeam-fed worker pool
//! ("an asynchronous API allows the server side calculation pipelines to
//! run concurrently", paper §III-A) and writes the response. No external
//! web framework is on the offline dependency allow-list, so this is a
//! deliberately small, well-tested implementation.

use crossbeam::channel::{unbounded, Sender};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum accepted request body (1 MiB) — model requests are small.
const MAX_BODY: usize = 1024 * 1024;

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
    /// `Retry-After` on load-shedding 429s).
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
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }

    fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.status_text(),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(stream, "{name}: {value}\r\n")?;
        }
        stream.write_all(b"\r\n")?;
        stream.write_all(&self.body)?;
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
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));

        let (tx, rx) = unbounded::<TcpStream>();
        for _ in 0..workers.max(1) {
            let rx = rx.clone();
            let handler = Arc::clone(&handler);
            std::thread::spawn(move || {
                while let Ok(stream) = rx.recv() {
                    handle_connection(stream, &handler);
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
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, tx: Sender<TcpStream>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

fn handle_connection(stream: TcpStream, handler: &Handler) {
    let mut stream = stream;
    let response = match read_request(&mut stream) {
        Ok(mut request) => {
            // Mint a request id at the service edge when the client did
            // not send one; every downstream span records under it.
            request
                .headers
                .entry(REQUEST_ID_HEADER.to_string())
                .or_insert_with(|| caladrius_obs::next_request_id().to_string());
            handler(request)
        }
        Err(msg) => Response::text(400, msg),
    };
    let _ = response.write_to(&mut stream);
}

/// Reads and parses one HTTP/1.1 request from a stream.
pub fn read_request(stream: &mut impl Read) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read error: {e}"))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("missing method")?.to_uppercase();
    let target = parts.next().ok_or("missing request target")?.to_string();
    let version = parts.next().ok_or("missing HTTP version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version {version}"));
    }

    let mut headers = BTreeMap::new();
    loop {
        let mut header_line = String::new();
        reader
            .read_line(&mut header_line)
            .map_err(|e| format!("read error: {e}"))?;
        let trimmed = header_line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(format!("malformed header {trimmed:?}"));
        };
        headers.insert(name.trim().to_lowercase(), value.trim().to_string());
    }

    let content_length: usize = headers
        .get("content-length")
        .map(|v| v.parse().map_err(|_| "invalid content-length".to_string()))
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(format!("body too large ({content_length} bytes)"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("body read error: {e}"))?;

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
    /// headers too (keys lower-cased) — load-shedding clients read
    /// `Retry-After` off 429s, and priority rides in on `x-priority`.
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
        let mut head = format!(
            "{method} {target} HTTP/1.1\r\nHost: caladrius\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
            body.len()
        );
        for (name, value) in extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        write!(stream, "{head}\r\n{body}")?;
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
    fn response_status_text() {
        assert_eq!(Response::text(404, "nope").status_text(), "Not Found");
        assert_eq!(Response::json_status(202, "{}").status_text(), "Accepted");
        assert_eq!(Response::json("{}").status_text(), "OK");
        assert_eq!(Response::text(599, "?").status_text(), "Unknown");
    }
}
