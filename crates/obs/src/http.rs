//! The live exposition endpoint: a hand-rolled HTTP listener.
//!
//! Same philosophy as `dpd serve`'s TCP front-end: no framework, no
//! async runtime — a `std::net` accept loop on its own thread,
//! answering `GET /metrics` with the registry's rendered page.
//! Scrapes are rare (seconds apart) and the render is a single pass
//! over pre-aggregated atomics, so connections are served serially.
//! Each request has one deadline, `CLIENT_TIMEOUT` after accept, and
//! every read and write waits at most for the time left until it, so a
//! stalled or trickling client holds the loop for at most that long.
//!
//! [`scrape`] is the matching minimal client, used by `dpd stats` and
//! the serve-smoke CI check.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::registry::Registry;

/// Longest request head we will buffer before giving up on a client.
const MAX_REQUEST: usize = 8 * 1024;

/// How long one request may take, from accept to the last byte of the
/// response, before we drop the client.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

/// Serves `GET /metrics` for one [`Registry`] on its own thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    scrapes: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start serving.
    pub fn start(registry: Registry, addr: &str) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let scrapes = Arc::new(AtomicU64::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let scrapes = Arc::clone(&scrapes);
            std::thread::Builder::new()
                .name("dpd-metrics".into())
                .spawn(move || accept_loop(listener, registry, stop, scrapes))?
        };
        Ok(MetricsServer {
            addr,
            stop,
            scrapes,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of `/metrics` pages served so far.
    pub fn scrapes(&self) -> u64 {
        self.scrapes.load(Ordering::Relaxed)
    }

    /// Stop the accept loop and join the thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the (blocking) accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    registry: Registry,
    stop: Arc<AtomicBool>,
    scrapes: Arc<AtomicU64>,
) {
    loop {
        let (sock, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = serve_one(sock, &registry, &scrapes);
    }
}

fn serve_one(mut sock: TcpStream, registry: &Registry, scrapes: &AtomicU64) -> io::Result<()> {
    let deadline = Instant::now() + CLIENT_TIMEOUT;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    // Read until the blank line that ends the request head.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_REQUEST {
            return respond(
                &mut sock,
                deadline,
                "400 Bad Request",
                "request too large\n",
            );
        }
        arm(&sock, deadline)?;
        match sock.read(&mut buf) {
            Ok(0) => return Ok(()),
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(_) => return Ok(()),
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(
            &mut sock,
            deadline,
            "405 Method Not Allowed",
            "only GET is served\n",
        );
    }
    match path {
        "/metrics" => {
            scrapes.fetch_add(1, Ordering::Relaxed);
            respond(&mut sock, deadline, "200 OK", &registry.render())
        }
        "/" => respond(
            &mut sock,
            deadline,
            "200 OK",
            "dpd metrics endpoint; scrape /metrics\n",
        ),
        _ => respond(&mut sock, deadline, "404 Not Found", "scrape /metrics\n"),
    }
}

fn respond(sock: &mut TcpStream, deadline: Instant, status: &str, body: &str) -> io::Result<()> {
    let page = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut rest = page.as_bytes();
    while !rest.is_empty() {
        arm(sock, deadline)?;
        match sock.write(rest)? {
            0 => return Err(io::ErrorKind::WriteZero.into()),
            n => rest = &rest[n..],
        }
    }
    let _ = sock.shutdown(Shutdown::Write);
    Ok(())
}

/// Set `sock`'s read and write timeouts to the time left until
/// `deadline`; `TimedOut` once it has passed.
fn arm(sock: &TcpStream, deadline: Instant) -> io::Result<()> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(io::ErrorKind::TimedOut.into());
    }
    sock.set_read_timeout(Some(left))?;
    sock.set_write_timeout(Some(left))
}

/// Fetch `/metrics` from a [`MetricsServer`] at `addr` and return the
/// page body. A minimal HTTP/1.0 client: one request, read to EOF,
/// strip the response head, check for `200`.
pub fn scrape<A: ToSocketAddrs>(addr: A) -> io::Result<String> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    sock.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    sock.write_all(b"GET /metrics HTTP/1.0\r\nHost: dpd\r\n\r\n")?;
    let mut raw = String::new();
    sock.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no HTTP response head"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("metrics endpoint answered `{status}`"),
        ));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_exposition;

    #[test]
    fn serves_and_scrapes_metrics() {
        let reg = Registry::new();
        reg.counter("t_total", "a counter").add(42);
        let server = MetricsServer::start(reg.clone(), "127.0.0.1:0").unwrap();
        let body = scrape(server.local_addr()).unwrap();
        let parsed = parse_exposition(&body).unwrap();
        assert_eq!(parsed.get("t_total"), Some(42.0));
        reg.counter("t_total", "a counter").add(1);
        let again = parse_exposition(&scrape(server.local_addr()).unwrap()).unwrap();
        assert_eq!(again.get("t_total"), Some(43.0));
        assert_eq!(server.scrapes(), 2);
        server.shutdown();
    }

    #[test]
    fn unknown_path_is_404_and_non_get_405() {
        let server = MetricsServer::start(Registry::new(), "127.0.0.1:0").unwrap();
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.write_all(b"GET /nope HTTP/1.0\r\n\r\n").unwrap();
        let mut raw = String::new();
        sock.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 404"));
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut raw = String::new();
        sock.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 405"));
        server.shutdown();
    }

    #[test]
    fn trickling_client_is_dropped_at_the_request_deadline() {
        let server = MetricsServer::start(Registry::new(), "127.0.0.1:0").unwrap();
        let mut slow = TcpStream::connect(server.local_addr()).unwrap();
        // The read timeout paces the trickle: one byte of a request head
        // every 250 ms, never the blank line that ends it.
        slow.set_read_timeout(Some(Duration::from_millis(250)))
            .unwrap();
        let start = Instant::now();
        let limit = CLIENT_TIMEOUT + Duration::from_secs(2);
        let closed = loop {
            if start.elapsed() > limit {
                break false;
            }
            if slow.write_all(b"G").is_err() {
                break true;
            }
            match slow.read(&mut [0u8; 1]) {
                Ok(0) => break true,
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => break true,
            }
        };
        assert!(
            closed,
            "a trickling client still held the endpoint after {:?}",
            start.elapsed()
        );
        scrape(server.local_addr()).expect("scrape after the trickler");
        assert_eq!(server.scrapes(), 1);
        server.shutdown();
    }
}
