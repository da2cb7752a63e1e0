//! The embedded control-plane HTTP server.
//!
//! [`CtlListener::bind`] grabs the socket early (so a caller can learn the
//! ephemeral port before the ring even starts); [`CtlListener::serve`]
//! spawns one accept thread that handles connections inline — the expected
//! client population is one operator and one scraper, so a thread-per
//! connection pool would be dead weight. The accept thread blocks in
//! `accept`, so a request is served the moment it connects, and re-checks
//! a stop flag after every accepted connection. [`CtlServer::shutdown`]
//! sets that flag and then wakes the thread with a connection of its own
//! (to loopback when the listener is bound to a wildcard address), so it
//! always returns promptly and drops its `Arc<dyn ControlPlane>` (the
//! runtime relies on that to reclaim sole ownership of its logs at
//! teardown).

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use ssr_mpnet::FaultKind;

use crate::http::{read_request, write_response, HttpError, Request};
use crate::plane::{parse_chaos_cmd, ControlPlane};
use crate::prom;

/// How long a single connection may dawdle on reads/writes before being
/// dropped; keeps a stuck client from wedging the accept loop.
const STREAM_TIMEOUT: Duration = Duration::from_millis(2000);
/// Pause after a failed `accept` (e.g. out of file descriptors), so a
/// persistent error does not spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(2);

/// A bound-but-not-yet-serving control listener.
///
/// Binding is split from serving because the runtime wants to print the
/// (possibly ephemeral) address before spawning node threads, and because
/// a bind error should surface before any ring state exists.
#[derive(Debug)]
pub struct CtlListener {
    listener: TcpListener,
    addr: SocketAddr,
}

impl CtlListener {
    /// Binds the control socket (port 0 picks an ephemeral port).
    pub fn bind(addr: SocketAddr) -> io::Result<CtlListener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(CtlListener { listener, addr })
    }

    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts serving `plane` on a background thread.
    pub fn serve(self, plane: Arc<dyn ControlPlane>) -> CtlServer {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let addr = self.addr;
        let listener = self.listener;
        let handle = thread::Builder::new()
            .name("ssr-ctl".to_string())
            .spawn(move || accept_loop(listener, plane, stop_flag))
            .expect("spawn ctl accept thread");
        CtlServer { addr, stop, handle: Some(handle) }
    }
}

/// A running control server; shut it down to join the accept thread and
/// release the [`ControlPlane`].
#[derive(Debug)]
pub struct CtlServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl CtlServer {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins its thread (idempotent).
    pub fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocked `accept`; the loop sees the flag and exits. If
        // the thread already left the loop, the connect is refused or lands
        // in the backlog of a listener about to close — harmless either way.
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), STREAM_TIMEOUT);
        let _ = handle.join();
    }
}

impl Drop for CtlServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Where [`CtlServer::shutdown`] connects to wake the accept thread: the
/// listener's own address, with a wildcard IP replaced by loopback.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

fn accept_loop(listener: TcpListener, plane: Arc<dyn ControlPlane>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            // The connection that woke us may be shutdown's own; drop it.
            Ok(_) if stop.load(Ordering::SeqCst) => break,
            Ok((stream, _)) => handle_connection(stream, plane.as_ref()),
            // Transient accept errors (ECONNABORTED etc.): keep serving.
            Err(_) => thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

fn handle_connection(mut stream: TcpStream, plane: &dyn ControlPlane) {
    let _ = stream.set_read_timeout(Some(STREAM_TIMEOUT));
    let _ = stream.set_write_timeout(Some(STREAM_TIMEOUT));
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(e) => {
            let (status, message) = match &e {
                HttpError::Bad(_) => (400, e.to_string()),
                HttpError::TooLarge(_) => (413, e.to_string()),
                HttpError::Io(_) => return, // peer went away; nothing to answer
            };
            let _ = write_response(&mut stream, status, "text/plain", message.as_bytes());
            return;
        }
    };
    let (status, content_type, body) = route(&request, plane);
    let _ = write_response(&mut stream, status, content_type, body.as_bytes());
}

/// Dispatches one request against the plane. Pure apart from plane calls,
/// so unit tests exercise routing without sockets.
fn route(request: &Request, plane: &dyn ControlPlane) -> (u16, &'static str, String) {
    // Plane-specific endpoints (e.g. ssr-serve's tenant registry) get first
    // refusal, so a plane can extend — or deliberately shadow — the fixed
    // routes without this crate knowing its URL space.
    if let Some(response) = plane.handle(request) {
        return response;
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => {
            (200, "text/plain; version=0.0.4; charset=utf-8", prom::render(&plane.metrics()))
        }
        ("GET", "/status") => (200, "application/json", plane.status().to_json().render()),
        ("GET", "/top") => (200, "text/plain; charset=utf-8", plane.status().render_top()),
        ("GET", "/") => (200, "text/plain; charset=utf-8", INDEX.to_string()),
        ("POST", "/chaos") => match parse_chaos_cmd(&request.body_str()) {
            Ok(cmd) => match plane.chaos(cmd) {
                Ok(message) => (200, "text/plain", message + "\n"),
                Err(message) => (422, "text/plain", message + "\n"),
            },
            Err(message) => (400, "text/plain", message + "\n"),
        },
        ("POST", "/faults") => match request.body_str().trim().parse::<FaultKind>() {
            Ok(fault) => match plane.inject(fault) {
                Ok(message) => (200, "text/plain", message + "\n"),
                Err(message) => (422, "text/plain", message + "\n"),
            },
            Err(e) => (400, "text/plain", format!("{e}\n")),
        },
        ("GET", _) => (404, "text/plain", "no such endpoint; GET / lists them\n".to_string()),
        ("POST", _) => (404, "text/plain", "no such endpoint; GET / lists them\n".to_string()),
        _ => (405, "text/plain", "only GET and POST are supported\n".to_string()),
    }
}

const INDEX: &str = "ssr-ctl endpoints:\n\
  GET  /metrics  Prometheus text exposition\n\
  GET  /status   JSON ring snapshot\n\
  GET  /top      ASCII dashboard (ssrmin top)\n\
  POST /chaos    body: partition F T | heal F T | loss P|off | corrupt P|off | truncate P|off\n\
  POST /faults   body: crash N [amnesia|snapshot] | restart N | partition F T | heal F T | corrupt-snapshot N | corrupt-state N | freeze N | babble N\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::{ChaosCmd, LinkStatus, NodeStatus, RingStatus};
    use crate::prom::{Family, MetricKind, Sample};
    use std::io::{Read, Write};
    use std::sync::Mutex;

    /// A plane that records admin calls and serves canned data.
    struct MockPlane {
        calls: Mutex<Vec<String>>,
    }

    impl MockPlane {
        fn new() -> Arc<MockPlane> {
            Arc::new(MockPlane { calls: Mutex::new(Vec::new()) })
        }
    }

    impl ControlPlane for MockPlane {
        fn status(&self) -> RingStatus {
            RingStatus {
                n: 1,
                uptime_ms: 10,
                phase: "measuring".to_string(),
                privileged: 1,
                token_count_ok: true,
                faults_applied: 0,
                restarts: 0,
                panics: 0,
                recovered: 0,
                unrecovered: 0,
                last_recovery_ms: None,
                p50_recovery_ms: None,
                p99_recovery_ms: None,
                max_recovery_ms: None,
                watchdog_escalations: 0,
                envelope_ms: 500,
                envelope_ok: true,
                nodes: vec![NodeStatus {
                    node: 0,
                    up: true,
                    incarnation: 1,
                    privileged: true,
                    primary: true,
                    secondary: false,
                    state: Some("0.0.0".to_string()),
                    coherent: Some(true),
                    generation: 1,
                    sends: 1,
                    receives: 1,
                    rule_firings: 1,
                    activations: 1,
                }],
                links: vec![LinkStatus {
                    from: 0,
                    to: 0,
                    partitioned: false,
                    forwarded: 0,
                    dropped: 0,
                    blocked: 0,
                    corrupted: 0,
                    truncated: 0,
                    netem_dropped: 0,
                }],
            }
        }

        fn metrics(&self) -> Vec<Family> {
            vec![Family::new(
                "ssr_test_total",
                "test",
                MetricKind::Counter,
                vec![Sample::plain(1.0)],
            )]
        }

        fn chaos(&self, cmd: ChaosCmd) -> Result<String, String> {
            self.calls.lock().unwrap().push(format!("chaos {cmd:?}"));
            match cmd {
                ChaosCmd::Partition { from: 9, .. } => Err("no such link".to_string()),
                _ => Ok("applied".to_string()),
            }
        }

        fn inject(&self, fault: FaultKind) -> Result<String, String> {
            self.calls.lock().unwrap().push(format!("inject {fault}"));
            Ok("queued".to_string())
        }
    }

    fn req(method: &str, path: &str, body: &str) -> Request {
        Request { method: method.to_string(), path: path.to_string(), body: body.into() }
    }

    #[test]
    fn routes_get_endpoints() {
        let plane = MockPlane::new();
        let (status, ct, body) = route(&req("GET", "/metrics", ""), plane.as_ref());
        assert_eq!(status, 200);
        assert!(ct.starts_with("text/plain; version=0.0.4"));
        assert!(body.contains("ssr_test_total 1"));

        let (status, ct, body) = route(&req("GET", "/status", ""), plane.as_ref());
        assert_eq!((status, ct), (200, "application/json"));
        assert!(crate::json::Json::parse(&body).is_ok());

        let (status, _, body) = route(&req("GET", "/top", ""), plane.as_ref());
        assert_eq!(status, 200);
        assert!(body.contains("invariant[1..=2]=OK"));

        let (status, _, _) = route(&req("GET", "/nope", ""), plane.as_ref());
        assert_eq!(status, 404);
        let (status, _, _) = route(&req("DELETE", "/status", ""), plane.as_ref());
        assert_eq!(status, 405);
    }

    /// A plane using the first-chance routing hook: extends the URL space
    /// with its own endpoint (and method) and shadows a built-in route.
    struct ExtendedPlane(Arc<MockPlane>);

    impl ControlPlane for ExtendedPlane {
        fn status(&self) -> RingStatus {
            self.0.status()
        }
        fn metrics(&self) -> Vec<Family> {
            self.0.metrics()
        }
        fn chaos(&self, cmd: ChaosCmd) -> Result<String, String> {
            self.0.chaos(cmd)
        }
        fn inject(&self, fault: FaultKind) -> Result<String, String> {
            self.0.inject(fault)
        }
        fn handle(&self, request: &Request) -> Option<(u16, &'static str, String)> {
            match (request.method.as_str(), request.path.as_str()) {
                ("GET", "/tenants") => Some((200, "application/json", "[]".to_string())),
                ("DELETE", "/tenants/1") => Some((200, "text/plain", "deleted\n".to_string())),
                ("GET", "/top") => Some((200, "text/plain", "shadowed\n".to_string())),
                _ => None,
            }
        }
    }

    #[test]
    fn plane_handle_extends_and_shadows_routes() {
        let plane = ExtendedPlane(MockPlane::new());
        let (status, ct, body) = route(&req("GET", "/tenants", ""), &plane);
        assert_eq!((status, ct, body.as_str()), (200, "application/json", "[]"));
        // Methods the fixed routes would 405 reach the plane first.
        let (status, _, _) = route(&req("DELETE", "/tenants/1", ""), &plane);
        assert_eq!(status, 200);
        let (status, _, _) = route(&req("DELETE", "/status", ""), &plane);
        assert_eq!(status, 405, "unhandled methods still fall through to 405");
        // A handled path shadows the built-in; unhandled built-ins survive.
        let (_, _, body) = route(&req("GET", "/top", ""), &plane);
        assert_eq!(body, "shadowed\n");
        let (status, _, _) = route(&req("GET", "/status", ""), &plane);
        assert_eq!(status, 200);
    }

    #[test]
    fn routes_admin_posts_with_error_mapping() {
        let plane = MockPlane::new();
        let (status, _, _) = route(&req("POST", "/chaos", "partition 0 1"), plane.as_ref());
        assert_eq!(status, 200);
        let (status, _, _) = route(&req("POST", "/chaos", "partition 9 0"), plane.as_ref());
        assert_eq!(status, 422, "plane-level rejection maps to 422");
        let (status, _, _) = route(&req("POST", "/chaos", "gibberish"), plane.as_ref());
        assert_eq!(status, 400, "parse failure maps to 400");
        let (status, _, _) = route(&req("POST", "/faults", "crash 0 snapshot"), plane.as_ref());
        assert_eq!(status, 200);
        let (status, _, _) = route(&req("POST", "/faults", "meteor 3"), plane.as_ref());
        assert_eq!(status, 400);
        let calls = plane.calls.lock().unwrap();
        assert_eq!(calls.len(), 3, "only parseable, routable commands reach the plane: {calls:?}");
        assert!(calls[2].contains("crash node 0 (snapshot)"), "{calls:?}");
    }

    #[test]
    fn serves_over_real_sockets_and_shuts_down() {
        let listener = CtlListener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr();
        assert_ne!(addr.port(), 0, "ephemeral port resolved at bind time");
        let mut server = listener.serve(MockPlane::new());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("\"token_count_ok\":true"), "{reply}");

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"POST /faults HTTP/1.1\r\nContent-Length: 9\r\n\r\nrestart 0").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.ends_with("queued\n"), "{reply}");

        server.shutdown();
        server.shutdown(); // idempotent
        assert!(
            TcpStream::connect(addr).is_err() || {
                // Some platforms accept briefly after close; a read must fail.
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
                let _ = s.write_all(b"GET / HTTP/1.1\r\n\r\n");
                let mut buf = [0u8; 1];
                !matches!(s.read(&mut buf), Ok(n) if n > 0)
            }
        );
    }

    #[test]
    fn idle_server_shuts_down_promptly_on_loopback_and_wildcard() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let listener = CtlListener::bind(bind.parse().unwrap()).unwrap();
            let mut server = listener.serve(MockPlane::new());
            // Let the accept thread reach its blocking `accept`.
            thread::sleep(Duration::from_millis(20));
            let began = std::time::Instant::now();
            server.shutdown();
            let took = began.elapsed();
            assert!(took < Duration::from_millis(100), "{bind}: shutdown took {took:?}");
        }
    }

    #[test]
    fn wake_addr_maps_wildcards_to_loopback() {
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:8080"), "127.0.0.1:8080");
        assert_eq!(wake("[::]:8080"), "[::1]:8080");
        assert_eq!(wake("127.0.0.1:8080"), "127.0.0.1:8080");
        assert_eq!(wake("10.1.2.3:8080"), "10.1.2.3:8080");
    }

    #[test]
    fn serves_many_sequential_requests() {
        let listener = CtlListener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().to_string();
        let mut server = listener.serve(MockPlane::new());
        for i in 0..200 {
            let reply = crate::client::get(&addr, "/status").unwrap();
            assert_eq!(reply.status, 200, "request {i}: {reply:?}");
        }
        server.shutdown();
    }
}
