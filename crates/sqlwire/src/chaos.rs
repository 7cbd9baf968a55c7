//! Frame-aware byte-level network chaos proxy.
//!
//! A hermetic (std-only) TCP relay that sits between a wire client and
//! a server and injects faults at *chosen byte offsets of chosen
//! frames*: cut the connection before a frame, mid-frame after N
//! bytes, delay it, deliver it twice, or blackhole it (swallow the
//! frame and go silent). Because the proxy understands the
//! `[len][crc][payload]` frame grammar it can target fault classes the
//! exactly-once protocol must survive:
//!
//! - **pre-request cut** — the statement never reached the server;
//! - **mid-request cut** — the server saw a torn frame;
//! - **post-execute / pre-reply cut** — the server executed but the
//!   ack was lost (the classic duplicate-effects window);
//! - **mid-reply cut** — the ack was torn.
//!
//! Rules are *consumed once*: after a rule fires, subsequent redials
//! relay cleanly, so a retrying client exercises replay rather than an
//! endlessly dying wire. Frame counters are **global per direction**
//! across all proxied connections — frame `i` means "the i-th request
//! frame the client ever sent", stable across reconnects.
//!
//! The upstream address is swappable at runtime ([`ChaosProxy::set_upstream`])
//! so tests can kill a server, restart it on a new port, and let the
//! same proxied endpoint carry resumed sessions.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use sqlengine::storage::codec::{record_header, RECORD_HEADER_LEN};

use crate::frame::MAX_FRAME_LEN;

/// Which way a frame is travelling through the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → server (requests).
    ToServer,
    /// Server → client (replies).
    ToClient,
}

/// A fault to inject when a matching frame passes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Sever the connection before forwarding any byte of the frame.
    CutBefore,
    /// Forward exactly `offset` bytes of the frame (header included),
    /// then sever the connection.
    CutAt(usize),
    /// Hold the frame for this many milliseconds, then forward it.
    DelayMs(u64),
    /// Forward the frame twice back-to-back.
    Duplicate,
    /// Swallow the frame and keep the connection open (silent loss).
    Blackhole,
}

#[derive(Debug)]
struct Shared {
    upstream: Mutex<SocketAddr>,
    rules: Mutex<HashMap<(Direction, u64), ChaosAction>>,
    sent: [AtomicU64; 2], // frames forwarded per direction
    fired: AtomicU64,     // rules consumed
    stop: AtomicBool,
}

fn dir_index(d: Direction) -> usize {
    match d {
        Direction::ToServer => 0,
        Direction::ToClient => 1,
    }
}

/// Handle to a running chaos proxy. Dropping the handle stops the
/// listener; in-flight relays die with their connections.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Start a proxy on an ephemeral localhost port relaying to
    /// `upstream`.
    pub fn start(upstream: impl ToSocketAddrs) -> std::io::Result<ChaosProxy> {
        let upstream = upstream
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("upstream resolved to no address"))?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            upstream: Mutex::new(upstream),
            rules: Mutex::new(HashMap::new()),
            sent: [AtomicU64::new(0), AtomicU64::new(0)],
            fired: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(ChaosProxy {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// Address clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Arm a once-only rule: when frame number `frame` (0-based, global
    /// per direction) passes in `dir`, apply `action`. Re-arming the
    /// same (dir, frame) replaces the previous rule.
    pub fn arm(&self, dir: Direction, frame: u64, action: ChaosAction) {
        self.shared
            .rules
            .lock()
            .unwrap()
            .insert((dir, frame), action);
    }

    /// Point the proxy at a different upstream (e.g. a restarted
    /// server). Existing connections keep their old upstream; new
    /// dials use the new one.
    pub fn set_upstream(&self, upstream: impl ToSocketAddrs) -> std::io::Result<()> {
        let upstream = upstream
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("upstream resolved to no address"))?;
        *self.shared.upstream.lock().unwrap() = upstream;
        Ok(())
    }

    /// Frames fully forwarded in `dir` so far.
    pub fn frames_forwarded(&self, dir: Direction) -> u64 {
        self.shared.sent[dir_index(dir)].load(Ordering::SeqCst)
    }

    /// Rules that have fired so far.
    pub fn rules_fired(&self) -> u64 {
        self.shared.fired.load(Ordering::SeqCst)
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`: one dial wakes it to see
        // the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Accept clients, blocking, until the stop flag is set (the proxy's
/// drop dials once so that this sees it).
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((client, _)) => {
                let upstream_addr = *shared.upstream.lock().unwrap();
                let server =
                    match TcpStream::connect_timeout(&upstream_addr, Duration::from_secs(5)) {
                        Ok(s) => s,
                        Err(_) => {
                            // Upstream down: refuse by dropping the client.
                            drop(client);
                            continue;
                        }
                    };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                spawn_relay_pair(client, server, Arc::clone(&shared));
            }
            Err(_) => break,
        }
    }
}

fn spawn_relay_pair(client: TcpStream, server: TcpStream, shared: Arc<Shared>) {
    let c2 = client.try_clone();
    let s2 = server.try_clone();
    let (c2, s2) = match (c2, s2) {
        (Ok(c), Ok(s)) => (c, s),
        _ => return,
    };
    let sh_up = Arc::clone(&shared);
    thread::spawn(move || relay(client, s2, Direction::ToServer, &sh_up));
    thread::spawn(move || relay(server, c2, Direction::ToClient, &shared));
}

/// Relay whole frames from `src` to `dst`, applying armed rules.
/// Returns when either side dies or a cut rule fires.
fn relay(mut src: TcpStream, mut dst: TcpStream, dir: Direction, shared: &Shared) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            // The other leg may be blocked reading the socket this one
            // writes to: close both, or its peer never sees an EOF.
            sever(&src, &dst);
            return;
        }
        // Read one whole frame (header, then payload).
        let mut header = [0u8; RECORD_HEADER_LEN];
        if src.read_exact(&mut header).is_err() {
            let _ = dst.shutdown(Shutdown::Both);
            return;
        }
        let (len, _) = record_header(&header);
        if len > MAX_FRAME_LEN {
            // Not our protocol: shut the pair down.
            let _ = dst.shutdown(Shutdown::Both);
            let _ = src.shutdown(Shutdown::Both);
            return;
        }
        let mut frame = vec![0u8; RECORD_HEADER_LEN + len];
        frame[..RECORD_HEADER_LEN].copy_from_slice(&header);
        if src.read_exact(&mut frame[RECORD_HEADER_LEN..]).is_err() {
            let _ = dst.shutdown(Shutdown::Both);
            return;
        }
        let number = shared.sent[dir_index(dir)].fetch_add(1, Ordering::SeqCst);
        let action = shared.rules.lock().unwrap().remove(&(dir, number));
        match action {
            None => {
                if dst.write_all(&frame).is_err() {
                    let _ = src.shutdown(Shutdown::Both);
                    return;
                }
            }
            Some(a) => {
                shared.fired.fetch_add(1, Ordering::SeqCst);
                match a {
                    ChaosAction::CutBefore => {
                        sever(&src, &dst);
                        return;
                    }
                    ChaosAction::CutAt(offset) => {
                        let n = offset.min(frame.len());
                        let _ = dst.write_all(&frame[..n]);
                        let _ = dst.flush();
                        sever(&src, &dst);
                        return;
                    }
                    ChaosAction::DelayMs(ms) => {
                        thread::sleep(Duration::from_millis(ms));
                        if dst.write_all(&frame).is_err() {
                            let _ = src.shutdown(Shutdown::Both);
                            return;
                        }
                    }
                    ChaosAction::Duplicate => {
                        if dst.write_all(&frame).is_err() || dst.write_all(&frame).is_err() {
                            let _ = src.shutdown(Shutdown::Both);
                            return;
                        }
                    }
                    ChaosAction::Blackhole => {
                        // Swallow the frame; the peer times out or the
                        // client gives up and redials.
                    }
                }
            }
        }
    }
}

fn sever(src: &TcpStream, dst: &TcpStream) {
    let _ = dst.shutdown(Shutdown::Both);
    let _ = src.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// Minimal frame: `[len][crc][payload]` with a fake crc (the proxy
    /// must not verify checksums — it relays torn bytes verbatim).
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        f.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        f.extend_from_slice(payload);
        f
    }

    /// Echo server: reads frames, echoes each back verbatim.
    fn echo_server() -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = thread::spawn(move || {
            // One connection is enough for these tests.
            if let Some(Ok(mut s)) = listener.incoming().next() {
                loop {
                    let mut h = [0u8; 8];
                    if s.read_exact(&mut h).is_err() {
                        break;
                    }
                    let len = u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize;
                    let mut p = vec![0u8; len];
                    if s.read_exact(&mut p).is_err() {
                        break;
                    }
                    let mut out = h.to_vec();
                    out.extend_from_slice(&p);
                    if s.write_all(&out).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, t)
    }

    #[test]
    fn clean_relay_round_trips_frames() {
        let (upstream, server) = echo_server();
        let proxy = ChaosProxy::start(upstream).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        let f = frame(b"hello");
        c.write_all(&f).unwrap();
        let mut back = vec![0u8; f.len()];
        c.read_exact(&mut back).unwrap();
        assert_eq!(back, f);
        assert_eq!(proxy.frames_forwarded(Direction::ToServer), 1);
        assert_eq!(proxy.frames_forwarded(Direction::ToClient), 1);
        assert_eq!(proxy.rules_fired(), 0);
        drop(c);
        drop(proxy);
        let _ = server.join();
    }

    #[test]
    fn cut_before_severs_without_forwarding() {
        let (upstream, _server) = echo_server();
        let proxy = ChaosProxy::start(upstream).unwrap();
        proxy.arm(Direction::ToServer, 0, ChaosAction::CutBefore);
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(&frame(b"doomed")).unwrap();
        let mut buf = [0u8; 1];
        // The proxy cuts: we observe EOF (or reset) instead of an echo.
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let dead = matches!(c.read(&mut buf), Ok(0) | Err(_));
        assert!(dead, "connection should be severed");
        assert_eq!(proxy.rules_fired(), 1);
        assert_eq!(proxy.frames_forwarded(Direction::ToClient), 0);
    }

    #[test]
    fn cut_at_offset_forwards_partial_frame_then_rules_clear() {
        let (upstream, _server) = echo_server();
        let proxy = ChaosProxy::start(upstream).unwrap();
        // Tear the echo reply mid-frame after 3 bytes.
        proxy.arm(Direction::ToClient, 0, ChaosAction::CutAt(3));
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(&frame(b"torn")).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match c.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
            }
        }
        assert_eq!(got.len(), 3, "exactly the armed offset leaks through");
        assert_eq!(proxy.rules_fired(), 1);
    }

    #[test]
    fn duplicate_delivers_frame_twice() {
        let (upstream, _server) = echo_server();
        let proxy = ChaosProxy::start(upstream).unwrap();
        proxy.arm(Direction::ToServer, 0, ChaosAction::Duplicate);
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        let f = frame(b"twice");
        c.write_all(&f).unwrap();
        // The echo server echoes both copies back.
        let mut back = vec![0u8; f.len() * 2];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back[..f.len()], &f[..]);
        assert_eq!(&back[f.len()..], &f[..]);
    }

    #[test]
    fn counters_are_global_across_reconnects() {
        let (upstream, _server) = echo_server();
        let listener_upstream = upstream;
        // Echo server handles one connection; use a fresh one per dial.
        let proxy = ChaosProxy::start(listener_upstream).unwrap();
        {
            let mut c = TcpStream::connect(proxy.addr()).unwrap();
            let f = frame(b"one");
            c.write_all(&f).unwrap();
            let mut back = vec![0u8; f.len()];
            c.read_exact(&mut back).unwrap();
        }
        assert_eq!(proxy.frames_forwarded(Direction::ToServer), 1);
    }
}
