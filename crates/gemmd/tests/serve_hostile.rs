//! Hostile clients against the socket edge: whatever one connection
//! does, the next client is served and the accepted trace is intact —
//! against `serve` on a thread, and against the real `gemmd-serve`
//! binary, which must still exit 0 on `shutdown`.  (The fourth hostile
//! client, `MAX_LINE` bytes without a newline, is in `serve_loopback`.)

mod common;

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use common::{start_server, Client};

/// A line that is not UTF-8 gets one structured error, and — the
/// newline kept the framing — the connection stays usable.
fn invalid_utf8(addr: SocketAddr) {
    let mut client = Client::connect(addr);
    client.send(b"\xff\xfe\n");
    let reply = client.recv();
    assert!(
        reply.contains("\"ok\":false") && reply.contains("not valid UTF-8"),
        "non-UTF-8 line: {reply}"
    );
    let reply = client.ask("{\"verb\":\"nop\"}");
    assert!(
        reply.contains("unknown verb nop"),
        "same connection: {reply}"
    );
}

/// Three requests in one write, then a close with the replies unread:
/// the kernel answers unread data with an RST, which the server meets
/// on its next read or write.
fn reset_with_replies_pending(addr: SocketAddr) {
    let mut client = Client::connect(addr);
    client.send("{\"verb\":\"status\",\"id\":0}\n".repeat(3).as_bytes());
    client.wait_unread();
}

fn half_a_line_then_hang_up(addr: SocketAddr) {
    Client::connect(addr).send(b"{\"verb\":\"sub");
}

/// Submit one job on top of the `earlier` already accepted, let
/// `hostile` do its worst on a connection of its own, then check that a
/// fresh client is served and the trace kept every job.
fn survives(addr: SocketAddr, earlier: usize, hostile: fn(SocketAddr)) {
    let reply = Client::connect(addr).ask("{\"verb\":\"submit\",\"n\":8}");
    assert!(
        reply.contains(&format!("\"id\":{earlier}")),
        "submit: {reply}"
    );
    hostile(addr);
    let stats = Client::connect(addr).ask("{\"verb\":\"stats\"}");
    assert!(
        stats.contains(&format!("\"jobs\":{}", earlier + 1)),
        "stats after the hostile client: {stats}"
    );
}

fn serve_survives(hostile: fn(SocketAddr)) {
    let (addr, server) = start_server(2, "fifo");
    survives(addr, 0, hostile);
    Client::connect(addr).shutdown();
    server.join().expect("server thread");
}

#[test]
fn serve_survives_invalid_utf8() {
    serve_survives(invalid_utf8);
}

#[test]
fn serve_survives_a_reset_with_replies_pending() {
    serve_survives(reset_with_replies_pending);
}

#[test]
fn serve_survives_half_a_line_then_hang_up() {
    serve_survives(half_a_line_then_hang_up);
}

/// Kills the child if the test panics before it has exited.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        // Errors mean the child is already gone, which is the goal.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn the_binary_survives_hostile_clients_and_exits_zero() {
    let mut child = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_gemmd-serve"))
            .args(["--addr", "127.0.0.1:0", "--dim", "2", "--policy", "fifo"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn gemmd-serve"),
    );
    let mut banner = String::new();
    BufReader::new(child.0.stdout.take().expect("stdout was piped"))
        .read_line(&mut banner)
        .expect("banner");
    let addr: SocketAddr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"));

    survives(addr, 0, invalid_utf8);
    survives(addr, 1, reset_with_replies_pending);
    Client::connect(addr).shutdown();

    let until = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.0.try_wait().expect("wait") {
            break status;
        }
        assert!(Instant::now() < until, "gemmd-serve did not exit");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(status.success(), "gemmd-serve exited with {status}");
}
