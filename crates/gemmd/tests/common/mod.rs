//! Shared by the socket tests: `serve` on a thread behind an ephemeral
//! loopback port, and a well-behaved line client (`TCP_NODELAY`, one
//! write per request line) so that any stall a test sees is the
//! server's.
#![allow(dead_code)] // each test binary uses its own subset

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;

use gemmd::frontend::{serve, Frontend};
use gemmd::Config;
use mmsim::{CostModel, Machine, Topology};

/// Run `serve` over a `2^dim`-rank hypercube on its own thread.  The
/// default arrival stamp never advances: tests drive the virtual clock
/// through explicit arrivals.  Join the handle after a `shutdown`.
pub fn start_server(dim: u32, policy: &'static str) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let machine = Machine::new(Topology::hypercube(dim), CostModel::ncube2());
        let mut frontend =
            Frontend::new(machine, Config::default(), policy).expect("a known policy");
        serve(&listener, &mut frontend, || 0.0).expect("serve");
    });
    (addr, server)
}

/// One client connection speaking the JSON-line protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect");
        writer.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Self { reader, writer }
    }

    /// Raw bytes, in one write.
    pub fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write");
    }

    /// The next reply line without its newline; empty once the server
    /// has closed the connection.
    pub fn recv(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read");
        reply.trim().to_string()
    }

    /// One round trip.  The line and its newline go out in one write: a
    /// `writeln!` on a raw `TcpStream` is two, and the second waits for
    /// the server's delayed ACK.
    pub fn ask(&mut self, line: &str) -> String {
        self.send(format!("{line}\n").as_bytes());
        self.recv()
    }

    /// Ask for shutdown and check the `bye`.
    pub fn shutdown(mut self) {
        let bye = self.ask("{\"verb\":\"shutdown\"}");
        assert!(bye.contains("\"bye\":true"), "shutdown: {bye}");
    }

    /// Block until the server's next bytes have arrived, leaving them
    /// unread in the socket: closing now resets the connection.
    pub fn wait_unread(&self) {
        self.writer.peek(&mut [0]).expect("peek");
    }
}
