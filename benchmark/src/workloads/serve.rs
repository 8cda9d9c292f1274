//! `serve_poll`: `gemmd-serve` over loopback, driven closed-loop by
//! one client on one connection for a fixed duration.
//!
//! The load generator is deliberately well behaved, so that any stall
//! it measures is the server's: each request is a single `write` of
//! `line + "\n"` on a socket with `TCP_NODELAY`, reads and writes carry
//! timeouts (a hung server is failed ops, not a hung benchmark), and
//! the server child is killed by a `Drop` guard if the harness panics.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gemmd::frontend::Frontend;
use gemmd::{Batching, Config};
use mmsim::{CostModel, Machine, Topology};

use super::{Measured, RunParams};
use crate::digest::Digest;
use crate::procfs;
use crate::span::Tracer;

/// Socket read/write timeout: far above any healthy reply.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Job sizes the client cycles through (order shuffled by `--seed`).
const SIZE_CYCLE: [usize; 8] = [8, 8, 8, 16, 8, 16, 32, 8];
/// Virtual arrival spacing of successive submits.
const ARRIVAL_STEP: f64 = 400.0;
/// Server flags: the `service` bench's headline variant on 16 ranks.
pub const SERVER_ARGS: &[&str] = &[
    "--addr",
    "127.0.0.1:0",
    "--dim",
    "4",
    "--policy",
    "edf",
    "--batch",
    "--overhead",
    "500",
];

/// The in-process twin of the server started with [`SERVER_ARGS`]:
/// the oracle every reply is compared with.
#[must_use]
pub fn oracle() -> Frontend {
    let machine = Machine::new(Topology::hypercube(4), CostModel::ncube2());
    let config = Config {
        placement_overhead: 500.0,
        batching: Some(Batching::default()),
        ..Config::default()
    };
    Frontend::new(machine, config, "edf").expect("edf is a built-in policy")
}

/// A running `gemmd-serve` child; killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Address parsed from the banner.
    pub addr: SocketAddr,
}

impl Server {
    /// Start the server on an ephemeral port and read its address from
    /// the banner line.
    ///
    /// # Errors
    /// If the binary cannot be started or prints no usable banner.
    pub fn spawn(bin: &Path) -> std::io::Result<Self> {
        let mut child = Command::new(bin)
            .args(SERVER_ARGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut banner = String::new();
        let read = BufReader::new(stdout).read_line(&mut banner);
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self { child, addr }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(std::io::Error::other(format!(
                    "no address in gemmd-serve banner {banner:?} ({read:?})"
                )))
            }
        }
    }

    /// The child's pid, for `/proc`.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait up to `limit` for the child to exit on its own (after a
    /// `shutdown` verb); `false` if it had to be left to the drop guard.
    pub fn wait_exit(&mut self, limit: Duration) -> bool {
        let until = Instant::now() + limit;
        while Instant::now() < until {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Errors mean the child is already gone, which is the goal.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection speaking the JSON-line protocol.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect with `TCP_NODELAY` and I/O timeouts.
    ///
    /// # Errors
    /// Socket errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { stream, reader })
    }

    /// One round trip: a single write of `line + "\n"`, then one reply
    /// line (returned without its newline).  With the tracer on, the
    /// write, the wait for the first reply byte and the read of the
    /// line are separate spans.
    ///
    /// # Errors
    /// Socket errors, timeouts, or the server closing the connection.
    pub fn request(
        &mut self,
        line: &str,
        tracer: &mut Tracer,
        op_id: u64,
    ) -> std::io::Result<String> {
        let mut wire = Vec::with_capacity(line.len() + 1);
        wire.extend_from_slice(line.as_bytes());
        wire.push(b'\n');
        tracer.span("serve.client.write", op_id, |_| {
            self.stream.write_all(&wire)
        })?;
        if tracer.enabled() {
            // Block until the first byte is readable without consuming it.
            tracer.span("serve.client.wait", op_id, |_| {
                self.reader.fill_buf().map(|_| ())
            })?;
        }
        let mut reply = String::new();
        let n = tracer.span("serve.client.read", op_id, |_| {
            self.reader.read_line(&mut reply)
        })?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }

    /// Drain whatever the server still sends, until it closes.
    pub fn read_to_close(&mut self) {
        let mut sink = Vec::new();
        let _ = self.reader.read_to_end(&mut sink);
    }
}

/// A spawned server with a connected, warmed-up client.
pub struct ServePoll {
    server: Server,
    client: Client,
    sizes: Vec<usize>,
    /// Digest of the job-size sequence.
    pub input_digest: u64,
}

/// Field `key` of a flat JSON reply, as a number.
fn reply_num(reply: &str, key: &str) -> Option<f64> {
    crate::json::parse(reply).ok()?.get(key)?.as_f64()
}

impl ServePoll {
    /// Spawn, connect and send three warm-up requests that do not touch
    /// the trace (an unknown verb: socket + parser only).
    ///
    /// # Errors
    /// If the server cannot be started or reached.
    pub fn build(params: &RunParams, tracer: &mut Tracer) -> std::io::Result<Self> {
        // The size cycle, rotated and pairwise-swapped by the seed: the
        // mix stays the same, the order (and so the trace) differs.
        let mut rng = detrng::SplitMix64::new(detrng::mix(&[params.seed, 0x5E21]));
        let mut sizes = SIZE_CYCLE.to_vec();
        for i in (1..sizes.len()).rev() {
            sizes.swap(i, rng.next_below(i + 1));
        }
        let mut d = Digest::default();
        sizes.iter().for_each(|&n| d.word(n as u64));
        let server = tracer.span("serve.spawn", 0, |_| Server::spawn(&params.serve_bin))?;
        let mut client = tracer.span("serve.connect", 0, |_| Client::connect(server.addr))?;
        for _ in 0..3 {
            client.request("{\"verb\":\"nop\"}", tracer, 0)?;
        }
        Ok(Self {
            server,
            client,
            sizes,
            input_digest: d.finish(),
        })
    }

    /// Drive the closed loop for `duration`, then (untimed) drain, take
    /// final stats, shut the server down and replay every line through
    /// the in-process oracle.
    pub fn run(mut self, duration: Duration, tracer: &mut Tracer) -> Measured {
        let pid = self.server.pid();
        let mut m = Measured {
            ops_per_pass: 1,
            ..Measured::default()
        };
        let mut log: Vec<(String, Option<String>)> = Vec::new();
        let mut accepted = 0u64;
        let mut op_id = 0u64;
        let cpu0 = procfs::cpu_seconds_fine(pid).unwrap_or(0.0);
        let start = Instant::now();
        let mut job = 0usize;
        'clock: while start.elapsed() < duration {
            let n = self.sizes[job % self.sizes.len()];
            let arrival = ARRIVAL_STEP * job as f64;
            let deadline = arrival + 8.0 * (n * n * n) as f64;
            let mut lines = vec![
                format!(
                    "{{\"verb\":\"submit\",\"n\":{n},\"arrival\":{arrival:.1},\"deadline\":{deadline:.1}}}"
                ),
                format!("{{\"verb\":\"status\",\"id\":{job}}}"),
            ];
            if job % 10 == 9 {
                lines.push("{\"verb\":\"stats\"}".to_string());
            }
            for line in lines {
                if start.elapsed() >= duration {
                    break 'clock;
                }
                op_id += 1;
                let t = Instant::now();
                let reply = tracer.span("serve.request", op_id, |tr| {
                    self.client.request(&line, tr, op_id)
                });
                m.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
                m.attempted += 1;
                match reply {
                    Ok(r) => {
                        if line.contains("\"submit\"") && r.contains("\"ok\":true") {
                            accepted += 1;
                        }
                        log.push((line, Some(r)));
                    }
                    Err(e) => {
                        m.fail(format!("{line}: {e}"));
                        log.push((line, None));
                        // The stream may be mid-line; stop rather than
                        // misattribute later replies.
                        break 'clock;
                    }
                }
            }
            job += 1;
        }
        let timed = start.elapsed();
        m.pass_s.push(timed.as_secs_f64());
        m.cpu_s = procfs::cpu_seconds_fine(pid).unwrap_or(cpu0) - cpu0;
        m.jobs_accepted = Some(accepted);

        // Untimed epilogue.
        let mut epilogue = Vec::new();
        for line in ["{\"verb\":\"drain\"}", "{\"verb\":\"stats\"}"] {
            match self.client.request(line, tracer, 0) {
                Ok(r) => epilogue.push((line.to_string(), Some(r))),
                Err(e) => m.fail(format!("{line}: {e}")),
            }
        }
        m.peak_rss_mb = procfs::peak_rss_mb(pid).unwrap_or(0.0);
        match self.client.request("{\"verb\":\"shutdown\"}", tracer, 0) {
            Ok(r) if r.contains("\"bye\":true") => {}
            Ok(r) => m.fail(format!("shutdown answered {r}")),
            Err(e) => m.fail(format!("shutdown: {e}")),
        }
        self.client.read_to_close();
        if !self.server.wait_exit(Duration::from_secs(5)) {
            m.fail("server did not exit after shutdown".into());
        }

        // The oracle: the same lines through an in-process front-end
        // must give byte-identical replies.
        let mut twin = oracle();
        let mut d = Digest::default();
        for (i, (line, reply)) in log.iter().chain(&epilogue).enumerate() {
            let (expect, _) = tracer.span("gemmd.frontend.handle", i as u64 + 1, |_| {
                twin.handle(line, 0.0)
            });
            d.text(&expect);
            match reply {
                Some(r) if *r != expect => {
                    m.fail(format!("{line}: server said {r}, oracle says {expect}"));
                }
                Some(r) if !r.contains("\"ok\":true") => {
                    m.fail(format!("{line}: refused with {r}"));
                }
                // Identical and accepted, or already counted as an I/O
                // failure.
                Some(_) | None => {}
            }
        }
        if let Some((_, Some(stats))) = epilogue.last() {
            let sum = ["jobs", "rejected", "shed"]
                .iter()
                .filter_map(|k| reply_num(stats, k))
                .sum::<f64>();
            if sum != accepted as f64 {
                m.fail(format!(
                    "final stats account for {sum} of {accepted} submitted jobs: {stats}"
                ));
            }
        }
        m.digest = d.finish();
        m.digest_seeded = true;
        m.input_digest = self.input_digest;
        m
    }
}
