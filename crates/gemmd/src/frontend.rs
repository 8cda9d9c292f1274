//! The live front-end: a JSON-line protocol over the deterministic
//! core.
//!
//! `gemmd-serve` (the binary) listens on TCP and bridges wall-clock
//! clients onto the virtual-time scheduler; everything below the
//! socket lives here and is testable without one.  The protocol is one
//! JSON object per line, one reply line per request:
//!
//! ```text
//! → {"verb":"submit","n":16,"priority":1}
//! ← {"ok":true,"id":0,"arrival":0.000,"n":16}
//! → {"verb":"status","id":0}
//! ← {"ok":true,"id":0,"state":"done","start":0.000,"finish":3164.000,"sojourn":3164.000,"batch":0}
//! → {"verb":"stats"}
//! ← {"ok":true,"policy":"edf","jobs":1,"rejected":0,"makespan":3164.000,"utilization":0.0432,"p50":3164.000,"p99":3164.000,"p999":3164.000}
//! → {"verb":"drain"}
//! ← {"ok":true,"draining":true,"jobs":1,"rejected":0,"shed":0}
//! → {"verb":"shutdown"}
//! ← {"ok":true,"bye":true}
//! ```
//!
//! **Overload surface.**  A `drain` flips the front-end into
//! stop-accepting mode: queries keep answering, but every later
//! `submit` gets a structured backpressure reply
//! (`{"ok":false,"error":"draining","backpressure":true}`) instead of
//! an admission — the client knows to go elsewhere rather than time
//! out.  Submissions are also validated before they touch the trace:
//! `n` must be an integer in `1..=MAX_SUBMIT_N`, so a malformed or
//! hostile client cannot wedge the replay loop with a multi-gigabyte
//! GEMM.  Every other integer field (`id`, `priority`, `seed`) is
//! checked the same way — integer-valued and inside its type's range,
//! or a structured error — never cast, so `"id":-3` does not answer for
//! job 0.  The socket loop bounds request lines at [`MAX_LINE`] bytes
//! and drops clients that exceed it (the rest of their stream is
//! mid-line garbage).
//!
//! **The socket edge.**  [`serve`] sets `TCP_NODELAY` on every accepted
//! stream and sends each reply, newline included, with one `write_all`:
//! a reply split over two small segments is held by Nagle until the
//! client's delayed ACK fires, a 40 ms stall on a 60-byte line.
//! Clients should likewise write a whole request line at once.  A
//! connection that fails (reset, broken pipe, bytes that are not UTF-8)
//! costs only that connection: the accept loop and the accepted trace
//! go on.
//!
//! Determinism by **replay**: the front-end only accumulates the
//! submitted [`JobSpec`]s (arrival times clamped monotone, so the
//! trace stays sorted no matter when requests land) and re-runs the
//! scheduler from scratch on every `status`/`stats` query.  The reply
//! is a pure function of the submissions so far — ask twice, get the
//! same bytes — and the wall clock only ever influences *arrival
//! stamps*, never results.  JSON is hand-rolled (flat objects, no
//! nesting) because the build is offline and std-only.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

use mmsim::Machine;

use crate::job::JobSpec;
use crate::policy::policy_by_name;
use crate::report::ServiceReport;
use crate::scheduler::{Config, Scheduler};
use crate::slo::Percentiles;

/// Largest matrix order a `submit` may request.  Replay cost and
/// operand memory are both polynomial in `n`; everything the service
/// benchmarks is far below this.
pub const MAX_SUBMIT_N: usize = 4096;

/// Longest request line (bytes, newline included) the socket loop
/// reads before giving up on the client.
pub const MAX_LINE: u64 = 8 * 1024;

/// The deterministic service core behind the socket.
#[derive(Debug)]
pub struct Frontend {
    machine: Machine,
    config: Config,
    policy: String,
    jobs: Vec<JobSpec>,
    draining: bool,
}

/// Value of a flat JSON field: the raw slice for numbers/booleans, the
/// unquoted content for strings.  Good enough for this protocol —
/// values never contain escapes, commas or nesting.  The key matches
/// only where a key can stand (after `{` or `,`, before `:`), so a
/// string value that spells a key name never shadows the real field.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let mut from = 0;
    let rest = loop {
        let at = from + obj[from..].find(&pat)?;
        from = at + pat.len();
        if obj[..at].trim_end().ends_with(['{', ',']) {
            if let Some(rest) = obj[from..].trim_start().strip_prefix(':') {
                break rest.trim_start();
            }
        }
    };
    if let Some(s) = rest.strip_prefix('"') {
        s.find('"').map(|end| &s[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

fn num(obj: &str, key: &str) -> Option<f64> {
    field(obj, key)?.parse().ok()
}

/// Integer field `key`, validated against `T`'s range rather than cast
/// into it: `Ok(None)` when the field is absent, `Err` when it is
/// present but not an integer-valued number that `T` holds exactly.
///
/// An integer literal is parsed exactly.  Any other number (`16.0`,
/// `1e3`) goes through `f64` and is accepted only below 2^53, where
/// every integer is a distinct `f64`, so no value is silently rounded.
fn int<T: TryFrom<u128>>(obj: &str, key: &str) -> Result<Option<T>, ()> {
    let Some(raw) = field(obj, key) else {
        return Ok(None);
    };
    let exact = if raw.bytes().all(|b| b.is_ascii_digit()) {
        raw.parse::<u128>().map_err(|_| ())?
    } else {
        let x: f64 = raw.parse().map_err(|_| ())?;
        // NaN and the infinities have a NaN fraction and fail here too.
        if x.fract() != 0.0 || !(0.0..F64_EXACT_INTS).contains(&x) {
            return Err(());
        }
        x as u128
    };
    T::try_from(exact).map(Some).map_err(|_| ())
}

/// 2^53: every integer below it, and none from it on, has an `f64` of
/// its own.
const F64_EXACT_INTS: f64 = 9_007_199_254_740_992.0;

fn err(detail: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{detail}\"}}")
}

impl Frontend {
    /// A front-end over `machine` with a named queue policy (see
    /// [`policy_by_name`]); `None` for an unknown policy name.
    #[must_use]
    pub fn new(machine: Machine, config: Config, policy: &str) -> Option<Self> {
        policy_by_name(policy)?;
        Some(Self {
            machine,
            config,
            policy: policy.to_string(),
            jobs: Vec::new(),
            draining: false,
        })
    }

    /// Whether a `drain` has closed admission.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Jobs accepted so far (the replayed trace).
    #[must_use]
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Replay the accepted trace through the scheduler — the single
    /// source of truth every query answers from.
    fn replay(&self) -> Result<ServiceReport, crate::GemmdError> {
        let policy = policy_by_name(&self.policy).expect("validated at construction");
        Scheduler::new(&self.machine, self.config).run(&self.jobs, policy.as_ref())
    }

    /// Handle one request line and say whether the connection should
    /// shut the service down.  `default_at` stamps submissions that
    /// carry no explicit `arrival` — the binary passes mapped
    /// wall-clock time; tests pass virtual time directly.  Arrivals
    /// are clamped monotone against the trace tail so the replayed
    /// workload is always sorted.
    pub fn handle(&mut self, line: &str, default_at: f64) -> (String, bool) {
        let Some(verb) = field(line, "verb") else {
            return (err("missing verb"), false);
        };
        match verb {
            "submit" => (self.submit(line, default_at), false),
            "status" => (self.status(line), false),
            "stats" => (self.stats(), false),
            "drain" => (self.drain(), false),
            "shutdown" => ("{\"ok\":true,\"bye\":true}".to_string(), true),
            other => (err(&format!("unknown verb {other}")), false),
        }
    }

    fn submit(&mut self, line: &str, default_at: f64) -> String {
        if self.draining {
            return "{\"ok\":false,\"error\":\"draining\",\"backpressure\":true}".to_string();
        }
        let n = match int::<usize>(line, "n") {
            Ok(Some(n)) if (1..=MAX_SUBMIT_N).contains(&n) => n,
            _ => return err(&format!("submit needs an integer n in 1..={MAX_SUBMIT_N}")),
        };
        let Ok(priority) = int::<u8>(line, "priority") else {
            return err("priority must be an integer in 0..=255");
        };
        let Ok(seed) = int::<u64>(line, "seed") else {
            return err("seed must be an integer in 0..2^64");
        };
        let floor = self.jobs.last().map_or(0.0, |j| j.arrival);
        let arrival = num(line, "arrival")
            .unwrap_or(default_at)
            .max(floor)
            .max(0.0);
        let id = self.jobs.len();
        let spec = JobSpec {
            n,
            arrival,
            priority: priority.unwrap_or(0),
            seed: seed.unwrap_or_else(|| detrng::mix(&[id as u64, n as u64])),
            deadline: num(line, "deadline"),
        };
        self.jobs.push(spec);
        format!("{{\"ok\":true,\"id\":{id},\"arrival\":{arrival:.3},\"n\":{n}}}")
    }

    fn status(&self, line: &str) -> String {
        let Ok(Some(id)) = int::<usize>(line, "id") else {
            return err("status needs a non-negative integer id");
        };
        if id >= self.jobs.len() {
            return err(&format!("unknown job {id}"));
        }
        let report = match self.replay() {
            Ok(r) => r,
            Err(e) => return err(&e.to_string()),
        };
        if let Some(r) = report.records.iter().find(|r| r.id == id) {
            format!(
                "{{\"ok\":true,\"id\":{id},\"state\":\"done\",\"start\":{:.3},\"finish\":{:.3},\"sojourn\":{:.3},\"batch\":{}}}",
                r.start,
                r.finish,
                r.sojourn(),
                r.batch,
            )
        } else if let Some(s) = report.shed.iter().find(|s| s.id == id) {
            // The replay shed it under load — a structured outcome the
            // submitter can see, never a silent drop.
            format!(
                "{{\"ok\":true,\"id\":{id},\"state\":\"shed\",\"at\":{:.3}}}",
                s.t
            )
        } else {
            // Accepted but not in the records: the replay rejected it
            // at admission (queue cap).
            format!("{{\"ok\":true,\"id\":{id},\"state\":\"rejected\"}}")
        }
    }

    /// Close admission and answer with the final replayed totals: the
    /// schedule is frozen (queries stay pure), and every later submit
    /// gets a backpressure reply.
    fn drain(&mut self) -> String {
        self.draining = true;
        let report = match self.replay() {
            Ok(r) => r,
            Err(e) => return err(&e.to_string()),
        };
        format!(
            "{{\"ok\":true,\"draining\":true,\"jobs\":{},\"rejected\":{},\"shed\":{}}}",
            report.records.len(),
            report.rejected.len(),
            report.shed.len(),
        )
    }

    fn stats(&self) -> String {
        let report = match self.replay() {
            Ok(r) => r,
            Err(e) => return err(&e.to_string()),
        };
        let mut sojourn = Percentiles::new();
        for r in &report.records {
            sojourn.push(r.sojourn());
        }
        format!(
            "{{\"ok\":true,\"policy\":\"{}\",\"jobs\":{},\"rejected\":{},\"shed\":{},\"makespan\":{:.3},\"utilization\":{:.4},\"p50\":{:.3},\"p99\":{:.3},\"p999\":{:.3}}}",
            report.policy,
            report.records.len(),
            report.rejected.len(),
            report.shed.len(),
            report.makespan,
            report.utilization(),
            sojourn.p50(),
            sojourn.p99(),
            sojourn.p999(),
        )
    }
}

/// Serve the JSON-line protocol on `listener`, one client at a time
/// (requests interleave across reconnects; the trace persists).
/// `now_fn` supplies the default arrival stamp for submissions without
/// one — the binary maps wall-clock elapsed time onto the virtual
/// clock here, keeping the core free of real time.  Every accepted
/// stream gets `TCP_NODELAY` and every reply leaves as one write (see
/// the module doc).  Request lines are bounded at [`MAX_LINE`] bytes; a
/// client that exceeds the bound gets one structured error reply and is
/// disconnected (the rest of its stream is the tail of the oversized
/// line).  A line that is not UTF-8 gets one structured error reply.
/// Returns after a `shutdown` verb.
///
/// # Errors
/// Only a failing `accept` on `listener`.  An I/O error on an accepted
/// connection (reset, broken pipe, a refused socket option) drops that
/// connection and the loop accepts the next one.
pub fn serve<F: FnMut() -> f64>(
    listener: &TcpListener,
    frontend: &mut Frontend,
    mut now_fn: F,
) -> std::io::Result<()> {
    for stream in listener.incoming() {
        // `Err` here is the client's failure, not the service's.
        if let Ok(true) = converse(stream?, frontend, &mut now_fn) {
            return Ok(());
        }
    }
    Ok(())
}

/// Answer one client until it hangs up (`Ok(false)`), its connection
/// fails (`Err`) or it asks for shutdown (`Ok(true)`).
fn converse<F: FnMut() -> f64>(
    stream: TcpStream,
    frontend: &mut Frontend,
    now_fn: &mut F,
) -> std::io::Result<bool> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        line.clear();
        if reader
            .by_ref()
            .take(MAX_LINE)
            .read_until(b'\n', &mut line)?
            == 0
        {
            return Ok(false);
        }
        if line.len() as u64 >= MAX_LINE && line.last() != Some(&b'\n') {
            // Drop the client; its stream is mid-line.
            writer.write_all(reply_line(err("request line too long")).as_bytes())?;
            return Ok(false);
        }
        let (reply, shutdown) = match std::str::from_utf8(&line).map(str::trim) {
            Ok("") => continue,
            Ok(request) => frontend.handle(request, now_fn()),
            Err(_) => (err("request line is not valid UTF-8"), false),
        };
        let sent = writer.write_all(reply_line(reply).as_bytes());
        if shutdown {
            // The verb was received; a client that did not wait for its
            // `bye` still stops the service.
            return Ok(true);
        }
        sent?;
    }
}

/// A reply and its newline in one buffer, so that it leaves in one
/// write and one segment.
fn reply_line(mut reply: String) -> String {
    reply.push('\n');
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsim::{CostModel, Topology};

    fn frontend(policy: &str) -> Frontend {
        let machine = Machine::new(Topology::hypercube(4), CostModel::ncube2());
        Frontend::new(machine, Config::default(), policy).unwrap()
    }

    #[test]
    fn unknown_policies_are_refused_at_construction() {
        let machine = Machine::new(Topology::hypercube(2), CostModel::ncube2());
        assert!(Frontend::new(machine, Config::default(), "lifo").is_none());
    }

    #[test]
    fn submit_status_stats_round_trip() {
        let mut fe = frontend("fifo");
        let (reply, down) = fe.handle("{\"verb\":\"submit\",\"n\":16}", 0.0);
        assert!(!down);
        assert!(
            reply.contains("\"ok\":true") && reply.contains("\"id\":0"),
            "{reply}"
        );
        let (reply, _) = fe.handle("{\"verb\":\"submit\",\"n\":16,\"arrival\":50.0}", 0.0);
        assert!(reply.contains("\"id\":1"), "{reply}");

        let (status, _) = fe.handle("{\"verb\":\"status\",\"id\":0}", 0.0);
        assert!(status.contains("\"state\":\"done\""), "{status}");
        assert!(status.contains("\"sojourn\":"), "{status}");

        let (stats, _) = fe.handle("{\"verb\":\"stats\"}", 0.0);
        assert!(stats.contains("\"jobs\":2"), "{stats}");
        assert!(stats.contains("\"p99\":"), "{stats}");
        assert!(stats.contains("\"policy\":\"fifo\""), "{stats}");
    }

    #[test]
    fn replies_are_a_pure_function_of_the_submissions() {
        let drive = |fe: &mut Frontend| {
            for i in 0..3 {
                let (_, _) = fe.handle(
                    &format!("{{\"verb\":\"submit\",\"n\":8,\"arrival\":{}.0}}", i * 10),
                    0.0,
                );
            }
            let (a, _) = fe.handle("{\"verb\":\"stats\"}", 0.0);
            let (b, _) = fe.handle("{\"verb\":\"stats\"}", 0.0);
            assert_eq!(a, b, "replay must be idempotent");
            a
        };
        assert_eq!(
            drive(&mut frontend("edf")),
            drive(&mut frontend("edf")),
            "two front-ends fed the same lines must agree byte-for-byte"
        );
    }

    #[test]
    fn arrivals_are_clamped_monotone() {
        let mut fe = frontend("fifo");
        let _ = fe.handle("{\"verb\":\"submit\",\"n\":8,\"arrival\":100.0}", 0.0);
        // An out-of-order stamp (or a negative one) snaps to the tail.
        let (reply, _) = fe.handle("{\"verb\":\"submit\",\"n\":8,\"arrival\":5.0}", 0.0);
        assert!(reply.contains("\"arrival\":100.000"), "{reply}");
        assert_eq!(fe.jobs()[1].arrival, 100.0);
        // No stamp at all: the supplied default applies (then clamps).
        let (reply, _) = fe.handle("{\"verb\":\"submit\",\"n\":8}", 250.0);
        assert!(reply.contains("\"arrival\":250.000"), "{reply}");
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        let mut fe = frontend("fifo");
        let (reply, down) = fe.handle("{\"n\":16}", 0.0);
        assert!(reply.contains("\"ok\":false") && !down, "{reply}");
        let (reply, _) = fe.handle("{\"verb\":\"submit\"}", 0.0);
        assert!(reply.contains("integer n in 1..="), "{reply}");
        let (reply, _) = fe.handle("{\"verb\":\"status\",\"id\":9}", 0.0);
        assert!(reply.contains("unknown job 9"), "{reply}");
        let (reply, _) = fe.handle("{\"verb\":\"dance\"}", 0.0);
        assert!(reply.contains("unknown verb dance"), "{reply}");
        // Not valid JSON at all: still one structured reply, no panic.
        let (reply, down) = fe.handle("submit n=16 please", 0.0);
        assert!(reply.contains("\"ok\":false") && !down, "{reply}");
        // Wrong field type: a string where a number belongs.
        let (reply, _) = fe.handle("{\"verb\":\"submit\",\"n\":\"big\"}", 0.0);
        assert!(reply.contains("integer n in 1..="), "{reply}");
        let (reply, _) = fe.handle("{\"verb\":\"status\",\"id\":\"zero\"}", 0.0);
        assert!(reply.contains("\"ok\":false"), "{reply}");
        // Nothing malformed touched the trace.
        assert!(fe.jobs().is_empty());
    }

    #[test]
    fn out_of_range_dims_are_refused_before_the_trace() {
        let mut fe = frontend("fifo");
        for bad in [
            "{\"verb\":\"submit\",\"n\":0}",
            "{\"verb\":\"submit\",\"n\":-8}",
            "{\"verb\":\"submit\",\"n\":16.5}",
            "{\"verb\":\"submit\",\"n\":1000000}",
            "{\"verb\":\"submit\",\"n\":1e300}",
        ] {
            let (reply, down) = fe.handle(bad, 0.0);
            assert!(
                reply.contains("\"ok\":false") && reply.contains("integer n in 1..=") && !down,
                "{bad} -> {reply}"
            );
        }
        assert!(fe.jobs().is_empty(), "rejected submits never enter replay");
        // The boundary itself is accepted.
        let (reply, _) = fe.handle("{\"verb\":\"submit\",\"n\":4096}", 0.0);
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }

    #[test]
    fn integer_fields_are_validated_not_cast() {
        let mut fe = frontend("fifo");
        let _ = fe.handle("{\"verb\":\"submit\",\"n\":8}", 0.0);
        // A saturating cast would answer every one of these for job 0.
        for id in ["-3", "0.7", "NaN", "-inf", "1e300", "\"zero\""] {
            let (reply, _) = fe.handle(&format!("{{\"verb\":\"status\",\"id\":{id}}}"), 0.0);
            assert!(
                reply.contains("\"ok\":false") && reply.contains("non-negative integer id"),
                "id {id} -> {reply}"
            );
        }
        let (reply, _) = fe.handle("{\"verb\":\"status\"}", 0.0);
        assert!(reply.contains("non-negative integer id"), "{reply}");
        for (field, bad) in [
            ("priority", "300"),
            ("priority", "-1"),
            ("priority", "1.5"),
            ("priority", "\"high\""),
            ("seed", "-1"),
            ("seed", "0.5"),
            ("seed", "NaN"),
            ("seed", "18446744073709551616"),
        ] {
            let (reply, _) = fe.handle(
                &format!("{{\"verb\":\"submit\",\"n\":8,\"{field}\":{bad}}}"),
                0.0,
            );
            assert!(
                reply.contains("\"ok\":false") && reply.contains(&format!("{field} must be")),
                "{field} {bad} -> {reply}"
            );
        }
        assert_eq!(fe.jobs().len(), 1, "refused submits never enter the trace");
        // In-range values arrive exactly, integer-valued floats included.
        let (reply, _) = fe.handle(
            "{\"verb\":\"submit\",\"n\":8.0,\"priority\":255,\"seed\":9007199254740993}",
            0.0,
        );
        assert_eq!(reply, "{\"ok\":true,\"id\":1,\"arrival\":0.000,\"n\":8}");
        assert_eq!(fe.jobs()[1].priority, 255);
        assert_eq!(fe.jobs()[1].seed, 9_007_199_254_740_993, "not rounded");
        let (reply, _) = fe.handle("{\"verb\":\"status\",\"id\":1.0}", 0.0);
        assert!(reply.contains("\"id\":1,\"state\":\"done\""), "{reply}");
    }

    #[test]
    fn integer_literals_are_exact_and_float_forms_stop_at_2_pow_53() {
        let mut fe = frontend("fifo");
        // Literals are exact across the whole u64 range.
        for seed in [9_007_199_254_740_993u64, u64::MAX] {
            let (reply, _) = fe.handle(
                &format!("{{\"verb\":\"submit\",\"n\":8,\"seed\":{seed}}}"),
                0.0,
            );
            assert!(reply.contains("\"ok\":true"), "{seed} -> {reply}");
            assert_eq!(fe.jobs().last().unwrap().seed, seed);
        }
        // Integer-valued floats still work below 2^53...
        let (reply, _) = fe.handle("{\"verb\":\"submit\",\"n\":16.0,\"seed\":1e3}", 0.0);
        assert!(reply.contains("\"n\":16"), "{reply}");
        assert_eq!(fe.jobs().last().unwrap().seed, 1000);
        // ...and are refused from 2^53 on, where they may already be
        // rounded.
        for bad in ["9007199254740992.0", "9007199254740993.0", "1e16"] {
            let (reply, _) = fe.handle(
                &format!("{{\"verb\":\"submit\",\"n\":8,\"seed\":{bad}}}"),
                0.0,
            );
            assert!(reply.contains("seed must be"), "{bad} -> {reply}");
        }
        assert_eq!(fe.jobs().len(), 3, "refused submits never enter the trace");
    }

    #[test]
    fn a_key_name_inside_a_string_value_does_not_shadow_the_field() {
        let mut fe = frontend("fifo");
        let (reply, _) = fe.handle(
            "{\"verb\":\"submit\",\"n\":8,\"tag\":\"seed\",\"seed\":7}",
            0.0,
        );
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert_eq!(fe.jobs()[0].seed, 7);
        // Whitespace around the key is still a key position.
        let (reply, _) = fe.handle("{ \"verb\" : \"submit\" , \"n\" : 4 }", 0.0);
        assert!(reply.contains("\"n\":4"), "{reply}");
        // The same shadowing on a query.
        let (reply, _) = fe.handle("{\"verb\":\"status\",\"tag\":\"id\",\"id\":0}", 0.0);
        assert!(reply.contains("\"id\":0,\"state\":"), "{reply}");
        // A value spelling a key, with no real key: absent, not misread.
        let (reply, _) = fe.handle("{\"verb\":\"status\",\"tag\":\"id\"}", 0.0);
        assert!(reply.contains("non-negative integer id"), "{reply}");
    }

    #[test]
    fn drain_freezes_admission_with_backpressure() {
        let mut fe = frontend("edf");
        let _ = fe.handle("{\"verb\":\"submit\",\"n\":16}", 0.0);
        let (reply, down) = fe.handle("{\"verb\":\"drain\"}", 0.0);
        assert!(!down, "drain is not shutdown");
        assert!(
            reply.contains("\"draining\":true") && reply.contains("\"jobs\":1"),
            "{reply}"
        );
        assert!(fe.draining());
        // Later submits bounce with a structured backpressure reply...
        let (reply, down) = fe.handle("{\"verb\":\"submit\",\"n\":8}", 0.0);
        assert_eq!(
            reply, "{\"ok\":false,\"error\":\"draining\",\"backpressure\":true}",
            "{reply}"
        );
        assert!(!down);
        assert_eq!(fe.jobs().len(), 1, "bounced submits never enter the trace");
        // ...while queries keep answering, pure as ever.
        let (a, _) = fe.handle("{\"verb\":\"stats\"}", 0.0);
        let (b, _) = fe.handle("{\"verb\":\"stats\"}", 0.0);
        assert_eq!(a, b);
        assert!(a.contains("\"jobs\":1"), "{a}");
        let (status, _) = fe.handle("{\"verb\":\"status\",\"id\":0}", 0.0);
        assert!(status.contains("\"state\":\"done\""), "{status}");
    }

    #[test]
    fn shed_jobs_surface_in_status_and_stats() {
        // Whole-machine sizing with a one-slot queue and shedding on:
        // job 0 holds the machine, job 1 queues, job 2 (same priority,
        // younger) sheds itself at arrival.
        let machine = Machine::new(Topology::hypercube(4), CostModel::ncube2());
        let config = Config {
            sizing: crate::sizing::SizingMode::WholeMachine,
            queue_cap: 1,
            shed: true,
            ..Config::default()
        };
        let mut fe = Frontend::new(machine, config, "fifo").unwrap();
        for at in 0..3 {
            let (reply, _) = fe.handle(
                &format!("{{\"verb\":\"submit\",\"n\":16,\"arrival\":{at}.0}}"),
                0.0,
            );
            assert!(reply.contains("\"ok\":true"), "{reply}");
        }
        let (stats, _) = fe.handle("{\"verb\":\"stats\"}", 0.0);
        assert!(stats.contains("\"shed\":1"), "{stats}");
        assert!(stats.contains("\"rejected\":0"), "{stats}");
        let (status, _) = fe.handle("{\"verb\":\"status\",\"id\":2}", 0.0);
        assert!(
            status.contains("\"state\":\"shed\"") && status.contains("\"at\":2.000"),
            "{status}"
        );
    }

    #[test]
    fn replay_stays_pure_under_interleaved_submits_and_queries() {
        // Queries between submissions must not perturb the trace: the
        // stats after [submit, stats, submit, status, submit] equal
        // the stats after three bare submits.
        let submit = |fe: &mut Frontend, i: usize| {
            let (reply, _) = fe.handle(
                &format!("{{\"verb\":\"submit\",\"n\":8,\"arrival\":{}.0}}", i * 10),
                0.0,
            );
            assert!(reply.contains("\"ok\":true"), "{reply}");
        };
        let mut noisy = frontend("edf");
        submit(&mut noisy, 0);
        let _ = noisy.handle("{\"verb\":\"stats\"}", 0.0);
        submit(&mut noisy, 1);
        let _ = noisy.handle("{\"verb\":\"status\",\"id\":0}", 0.0);
        submit(&mut noisy, 2);

        let mut quiet = frontend("edf");
        for i in 0..3 {
            submit(&mut quiet, i);
        }
        let (a, _) = noisy.handle("{\"verb\":\"stats\"}", 0.0);
        let (b, _) = quiet.handle("{\"verb\":\"stats\"}", 0.0);
        assert_eq!(a, b, "queries must not perturb the replayed schedule");
    }

    #[test]
    fn shutdown_flags_the_loop() {
        let mut fe = frontend("fifo");
        let (reply, down) = fe.handle("{\"verb\":\"shutdown\"}", 0.0);
        assert!(down);
        assert!(reply.contains("\"bye\":true"));
    }

    #[test]
    fn deadlines_reach_the_scheduler() {
        let mut fe = frontend("edf");
        let _ = fe.handle("{\"verb\":\"submit\",\"n\":16,\"deadline\":1.0}", 0.0);
        assert_eq!(fe.jobs()[0].deadline, Some(1.0));
        let (stats, _) = fe.handle("{\"verb\":\"stats\"}", 0.0);
        assert!(stats.contains("\"jobs\":1"), "{stats}");
    }
}
