//! Regression test for the reply stall: a reply sent as two segments,
//! or on a socket without `TCP_NODELAY`, waits for the client's delayed
//! ACK — 40 ms and more per round trip on loopback, for a reply that
//! costs microseconds to compute.  The bounds below sit well under that
//! and far above a healthy round trip.

mod common;

use std::time::{Duration, Instant};

use common::{start_server, Client};

const ROUND_TRIPS: usize = 40;
const BURST: usize = 20;

/// Median wall time of `ROUND_TRIPS` closed-loop asks of `line`.
fn median_round_trip(client: &mut Client, line: &str) -> Duration {
    let mut times: Vec<Duration> = (0..ROUND_TRIPS)
        .map(|_| {
            let t = Instant::now();
            let reply = client.ask(line);
            let took = t.elapsed();
            assert!(!reply.is_empty(), "{line}: no reply");
            took
        })
        .collect();
    times.sort();
    times[ROUND_TRIPS / 2]
}

#[test]
fn closed_loop_round_trips_do_not_wait_for_a_delayed_ack() {
    let (addr, server) = start_server(2, "fifo");
    let mut client = Client::connect(addr);
    // Queries replay the whole trace, so they run against a short one;
    // the submits that lengthen it go last.
    let first = client.ask("{\"verb\":\"submit\",\"n\":8}");
    assert!(first.contains("\"id\":0"), "submit: {first}");
    for (verb, line) in [
        ("error reply", "{\"verb\":\"dance\"}"),
        ("status", "{\"verb\":\"status\",\"id\":0}"),
        ("stats", "{\"verb\":\"stats\"}"),
        ("submit", "{\"verb\":\"submit\",\"n\":8}"),
    ] {
        let median = median_round_trip(&mut client, line);
        assert!(
            median < Duration::from_millis(10),
            "{verb}: median round trip {median:?}"
        );
    }
    client.shutdown();
    server.join().expect("server thread");
}

#[test]
fn a_pipelined_burst_is_answered_without_a_stall() {
    let (addr, server) = start_server(2, "fifo");
    let mut client = Client::connect(addr);
    // A young connection ACKs every segment at once and hides the
    // stall; a few request-reply turns put it in the interactive mode
    // that delays ACKs, which is where a service client lives.
    for _ in 0..ROUND_TRIPS {
        client.ask("{\"verb\":\"stats\"}");
    }
    // The fastest of three bursts: a descheduled test thread slows one
    // burst, a held segment slows every one.
    let fastest = (0..3)
        .map(|_| {
            let t = Instant::now();
            client.send("{\"verb\":\"stats\"}\n".repeat(BURST).as_bytes());
            for i in 0..BURST {
                let reply = client.recv();
                assert!(reply.contains("\"jobs\":0"), "reply {i}: {reply}");
            }
            t.elapsed()
        })
        .min()
        .expect("three bursts");
    assert!(
        fastest < Duration::from_millis(20),
        "{BURST} pipelined requests took {fastest:?}"
    );
    client.shutdown();
    server.join().expect("server thread");
}
