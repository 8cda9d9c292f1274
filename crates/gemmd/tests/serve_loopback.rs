//! Loopback smoke test of the TCP front-end: a real socket, a real
//! client, three submissions, a stats reply, a clean shutdown.

mod common;

use common::{start_server, Client};

#[test]
fn three_jobs_over_tcp_yield_stats() {
    let (addr, server) = start_server(4, "edf");
    let mut client = Client::connect(addr);

    for (i, n) in [8, 16, 8].iter().enumerate() {
        let reply = client.ask(&format!(
            "{{\"verb\":\"submit\",\"n\":{n},\"arrival\":{}.0}}",
            i * 100
        ));
        assert!(
            reply.contains("\"ok\":true") && reply.contains(&format!("\"id\":{i}")),
            "submit {i}: {reply}"
        );
    }

    let stats = client.ask("{\"verb\":\"stats\"}");
    assert!(stats.contains("\"ok\":true"), "stats: {stats}");
    assert!(stats.contains("\"jobs\":3"), "stats: {stats}");
    assert!(stats.contains("\"policy\":\"edf\""), "stats: {stats}");
    assert!(stats.contains("\"p99\":"), "stats: {stats}");

    let status = client.ask("{\"verb\":\"status\",\"id\":1}");
    assert!(status.contains("\"state\":\"done\""), "status: {status}");

    client.shutdown();
    server.join().expect("server thread");
}

#[test]
fn drain_over_tcp_bounces_late_submits_and_survives_reconnect() {
    let (addr, server) = start_server(4, "edf");

    let mut client = Client::connect(addr);
    let reply = client.ask("{\"verb\":\"submit\",\"n\":16}");
    assert!(reply.contains("\"ok\":true"), "submit: {reply}");

    let drain = client.ask("{\"verb\":\"drain\"}");
    assert!(
        drain.contains("\"draining\":true") && drain.contains("\"jobs\":1"),
        "drain: {drain}"
    );

    let bounced = client.ask("{\"verb\":\"submit\",\"n\":8}");
    assert!(
        bounced.contains("\"backpressure\":true"),
        "late submit: {bounced}"
    );

    // The drain survives a reconnect: the state lives in the
    // front-end, not the connection.
    drop(client);
    let mut client = Client::connect(addr);
    let bounced = client.ask("{\"verb\":\"submit\",\"n\":8}");
    assert!(
        bounced.contains("\"backpressure\":true"),
        "post-reconnect submit: {bounced}"
    );
    let stats = client.ask("{\"verb\":\"stats\"}");
    assert!(stats.contains("\"jobs\":1"), "stats: {stats}");

    client.shutdown();
    server.join().expect("server thread");
}

#[test]
fn oversized_request_lines_get_one_error_and_a_disconnect() {
    let (addr, server) = start_server(2, "fifo");
    let reply = Client::connect(addr).ask("{\"verb\":\"submit\",\"n\":8}");
    assert!(reply.contains("\"id\":0"), "submit: {reply}");

    // Exactly MAX_LINE bytes with no newline: the bound trips the
    // moment the server has consumed them all, so its close is a clean
    // FIN (no unread bytes to turn it into a reset).
    let mut client = Client::connect(addr);
    client.send("x".repeat(gemmd::frontend::MAX_LINE as usize).as_bytes());
    let reply = client.recv();
    assert!(reply.contains("request line too long"), "oversize: {reply}");
    // The server dropped us: the stream reaches EOF.
    assert_eq!(client.recv(), "", "the server hangs up after the error");

    // A fresh, well-behaved client still gets served, and the trace
    // kept the earlier job.
    let mut client = Client::connect(addr);
    let stats = client.ask("{\"verb\":\"stats\"}");
    assert!(stats.contains("\"jobs\":1"), "stats: {stats}");
    client.shutdown();
    server.join().expect("server thread");
}
