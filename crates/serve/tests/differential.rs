//! Differential contract between the serve event loop and an in-process
//! oracle: for identical request streams, the server must produce
//! **byte-identical response bodies** to a plain sequential replay of
//! each stream through the same layers — [`LineDecoder`] framing,
//! [`protocol::parse_request`], [`BatchService::run`] and the
//! `protocol::encode_*` functions — in request order. The event loop
//! changes scheduling (sharding, pipelining, batch coalescing, reordering),
//! never answers. Completion-order connections are compared as sorted
//! sets (their order is timing-dependent), in-order connections as exact
//! sequences.
//!
//! Every emulate request in a run uses a globally distinct `frames`
//! value: duplicate jobs would make the `cached` response field depend
//! on batch-coalescing timing, which is outside the contract. `stats`
//! and `shutdown` stay out of the streams for the same reason.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};

use segbus_serve::decode::{DecodedLine, LineDecoder};
use segbus_serve::protocol::{self, Request};
use segbus_serve::{json, BatchService, Limits, ServeOptions, Server, ServiceOptions};

const DEMO: &str = "application a {\n  process X initial;\n  process Y final;\n  flow X -> Y { items 72; order 1; ticks 100; }\n}\nplatform p {\n  segment S0 { freq_mhz 100; hosts X; }\n  segment S1 { freq_mhz 100; hosts Y; }\n}\n";

const WINDOW: usize = 8;
const MAX_LINE: usize = 1024;

fn emulate_line(id: u64, frames: u64) -> String {
    let mut src = String::new();
    json::write_str(&mut src, DEMO);
    format!("{{\"id\": {id}, \"cmd\": \"emulate\", \"source\": {src}, \"frames\": {frames}}}")
}

/// Run every stream as a concurrent client against a fresh server;
/// returns each client's raw response lines in arrival order.
fn serve_streams(streams: &[Vec<String>]) -> Vec<Vec<String>> {
    let mut server = Server::start(ServeOptions {
        port: 0,
        threads: 2,
        cache_capacity: 512,
        window: WINDOW,
        max_line_bytes: MAX_LINE,
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = server.addr();
    let handles: Vec<_> = streams
        .iter()
        .cloned()
        .map(|lines| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                for line in &lines {
                    stream.write_all(line.as_bytes()).unwrap();
                    stream.write_all(b"\n").unwrap();
                }
                stream.flush().unwrap();
                // Half-close: the server sees EOF, answers everything
                // pending, then closes its side.
                stream.shutdown(Shutdown::Write).unwrap();
                BufReader::new(stream)
                    .lines()
                    .map(|l| l.unwrap())
                    .collect::<Vec<String>>()
            })
        })
        .collect();
    let out = handles.into_iter().map(|h| h.join().unwrap()).collect();
    server.shutdown();
    out
}

/// The oracle: answer each stream sequentially, one request at a time in
/// request order, through a fresh in-process [`BatchService`] — no
/// sockets, shards, windows or reorder buffer.
fn oracle_streams(streams: &[Vec<String>]) -> Vec<Vec<String>> {
    let service = BatchService::start(ServiceOptions {
        threads: 2,
        cache_capacity: 512,
        ..ServiceOptions::default()
    })
    .unwrap();
    let limits = Limits::default();
    streams
        .iter()
        .map(|lines| {
            let mut decoder = LineDecoder::new(MAX_LINE);
            for line in lines {
                decoder.feed(line.as_bytes());
                decoder.feed(b"\n");
            }
            let mut out = Vec::new();
            while let Some(ev) = decoder.pop() {
                let line = match ev {
                    DecodedLine::Overflow => {
                        let e = protocol::oversize_error(MAX_LINE);
                        out.push(protocol::encode_error(0, &e));
                        continue;
                    }
                    DecodedLine::Line(l) if l.trim().is_empty() => continue,
                    DecodedLine::Line(l) => l,
                };
                let first = out.is_empty();
                out.push(match protocol::parse_request(&line, &limits) {
                    Err((id, e)) => protocol::encode_error(id, &e),
                    Ok(Request::Emulate { id, job }) => {
                        let o = service.run(*job);
                        match o.result {
                            Ok(r) => protocol::encode_report(id, o.cached, o.digest, &r),
                            Err(e) => protocol::encode_error(id, &e),
                        }
                    }
                    Ok(Request::Hello { id, in_order }) if in_order && !first => {
                        protocol::encode_error(id, &protocol::handshake_order_error())
                    }
                    Ok(Request::Hello { id, in_order }) => {
                        protocol::encode_hello(id, in_order, WINDOW)
                    }
                    Ok(other) => panic!("timing-dependent request in an oracle stream: {other:?}"),
                });
            }
            out
        })
        .collect()
}

fn sorted(mut lines: Vec<String>) -> Vec<String> {
    lines.sort();
    lines
}

/// One client, a mixed stream touching every response shape: reports,
/// S001/S002/S003/S004 errors, a blank keep-alive. Completion-order mode,
/// so the response *sets* must match byte-for-byte.
#[test]
fn event_loop_matches_the_oracle_on_a_mixed_stream() {
    let mut stream = vec![
        emulate_line(1, 1),
        emulate_line(2, 2),
        "{nope".to_string(),                             // S001
        "{\"id\": 4, \"cmd\": \"explode\"}".to_string(), // S002
        "x".repeat(2048),                                // S003 (cap 1024)
        emulate_line(6, 0),                              // S004 (frames 0)
        String::new(),                                   // blank: no response
        emulate_line(8, 3),
    ];
    let a = serve_streams(&[stream.clone()]);
    let b = oracle_streams(&[stream.clone()]);
    assert_eq!(a[0].len(), 7, "every non-blank line gets one response");
    assert_eq!(sorted(a[0].clone()), sorted(b[0].clone()));

    // Same stream in in-order mode: exact sequences must match.
    stream.insert(
        0,
        "{\"id\": 0, \"cmd\": \"hello\", \"in_order\": true}".to_string(),
    );
    let a = serve_streams(&[stream.clone()]);
    let b = oracle_streams(&[stream]);
    assert_eq!(a[0].len(), 8);
    assert_eq!(a[0], b[0], "in-order responses must match positionally");
}

/// Adversarial completion order through the reorder buffer: the heaviest
/// job is requested first, so every successor completes ahead of it and
/// must wait. The event loop must still deliver in request order, byte
/// for byte what the oracle answers.
#[test]
fn event_loop_matches_the_oracle_under_adversarial_completion_order() {
    let mut lines = vec!["{\"id\": 0, \"cmd\": \"hello\", \"in_order\": true}".to_string()];
    // Strictly decreasing weight: frames 40, 34, 28, ... 4.
    for (i, frames) in (1..=7u64).map(|k| 46 - 6 * k).enumerate() {
        lines.push(emulate_line(10 + i as u64, frames));
    }
    let a = serve_streams(&[lines.clone()]);
    let b = oracle_streams(&[lines]);
    assert_eq!(a[0], b[0]);
    // Responses are positional: ids come back in request order.
    for (i, line) in a[0].iter().skip(1).enumerate() {
        let v = json::parse(line).unwrap();
        assert_eq!(
            v.get("id").and_then(json::Json::as_u64),
            Some(10 + i as u64)
        );
    }
}

/// The CI serve-smoke case: 64 concurrent clients, a mix of in-order and
/// completion-order connections, every emulate distinct. Per-client
/// response sets (ordered sequences for the in-order half) must be
/// byte-identical to the oracle's.
#[test]
fn event_loop_matches_the_oracle_under_64_concurrent_clients() {
    const CLIENTS: u64 = 64;
    const PER_CLIENT: u64 = 4;
    let streams: Vec<Vec<String>> = (0..CLIENTS)
        .map(|client| {
            let in_order = client % 2 == 0;
            let mut lines = Vec::new();
            if in_order {
                lines.push(format!(
                    "{{\"id\": {client}, \"cmd\": \"hello\", \"in_order\": true}}"
                ));
            }
            for k in 0..PER_CLIENT {
                // frames globally unique: 1 + client*PER_CLIENT + k.
                lines.push(emulate_line(1000 * client + k, 1 + client * PER_CLIENT + k));
            }
            // One protocol error per client, alternating shape.
            if client % 2 == 0 {
                lines.push(format!(
                    "{{\"id\": {}, \"cmd\": \"warp\"}}",
                    1000 * client + 99
                ));
            } else {
                lines.push("not json".to_string());
            }
            lines
        })
        .collect();
    let a = serve_streams(&streams);
    let b = oracle_streams(&streams);
    assert_eq!(a.len(), b.len());
    for (client, (ra, rb)) in a.into_iter().zip(b).enumerate() {
        let in_order = client % 2 == 0;
        let expect = PER_CLIENT as usize + 1 + usize::from(in_order);
        assert_eq!(ra.len(), expect, "client {client} response count");
        if in_order {
            assert_eq!(ra, rb, "client {client}: ordered sequences differ");
        } else {
            assert_eq!(
                sorted(ra),
                sorted(rb),
                "client {client}: response sets differ"
            );
        }
    }
}
