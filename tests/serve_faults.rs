//! Protocol fault injection: every way a client can misbehave on the
//! wire must map to its taxonomy error — the right status, a JSON body
//! naming the `kind` — and must leave the server fully able to serve
//! the next well-formed request.

use flames::circuit::predict::TestPoint;
use flames::circuit::{Net, Netlist};
use flames::core::{Diagnoser, DiagnoserConfig};
use flames::serve::{serve, Client, ServeConfig, ServerHandle};
use std::time::Duration;

fn divider() -> Diagnoser {
    let mut nl = Netlist::new();
    let vin = nl.add_net("vin");
    let mid = nl.add_net("mid");
    nl.add_voltage_source("V", vin, Net::GROUND, 10.0).unwrap();
    let r1 = nl.add_resistor("R1", vin, mid, 1000.0, 0.05).unwrap();
    let r2 = nl
        .add_resistor("R2", mid, Net::GROUND, 1000.0, 0.05)
        .unwrap();
    Diagnoser::from_netlist(
        &nl,
        vec![TestPoint::new(mid, "Vmid", vec![r1, r2])],
        DiagnoserConfig::default(),
    )
    .unwrap()
}

/// A server tuned for fast fault verdicts: a short read deadline (so
/// the slow-loris case resolves in milliseconds) and a small body cap.
fn fault_server() -> ServerHandle {
    serve(
        "127.0.0.1:0",
        divider(),
        ServeConfig {
            read_timeout: Duration::from_millis(300),
            max_body_bytes: 4096,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

const GOOD_BODY: &str = "{\"boards\": [[{\"point\": \"Vmid\", \"value\": 6.1}]]}";

/// The recovery check run after every fault: a fresh connection gets a
/// full 200 diagnosis.
fn assert_still_serving(handle: &ServerHandle) {
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client.diagnose(GOOD_BODY).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(response.body.contains("\"candidates\""));
}

/// Asserts the taxonomy body: `{"error": {"kind": ..., "status": ...}}`.
fn assert_taxonomy(body: &str, status: u16, kind: &str) {
    let v = flames::obs::json::parse(body).unwrap_or_else(|e| panic!("body {body:?}: {e}"));
    let err = v.member("error").expect("error member");
    assert_eq!(err.member("kind").unwrap().as_str(), Some(kind), "{body}");
    assert_eq!(
        err.member("status").unwrap().as_f64(),
        Some(f64::from(status))
    );
    assert!(err.member("message").is_some());
}

#[test]
fn malformed_json_is_a_bad_request() {
    let handle = fault_server();
    for body in ["{\"boards\": [[", "not json at all", "{\"boards\": 7}"] {
        let mut client = Client::connect(handle.addr()).unwrap();
        let response = client.diagnose(body).unwrap();
        assert_eq!(response.status, 400, "{body:?}");
        assert_taxonomy(&response.body, 400, "bad_request");
        assert_still_serving(&handle);
    }
    handle.shutdown();
}

#[test]
fn truncated_body_is_a_bad_request() {
    let handle = fault_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .send_raw(b"POST /diagnose HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"boards\"")
        .unwrap();
    client.shutdown_write().unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.status, 400);
    assert_taxonomy(&response.body, 400, "bad_request");
    assert!(response.body.contains("truncated"));
    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn unparseable_content_length_is_a_bad_request() {
    let handle = fault_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .send_raw(b"POST /diagnose HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
        .unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.status, 400);
    assert_taxonomy(&response.body, 400, "bad_request");
    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn understated_content_length_truncates_the_json() {
    // Content-Length shorter than the real body: the server reads
    // exactly the declared bytes, which no longer parse.
    let handle = fault_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let head = format!("POST /diagnose HTTP/1.1\r\nContent-Length: 10\r\n\r\n{GOOD_BODY}");
    client.send_raw(head.as_bytes()).unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.status, 400);
    assert_taxonomy(&response.body, 400, "bad_request");
    assert!(response.body.contains("malformed JSON"));
    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn oversize_payload_is_rejected_from_the_header() {
    let handle = fault_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    // Declared 1 MB against the 4 KiB cap: rejected before any body
    // bytes are read (none are even sent here).
    client
        .send_raw(b"POST /diagnose HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n")
        .unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.status, 413);
    assert_taxonomy(&response.body, 413, "bad_request");
    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn unknown_routes_and_methods_get_404_and_405() {
    let handle = fault_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    // Errors close the connection, so reconnect per probe.
    let response = client.request("GET", "/nope", None).unwrap();
    assert_eq!(response.status, 404);
    assert_taxonomy(&response.body, 404, "bad_request");

    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client.request("GET", "/diagnose", None).unwrap();
    assert_eq!(response.status, 405);
    assert_taxonomy(&response.body, 405, "bad_request");

    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client.request("POST", "/metrics", Some("{}")).unwrap();
    assert_eq!(response.status, 405);
    assert_taxonomy(&response.body, 405, "bad_request");

    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn slow_loris_hits_the_read_deadline() {
    let handle = fault_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    // Drip a partial request head, then stall past the 300 ms overall
    // read deadline. The drip does NOT reset the clock.
    client.send_raw(b"POST /diagnose HT").unwrap();
    std::thread::sleep(Duration::from_millis(150));
    client.send_raw(b"TP/1.1\r\nContent-Le").unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.status, 408);
    assert_taxonomy(&response.body, 408, "timeout");
    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn garbage_request_line_is_rejected() {
    let handle = fault_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.send_raw(b"\x00\x01\x02 garbage\r\n\r\n").unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.status, 400);
    assert_taxonomy(&response.body, 400, "bad_request");
    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn deeply_nested_json_is_a_bad_request() {
    // 100 kB of `[`, under the 1 MiB body cap: unbounded recursion
    // would overflow the worker's stack and abort the process.
    let handle = serve("127.0.0.1:0", divider(), ServeConfig::default()).unwrap();
    let body = "{\"x\":".to_owned() + &"[".repeat(100_000);
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client.diagnose(&body).unwrap();
    assert_eq!(response.status, 400);
    assert_taxonomy(&response.body, 400, "bad_request");
    assert!(
        response.body.contains("nesting deeper than 128"),
        "{}",
        response.body
    );
    assert_still_serving(&handle);
    handle.shutdown();
}
