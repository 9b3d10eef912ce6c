//! The server's thread model: the accept loop and the workers are the
//! only threads it runs, however many requests are held in a handler or
//! shed. A binary of its own, so no other test's threads share the
//! count read from `/proc/self/task`.
#![cfg(target_os = "linux")]

use ceaff_core::{MatcherKind, Telemetry};
use ceaff_server::{Server, ServerConfig, WarmState};
use ceaff_sim::{SimStore, SimilarityMatrix};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

/// Open a connection and send one request on it, without reading.
fn send(addr: SocketAddr, path: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    stream
}

fn reply(mut stream: TcpStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read the answer");
    text
}

#[test]
fn held_and_shed_requests_start_no_threads() {
    let n = 8;
    let mut m = SimilarityMatrix::zeros(n, n);
    for i in 0..n {
        m.set(i, i, 0.9);
    }
    let state = WarmState::from_parts(
        SimStore::Dense(m),
        MatcherKind::StableMarriage,
        (0..n).map(|i| format!("e{i}")).collect(),
        (0..n).map(|i| format!("t{i}")).collect(),
    );
    let server = Server::start(
        Arc::new(state),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            debug_endpoints: true,
            ..ServerConfig::default()
        },
        Telemetry::disabled(),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // Warm up: whatever one `/align` starts for good (the kernel pool)
    // is running before the count is taken.
    assert!(reply(send(addr, "/align")).starts_with("HTTP/1.1 200"));
    let warmed = threads();

    // One request held in the handler, one waiting in the queue, and six
    // shed — all of them still open.
    let held = send(addr, "/align?debug-sleep-ms=1500");
    std::thread::sleep(Duration::from_millis(200));
    let queued = send(addr, "/align");
    let sheds: Vec<TcpStream> = (0..6).map(|_| send(addr, "/align")).collect();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        threads(),
        warmed,
        "a held request and six sheds must not start threads"
    );

    for shed in sheds {
        let text = reply(shed);
        assert!(text.starts_with("HTTP/1.1 503"), "got: {text}");
        assert!(text.contains("Retry-After: "), "got: {text}");
    }
    assert!(reply(held).starts_with("HTTP/1.1 200"));
    assert!(reply(queued).starts_with("HTTP/1.1 200"));
    server.join();
}
