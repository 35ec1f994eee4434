//! A shutdown must wake the daemon's blocking `accept` on its own: no
//! client ever connects in these tests, so `join` returns only if the
//! shutdown request's self-connect reached the listener — on a loopback
//! address and on an unspecified one (`0.0.0.0`), for both the drain and
//! the fast stop.

use std::sync::mpsc;
use std::time::Duration;

use elsq_serve::{ServeConfig, Server, ServerHandle};

/// Starts an in-process daemon on `addr` over a fresh store, stops it with
/// `stop`, and requires `join` to return within 10 s. The join runs on a
/// helper thread so a lost wake fails the test instead of hanging it.
fn stops_without_a_client(addr: &str, tag: &str, stop: fn(&ServerHandle)) {
    let store_dir =
        std::env::temp_dir().join(format!("elsq-serve-wake-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&store_dir).ok();
    let handle = Server::start(ServeConfig {
        addr: addr.into(),
        store_dir: store_dir.clone(),
        resume: false,
        watchdog: None,
    })
    .unwrap();
    stop(&handle);
    let (done_tx, done) = mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = done_tx.send(());
    });
    done.recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{addr}: join did not return after the shutdown"));
    std::fs::remove_dir_all(&store_dir).ok();
}

#[test]
fn drain_shutdown_wakes_accept_on_loopback() {
    stops_without_a_client("127.0.0.1:0", "drain-lo", ServerHandle::shutdown);
}

#[test]
fn drain_shutdown_wakes_accept_on_an_unspecified_address() {
    stops_without_a_client("0.0.0.0:0", "drain-any", ServerHandle::shutdown);
}

#[test]
fn fast_shutdown_wakes_accept_on_loopback() {
    stops_without_a_client("127.0.0.1:0", "now-lo", ServerHandle::shutdown_now);
}

#[test]
fn fast_shutdown_wakes_accept_on_an_unspecified_address() {
    stops_without_a_client("0.0.0.0:0", "now-any", ServerHandle::shutdown_now);
}
