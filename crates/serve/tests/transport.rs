//! Transport end-to-end tests: the TCP front end over a localhost
//! ephemeral port, multi-frame sessions, and recovery after garbage —
//! the same engine semantics the in-process [`ServeHarness`] asserts,
//! now through real sockets.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use macgame_core::queries::Query;
use macgame_dcf::AccessMode;
use macgame_serve::frame::write_frame;
use macgame_serve::{serve_tcp, Engine, EngineConfig, ErrorKind, Reply, ServeHarness};

/// Binds an ephemeral localhost port and serves it from a detached
/// thread, returning the address to dial. The accept loop runs for the
/// life of the test process.
fn spawn_server() -> (Arc<Engine>, std::net::SocketAddr) {
    let engine = Arc::new(Engine::new(EngineConfig::default()).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accept_engine = Arc::clone(&engine);
    std::thread::spawn(move || {
        let _ = serve_tcp(&accept_engine, &listener);
    });
    (engine, addr)
}

fn queries() -> Vec<Query> {
    vec![
        Query::WcStar { players: 3, mode: AccessMode::Basic, w_max: 256 },
        Query::NeInterval { players: 4, mode: AccessMode::RtsCts, w_max: 256 },
        Query::DeviationPayoff {
            players: 5,
            mode: AccessMode::Basic,
            w_star: 79,
            w_dev: 20,
            reaction_stages: 1,
            delta_s: 0.0,
        },
    ]
}

/// Reads reply frames off `stream` until `count` have arrived.
fn read_replies(stream: &mut TcpStream, count: usize) -> Vec<Reply> {
    let mut replies = Vec::new();
    while replies.len() < count {
        let mut prefix = [0u8; 4];
        stream.read_exact(&mut prefix).unwrap();
        let len = u32::from_be_bytes(prefix) as usize;
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload).unwrap();
        replies.push(serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap());
    }
    replies
}

#[test]
fn tcp_round_trip_matches_the_in_process_harness() {
    let (_engine, addr) = spawn_server();
    let queries = queries();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&ServeHarness::encode_batch(&queries).unwrap()).unwrap();
    let over_tcp = read_replies(&mut stream, queries.len());

    let harness = ServeHarness::new().unwrap();
    let in_process = harness.query_batch(&queries).unwrap();
    assert_eq!(over_tcp, in_process, "TCP replies must match the in-process wire path");
}

#[test]
fn one_connection_serves_many_frames_in_order() {
    let (_engine, addr) = spawn_server();
    let mut stream = TcpStream::connect(addr).unwrap();
    for players in 2..=5 {
        let batch = vec![Query::WcStar { players, mode: AccessMode::Basic, w_max: 256 }];
        stream.write_all(&ServeHarness::encode_batch(&batch).unwrap()).unwrap();
        let replies = read_replies(&mut stream, 1);
        assert_eq!(replies[0].id(), Some(1));
        assert!(replies[0].is_ok(), "frame for players={players} failed");
    }
}

#[test]
fn a_garbage_frame_does_not_kill_the_connection() {
    let (_engine, addr) = spawn_server();
    let mut stream = TcpStream::connect(addr).unwrap();

    let mut wire = Vec::new();
    write_frame(&mut wire, b"definitely not a batch").unwrap();
    stream.write_all(&wire).unwrap();
    let garbage_replies = read_replies(&mut stream, 1);
    let Reply::Error { id: None, error } = &garbage_replies[0] else {
        panic!("expected a null-id error reply");
    };
    assert_eq!(error.kind, ErrorKind::MalformedJson);

    // The same connection still answers a well-formed batch.
    let queries = queries();
    stream.write_all(&ServeHarness::encode_batch(&queries).unwrap()).unwrap();
    let replies = read_replies(&mut stream, queries.len());
    assert!(replies.iter().all(Reply::is_ok));
}

#[test]
fn concurrent_connections_share_one_engine_and_its_caches() {
    let (engine, addr) = spawn_server();
    let queries = Arc::new(queries());
    let expected = {
        let harness = ServeHarness::new().unwrap();
        harness.query_batch(&queries).unwrap()
    };

    let workers: Vec<_> = (0..4)
        .map(|_| {
            let queries = Arc::clone(&queries);
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(&ServeHarness::encode_batch(&queries).unwrap()).unwrap();
                let replies = read_replies(&mut stream, queries.len());
                assert_eq!(replies, expected);
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    // All four connections fed the same shared reply cache. Concurrent
    // cold lookups may each miss before the first insert lands
    // (first-insert-wins keeps the values identical), so the exact
    // hit/miss split is timing-dependent — but every lookup is counted
    // exactly once, and the batches raced so at least one hit occurred
    // only if some connection arrived after an insert.
    let (hits, misses, _) = engine.reply_counters();
    assert_eq!(hits + misses, (4 * queries.len()) as u64);
    assert!(misses >= queries.len() as u64);
}
