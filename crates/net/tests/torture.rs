//! Session-map torture: open/close/resume storms from many threads
//! against the copy-on-write snapshot pool behind the event-loop
//! server. The invariants under fire: no session id is ever issued
//! twice, no live session is lost, a parked session's TTL expires
//! exactly once, shutdown is notification-driven fast, and a full
//! server lifecycle leaks not a single file descriptor.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mirabel_dw::Warehouse;
use mirabel_net::server::NetServerConfig;
use mirabel_net::{NetClient, NetServer};
use mirabel_session::{Command, ConcurrentPool};
use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

fn pool(size: usize, seed: u64) -> Arc<ConcurrentPool> {
    let pop = Population::generate(&PopulationConfig { size, seed, household_share: 0.8 });
    let offers = generate_offers(&pop, &OfferConfig::default());
    Arc::new(ConcurrentPool::new(Arc::new(Warehouse::load(&pop, &offers))))
}

/// Polls `probe` until it holds or ~2 s pass.
fn eventually(mut probe: impl FnMut() -> bool) -> bool {
    for _ in 0..400 {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    probe()
}

#[test]
fn storms_from_eight_threads_never_double_issue_or_lose_a_session() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 12;

    let server = NetServer::bind("127.0.0.1:0", pool(10, 0x70AD)).unwrap();
    let addr = server.local_addr();

    // Each thread storms the server: open → command → then one of
    // bye (closed for good), drop-and-resume (same session id must
    // come back), or plain drop (parked). Returns every fresh session
    // id it was issued plus how many sessions it left parked.
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut issued = Vec::new();
                let mut parked = 0usize;
                for round in 0..ROUNDS {
                    let mut client = NetClient::connect(addr).unwrap();
                    let id = client.session();
                    issued.push(id);
                    client.command(&Command::decode("load 0 96 - storm tab").unwrap()).unwrap();
                    match (t + round) % 3 {
                        0 => {
                            client.bye().unwrap();
                        }
                        1 => {
                            // Drop without bye, then resume: the very
                            // same session must come back, tab intact.
                            let conn = client.detach();
                            let mut resumed = conn.resume_with_retry(40).unwrap();
                            assert_eq!(resumed.session(), id, "resume changed the session id");
                            let hashes = resumed.hashes().unwrap();
                            assert!(!hashes.is_empty(), "resumed session lost its tab");
                            resumed.bye().unwrap();
                        }
                        _ => {
                            drop(client.detach());
                            parked += 1;
                        }
                    }
                }
                (issued, parked)
            })
        })
        .collect();

    let mut all_issued = Vec::new();
    let mut expect_parked = 0usize;
    for handle in handles {
        let (issued, parked) = handle.join().unwrap();
        all_issued.extend(issued);
        expect_parked += parked;
    }

    // No id double-issued, ever.
    let unique: HashSet<u64> = all_issued.iter().copied().collect();
    assert_eq!(unique.len(), all_issued.len(), "a session id was issued twice");
    assert_eq!(all_issued.len(), THREADS * ROUNDS);

    // No live session lost: everything not bye'd is parked and still
    // open on the pool (teardown races the last drops; settle first).
    assert!(
        eventually(|| server.parked() == expect_parked),
        "expected {expect_parked} parked sessions, found {} (pool len {})",
        server.parked(),
        server.pool().len()
    );
    // `ok bye` reaches the client a hair before the worker closes the
    // pool session; let the last retire land.
    assert!(
        eventually(|| server.pool().len() == expect_parked),
        "pool len {} ≠ parked {expect_parked}: a session was lost or leaked",
        server.pool().len()
    );
    // The reactor reaps a bye'd socket a beat after the client reads
    // `ok bye`; give the last reap a moment.
    assert!(eventually(|| server.connections() == 0), "{} connections lingered", {
        server.connections()
    });
}

#[test]
fn parked_session_ttl_expires_exactly_once() {
    let server = NetServer::bind_with(
        "127.0.0.1:0",
        pool(10, 0x771),
        NetServerConfig { park_ttl: Duration::from_millis(120), ..NetServerConfig::default() },
    )
    .unwrap();

    let client = NetClient::connect(server.local_addr()).unwrap();
    let conn = client.detach();
    assert!(eventually(|| server.parked() == 1), "the dropped session never parked");
    assert_eq!(server.pool().len(), 1);

    // The reactor's tick sweeps the lot: past the TTL the session is
    // closed on the pool — exactly once, with no thrashing after.
    assert!(eventually(|| server.parked() == 0), "the parked session never expired");
    assert!(
        eventually(|| server.pool().is_empty()),
        "TTL expiry must close the pool session exactly once"
    );
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(server.pool().len(), 0, "an expired session came back");

    // The expired token is refused (the second expiry path: resuming
    // it must not close anything again or panic).
    assert!(conn.resume().is_err(), "an expired session must not resume");
}

#[test]
fn shutdown_under_256_live_connections_is_notification_driven_fast() {
    let mut server = NetServer::bind("127.0.0.1:0", pool(10, 0x57D)).unwrap();
    let addr = server.local_addr();
    let mut clients: Vec<NetClient> = (0..256).map(|_| NetClient::connect(addr).unwrap()).collect();
    assert_eq!(server.connections(), 256);
    // Every connection is live at once: each answers a request while
    // all the others stay open.
    for client in &mut clients {
        assert_eq!(client.hashes().unwrap(), Vec::<u64>::new(), "a fresh session has no tabs");
    }
    assert_eq!(server.connections(), 256);

    // The old serial server ticked 50 ms sleep-polls per joined
    // connection; notification-driven shutdown of 256 live connections
    // must come in far under that regime's multi-second worst case.
    let start = Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "shutdown took {took:?} — the 50 ms sleep-poll era is supposed to be over"
    );
    assert_eq!(server.pool().len(), 0, "shutdown must close every session");
    drop(clients);
}

#[test]
fn a_simultaneous_connect_storm_holds_every_connection_open_at_once() {
    const CLIENTS: usize = 48;
    let server = NetServer::bind("127.0.0.1:0", pool(10, 0x5707)).unwrap();
    let addr = server.local_addr();
    // Every client connects at the same instant, each from its own
    // thread, and hands its open connection back.
    let start = Barrier::new(CLIENTS);
    let mut clients: Vec<NetClient> = std::thread::scope(|scope| {
        let storm: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    NetClient::connect(addr)
                })
            })
            .collect();
        storm.into_iter().map(|c| c.join().unwrap().expect("storm connect")).collect()
    });
    assert_eq!(server.connections(), CLIENTS, "a storm connect was dropped");
    for client in &mut clients {
        assert_eq!(client.hashes().unwrap(), Vec::<u64>::new(), "a fresh session has no tabs");
    }
    assert_eq!(server.connections(), CLIENTS);
    for client in clients {
        client.bye().unwrap();
    }
    assert!(eventually(|| server.connections() == 0), "{} still open", server.connections());
}

#[cfg(target_os = "linux")]
#[test]
fn full_server_lifecycle_leaks_zero_fds() {
    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd").unwrap().count()
    }

    // Warm up lazy fd users (stdio, test harness) before baselining.
    {
        let server = NetServer::bind("127.0.0.1:0", pool(10, 0xFD0)).unwrap();
        let client = NetClient::connect(server.local_addr()).unwrap();
        client.bye().unwrap();
    }

    let baseline = open_fds();
    for round in 0..3 {
        let mut server = NetServer::bind("127.0.0.1:0", pool(10, 0xFD1 + round)).unwrap();
        let addr = server.local_addr();
        // A mix of fates: bye'd, parked, resumed, still-live at
        // shutdown.
        let mut live = Vec::new();
        for i in 0..20 {
            let mut client = NetClient::connect(addr).unwrap();
            client.command(&Command::decode("render").unwrap()).unwrap();
            match i % 3 {
                0 => {
                    client.bye().unwrap();
                }
                1 => drop(client.detach()),
                _ => live.push(client),
            }
        }
        server.shutdown();
        drop(server);
        drop(live);
        assert!(
            eventually(|| open_fds() <= baseline),
            "round {round}: fds leaked — baseline {baseline}, now {} ",
            open_fds()
        );
    }
}
