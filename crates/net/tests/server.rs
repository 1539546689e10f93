//! End-to-end server behaviour: connection = session, wire replies
//! mirror in-process outcomes bit-for-bit, epoch pushes arrive with the
//! documented ordering, and malformed input never kills a connection.

use std::sync::Arc;
use std::time::Duration;

use mirabel_dw::{LiveWarehouse, Warehouse};
use mirabel_net::{NetClient, NetServer, Reply, Request};
use mirabel_session::{Command, ConcurrentPool, WireOutcome};
use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

fn population(size: usize, seed: u64) -> Population {
    Population::generate(&PopulationConfig { size, seed, household_share: 0.8 })
}

fn pool(size: usize, seed: u64) -> Arc<ConcurrentPool> {
    let pop = population(size, seed);
    let offers = generate_offers(&pop, &OfferConfig::default());
    Arc::new(ConcurrentPool::new(Arc::new(Warehouse::load(&pop, &offers))))
}

/// The script every determinism test replays: one of each command
/// class, including a rejection.
fn script() -> Vec<Command> {
    [
        "set-canvas 960 540",
        "load 0 192 - main window",
        "set-mode profile",
        "render",
        "pointer-move 480 270",
        "click 480 270",
        "drag-start 100 100",
        "drag-end 800 500",
        "show-selection",
        "set-mode basic",
        "render",
        "activate-tab 0",
        "set-aggregation 8 2 5",
        "aggregate",
        "mdx SELECT { [EnergyType].Children } ON COLUMNS FROM [FlexOffers]",
        "dashboard 0 96 hour",
        "set-planning greedy 8 1 96 42",
        "plan",
        "close-tab 99",
        "render",
    ]
    .iter()
    .map(|line| Command::decode(line).expect("valid script line"))
    .collect()
}

#[test]
fn wire_replies_match_in_process_outcomes_bit_for_bit() {
    // In-process reference replay.
    let reference_pool = pool(30, 0x2EF);
    let ref_id = reference_pool.open();
    let reference: Vec<String> = script()
        .into_iter()
        .map(|cmd| reference_pool.apply(ref_id, cmd).unwrap().to_wire().encode())
        .collect();
    let ref_hashes = reference_pool.with_session(ref_id, |s| s.frame_hashes()).unwrap();

    // The same script over loopback TCP.
    let server = NetServer::bind("127.0.0.1:0", pool(30, 0x2EF)).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let over_wire: Vec<String> =
        script().iter().map(|cmd| client.command(cmd).unwrap().encode()).collect();
    let wire_hashes = client.hashes().unwrap();
    client.bye().unwrap();

    assert_eq!(reference, over_wire, "the wire must not change a single outcome");
    assert_eq!(ref_hashes, wire_hashes, "frame hashes must survive the wire");
    assert!(!wire_hashes.is_empty());
}

#[test]
fn concurrent_clients_replay_deterministically() {
    const CLIENTS: usize = 4;

    // Reference: each client's script in its own in-process session.
    let reference_pool = pool(30, 0x51ED);
    let reference: Vec<Vec<u64>> = (0..CLIENTS)
        .map(|_| {
            let id = reference_pool.open();
            for cmd in script() {
                reference_pool.apply(id, cmd).unwrap();
            }
            reference_pool.with_session(id, |s| s.frame_hashes()).unwrap()
        })
        .collect();

    let server = NetServer::bind("127.0.0.1:0", pool(30, 0x51ED)).unwrap();
    let addr = server.local_addr();
    let wire: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).unwrap();
                    for cmd in script() {
                        client.command(&cmd).unwrap();
                    }
                    let hashes = client.hashes().unwrap();
                    client.bye().unwrap();
                    hashes
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, hashes) in wire.iter().enumerate() {
        assert_eq!(hashes, &reference[i], "client {i} diverged from the in-process replay");
    }
}

#[test]
fn bye_closes_the_session_but_a_drop_parks_it() {
    let server = NetServer::bind("127.0.0.1:0", pool(10, 1)).unwrap();
    assert_eq!(server.pool().len(), 0);

    let client_a = NetClient::connect(server.local_addr()).unwrap();
    let client_b = NetClient::connect(server.local_addr()).unwrap();
    assert_ne!(client_a.session(), client_b.session());
    assert_eq!(server.pool().len(), 2);

    client_a.bye().unwrap();
    // bye is synchronous on the wire but teardown races the assertion;
    // poll briefly.
    for _ in 0..200 {
        if server.pool().len() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.pool().len(), 1);
    assert_eq!(server.parked(), 0, "bye closes for good — nothing to resume");

    // Dropping a client without bye parks its session: still open on
    // the pool, resumable from a fresh connection.
    drop(client_b.detach());
    for _ in 0..200 {
        if server.parked() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.parked(), 1, "an EOF without bye must park, not close");
    assert_eq!(server.pool().len(), 1, "the parked session stays open on the pool");
    assert_eq!(server.connections(), 0, "parked ≠ connected");
}

#[test]
fn dropped_connection_resumes_with_identical_hashes() {
    // Reference: the full script in one uninterrupted in-process
    // session.
    let reference_pool = pool(30, 0x7E5);
    let ref_id = reference_pool.open();
    for cmd in script() {
        reference_pool.apply(ref_id, cmd).unwrap();
    }
    let reference = reference_pool.with_session(ref_id, |s| s.frame_hashes()).unwrap();

    // Over the wire: run half the script, kill the connection (no
    // bye), resume from a fresh one, run the rest.
    let server = NetServer::bind("127.0.0.1:0", pool(30, 0x7E5)).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let session = client.session();
    let first_token = client.resume_token().to_string();
    let all = script();
    let half = all.len() / 2;
    for cmd in &all[..half] {
        client.command(cmd).unwrap();
    }
    let parked = client.detach();
    assert_eq!(parked.resume_token(), first_token);

    let mut client = parked.resume().unwrap();
    assert_eq!(client.session(), session, "resume re-attaches the same session");
    assert_ne!(client.resume_token(), first_token, "tokens rotate on every attach");
    for cmd in &all[half..] {
        client.command(cmd).unwrap();
    }
    assert_eq!(
        client.hashes().unwrap(),
        reference,
        "a resumed session must replay bit-identically to an uninterrupted one"
    );
    client.bye().unwrap();
}

#[test]
fn resume_preserves_the_epoch_high_water_mark() {
    let pop = population(20, 0x1DE);
    let offers = generate_offers(&pop, &OfferConfig::default());
    let live = LiveWarehouse::new(pop, &offers);
    let pool = Arc::new(ConcurrentPool::new(Arc::clone(live.snapshot().warehouse())));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&pool)).unwrap();

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    live.advance_day();
    pool.publish(&live.publish());
    assert!(client.wait_for_epoch(1, Duration::from_secs(5)).unwrap());
    assert_eq!(client.notifications(), &[1]);

    // Kill the connection; the warehouse moves on while parked.
    let parked = client.detach();
    live.advance_day();
    pool.publish(&live.publish());

    let mut client = parked.resume().unwrap();
    // The resume reply reports the newer epoch exactly once — no
    // duplicate of epoch 1, no missed epoch 2.
    assert_eq!(client.epoch(), 2);
    assert_eq!(client.notifications(), &[1, 2], "history carries over, deduplicated");
    client.command(&Command::decode("load 0 96 - after resume").unwrap()).unwrap();
    let all = client.notifications().to_vec();
    let mut dedup = all.clone();
    dedup.dedup();
    assert_eq!(all, dedup, "duplicate epoch notifications after resume: {all:?}");
    client.bye().unwrap();
}

#[test]
fn resume_tokens_are_single_use_and_unforgeable() {
    use mirabel_net::Connection;

    let server = NetServer::bind("127.0.0.1:0", pool(10, 6)).unwrap();
    let addr = server.local_addr();

    let client = NetClient::connect(addr).unwrap();
    let old_token = client.resume_token().to_string();
    let parked = client.detach();
    let client = parked.resume().unwrap();

    // The presented token rotated at resume: the old one is dead.
    let refused = Connection::open(addr).unwrap().resume_with(&old_token);
    assert!(
        matches!(refused, Err(mirabel_net::NetError::Refused { .. })),
        "a spent token must be refused: {refused:?}"
    );

    // Garbage and forged tokens are refused too.
    for bad in ["not-a-token", "00000000-0000000000000000-0000000000000000", "a-b-c-d"] {
        let refused = Connection::open(addr).unwrap().resume_with(bad);
        assert!(matches!(refused, Err(mirabel_net::NetError::Refused { .. })), "{bad:?}");
    }

    // After bye the (current) token names a closed session.
    let final_token = client.resume_token().to_string();
    client.bye().unwrap();
    for _ in 0..200 {
        if server.pool().is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let refused = Connection::open(addr).unwrap().resume_with(&final_token);
    assert!(matches!(refused, Err(mirabel_net::NetError::Refused { .. })), "{refused:?}");
}

#[test]
fn parking_lot_honors_ttl_and_capacity() {
    use mirabel_net::NetServerConfig;

    // TTL zero: a parked session expires on the next sweep.
    let server = NetServer::bind_with(
        "127.0.0.1:0",
        pool(10, 7),
        NetServerConfig { park_capacity: 16, park_ttl: Duration::ZERO, ..Default::default() },
    )
    .unwrap();
    let client = NetClient::connect(server.local_addr()).unwrap();
    drop(client.detach());
    for _ in 0..200 {
        if server.parked() == 0 && server.pool().is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.parked(), 0, "TTL-expired sessions leave the lot");
    assert_eq!(server.pool().len(), 0, "TTL-expired sessions close on the pool");

    // Capacity one: parking a second session evicts the first.
    let server = NetServer::bind_with(
        "127.0.0.1:0",
        pool(10, 8),
        NetServerConfig {
            park_capacity: 1,
            park_ttl: Duration::from_secs(300),
            ..Default::default()
        },
    )
    .unwrap();
    let first = NetClient::connect(server.local_addr()).unwrap();
    let second = NetClient::connect(server.local_addr()).unwrap();
    let first_parked = first.detach();
    for _ in 0..200 {
        if server.parked() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let second_parked = second.detach();
    for _ in 0..200 {
        if server.pool().len() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.parked(), 1, "capacity bounds the lot");
    assert_eq!(server.pool().len(), 1, "the evicted session closes on the pool");
    // The survivor must be the *younger* parked session.
    assert!(second_parked.resume().is_ok(), "the newest parked session survives");
    assert!(first_parked.resume().is_err(), "the oldest parked session was evicted");
}

#[test]
fn resume_tokens_expire_independently_of_the_parking_lot() {
    use mirabel_net::{NetError, NetServerConfig};

    // Token TTL far below the park TTL: the bearer credential dies
    // while the session itself stays parked.
    let server = NetServer::bind_with(
        "127.0.0.1:0",
        pool(10, 9),
        NetServerConfig {
            park_ttl: Duration::from_secs(300),
            resume_token_ttl: Duration::from_millis(50),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Control: a resume well inside the token TTL succeeds.
    let quick = NetClient::connect(addr).unwrap().detach();
    for _ in 0..200 {
        if server.parked() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let quick = quick.resume().expect("a fresh token resumes");
    quick.bye().unwrap();

    // Expired: wait out the token TTL before resuming.
    let stale = NetClient::connect(addr).unwrap().detach();
    for _ in 0..200 {
        if server.parked() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(server.parked(), 1, "the session is still parked; only its token died");
    let err = stale.resume().expect_err("an expired token cannot resume");
    assert!(
        matches!(err, NetError::ResumeExpired),
        "expiry must surface as the dedicated variant, got {err:?}"
    );
    // The distinct variant is exactly what Refused never is.
    assert_eq!(err.to_string(), "resume token expired");
}

#[test]
fn resume_retry_bounds_transient_failures_and_surfaces_verdicts() {
    use std::time::Instant;

    use mirabel_net::{NetError, NetServerConfig};

    let server = NetServer::bind_with(
        "127.0.0.1:0",
        pool(10, 21),
        NetServerConfig {
            park_ttl: Duration::from_secs(300),
            resume_token_ttl: Duration::from_millis(50),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Happy path: a live server resumes on the first attempt, with the
    // same session carried over.
    let first = NetClient::connect(addr).unwrap();
    let session = first.session();
    let parked = first.detach();
    for _ in 0..200 {
        if server.parked() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let revived = parked.resume_with_retry(3).expect("a live server resumes");
    assert_eq!(revived.session(), session);
    let parked = revived.detach();
    for _ in 0..200 {
        if server.parked() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // A server verdict surfaces immediately: the expired token is not
    // retried (retries would only re-ask a settled question).
    std::thread::sleep(Duration::from_millis(120));
    let err =
        parked.resume_with_retry(5).expect_err("an expired token cannot resume, retried or not");
    assert!(matches!(err, NetError::ResumeExpired), "got {err:?}");

    // Transient failure: once the listener is gone, every attempt fails
    // at the socket layer; the bounded retry runs all of them (each
    // retry after the first sleeps ~10 ms, so three attempts take at
    // least two backoffs) and then surfaces the I/O error.
    let dying = NetClient::connect(addr).unwrap().detach();
    drop(server);
    let started = Instant::now();
    let err = dying
        .resume_with_retry(3)
        .expect_err("no listener means no resume, however often it is retried");
    assert!(matches!(err, NetError::Io(_)), "the last transient error surfaces, got {err:?}");
    assert!(
        started.elapsed() >= Duration::from_millis(20),
        "three attempts must include two backoff pauses, finished in {:?}",
        started.elapsed()
    );
}

#[test]
fn malformed_lines_get_err_replies_and_the_session_survives() {
    let server = NetServer::bind("127.0.0.1:0", pool(10, 2)).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    for bad in ["warp 9", "load 0 x - t", "hello 1", "set-mode sideways"] {
        let lines = client.request_raw(bad).unwrap();
        assert!(
            lines.last().unwrap().starts_with("err "),
            "{bad:?} should earn an err reply, got {lines:?}"
        );
    }
    // Rejected commands are ok-frames, not protocol errors...
    let outcome = client.command(&Command::decode("activate-tab 7").unwrap()).unwrap();
    assert!(outcome.is_rejected());
    // ...and the session still works after all of the above.
    let outcome = client.command(&Command::decode("load 0 96 - still alive").unwrap()).unwrap();
    assert!(matches!(outcome, WireOutcome::TabOpened { .. }));
    client.bye().unwrap();
}

#[test]
fn blank_lines_and_comments_are_tolerated() {
    // A recorded command script (with comments) can be piped verbatim.
    let server = NetServer::bind("127.0.0.1:0", pool(10, 3)).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let lines = client.request_raw("# a comment, then a blank, then a command\n\nrender").unwrap();
    assert!(lines.last().unwrap().starts_with("ok "), "{lines:?}");
    client.bye().unwrap();
}

#[test]
fn version_mismatch_is_refused_before_a_session_opens() {
    use std::io::{BufRead, BufReader, Write};

    let server = NetServer::bind("127.0.0.1:0", pool(10, 4)).unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "mirabel-net 1");

    stream.write_all(b"hello 2\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let reply = Reply::decode(&line).unwrap();
    assert!(
        matches!(reply, Reply::Error(ref r) if r.contains("unsupported version 2")),
        "{reply:?}"
    );
    assert_eq!(server.pool().len(), 0, "no session may open for a refused client");
}

#[test]
fn hello_must_come_first_and_only_once() {
    use std::io::{BufRead, BufReader, Write};

    let server = NetServer::bind("127.0.0.1:0", pool(10, 5)).unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // greeting
    stream.write_all(b"render\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(Reply::decode(&line).unwrap(), Reply::Error(_)), "{line:?}");

    // On an established connection, a second hello is an error but the
    // session survives.
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    match client.request(&Request::Hello { version: 1 }).unwrap() {
        Reply::Error(reason) => assert!(reason.contains("first"), "{reason}"),
        other => panic!("unexpected {other:?}"),
    }
    assert!(client.request(&Request::Hashes).is_ok());
    client.bye().unwrap();
}

#[test]
fn epoch_publishes_are_pushed_and_ordered_before_dependent_replies() {
    let pop = population(20, 0xE9);
    let offers = generate_offers(&pop, &OfferConfig::default());
    let live = LiveWarehouse::new(pop, &offers);
    let pool = Arc::new(ConcurrentPool::new(Arc::clone(live.snapshot().warehouse())));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&pool)).unwrap();

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.command(&Command::decode("load 0 192 - live view").unwrap()).unwrap();
    assert_eq!(client.epoch(), 0);

    // Publish through the pool: the hook must push to the idle client.
    live.advance_day();
    pool.publish(&live.publish());
    assert!(
        client.wait_for_epoch(1, Duration::from_secs(5)).unwrap(),
        "the epoch push never arrived"
    );
    assert_eq!(client.notifications(), &[1]);

    // A second publish while the client is *not* reading: the ordering
    // guarantee says the notification precedes the reply of the next
    // command (which runs at epoch 2).
    live.advance_day();
    pool.publish(&live.publish());
    let lines = client.request_raw("render").unwrap();
    let epoch_pos = lines.iter().position(|l| l.trim() == "epoch 2");
    let reply_pos = lines.iter().position(|l| l.starts_with("ok ")).unwrap();
    match epoch_pos {
        Some(pos) => assert!(pos < reply_pos, "epoch push must precede the reply: {lines:?}"),
        // The hook may have delivered it before our request went out —
        // then it must already be recorded.
        None => assert!(client.notifications().contains(&2), "{lines:?}"),
    }
    assert_eq!(client.epoch(), 2);

    // At most one notification per epoch per connection.
    let all = client.notifications().to_vec();
    let mut dedup = all.clone();
    dedup.dedup();
    assert_eq!(all, dedup, "duplicate epoch notifications: {all:?}");
    client.bye().unwrap();
}

#[test]
fn wire_replay_matches_session_pool_replay_of_a_recorded_log() {
    // The command-log story carries over the wire: a log recorded
    // in-process replays over TCP to the same frames.
    let pop = population(25, 0xAB);
    let offers = generate_offers(&pop, &OfferConfig::default());
    let warehouse = Arc::new(Warehouse::load(&pop, &offers));

    let pool = ConcurrentPool::new(Arc::clone(&warehouse));
    let id = pool.open();
    let (log, reference) = pool
        .with_session_mut(id, |session| {
            session.set_recording(true);
            for cmd in script() {
                session.handle(cmd);
            }
            (session.take_log(), session.frame_hashes())
        })
        .unwrap();

    let server = NetServer::bind("127.0.0.1:0", Arc::new(ConcurrentPool::new(warehouse))).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for cmd in &log {
        client.command(cmd).unwrap();
    }
    assert_eq!(client.hashes().unwrap(), reference);
    client.bye().unwrap();
}
