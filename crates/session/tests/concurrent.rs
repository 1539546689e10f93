//! Concurrency properties of [`ConcurrentPool`]: parallel replay is
//! observationally identical to sequential replay, and open/close under
//! contention never panics, leaks or double-issues ids.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use mirabel_dw::{LoaderQuery, Warehouse};
use mirabel_session::{Command, ConcurrentPool, Session, SessionId, ViewMode};
use mirabel_timeseries::{Granularity, TimeSlot};
use mirabel_viz::Point;
use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn warehouse() -> Arc<Warehouse> {
    let pop =
        Population::generate(&PopulationConfig { size: 40, seed: 0xC0FFEE, household_share: 0.8 });
    let offers = generate_offers(&pop, &OfferConfig::default());
    Arc::new(Warehouse::load(&pop, &offers))
}

fn wide() -> LoaderQuery {
    LoaderQuery::builder().window(TimeSlot::new(-100_000), TimeSlot::new(100_000)).build()
}

/// A seeded per-user command stream: a load, then a mixed interactive
/// workload (hovers, clicks, drags, mode/tab changes, MDX, dashboards).
fn user_stream(user: u64, len: usize) -> Vec<Command> {
    let mut rng = StdRng::seed_from_u64(0xFEED ^ (user.wrapping_mul(0x9E37_79B9)));
    let mut cmds = vec![
        Command::SetCanvas { width: 960.0, height: 540.0 },
        Command::Load { query: wide(), title: format!("user {user}") },
    ];
    while cmds.len() < len {
        let p = Point::new(rng.gen_range(0.0..960.0), rng.gen_range(0.0..540.0));
        cmds.push(match rng.gen_range(0u32..12) {
            0..=4 => Command::PointerMove(p),
            5 => Command::Click(p),
            6 => Command::DragStart(p),
            7 => Command::DragEnd(p),
            8 => Command::SetMode(if rng.gen_bool(0.5) {
                ViewMode::Basic
            } else {
                ViewMode::Profile
            }),
            9 => Command::ActivateTab(rng.gen_range(0usize..3)),
            10 => Command::Mdx("SELECT { [Time].Children } ON COLUMNS FROM [FlexOffers]".into()),
            _ => Command::Dashboard {
                from: TimeSlot::new(0),
                to: TimeSlot::new(96),
                granularity: Granularity::Hour,
            },
        });
    }
    cmds
}

/// Parallel replay over the pool must produce, per session, exactly the
/// frame hashes a sequential `Session::replay` of the same stream
/// produces — threading changes wall-clock, never pixels.
#[test]
fn parallel_replay_matches_sequential_frame_hashes() {
    let dw = warehouse();
    let users = 6;
    let streams: Vec<Vec<Command>> = (0..users).map(|u| user_stream(u, 120)).collect();

    let sequential: Vec<Vec<u64>> =
        streams.iter().map(|s| Session::replay(Arc::clone(&dw), s).frame_hashes()).collect();

    for threads in [2usize, 4] {
        let pool = ConcurrentPool::new(Arc::clone(&dw));
        let ids: Vec<SessionId> = (0..users).map(|_| pool.open()).collect();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let pool = &pool;
                let ids = &ids;
                let streams = &streams;
                scope.spawn(move || {
                    for u in (t..streams.len()).step_by(threads) {
                        for cmd in &streams[u] {
                            pool.apply(ids[u], cmd.clone()).expect("session open");
                        }
                    }
                });
            }
        });
        let parallel: Vec<Vec<u64>> = ids
            .iter()
            .map(|&id| pool.with_session(id, |s| s.frame_hashes()).expect("session open"))
            .collect();
        assert_eq!(parallel, sequential, "{threads}-thread replay diverged");
    }
}

/// Interleaving sessions *within* one thread and *across* threads must
/// not leak state between sessions: each session's tab count and stats
/// depend only on its own stream.
#[test]
fn sessions_stay_isolated_under_interleaving() {
    let dw = warehouse();
    let pool = ConcurrentPool::new(dw);
    let a = pool.open();
    let b = pool.open();
    pool.apply(a, Command::Load { query: wide(), title: "a".into() }).unwrap();
    // b never loads; its commands are rejected, a's succeed.
    for _ in 0..10 {
        pool.apply(a, Command::PointerMove(Point::new(1.0, 1.0))).unwrap();
        pool.apply(b, Command::Render).unwrap();
    }
    assert_eq!(pool.with_session(a, |s| s.tabs().len()).unwrap(), 1);
    assert_eq!(pool.with_session(b, |s| s.tabs().len()).unwrap(), 0);
    assert_eq!(pool.with_session(b, |s| s.stats().rejected).unwrap(), 10);
    assert_eq!(pool.with_session(a, |s| s.stats().rejected).unwrap(), 0);
}

/// Hammer open/close/apply from many threads: no panic, no duplicate
/// live id, and the final population is exactly what survived.
#[test]
fn open_close_under_contention_never_panics_or_leaks_ids() {
    let dw = warehouse();
    let pool = Arc::new(ConcurrentPool::with_shards(dw, 4));
    let threads = 8;
    let per_thread = 50;
    let all_ids = Mutex::new(Vec::<SessionId>::new());

    std::thread::scope(|scope| {
        for t in 0..threads {
            let pool = Arc::clone(&pool);
            let all_ids = &all_ids;
            scope.spawn(move || {
                let mut kept = Vec::new();
                for k in 0..per_thread {
                    let id = pool.open();
                    // Sessions must be usable immediately, even while
                    // other threads churn the shard maps.
                    pool.apply(id, Command::Render).expect("just opened");
                    if (t + k) % 2 == 0 {
                        assert!(pool.close(id), "close of a live id must succeed");
                        assert!(pool.apply(id, Command::Render).is_none());
                    } else {
                        kept.push(id);
                    }
                    all_ids.lock().unwrap().push(id);
                }
                kept
            });
        }
    });

    let issued = all_ids.into_inner().unwrap();
    assert_eq!(issued.len(), threads * per_thread);
    let unique: HashSet<SessionId> = issued.iter().copied().collect();
    assert_eq!(unique.len(), issued.len(), "an id was issued twice");
    // Exactly the kept half survives.
    assert_eq!(pool.len(), threads * per_thread / 2);
    let live = pool.ids();
    assert_eq!(live.len(), pool.len());
    assert!(live.iter().all(|id| unique.contains(id)));
}

/// Closing a session another thread is actively driving is safe: the
/// in-flight command completes on its own handle, later routing misses.
#[test]
fn close_races_with_apply() {
    let dw = warehouse();
    let pool = Arc::new(ConcurrentPool::new(dw));
    for round in 0..20 {
        let id = pool.open();
        pool.apply(id, Command::Load { query: wide(), title: format!("r{round}") }).unwrap();
        std::thread::scope(|scope| {
            let driver = {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let mut applied = 0u32;
                    while pool.apply(id, Command::PointerMove(Point::new(5.0, 5.0))).is_some() {
                        applied += 1;
                        if applied > 10_000 {
                            break; // closer lost every race; fine
                        }
                    }
                })
            };
            let closer = {
                let pool = Arc::clone(&pool);
                scope.spawn(move || pool.close(id))
            };
            driver.join().expect("driver panicked");
            closer.join().expect("closer panicked");
        });
        assert!(pool.apply(id, Command::Render).is_none(), "closed id must not route");
    }
    assert!(pool.is_empty());
}

/// The pool is `Send + Sync` by construction; keep the bound explicit
/// so a regression is a compile error here too.
#[test]
fn pool_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ConcurrentPool>();
}
