//! PROTOCOL.md is the normative spec; this suite quotes it.
//!
//! * The worked transcript is extracted from the spec and replayed
//!   verbatim against a live server over the spec fixture.
//! * The grammar index is extracted and cross-checked against the set
//!   of productions these tests exercise — a production added to the
//!   spec without a test (or vice versa) fails here.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use mirabel_dw::{LiveWarehouse, Warehouse};
use mirabel_net::{NetClient, NetServer};
use mirabel_session::{Command, ConcurrentPool, WireOutcome};
use mirabel_workload::{generate_offers, OfferConfig, Population, PopulationConfig};

fn protocol_md() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../PROTOCOL.md");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read the spec at {}: {e}", path.display()))
}

/// The spec fixture the transcript documents: 12 prosumers, fixed
/// seeds, default offers, no publishes.
fn spec_fixture() -> Arc<ConcurrentPool> {
    let pop =
        Population::generate(&PopulationConfig { size: 12, seed: 0xBE9C, household_share: 0.8 });
    let offers = generate_offers(&pop, &OfferConfig::default());
    Arc::new(ConcurrentPool::new(Arc::new(Warehouse::load(&pop, &offers))))
}

/// Matches a received line against a spec line where `*` is a
/// single-token wildcard.
fn line_matches(expected: &str, actual: &str) -> bool {
    let exp: Vec<&str> = expected.split_whitespace().collect();
    let act: Vec<&str> = actual.split_whitespace().collect();
    exp.len() == act.len() && exp.iter().zip(&act).all(|(e, a)| *e == "*" || e == a)
}

/// Extracts the `n`-th ```transcript block (1-based) as (tag, line)
/// steps.
fn transcript_steps(spec: &str, n: usize) -> Vec<(String, String)> {
    let block = spec
        .split("```transcript")
        .nth(n)
        .unwrap_or_else(|| panic!("PROTOCOL.md must contain transcript block #{n}"))
        .split("```")
        .next()
        .unwrap();
    block
        .lines()
        .filter_map(|l| {
            let l = l.trim();
            l.split_once(": ")
                .filter(|(tag, _)| matches!(*tag, "C" | "S"))
                .map(|(tag, text)| (tag.to_string(), text.to_string()))
        })
        .collect()
}

/// Replays transcript steps against a live server. A repeated
/// `S: mirabel-net 1` greeting drops the current connection (no `bye`)
/// and reconnects; a `*` in a `C:` line is substituted with the resume
/// token captured from the most recent `ok session … resume <token>`
/// reply.
fn replay_transcript(steps: &[(String, String)]) {
    assert!(steps.len() > 10, "transcript looks truncated: {} lines", steps.len());
    let server = NetServer::bind("127.0.0.1:0", spec_fixture()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    let mut token = String::new();
    let mut greeted = false;
    for (tag, text) in steps {
        match tag.as_str() {
            "C" => {
                let out = text.replace('*', &token);
                stream.write_all(format!("{out}\n").as_bytes()).unwrap();
            }
            "S" => {
                if text.starts_with("mirabel-net") && greeted {
                    // Reconnect point: kill the old connection without
                    // `bye` — the server parks its session.
                    drop(reader);
                    drop(stream);
                    stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
                    reader = BufReader::new(stream.try_clone().unwrap());
                }
                line.clear();
                assert!(reader.read_line(&mut line).unwrap() > 0, "EOF awaiting {text:?}");
                let actual = line.trim_end();
                assert!(line_matches(text, actual), "spec says {text:?}, server said {actual:?}");
                if text.starts_with("mirabel-net") {
                    greeted = true;
                }
                // Remember the latest resume token for `C: … *` lines.
                let toks: Vec<&str> = actual.split_whitespace().collect();
                if toks.len() >= 2 && toks.get(0..2) == Some(&["ok", "session"][..]) {
                    token = toks.last().unwrap().to_string();
                }
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn transcript_replays_verbatim() {
    let spec = protocol_md();
    replay_transcript(&transcript_steps(&spec, 1));
}

#[test]
fn reconnect_transcript_replays_verbatim() {
    let spec = protocol_md();
    replay_transcript(&transcript_steps(&spec, 2));
}

/// Every production these tests exercise, by head token. Kept in sync
/// with the spec's grammar index by
/// [`grammar_index_matches_exercised_productions`].
const EXERCISED: &[&str] = &[
    // requests (protocol) — transcript + server.rs lifecycle tests
    "hello",
    "hashes",
    "bye",
    // requests (commands) — transcript + every_command_production_…
    "pointer-move",
    "click",
    "drag-start",
    "drag-end",
    "set-mode",
    "show-selection",
    "remove-selected",
    "activate-tab",
    "close-tab",
    "set-canvas",
    "load",
    "set-aggregation",
    "aggregate",
    "set-planning",
    "plan",
    "region-drill",
    "region-up",
    "mdx",
    "dashboard",
    "render",
    // reply frames — transcript (`ok …`, `err …`)
    "ok",
    "err",
    // reply payloads — transcript + every_command_production_…
    "session",
    "ack",
    "tooltip",
    "selection",
    "tab-opened",
    "tab-activated",
    "tab-closed",
    "aggregated",
    "planned",
    "region-focus",
    "pivot",
    "frame",
    "rejected",
    // notification — epoch_notifications_are_pushed
    "epoch",
];

#[test]
fn grammar_index_matches_exercised_productions() {
    let spec = protocol_md();
    let index =
        spec.split("## Grammar index").nth(1).expect("PROTOCOL.md must contain a grammar index");
    let mut documented = BTreeSet::new();
    for row in index.lines().filter(|l| l.trim_start().starts_with('|')) {
        let mut rest = row;
        while let Some(start) = rest.find('`') {
            let Some(len) = rest[start + 1..].find('`') else { break };
            documented.insert(rest[start + 1..start + 1 + len].to_string());
            rest = &rest[start + 1 + len + 1..];
        }
    }
    let exercised: BTreeSet<String> = EXERCISED.iter().map(|s| s.to_string()).collect();
    let undocumented: Vec<_> = exercised.difference(&documented).collect();
    let untested: Vec<_> = documented.difference(&exercised).collect();
    assert!(
        undocumented.is_empty() && untested.is_empty(),
        "spec/tests drift — exercised but not in the grammar index: {undocumented:?}; \
         documented but not exercised: {untested:?}"
    );
    assert_eq!(documented.len(), EXERCISED.len(), "duplicate production names");
}

#[test]
fn every_command_production_earns_its_documented_reply() {
    let server = NetServer::bind("127.0.0.1:0", spec_fixture()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // (request line, expected reply payload head) — one entry per
    // command production, in a realistic session order.
    let expectations = [
        ("set-canvas 960 540", "rejected"), // no tab yet
        ("load 0 192 - main", "tab-opened"),
        ("set-canvas 960 540", "ack"),
        ("set-mode profile", "ack"),
        ("render", "frame"),
        ("pointer-move 2 2", "tooltip"),
        ("click 2 2", "selection"),
        ("drag-start 0 0", "ack"),
        ("drag-end 960 540", "selection"),
        ("show-selection", "tab-opened"),
        ("activate-tab 0", "tab-activated"),
        ("remove-selected", "selection"),
        ("load 0 96 - doomed", "tab-opened"),
        ("close-tab 2", "tab-closed"),
        ("set-aggregation 8 2 -", "ack"),
        ("aggregate", "aggregated"),
        (
            "mdx SELECT {[EnergyType].Children} ON COLUMNS, {[Time].Children} ON ROWS \
             FROM [FlexOffers]",
            "pivot",
        ),
        ("dashboard 0 96 hour", "frame"),
        ("set-planning hillclimb 4 1 96 7", "ack"),
        ("plan", "planned"),
        // member 0 is the geography root on every fixture
        ("region-drill 0", "region-focus"),
        ("region-drill 999999", "rejected"),
        ("region-up", "rejected"), // already at the country root
        ("set-mode heatmap", "ack"),
    ];
    for (request, expected_head) in expectations {
        let cmd = Command::decode(request).expect(request);
        let outcome = client.command(&cmd).unwrap();
        assert_eq!(outcome.head(), expected_head, "for request {request:?}: {outcome:?}");
    }
    client.bye().unwrap();
}

#[test]
fn tooltip_production_has_both_documented_forms() {
    let server = NetServer::bind("127.0.0.1:0", spec_fixture()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.command(&Command::decode("load 0 192 - hover target").unwrap()).unwrap();
    client.command(&Command::decode("set-canvas 960 540").unwrap()).unwrap();

    // Far corner: `tooltip -`.
    let miss = client.command(&Command::decode("pointer-move 1 1").unwrap()).unwrap();
    assert_eq!(miss, WireOutcome::Tooltip(None), "expected empty space at (1,1)");

    // Probe a deterministic grid until an offer is under the pointer:
    // `tooltip <offer-index> <n> <line>×n`.
    let mut hit = None;
    'probe: for gx in 1..24 {
        for gy in 1..14 {
            let line = format!("pointer-move {} {}", gx as f64 * 40.0, gy as f64 * 40.0);
            let outcome = client.command(&Command::decode(&line).unwrap()).unwrap();
            if let WireOutcome::Tooltip(Some(info)) = outcome {
                hit = Some(info);
                break 'probe;
            }
        }
    }
    let info = hit.expect("no offer anywhere on a 27-offer canvas?");
    assert!(!info.lines.is_empty(), "a tooltip must describe its offer");
    client.bye().unwrap();
}

#[test]
fn epoch_notifications_are_pushed() {
    let pop =
        Population::generate(&PopulationConfig { size: 12, seed: 0xBE9C, household_share: 0.8 });
    let offers = generate_offers(&pop, &OfferConfig::default());
    let live = LiveWarehouse::new(pop, &offers);
    let pool = Arc::new(ConcurrentPool::new(Arc::clone(live.snapshot().warehouse())));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&pool)).unwrap();

    let mut client = NetClient::connect(server.local_addr()).unwrap();
    live.advance_day();
    pool.publish(&live.publish());
    assert!(client.wait_for_epoch(1, Duration::from_secs(5)).unwrap());
    assert_eq!(client.notifications(), &[1], "exactly one `epoch 1` push");
    client.bye().unwrap();
}

#[test]
fn an_epoch_published_before_hello_is_announced_once_by_the_session_reply() {
    let pop =
        Population::generate(&PopulationConfig { size: 12, seed: 0xBE9C, household_share: 0.8 });
    let offers = generate_offers(&pop, &OfferConfig::default());
    let live = LiveWarehouse::new(pop, &offers);
    let pool = Arc::new(ConcurrentPool::new(Arc::clone(live.snapshot().warehouse())));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&pool)).unwrap();

    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "mirabel-net 1");

    // The connection is open but has no session yet: epoch 1 is
    // announced by the handshake reply alone (guarantee 1 of the
    // Notifications section), not pushed before it as well.
    live.advance_day();
    assert_eq!(pool.publish(&live.publish()), 1);
    stream.write_all(b"hello 1\nbye\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line_matches("ok session 0 epoch 1 resume *", line.trim_end()),
        "expected the session reply right after the greeting, got {line:?}"
    );
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "ok bye");
}
