//! Correctness checks run in the same command as the measurement. A
//! failed check fails the run.
//!
//! * explore and city: every wire reply equals the encoding of the
//!   in-process reference reply, the final `hashes` match, and the
//!   reference itself rejects nothing;
//! * live (timing-independent properties only): every published
//!   snapshot validated, each connection's epoch pushes strictly
//!   increase and reach the last epoch, and a final `plan` agrees with a
//!   fresh in-process session planning the final snapshot.

use std::sync::Arc;

use mirabel_dw::{EpochSnapshot, Warehouse};
use mirabel_net::Reply;
use mirabel_session::{Command, ConcurrentPool, Outcome, Session, WireOutcome};

use crate::inputs::{Event, Stream};
use crate::serve::{line_hash, ClientLog, WriterLog};

/// Replays `log`'s prefix of `stream` on a fresh in-process pool and
/// compares every reply and the final frame hashes. Returns the
/// failures found (empty when the check passes).
pub fn replay(warehouse: &Arc<Warehouse>, stream: &Stream, log: &ClientLog) -> Vec<String> {
    let pool = ConcurrentPool::new(Arc::clone(warehouse));
    let mut id = pool.open();
    let mut errors = Vec::new();
    let mut replies = log.replies.iter();
    for k in 0..log.events {
        match stream.at(k) {
            Event::Reconnect => {
                pool.close(id);
                id = pool.open();
            }
            Event::Resume => {}
            Event::Cmd(cmd) => {
                let outcome = pool.apply(id, cmd.clone()).expect("reference session is open");
                if let Outcome::Rejected(why) = &outcome {
                    errors.push(format!("event {k}: reference rejected {}: {why}", cmd.name()));
                }
                let expected = line_hash(&format!("ok {}", outcome.to_wire().encode()));
                match replies.next() {
                    Some(&got) if got == expected => {}
                    Some(_) => errors.push(format!("event {k}: {} reply differs", cmd.name())),
                    None => errors.push(format!("event {k}: no reply recorded")),
                }
            }
        }
        if errors.len() >= 8 {
            return errors;
        }
    }
    if replies.next().is_some() {
        errors.push("more replies than commands".into());
    }
    let hashes = pool.with_session(id, |s| s.frame_hashes()).expect("reference session is open");
    let expected = Reply::Hashes(hashes).encode();
    match &log.final_hashes {
        Some(got) if *got == expected => {}
        got => errors.push(format!("final hashes: wire {got:?}, reference {expected:?}")),
    }
    errors
}

/// The live properties for one phase.
pub fn live(writer: &WriterLog, clients: &[ClientLog]) -> Vec<String> {
    let mut errors = Vec::new();
    if writer.failed > 0 {
        errors.push(format!("{} snapshots failed validation", writer.failed));
    }
    let Some(last) = &writer.last else {
        errors.push("the writer published nothing".into());
        return errors;
    };
    for (i, log) in clients.iter().enumerate() {
        let epochs: Vec<u64> = log.epochs.iter().map(|&(e, _)| e).collect();
        if !epochs.windows(2).all(|w| w[0] < w[1]) {
            errors.push(format!("client {i}: epoch pushes not strictly increasing"));
        }
        if epochs.last() != Some(&last.epoch()) {
            errors.push(format!(
                "client {i}: pushes end at {:?}, last epoch {}",
                epochs.last(),
                last.epoch()
            ));
        }
        match &log.final_plan {
            Some((plan, render)) => errors.extend(final_plan(last, plan, render)),
            None => errors.push(format!("client {i}: no final plan")),
        }
    }
    errors
}

/// Compares the analyst's final `plan` and balance `render` replies
/// with a fresh session planning `snapshot`.
fn final_plan(snapshot: &EpochSnapshot, plan: &str, render: &str) -> Option<String> {
    let mut fresh = Session::new(Arc::clone(snapshot.warehouse()));
    fresh.sync_warehouse(Arc::clone(snapshot.warehouse()), snapshot.epoch());
    let expected = fresh.handle(Command::Plan).to_wire();
    let frame = fresh.handle(Command::Render).to_wire().frame_hash();
    let got = match Reply::decode(plan) {
        Ok(Reply::Outcome(WireOutcome::Planned(stats))) => stats,
        other => return Some(format!("final plan reply {other:?}")),
    };
    let WireOutcome::Planned(want) = expected else {
        return Some(format!("fresh session could not plan: {expected:?}"));
    };
    let got_frame = match Reply::decode(render) {
        Ok(Reply::Outcome(outcome)) => outcome.frame_hash(),
        _ => None,
    };
    let same = got.assigned == want.assigned && got.after_l1 == want.after_l1 && got_frame == frame;
    (!same).then(|| {
        format!(
            "final plan: wire assigned {} imbalance {} frame {got_frame:?}; fresh assigned {} \
             imbalance {} frame {frame:?}",
            got.assigned, got.after_l1, want.assigned, want.after_l1
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Inputs, Sizes, Workload};
    use crate::serve::line_hash;

    /// A wire log that matches the reference exactly, built by replaying
    /// the stream in process.
    fn honest_log(warehouse: &Arc<Warehouse>, stream: &Stream, events: usize) -> ClientLog {
        let pool = ConcurrentPool::new(Arc::clone(warehouse));
        let mut id = pool.open();
        let mut log = ClientLog { events, ..Default::default() };
        for k in 0..events {
            match stream.at(k) {
                Event::Reconnect => {
                    pool.close(id);
                    id = pool.open();
                }
                Event::Resume => {}
                Event::Cmd(cmd) => {
                    let outcome = pool.apply(id, cmd.clone()).expect("session is open");
                    log.replies.push(line_hash(&format!("ok {}", outcome.to_wire().encode())));
                }
            }
        }
        let hashes = pool.with_session(id, |s| s.frame_hashes()).expect("session is open");
        log.final_hashes = Some(Reply::Hashes(hashes).encode());
        log
    }

    #[test]
    fn the_check_rejects_a_corrupted_reply_and_a_mismatched_hash() {
        let inputs = Inputs::generate(Workload::Explore, Sizes::tiny(Workload::Explore), 5, 1);
        let warehouse = Arc::new(Warehouse::load(&inputs.population, &inputs.offers));
        let stream = &inputs.streams[0];
        let log = honest_log(&warehouse, stream, 200);
        assert_eq!(replay(&warehouse, stream, &log), Vec::<String>::new());

        let mut corrupted = honest_log(&warehouse, stream, 200);
        corrupted.replies[50] ^= 1;
        let errors = replay(&warehouse, stream, &corrupted);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("reply differs"), "{errors:?}");

        let mut wrong_hash = honest_log(&warehouse, stream, 200);
        wrong_hash.final_hashes = Some("ok hashes 1 42".into());
        let errors = replay(&warehouse, stream, &wrong_hash);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("final hashes"), "{errors:?}");
    }
}
