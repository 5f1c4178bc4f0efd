//! Crash + recovery: power loss at a seeded instant, recovery from the
//! surviving WAL/run image, and a combined observable history for the
//! linearizability oracle.
//!
//! Protocol (one runner, [`run_crash`], for every [`System`]):
//!
//! 1. **Run** a tier-enabled server to `crash_at` with history recording on.
//! 2. **Crash**: truncate every device segment to its durable prefix — the
//!    first in-flight write's extent is torn per the device's seeded fault
//!    model — exactly what a restarting process finds on media.
//! 3. **Recover**: replay the surviving WAL tail over the newest decodable
//!    run and the initial fill ([`utps_wal::recover`]), rebuild the store,
//!    the exactly-once dedup floor, and the remounted tier.
//! 4. **Resume**: a fresh client fleet continues each client's sequence
//!    numbering (fresh workload streams) against the recovered server.
//! 5. **Check**: stitch both histories ([`History::append_shifted`]) and
//!    hand the whole thing to the oracle. Ops in flight at the crash stay
//!    pending — "may or may not have executed" — which is precisely their
//!    semantics across a power loss.

use std::collections::BTreeSet;

use utps_oracle::{fill_digest, History, OpClass};
use utps_sim::time::SimTime;

use crate::client::{ClientProc, KvWorld};
use crate::experiment::RunConfig;
use crate::store::KvStore;
use crate::system::{assemble, ServerWorld, System};
use crate::tier::TierState;

/// What one crash → recover → resume cycle observed end to end.
#[derive(Clone, Debug)]
pub struct CrashReport {
    /// Ops completed (acked) before the crash.
    pub pre_completed: u64,
    /// Ops issued before the crash.
    pub pre_issued: u64,
    /// Ops reported failed (retry budget exhausted) before the crash.
    pub pre_failed: u64,
    /// Ops completed after recovery.
    pub post_completed: u64,
    /// Ops issued after recovery.
    pub post_issued: u64,
    /// Ops reported failed after recovery.
    pub post_failed: u64,
    /// Ops in flight at the crash instant (stay pending in the history).
    pub pending_at_crash: usize,
    /// Acked mutations before the crash.
    pub acked_mutations: usize,
    /// Whether every acked mutation's WAL record survived the crash — the
    /// durable-ack invariant the group-commit barrier exists to uphold.
    pub acked_preserved: bool,
    /// Whether the WAL image had a torn/corrupt tail.
    pub wal_truncated: bool,
    /// Device segments that lost a torn in-flight tail.
    pub torn_segments: usize,
    /// WAL records replayed during recovery.
    pub replayed: u64,
    /// Valid commit groups scanned from the surviving WAL.
    pub groups: u64,
    /// Whether a compacted run survived and was remounted.
    pub run_recovered: bool,
    /// Digest of the combined pre-crash + post-recovery history.
    pub combined_digest: u64,
    /// Oracle verdict on the combined history.
    pub oracle: utps_oracle::Report,
}

/// Per-client next sequence numbers after `h` (max seen + 1), sized for
/// `clients` clients.
pub(crate) fn client_next_seqs(h: &History, clients: usize) -> Vec<u64> {
    let mut next = vec![0u64; clients];
    for r in h.records() {
        let c = r.client as usize;
        next[c] = next[c].max(r.seq + 1);
    }
    next
}

/// Checks the durable-ack invariant: every acked mutation in `h` must have
/// a surviving WAL record in `surviving`. Returns `(acked mutation count,
/// all preserved?)`.
pub(crate) fn durable_acks_preserved(h: &History, surviving: &[(u32, u64)]) -> (usize, bool) {
    let set: BTreeSet<(u32, u64)> = surviving.iter().copied().collect();
    let mut n = 0;
    let mut ok = true;
    for r in h.records() {
        if r.pending() || !r.ok || !matches!(r.class, OpClass::Put | OpClass::Delete) {
            continue;
        }
        n += 1;
        ok &= set.contains(&(r.client, r.seq));
    }
    (n, ok)
}

/// Stitches the pre-crash and post-recovery histories (post shifted by the
/// crash instant) and runs the oracle over the combination against the
/// initial `0xab` fill.
pub(crate) fn check_combined(
    pre: &History,
    post: &History,
    crash_at_ps: u64,
    keys: u64,
    populate_len: usize,
) -> (u64, utps_oracle::Report) {
    let mut combined = pre.clone();
    combined.append_shifted(post, crash_at_ps);
    let init = utps_oracle::InitialState {
        keys,
        value_digest: fill_digest(0xab, populate_len),
    };
    (combined.digest(), utps_oracle::check(&combined, &init))
}

/// Runs system `S` with the durable tier to a crash at `crash_at_ps`,
/// recovers from the surviving media image, resumes with a continued client
/// fleet, and verifies the combined history. Panics if `cfg.tier` is `None`.
pub fn run_crash<S: System>(cfg: &RunConfig, crash_at_ps: u64) -> CrashReport
where
    S::World: ServerWorld,
{
    let mut cfg = cfg.clone();
    cfg.record_history = true;
    assert!(cfg.tier.is_some(), "crash runner requires the durable tier");
    assert!(
        crash_at_ps < cfg.warmup + cfg.duration,
        "crash point must land inside the run"
    );

    // Phase 1: run to the crash instant. No warmup reset — the whole
    // pre-crash history is the object under test, not the counters.
    let mut rt = assemble::<S>(&cfg, S::build_world(&cfg));
    S::spawn_clients(&mut rt, &cfg);
    rt.engine().run_until(SimTime(crash_at_ps));
    let mut world = rt.into_engine().world;

    let driver = world.driver_mut();
    let history1 = driver.history.clone().expect("history enabled");
    let pre_completed = driver.completed_total().get();
    let pre_issued: u64 = driver.clients.iter().map(|c| c.issued).sum();
    let pre_failed: u64 = driver.clients.iter().map(|c| c.failed).sum();
    let pending_at_crash = history1.records().iter().filter(|r| r.pending()).count();
    let next_seqs = client_next_seqs(&history1, cfg.clients);

    // Phase 2: the media image a restarting process finds, replayed.
    let tier = world.parts().tier.as_mut().expect("tier checked above");
    let image = tier.crash_image(SimTime(crash_at_ps));
    let populate_len = cfg.workload.populate_value_len();
    let initial = (0..cfg.keys).map(|k| (k, vec![0xabu8; populate_len]));
    let mut rec = utps_wal::recover(initial, image.run.as_ref(), &image.wal);
    let (acked_mutations, acked_preserved) = durable_acks_preserved(&history1, &rec.acked);

    // Phase 3: rebuild the world around the recovered image and resume.
    let mut world2 = S::build_world(&cfg);
    let parts = world2.parts();
    *parts.store = KvStore::from_items(cfg.index, std::mem::take(&mut rec.items));
    *parts.tier = Some(TierState::remount(
        cfg.tier.clone().expect("checked above"),
        cfg.seed,
        image.wal[..rec.wal_valid_len].to_vec(),
        image.run.clone(),
        rec.next_wal_seq,
        rec.groups + 1,
        rec.tombstones.iter().copied(),
    ));
    // Exactly-once floor: a retransmit of any op whose record survived must
    // be suppressed, not re-executed.
    for &(c, s) in &rec.acked {
        parts.dedup.record(c, s);
    }
    // Fresh workload streams (ids past the pre-crash fleet), continued
    // sequence numbering so the restored dedup floor stays meaningful.
    let mut rt2 = assemble::<S>(&cfg, world2);
    rt2.spawn_clients_with(&cfg, |c| {
        let wl = cfg
            .workload
            .build(cfg.keys, cfg.seed, (cfg.clients + c) as u64);
        ClientProc::with_start_seq(c as u32, wl, cfg.pipeline, cfg.retry.clone(), next_seqs[c])
    });
    rt2.run(|_| {});
    let mut eng2 = rt2.into_engine();
    let driver = eng2.world.driver_mut();
    let history2 = driver.history.clone().expect("history enabled");
    let post_completed = driver.completed_total().get();
    let post_issued: u64 = driver.clients.iter().map(|c| c.issued).sum();
    let post_failed: u64 = driver.clients.iter().map(|c| c.failed).sum();

    let (combined_digest, oracle) =
        check_combined(&history1, &history2, crash_at_ps, cfg.keys, populate_len);
    CrashReport {
        pre_completed,
        pre_issued,
        pre_failed,
        post_completed,
        post_issued,
        post_failed,
        pending_at_crash,
        acked_mutations,
        acked_preserved,
        wal_truncated: rec.truncated,
        torn_segments: image.torn_segments,
        replayed: rec.replayed,
        groups: rec.groups,
        run_recovered: image.run.is_some(),
        combined_digest,
        oracle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Utps;
    use crate::retry::RetryConfig;
    use crate::tier::TierConfig;
    use utps_sim::config::MachineConfig;
    use utps_sim::time::MICROS;

    fn crash_cfg() -> RunConfig {
        RunConfig {
            keys: 20_000,
            workers: 4,
            n_cr: 2,
            clients: 8,
            pipeline: 4,
            warmup: 500 * MICROS,
            duration: 1_500 * MICROS,
            machine: MachineConfig::tiny(),
            hot_capacity: 500,
            oracle: true,
            retry: RetryConfig::chaos_default(),
            tier: Some(TierConfig {
                dram_items_max: 15_000,
                evict_batch: 256,
                compact_every_ps: 100 * MICROS,
                ..Default::default()
            }),
            ..RunConfig::default()
        }
    }

    #[test]
    fn crash_recover_resume_round_trips() {
        let cfg = crash_cfg();
        let crash_at = cfg.warmup + cfg.duration / 2;
        let rep = run_crash::<Utps>(&cfg, crash_at);
        assert!(rep.pre_completed > 200, "pre: {}", rep.pre_completed);
        assert!(rep.post_completed > 200, "post: {}", rep.post_completed);
        assert!(rep.acked_preserved, "durable-ack invariant violated");
        assert!(
            rep.oracle.ok(),
            "oracle violations: {:?}",
            rep.oracle.violations
        );
        assert!(rep.replayed > 0, "WAL tail must replay records");
        // Same seed, same crash point: byte-identical recovered run.
        let rep2 = run_crash::<Utps>(&cfg, crash_at);
        assert_eq!(rep.combined_digest, rep2.combined_digest);
        assert_eq!(rep.post_completed, rep2.post_completed);
    }
}
