//! The vScale channel: per-domain hypervisor → guest mailbox.
//!
//! In the paper's prototype the guest's user-space daemon reads its domain's
//! CPU extendability with one system call (`sys_getvscaleinfo`) that issues
//! one hypercall (`SCHEDOP_getvscaleinfo`); the hypervisor stores the latest
//! Algorithm 1 result in an augmented `struct domain`, so the read costs
//! ~0.91 µs end-to-end (Table 1). Crucially, this path is **per-VM and
//! decentralized** — it never touches dom0 — unlike the libxl toolstack
//! path modeled in [`crate::libxl_model`].
//!
//! This module provides the channel abstraction, which counts reads for
//! the Table 1 bench; the guest kernel's cost table
//! (`guest_kernel::costs::CHANNEL_READ`) prices each read.

use sim_core::fault::ChannelReadFault;
use sim_core::time::SimDuration;

use crate::extend::ExtendInfo;
use crate::pool::{Policy, Pool};
use sim_core::ids::DomId;

/// Initial retransmit timeout after an unacknowledged doorbell ring
/// (see [`DoorbellLink`]).
pub const RETRANSMIT_RTO: SimDuration = SimDuration::from_us(500);
/// Ceiling of the retransmit timeout's exponential backoff.
pub const RETRANSMIT_CAP: SimDuration = SimDuration::from_ms(2);
/// Retransmit attempts before the sender gives up and leaves recovery
/// to the receiver's periodic re-scan.
pub const RETRANSMIT_BUDGET: u32 = 4;

/// The timeout before retransmit attempt number `attempt` (0-based):
/// `RETRANSMIT_RTO << attempt`, capped at [`RETRANSMIT_CAP`].
fn retransmit_timeout(attempt: u32) -> SimDuration {
    let shift = attempt.min(31);
    SimDuration::from_ns((RETRANSMIT_RTO.as_ns() << shift).min(RETRANSMIT_CAP.as_ns()))
}

/// Lifetime counters of one [`DoorbellLink`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DoorbellStats {
    /// Sequence numbers opened (doorbell edges that entered the ack
    /// protocol because injection disturbed them).
    pub sent: u64,
    /// Sequences resolved by a delivery or hypervisor wake.
    pub acked: u64,
    /// Retransmit rings issued by the timeout path.
    pub retransmits: u64,
    /// Spurious rings (duplicates, late retransmits racing a delivery)
    /// detected by the pending bit and idempotently dropped.
    pub suppressed: u64,
    /// Sequences abandoned after the retransmit budget ran out.
    pub exhausted: u64,
}

/// Sequence-numbered, acknowledged doorbell delivery for one event-channel
/// port.
///
/// The sender opens a sequence number when it cannot confirm the ring
/// reached the guest interface (the injected drop/delay outcomes) and arms
/// a retransmit timer with capped exponential backoff. Any successful
/// delivery — original, delayed, or retransmitted — acknowledges the
/// outstanding sequence; rings arriving after the ack are detected by the
/// port's pending bit and suppressed, making replay idempotent. When the
/// retransmit budget is exhausted the sender falls back to the receiver's
/// periodic pending-bit re-scan, so delivery is still guaranteed, just at
/// the scan's coarser staleness bound.
///
/// At most one sequence is outstanding per port: doorbells are
/// edge-triggered and coalesce on the pending bit, so a second edge before
/// the first resolves carries no extra information.
#[derive(Clone, Debug, Default)]
pub struct DoorbellLink {
    next_seq: u64,
    outstanding: Option<u64>,
    /// Retransmit attempts already made for the outstanding sequence.
    attempt: u32,
    stats: DoorbellStats,
}

impl DoorbellLink {
    /// Opens a new sequence for an unconfirmed ring and returns it. Any
    /// previously outstanding sequence is superseded (the pending bit
    /// already coalesced the edges).
    pub fn open(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.outstanding = Some(seq);
        self.attempt = 0;
        self.stats.sent += 1;
        seq
    }

    /// Whether `seq` is still awaiting acknowledgement.
    pub fn is_outstanding(&self, seq: u64) -> bool {
        self.outstanding == Some(seq)
    }

    /// Acknowledges the outstanding sequence, if any: the doorbell edge
    /// reached the guest interface. Returns `true` if a sequence was
    /// resolved.
    pub fn ack_outstanding(&mut self) -> bool {
        if self.outstanding.take().is_some() {
            self.stats.acked += 1;
            true
        } else {
            false
        }
    }

    /// Records one retransmit ring issued for the outstanding sequence.
    pub fn note_retransmit(&mut self) {
        self.stats.retransmits += 1;
    }

    /// Records one spurious ring detected and suppressed via the pending
    /// bit.
    pub fn note_suppressed(&mut self) {
        self.stats.suppressed += 1;
    }

    /// Advances the backoff after retransmit `seq` was also lost. Returns
    /// the delay until the next retransmit, or `None` when the budget is
    /// exhausted — the sequence is then abandoned to the periodic re-scan.
    pub fn backoff(&mut self, seq: u64) -> Option<SimDuration> {
        if !self.is_outstanding(seq) {
            return None;
        }
        self.attempt += 1;
        if self.attempt >= RETRANSMIT_BUDGET {
            self.stats.exhausted += 1;
            self.outstanding = None;
            None
        } else {
            Some(retransmit_timeout(self.attempt))
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &DoorbellStats {
        &self.stats
    }
}

/// Counters of the reliable-read protocol of one [`VscaleChannel`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ChannelRecoveryStats {
    /// Re-reads issued after a torn or stale serve was detected.
    pub retries: u64,
    /// Reads that exhausted the retry budget and served the last-good
    /// snapshot instead.
    pub fallbacks: u64,
    /// Torn serves detected (snapshot validation failed).
    pub torn_detected: u64,
    /// Stale serves detected (seqlock version did not advance although a
    /// newer publication exists).
    pub stale_detected: u64,
}

/// Result of one [`VscaleChannel::read_reliable`] call.
#[derive(Clone, Copy, Debug)]
pub struct ReliableRead {
    /// The accepted snapshot: fresh and consistent, or the last-good
    /// fallback after the retry budget ran out. `None` only when the
    /// budget is exhausted before any snapshot was ever accepted.
    pub info: Option<ExtendInfo>,
    /// Extra read attempts beyond the first.
    pub retries: u32,
    /// Whether the result is the last-good fallback rather than a fresh
    /// validated serve.
    pub fell_back: bool,
}

/// The per-domain vScale channel endpoint.
///
/// A thin view over the scheduler's stored [`ExtendInfo`] that counts
/// reads. The caller charges each read's cost to the vCPU the daemon
/// runs on.
///
/// The endpoint remembers the previously served snapshot so fault
/// injection can model the two ways a lock-free mailbox read goes wrong in
/// practice: a **stale** read (the publication raced the read; the old
/// snapshot is served again) and a **torn** read (fields mixed across two
/// publications — detectable, because the mix violates the snapshot
/// invariants checked by [`ExtendInfo::validate`]).
///
/// [`VscaleChannel::read_reliable`] layers the recovery protocol on top:
/// serves are checked against the publisher's seqlock version
/// ([`Pool::extend_version`]) and the snapshot invariants, bad
/// serves are retried under a bounded budget, and budget exhaustion falls
/// back to the last snapshot that passed both checks.
#[derive(Clone, Debug, Default)]
pub struct VscaleChannel {
    reads: u64,
    /// The snapshot served by the previous read, if any.
    last: Option<ExtendInfo>,
    /// Publication version of the last *accepted* (validated, non-stale)
    /// snapshot — what a stale serve repeats.
    last_version: u64,
    /// The last snapshot that passed validation and the version check.
    last_good: Option<ExtendInfo>,
    recovery: ChannelRecoveryStats,
}

impl VscaleChannel {
    /// Creates a channel endpoint.
    pub fn new() -> Self {
        VscaleChannel::default()
    }

    /// Performs one read on behalf of `dom`: returns the latest
    /// extendability.
    pub fn read<P: Policy>(&mut self, sched: &Pool<P>, dom: DomId) -> ExtendInfo {
        self.read_faulted(sched, dom, ChannelReadFault::Fresh)
    }

    /// Performs one read with an injected outcome.
    ///
    /// - [`Fresh`](ChannelReadFault::Fresh): the latest snapshot, remembered
    ///   for subsequent faults.
    /// - [`Stale`](ChannelReadFault::Stale): the previously served snapshot
    ///   (or the fresh one on the first read, when there is nothing stale to
    ///   serve). The remembered snapshot is *not* refreshed, so consecutive
    ///   stale reads stay pinned to the same old value.
    /// - [`Torn`](ChannelReadFault::Torn): extendability fields from the
    ///   previous publication combined with consumption from the current
    ///   one, and a zero accounting period — the signature of a reader
    ///   straddling a republication. Always fails
    ///   [`ExtendInfo::validate`], so a defensive consumer discards it.
    pub fn read_faulted<P: Policy>(
        &mut self,
        sched: &Pool<P>,
        dom: DomId,
        fault: ChannelReadFault,
    ) -> ExtendInfo {
        self.reads += 1;
        let fresh = sched.extendability(dom);
        match (fault, self.last) {
            (ChannelReadFault::Fresh, _) | (_, None) => {
                self.last = Some(fresh);
                fresh
            }
            (ChannelReadFault::Stale, Some(prev)) => prev,
            (ChannelReadFault::Torn, Some(prev)) => ExtendInfo {
                fair: prev.fair,
                ext: prev.ext,
                consumed: fresh.consumed,
                n_opt: prev.n_opt,
                competitor: fresh.competitor,
                computed_at: prev.computed_at,
                period: SimDuration::ZERO,
            },
        }
    }

    /// Performs one *reliable* read: serves are validated against the
    /// snapshot invariants (torn detection) and the publisher's seqlock
    /// version (stale detection), and bad serves are re-read up to
    /// `budget` extra attempts, each drawing its own injected outcome from
    /// `fault`. When the budget runs out the read falls back to the last
    /// snapshot that ever passed both checks (`info: None` if there is no
    /// such snapshot yet — the caller should discard the period).
    /// [`ReliableRead::retries`] counts the extra attempts, so the caller
    /// can charge one full read cost for each, exactly like the real
    /// protocol re-issuing `sys_getvscaleinfo`.
    pub fn read_reliable<P: Policy>(
        &mut self,
        sched: &Pool<P>,
        dom: DomId,
        budget: u32,
        mut fault: impl FnMut() -> ChannelReadFault,
    ) -> ReliableRead {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let current = sched.extend_version();
            let f = fault();
            // What version the serve repeats: a stale serve (with history
            // to pin to) replays the last accepted publication.
            let served_version = match (f, self.last.is_some()) {
                (ChannelReadFault::Stale, true) => self.last_version,
                _ => current,
            };
            let served = self.read_faulted(sched, dom, f);
            if served.validate().is_err() {
                // Torn: the copy straddled a republication.
                self.recovery.torn_detected += 1;
                if attempts <= budget {
                    self.recovery.retries += 1;
                    continue;
                }
                self.recovery.fallbacks += 1;
                return ReliableRead {
                    info: self.last_good,
                    retries: attempts - 1,
                    fell_back: true,
                };
            }
            if served_version < current {
                // Stale: a newer publication exists but the serve repeated
                // the old one.
                self.recovery.stale_detected += 1;
                if attempts <= budget {
                    self.recovery.retries += 1;
                    continue;
                }
                self.recovery.fallbacks += 1;
                return ReliableRead {
                    info: self.last_good,
                    retries: attempts - 1,
                    fell_back: true,
                };
            }
            self.last_version = served_version;
            self.last_good = Some(served);
            return ReliableRead {
                info: Some(served),
                retries: attempts - 1,
                fell_back: false,
            };
        }
    }

    /// Counters of the reliable-read protocol.
    pub fn recovery_stats(&self) -> &ChannelRecoveryStats {
        &self.recovery
    }

    /// Number of reads performed.
    pub fn reads(&self) -> u64 {
        self.reads
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/restore
// ---------------------------------------------------------------------------

sim_core::snap_struct!(DoorbellStats {
    sent,
    acked,
    retransmits,
    suppressed,
    exhausted,
});

// The full link state, including any outstanding sequence (its armed
// retransmit timer is requeued by the machine).
sim_core::snap_struct!(DoorbellLink {
    next_seq,
    outstanding,
    attempt,
    stats,
});

sim_core::snap_struct!(ChannelRecoveryStats {
    retries,
    fallbacks,
    torn_detected,
    stale_detected,
});

// The endpoint, including the remembered snapshots the fault model
// replays.
sim_core::snap_struct!(VscaleChannel "vchan" {
    reads,
    last,
    last_version,
    last_good,
    recovery,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credit::{CreditConfig, CreditScheduler};
    use sim_core::ids::{GlobalVcpu, VcpuId};
    use sim_core::time::SimTime;

    #[test]
    fn read_returns_latest_extendability_and_counts() {
        let mut sched = CreditScheduler::new(CreditConfig::default(), 2);
        let dom = sched.create_domain(256, 2, None, None);
        sched.vcpu_wake(
            GlobalVcpu::new(dom, VcpuId(0)),
            SimTime::ZERO,
            &mut Vec::new(),
        );
        sched.vcpu_wake(
            GlobalVcpu::new(dom, VcpuId(1)),
            SimTime::ZERO,
            &mut Vec::new(),
        );
        // Let it consume a full window, then tick the extendability.
        sched.on_tick(
            sim_core::ids::PcpuId(0),
            SimTime::from_ms(10),
            &mut Vec::new(),
        );
        sched.on_tick(
            sim_core::ids::PcpuId(1),
            SimTime::from_ms(10),
            &mut Vec::new(),
        );
        sched.on_extend_tick(SimTime::from_ms(10));

        let mut ch = VscaleChannel::new();
        let info = ch.read(&sched, dom);
        assert_eq!(ch.reads(), 1);
        // Sole busy domain on 2 pCPUs: it can extend to both.
        assert_eq!(info.n_opt, 2);
    }

    fn ticked_sched_at(ms: u64) -> (CreditScheduler, DomId) {
        let mut sched = CreditScheduler::new(CreditConfig::default(), 2);
        let dom = sched.create_domain(256, 2, None, None);
        sched.vcpu_wake(
            GlobalVcpu::new(dom, VcpuId(0)),
            SimTime::ZERO,
            &mut Vec::new(),
        );
        sched.on_tick(
            sim_core::ids::PcpuId(0),
            SimTime::from_ms(ms),
            &mut Vec::new(),
        );
        sched.on_extend_tick(SimTime::from_ms(ms));
        (sched, dom)
    }

    #[test]
    fn stale_read_pins_the_previous_snapshot() {
        let (sched, dom) = ticked_sched_at(10);
        let mut ch = VscaleChannel::new();
        // First read is fresh even under an injected stale fault: there is
        // nothing older to serve.
        let first = ch.read_faulted(&sched, dom, ChannelReadFault::Stale);
        assert_eq!(first.computed_at, SimTime::from_ms(10));

        // Republish at t=20ms; a stale read still serves the t=10ms value.
        let (mut sched2, dom2) = ticked_sched_at(10);
        let mut ch2 = VscaleChannel::new();
        ch2.read(&sched2, dom2);
        sched2.on_tick(
            sim_core::ids::PcpuId(0),
            SimTime::from_ms(20),
            &mut Vec::new(),
        );
        sched2.on_extend_tick(SimTime::from_ms(20));
        let stale = ch2.read_faulted(&sched2, dom2, ChannelReadFault::Stale);
        assert_eq!(stale.computed_at, SimTime::from_ms(10));
        assert_eq!(stale.validate(), Ok(()), "stale reads are valid, just old");
        // A fresh read re-synchronizes.
        let fresh = ch2.read(&sched2, dom2);
        assert_eq!(fresh.computed_at, SimTime::from_ms(20));
    }

    #[test]
    fn retransmit_backoff_doubles_and_caps() {
        assert_eq!(retransmit_timeout(0), SimDuration::from_us(500));
        assert_eq!(retransmit_timeout(1), SimDuration::from_ms(1));
        assert_eq!(retransmit_timeout(2), SimDuration::from_ms(2));
        assert_eq!(retransmit_timeout(3), SimDuration::from_ms(2), "capped");
        assert_eq!(
            retransmit_timeout(60),
            SimDuration::from_ms(2),
            "shift saturates"
        );
    }

    #[test]
    fn doorbell_link_acks_resolve_and_budget_exhausts() {
        let mut link = DoorbellLink::default();
        // A confirmed sequence: open then ack.
        let s0 = link.open();
        assert!(link.is_outstanding(s0));
        assert!(link.ack_outstanding());
        assert!(!link.is_outstanding(s0));
        assert!(!link.ack_outstanding(), "double ack is a no-op");
        // An unconfirmed sequence walks the backoff ladder to exhaustion:
        // budget 4 allows 3 further delays after the first timeout fires.
        let s1 = link.open();
        assert_eq!(link.backoff(s1), Some(SimDuration::from_ms(1)));
        assert_eq!(link.backoff(s1), Some(SimDuration::from_ms(2)));
        assert_eq!(link.backoff(s1), Some(SimDuration::from_ms(2)));
        assert_eq!(link.backoff(s1), None, "budget exhausted");
        assert!(!link.is_outstanding(s1), "abandoned to the re-scan");
        // A stale timer for a superseded/resolved seq never backs off.
        assert_eq!(link.backoff(s1), None);
        let st = link.stats();
        assert_eq!((st.sent, st.acked, st.exhausted), (2, 1, 1));
    }

    #[test]
    fn reliable_read_retries_torn_serves() {
        let (mut sched, dom) = ticked_sched_at(10);
        let mut ch = VscaleChannel::new();
        ch.read(&sched, dom);
        sched.on_tick(
            sim_core::ids::PcpuId(0),
            SimTime::from_ms(20),
            &mut Vec::new(),
        );
        sched.on_extend_tick(SimTime::from_ms(20));
        // First attempt torn, retry fresh: the read succeeds with one
        // retry.
        let mut outcomes = [ChannelReadFault::Torn, ChannelReadFault::Fresh].into_iter();
        let r = ch.read_reliable(&sched, dom, 2, || outcomes.next().unwrap());
        assert_eq!(r.retries, 1);
        assert!(!r.fell_back);
        assert_eq!(r.info.unwrap().computed_at, SimTime::from_ms(20));
        assert_eq!(ch.recovery_stats().torn_detected, 1);
        assert_eq!(ch.recovery_stats().retries, 1);
    }

    #[test]
    fn reliable_read_detects_stale_and_falls_back_to_last_good() {
        let (mut sched, dom) = ticked_sched_at(10);
        let mut ch = VscaleChannel::new();
        // Accept the version-1 snapshot: it becomes last-good.
        let r = ch.read_reliable(&sched, dom, 1, || ChannelReadFault::Fresh);
        let good = r.info.unwrap();
        assert_eq!(good.computed_at, SimTime::from_ms(10));
        // Republish, then serve nothing but stale: the budget (1 retry)
        // exhausts and the read falls back to last-good.
        sched.on_tick(
            sim_core::ids::PcpuId(0),
            SimTime::from_ms(20),
            &mut Vec::new(),
        );
        sched.on_extend_tick(SimTime::from_ms(20));
        let r = ch.read_reliable(&sched, dom, 1, || ChannelReadFault::Stale);
        assert!(r.fell_back);
        assert_eq!(r.retries, 1);
        assert_eq!(r.info.unwrap().computed_at, good.computed_at);
        assert_eq!(ch.recovery_stats().stale_detected, 2);
        assert_eq!(ch.recovery_stats().fallbacks, 1);
        // A stale serve with no newer publication is current, not stale:
        // it must be accepted without a retry.
        let r = ch.read_reliable(&sched, dom, 1, || ChannelReadFault::Fresh);
        assert!(!r.fell_back);
        let before = ch.recovery_stats().retries;
        let r2 = ch.read_reliable(&sched, dom, 1, || ChannelReadFault::Stale);
        assert!(!r2.fell_back, "no republication: the old serve is current");
        assert_eq!(r2.retries, 0);
        assert_eq!(ch.recovery_stats().retries, before);
        assert_eq!(r2.info.unwrap().computed_at, r.info.unwrap().computed_at);
    }

    #[test]
    fn torn_read_is_always_detectable() {
        let (mut sched, dom) = ticked_sched_at(10);
        let mut ch = VscaleChannel::new();
        ch.read(&sched, dom);
        sched.on_tick(
            sim_core::ids::PcpuId(0),
            SimTime::from_ms(20),
            &mut Vec::new(),
        );
        sched.on_extend_tick(SimTime::from_ms(20));
        let torn = ch.read_faulted(&sched, dom, ChannelReadFault::Torn);
        assert!(
            torn.validate().is_err(),
            "a torn snapshot must fail validation: {torn:?}"
        );
        assert_eq!(ch.reads(), 2);
    }
}
