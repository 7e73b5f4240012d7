//! A bounded in-memory trace ring for simulation debugging.
//!
//! Components push timestamped, labelled entries; the ring keeps the most
//! recent `capacity` of them. When a simulation misbehaves, dumping the
//! ring gives the last few thousand scheduling decisions without paying
//! for unbounded logging during long runs.
//!
//! Recording is allocation-free: an entry holds a typed event
//! ([`TraceEvent`]) or a static label, stored as a fixed-size value and
//! rendered lazily only when the ring is dumped.

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;

use crate::ids::{DomId, GlobalVcpu, PcpuId};
use crate::time::SimTime;

/// A typed trace event covering the machine layer's steady-state trace
/// points. Stored inline (no heap) and rendered lazily on dump; the
/// rendering matches the strings the trace historically recorded, so
/// trace-diffing tests and tooling see identical output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A vCPU was placed on a pCPU.
    Run {
        /// The scheduled vCPU.
        vcpu: GlobalVcpu,
        /// Where it landed.
        pcpu: PcpuId,
    },
    /// A vCPU was descheduled from a pCPU.
    Desched {
        /// The descheduled vCPU.
        vcpu: GlobalVcpu,
        /// Where it ran.
        pcpu: PcpuId,
    },
    /// The daemon froze a vCPU.
    Freeze(GlobalVcpu),
    /// The daemon unfroze a vCPU.
    Unfreeze(GlobalVcpu),
    /// The daemon process crash-restarted (injected fault).
    DaemonCrashRestart(DomId),
    /// A hotplug removal aborted mid-`stop_machine`.
    HotplugAbort(DomId),
    /// The balancer's fail-safe unfroze every vCPU.
    FailsafeUnfreezeAll(DomId),
    /// A post-crash resync repaired one vCPU's frozen view.
    ResyncRepair(GlobalVcpu),
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Run { vcpu, pcpu } => write!(f, "run {vcpu} on {pcpu}"),
            TraceEvent::Desched { vcpu, pcpu } => write!(f, "desched {vcpu} off {pcpu}"),
            TraceEvent::Freeze(gv) => write!(f, "freeze {gv}"),
            TraceEvent::Unfreeze(gv) => write!(f, "unfreeze {gv}"),
            TraceEvent::DaemonCrashRestart(d) => write!(f, "crash-restart {d}"),
            TraceEvent::HotplugAbort(d) => write!(f, "hotplug abort {d}"),
            TraceEvent::FailsafeUnfreezeAll(d) => write!(f, "failsafe unfreeze-all {d}"),
            TraceEvent::ResyncRepair(gv) => write!(f, "resync repair {gv}"),
        }
    }
}

/// What one trace entry records: a typed event or a static label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMessage {
    /// A typed machine event, rendered lazily.
    Event(TraceEvent),
    /// A static label.
    Static(&'static str),
}

impl fmt::Display for TraceMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceMessage::Event(e) => e.fmt(f),
            TraceMessage::Static(s) => f.write_str(s),
        }
    }
}

impl From<TraceEvent> for TraceMessage {
    fn from(e: TraceEvent) -> Self {
        TraceMessage::Event(e)
    }
}

impl From<&'static str> for TraceMessage {
    fn from(s: &'static str) -> Self {
        TraceMessage::Static(s)
    }
}

/// One trace entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// When it happened.
    pub at: SimTime,
    /// Component tag (e.g. `"hv"`, `"dom1"`).
    pub tag: &'static str,
    /// What happened.
    pub message: TraceMessage,
}

impl TraceEntry {
    /// The rendered message text.
    pub fn render(&self) -> String {
        self.message.to_string()
    }
}

/// A fixed-capacity ring of trace entries.
#[derive(Clone, Debug)]
pub struct TraceRing {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
    /// Total entries ever pushed (including evicted ones).
    pushed: u64,
    enabled: bool,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` entries, enabled.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        TraceRing {
            entries: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            pushed: 0,
            enabled: true,
        }
    }

    /// Creates a disabled ring (pushes become no-ops) — the zero-overhead
    /// default for production runs.
    pub fn disabled() -> Self {
        TraceRing {
            entries: VecDeque::new(),
            capacity: 1,
            pushed: 0,
            enabled: false,
        }
    }

    /// Whether pushes are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an entry (no-op when disabled). Entries are a
    /// [`TraceEvent`] or a `&'static str` and allocate nothing; once the
    /// ring is at capacity the evicted slot's storage is reused.
    pub fn push(&mut self, at: SimTime, tag: &'static str, message: impl Into<TraceMessage>) {
        if !self.enabled {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(TraceEntry {
            at,
            tag,
            message: message.into(),
        });
        self.pushed += 1;
    }

    /// Entries currently retained, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total entries ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Renders the ring as text, one entry per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(
                out,
                "[{:>12}] {:<6} {}",
                format!("{}", e.at),
                e.tag,
                e.message
            );
        }
        out
    }

    /// Retained entries whose tag matches.
    pub fn filter<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a TraceEntry> {
        self.entries.iter().filter(move |e| e.tag == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VcpuId;

    #[test]
    fn ring_evicts_oldest() {
        let mut r = TraceRing::new(3);
        for (i, label) in ["e0", "e1", "e2", "e3", "e4"].into_iter().enumerate() {
            r.push(SimTime::from_ms(i as u64), "t", label);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_pushed(), 5);
        let msgs: Vec<String> = r.entries().map(TraceEntry::render).collect();
        assert_eq!(msgs, vec!["e2", "e3", "e4"]);
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut r = TraceRing::disabled();
        r.push(SimTime::ZERO, "t", "ignored");
        assert!(r.is_empty());
        assert_eq!(r.total_pushed(), 0);
    }

    #[test]
    fn dump_and_filter() {
        let mut r = TraceRing::new(10);
        r.push(
            SimTime::from_ms(1),
            "hv",
            TraceEvent::Run {
                vcpu: GlobalVcpu::new(DomId(0), VcpuId(0)),
                pcpu: PcpuId(0),
            },
        );
        r.push(
            SimTime::from_ms(2),
            "dom0",
            TraceEvent::Freeze(GlobalVcpu::new(DomId(0), VcpuId(3))),
        );
        let dump = r.dump();
        assert!(dump.contains("run dom0.vcpu0 on pcpu0"));
        assert!(dump.contains("freeze dom0.vcpu3"));
        assert_eq!(r.filter("hv").count(), 1);
        assert_eq!(r.filter("dom0").count(), 1);
        assert_eq!(r.filter("nope").count(), 0);
    }

    #[test]
    fn typed_events_render_like_the_legacy_strings() {
        let gv = GlobalVcpu::new(DomId(2), VcpuId(1));
        assert_eq!(
            TraceEvent::Run {
                vcpu: gv,
                pcpu: PcpuId(3)
            }
            .to_string(),
            "run dom2.vcpu1 on pcpu3"
        );
        assert_eq!(
            TraceEvent::Desched {
                vcpu: gv,
                pcpu: PcpuId(3)
            }
            .to_string(),
            "desched dom2.vcpu1 off pcpu3"
        );
        assert_eq!(TraceEvent::Freeze(gv).to_string(), "freeze dom2.vcpu1");
        assert_eq!(TraceEvent::Unfreeze(gv).to_string(), "unfreeze dom2.vcpu1");
        assert_eq!(
            TraceEvent::DaemonCrashRestart(DomId(1)).to_string(),
            "crash-restart dom1"
        );
        assert_eq!(
            TraceEvent::HotplugAbort(DomId(1)).to_string(),
            "hotplug abort dom1"
        );
        assert_eq!(
            TraceEvent::FailsafeUnfreezeAll(DomId(0)).to_string(),
            "failsafe unfreeze-all dom0"
        );
        assert_eq!(
            TraceEvent::ResyncRepair(gv).to_string(),
            "resync repair dom2.vcpu1"
        );
    }

    #[test]
    fn typed_event_entries_are_fixed_size() {
        // The variants carry only ids or a static label; the whole
        // message stays well under a cache line, and pushing one
        // allocates nothing beyond the ring's (reused) slot.
        assert!(std::mem::size_of::<TraceMessage>() <= 40);
    }
}
