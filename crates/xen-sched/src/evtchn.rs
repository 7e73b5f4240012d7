//! Event channels: the Xen PV interrupt transport.
//!
//! In PV Xen all guest interrupts — external I/O interrupts and inter-vCPU
//! IPIs alike — travel as event-channel notifications (`IRQT_EVTCHN`). Each
//! port is bound to exactly one vCPU of the owning domain; the binding can
//! be changed with one hypercall (`rebind_irq_to_cpu` in the guest calls
//! `EVTCHNOP_bind_vcpu`), which is how vScale migrates device interrupts
//! away from a frozen vCPU at ~1 µs cost (Table 3).
//!
//! The table here is pure routing state: the embedding machine decides when
//! a notification is actually *delivered* (immediately if the target vCPU is
//! running, otherwise when the hypervisor next schedules it).

use sim_core::ids::{DomId, VcpuId};
use sim_core::time::SimDuration;

/// The kind of source feeding an event channel port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortKind {
    /// An external I/O source (virtual NIC or disk, via dom0 backends).
    Io,
    /// An inter-vCPU notification (reschedule/call-function IPIs).
    Ipi {
        /// The sending vCPU.
        from: VcpuId,
    },
    /// A virtual timer interrupt (`VIRQ_TIMER`).
    Timer,
}

/// A single event channel port.
#[derive(Clone, Debug)]
pub struct Port {
    /// The owning domain.
    pub dom: DomId,
    /// The vCPU notifications are routed to.
    pub bound_vcpu: VcpuId,
    /// What feeds the port.
    pub kind: PortKind,
    /// Set while a notification is pending, cleared on delivery.
    pub pending: bool,
    /// Masked ports accumulate pending state but never notify.
    pub masked: bool,
    /// Notifications sent through this port.
    pub sent: u64,
    /// Notifications delivered to the guest handler.
    pub delivered: u64,
}

/// A dense handle to a port.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PortId(pub usize);

/// The event-channel table for one domain.
#[derive(Clone, Debug, Default)]
pub struct EvtchnTable {
    ports: Vec<Port>,
    rebinds: u64,
}

/// Cost of rebinding a port to a different vCPU (one hypercall): the paper
/// reports 0.8–1.2 µs; we charge the midpoint.
pub const REBIND_COST: SimDuration = SimDuration::from_ns(1_000);

impl EvtchnTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        EvtchnTable::default()
    }

    /// Allocates a port bound to `vcpu`.
    pub fn alloc(&mut self, dom: DomId, vcpu: VcpuId, kind: PortKind) -> PortId {
        let id = PortId(self.ports.len());
        self.ports.push(Port {
            dom,
            bound_vcpu: vcpu,
            kind,
            pending: false,
            masked: false,
            sent: 0,
            delivered: 0,
        });
        id
    }

    /// Immutable access to a port.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.0]
    }

    /// Number of ports allocated.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// True if no ports exist.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Raises a notification on `id`. Returns the vCPU to notify if the
    /// port was not already pending (edge-triggered semantics), `None` if
    /// the notification coalesced with a pending one or the port is masked.
    pub fn send(&mut self, id: PortId) -> Option<VcpuId> {
        let p = &mut self.ports[id.0];
        p.sent += 1;
        if p.masked || p.pending {
            p.pending = true;
            return None;
        }
        p.pending = true;
        Some(p.bound_vcpu)
    }

    /// Consumes the pending state on delivery to the guest handler.
    /// Returns `true` if something was pending.
    pub fn deliver(&mut self, id: PortId) -> bool {
        let p = &mut self.ports[id.0];
        if p.pending {
            p.pending = false;
            p.delivered += 1;
            true
        } else {
            false
        }
    }

    /// All pending unmasked ports bound to `vcpu` (scanned at vCPU entry).
    pub fn pending_for(&self, vcpu: VcpuId) -> Vec<PortId> {
        let mut out = Vec::new();
        self.pending_for_into(vcpu, &mut out);
        out
    }

    /// Appends the pending unmasked ports bound to `vcpu` to `out` —
    /// allocation-free variant for the machine's dispatch hot path.
    pub fn pending_for_into(&self, vcpu: VcpuId, out: &mut Vec<PortId>) {
        out.extend(
            self.ports
                .iter()
                .enumerate()
                .filter(|(_, p)| p.pending && !p.masked && p.bound_vcpu == vcpu)
                .map(|(i, _)| PortId(i)),
        );
    }

    /// Rebinds a port to a different vCPU (`EVTCHNOP_bind_vcpu`). Returns
    /// the hypercall cost to charge.
    pub fn rebind(&mut self, id: PortId, vcpu: VcpuId) -> SimDuration {
        self.ports[id.0].bound_vcpu = vcpu;
        self.rebinds += 1;
        REBIND_COST
    }

    /// Masks or unmasks a port.
    pub fn set_masked(&mut self, id: PortId, masked: bool) {
        self.ports[id.0].masked = masked;
    }

    /// Number of rebind operations performed.
    pub fn rebinds(&self) -> u64 {
        self.rebinds
    }

    /// All I/O-kind ports currently bound to `vcpu` (the set vScale must
    /// migrate away when freezing it).
    pub fn io_ports_on(&self, vcpu: VcpuId) -> Vec<PortId> {
        self.ports
            .iter()
            .enumerate()
            .filter(|(_, p)| p.bound_vcpu == vcpu && matches!(p.kind, PortKind::Io))
            .map(|(i, _)| PortId(i))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/restore
// ---------------------------------------------------------------------------

// Each port's owner and kind are structural.
sim_core::snap_struct!(Port {
    bound_vcpu,
    pending,
    masked,
    sent,
    delivered,
} skip { dom, kind });

// Routing and pending state; the port population is structural.
sim_core::snap_struct!(EvtchnTable "evtchn" {
    ports: twin "port count drifted",
    rebinds,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_notifies_bound_vcpu_once() {
        let mut t = EvtchnTable::new();
        let p = t.alloc(DomId(0), VcpuId(2), PortKind::Io);
        assert_eq!(t.send(p), Some(VcpuId(2)));
        // Second send coalesces while pending.
        assert_eq!(t.send(p), None);
        assert!(t.deliver(p));
        assert_eq!(t.port(p).delivered, 1);
        assert_eq!(t.port(p).sent, 2);
        // After delivery a new send notifies again.
        assert_eq!(t.send(p), Some(VcpuId(2)));
    }

    #[test]
    fn masked_port_accumulates_silently() {
        let mut t = EvtchnTable::new();
        let p = t.alloc(DomId(0), VcpuId(0), PortKind::Timer);
        t.set_masked(p, true);
        assert_eq!(t.send(p), None);
        assert!(t.port(p).pending);
        assert!(t.pending_for(VcpuId(0)).is_empty());
        t.set_masked(p, false);
        assert_eq!(t.pending_for(VcpuId(0)), vec![p]);
    }

    #[test]
    fn rebind_moves_target_and_charges() {
        let mut t = EvtchnTable::new();
        let p = t.alloc(DomId(0), VcpuId(3), PortKind::Io);
        let cost = t.rebind(p, VcpuId(0));
        assert_eq!(cost, REBIND_COST);
        assert_eq!(t.send(p), Some(VcpuId(0)));
        assert_eq!(t.rebinds(), 1);
    }

    #[test]
    fn io_ports_on_finds_only_io_kind() {
        let mut t = EvtchnTable::new();
        let io = t.alloc(DomId(0), VcpuId(1), PortKind::Io);
        t.alloc(DomId(0), VcpuId(1), PortKind::Timer);
        t.alloc(DomId(0), VcpuId(1), PortKind::Ipi { from: VcpuId(0) });
        assert_eq!(t.io_ports_on(VcpuId(1)), vec![io]);
        assert!(t.io_ports_on(VcpuId(0)).is_empty());
    }

    #[test]
    fn pending_for_lists_all_pending() {
        let mut t = EvtchnTable::new();
        let a = t.alloc(DomId(0), VcpuId(0), PortKind::Io);
        let b = t.alloc(DomId(0), VcpuId(0), PortKind::Ipi { from: VcpuId(1) });
        let c = t.alloc(DomId(0), VcpuId(1), PortKind::Io);
        t.send(a);
        t.send(b);
        t.send(c);
        assert_eq!(t.pending_for(VcpuId(0)), vec![a, b]);
        assert_eq!(t.pending_for(VcpuId(1)), vec![c]);
    }
}
