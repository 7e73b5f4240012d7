//! Canned fleet topologies shared by the cluster bench and tests.
//!
//! The web fleet generalizes the paper's Figure 14 host to a rack:
//! every host consolidates Apache-serving VMs with background desktop
//! VMs on a small pCPU pool, so a desktop decode burst forces the
//! serving VMs' vCPUs to stack exactly when requests are in flight.
//! Static SMP keeps every serving VM at full vCPU width through the
//! bursts; vScale shrinks idle VMs so the stacking tax is paid only by
//! VMs that are actually busy — the fleet-p99 gap the sweep measures.

use sim_core::fault::FaultConfig;
use sim_core::time::SimDuration;
use vscale::config::{MachineConfig, SystemConfig};
use vscale::Machine;
use workloads::apache::{self, ApacheConfig};
use workloads::desktop::{self, SlideshowConfig};

use crate::cluster::{BackendSpec, Cluster, ClusterConfig};
use crate::net::LinkConfig;

/// Parameters of the web fleet.
#[derive(Clone, Copy, Debug)]
pub struct WebFleetConfig {
    /// Hosts in the fleet.
    pub hosts: usize,
    /// System configuration of the serving VMs (`Baseline` = static
    /// SMP, `VScale` = the paper's scaling).
    pub mode: SystemConfig,
    /// Apache-serving VMs per host.
    pub serving_vms_per_host: usize,
    /// vCPUs per serving VM.
    pub vm_vcpus: usize,
    /// Background 2-vCPU desktop VMs per host.
    pub desktops_per_host: usize,
    /// pCPUs per host.
    pub n_pcpus: usize,
    /// Base seed; each host derives its own machine seed from it.
    pub seed: u64,
    /// Optional fault plan installed on every host (each host gets a
    /// distinct fault seed so faults do not land in lockstep).
    pub fault: Option<FaultConfig>,
    /// Idle structural twins of the serving VMs per host, registered as
    /// migration landing slots.
    pub spares_per_host: usize,
    /// Parked elasticity capacity: extra hosts appended after the
    /// active ones, carrying `serving_vms_per_host` spare slots each
    /// (no serving backends, no desktops), built and then taken out of
    /// service. An autoscaler activates one with `set_in_service` and
    /// live-migrates load onto its spares.
    pub standby_hosts: usize,
}

impl Default for WebFleetConfig {
    fn default() -> Self {
        WebFleetConfig {
            hosts: 8,
            mode: SystemConfig::VScale,
            serving_vms_per_host: 2,
            vm_vcpus: 4,
            desktops_per_host: 2,
            n_pcpus: 4,
            seed: 7,
            fault: None,
            spares_per_host: 0,
            standby_hosts: 0,
        }
    }
}

impl WebFleetConfig {
    /// Total VMs in the fleet (serving + desktop).
    pub fn total_vms(&self) -> usize {
        self.hosts * (self.serving_vms_per_host + self.desktops_per_host)
    }
}

/// Builds the fleet: hosts, links, serving VMs (registered as LB
/// backends in host-major order), and background desktops.
pub fn build_web_fleet(fleet: WebFleetConfig, cluster_cfg: ClusterConfig) -> Cluster {
    assert!(fleet.hosts > 0 && fleet.serving_vms_per_host > 0);
    let mut cluster = Cluster::new(cluster_cfg);
    // Denser than the apache_experiment pace: fleet windows are short
    // (hundreds of ms, not seconds), so the think/burst cycle is
    // compressed to land several decode bursts inside every window —
    // same ~85% duty, more contention signal per simulated second.
    let slideshow = SlideshowConfig {
        think_mean: SimDuration::from_ms(70),
        burst_mean: SimDuration::from_ms(400),
        ..SlideshowConfig::default()
    };
    let mut backends = Vec::new();
    let mut spares = Vec::new();
    for host in 0..fleet.hosts {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: fleet.n_pcpus,
            seed: fleet
                .seed
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(host as u64),
            ..MachineConfig::default()
        });
        if let Some(f) = fleet.fault {
            m.set_fault_plan(FaultConfig {
                seed: f.seed ^ (0xf1ee_7000 + host as u64),
                ..f
            });
        }
        for _ in 0..fleet.serving_vms_per_host {
            let mut spec = fleet
                .mode
                .domain_spec(fleet.vm_vcpus)
                .with_weight(128 * fleet.vm_vcpus as u32);
            // PV network path costs, as in the single-host Apache
            // experiment (netfront event channel, grant copies).
            spec.guest.softirq_net = SimDuration::from_us(25);
            let dom = m.add_domain(spec);
            let srv = apache::install(&mut m, dom, ApacheConfig::default());
            backends.push((host, dom, srv));
        }
        // Spare slots are exact structural twins of the serving VMs
        // (same spec, same Apache install), so a migrated image can
        // land on any of them. They idle until a migration arrives.
        for _ in 0..fleet.spares_per_host {
            let mut spec = fleet
                .mode
                .domain_spec(fleet.vm_vcpus)
                .with_weight(128 * fleet.vm_vcpus as u32);
            spec.guest.softirq_net = SimDuration::from_us(25);
            let dom = m.add_domain(spec);
            let _srv = apache::install(&mut m, dom, ApacheConfig::default());
            spares.push((host, dom));
        }
        desktop::add_desktops(&mut m, fleet.desktops_per_host, slideshow);
        cluster.add_host(m, LinkConfig::datacenter());
    }
    // Standby hosts: spare slots only — no serving backends to
    // register, no desktops to burn cycles. They still step (their
    // spares' idle daemons tick), so activating one mid-run stays
    // deterministic at any thread count.
    for standby in 0..fleet.standby_hosts {
        let host = fleet.hosts + standby;
        let mut m = Machine::new(MachineConfig {
            n_pcpus: fleet.n_pcpus,
            seed: fleet
                .seed
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(host as u64),
            ..MachineConfig::default()
        });
        if let Some(f) = fleet.fault {
            m.set_fault_plan(FaultConfig {
                seed: f.seed ^ (0xf1ee_7000 + host as u64),
                ..f
            });
        }
        for _ in 0..fleet.serving_vms_per_host {
            let mut spec = fleet
                .mode
                .domain_spec(fleet.vm_vcpus)
                .with_weight(128 * fleet.vm_vcpus as u32);
            spec.guest.softirq_net = SimDuration::from_us(25);
            let dom = m.add_domain(spec);
            let _srv = apache::install(&mut m, dom, ApacheConfig::default());
            spares.push((host, dom));
        }
        cluster.add_host(m, LinkConfig::datacenter());
    }
    for (host, dom, srv) in backends {
        cluster.add_backend(BackendSpec {
            host,
            dom,
            port: srv.port,
            queue: srv.queue,
            reply_bytes: apache::REPLY_BYTES,
        });
    }
    for (host, dom) in spares {
        cluster.add_spare(host, dom);
    }
    for standby in 0..fleet.standby_hosts {
        cluster.set_in_service(fleet.hosts + standby, false);
    }
    cluster
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimTime;

    #[test]
    fn fleet_serves_an_open_loop_stream() {
        let fleet = WebFleetConfig {
            hosts: 2,
            desktops_per_host: 1,
            ..WebFleetConfig::default()
        };
        let mut c = build_web_fleet(
            fleet,
            ClusterConfig {
                threads: 1,
                ..ClusterConfig::default()
            },
        );
        assert_eq!(c.n_hosts(), 2);
        assert_eq!(c.n_backends(), 4);
        let start = SimTime::from_ms(50);
        let end = SimTime::from_ms(450);
        c.set_window(start, end);
        c.open_loop(2_000.0, SimTime::ZERO, end);
        c.run_until(end + SimDuration::from_ms(60)).expect("runs");
        let p = c.fleet_point("vscale", 2_000);
        assert!(p.sent > 500, "sent {}", p.sent);
        assert!(
            p.completed as f64 > 0.9 * p.sent as f64,
            "{} of {} completed",
            p.completed,
            p.sent
        );
        // Uncontended-ish fleet: sub-5ms p50 including two 200 µs
        // network legs.
        assert!(p.p50_us() > 400, "network legs alone exceed 400µs");
        assert!(p.p50_us() < 5_000, "p50 {}", p.p50_us());
    }
}
