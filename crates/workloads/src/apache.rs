//! Apache httpd + httperf behavioural model (Figure 14).
//!
//! The paper's setup: one machine runs Apache in the 4-vCPU test VM, a
//! second runs `httperf` requesting a 16 KB file at a constant rate over a
//! 1 GbE link. Performance is measured as reply rate, connection time and
//! response time. The bottlenecks that shape Figure 14 all appear here:
//!
//! - each request arrives as a NIC interrupt on the event channel's bound
//!   vCPU — a preempted vCPU delays every accept (connection time);
//! - worker threads parse and serve the request, touching kernel network
//!   locks whose holders can be preempted (the "performance break" that
//!   pv-spinlock removes);
//! - replies serialize on the 1 GbE wire: 16 KB + headers ≈ 135 µs, so the
//!   link saturates at ~7 K replies/s — the ceiling vScale+pvlock
//!   approaches.

use guest_kernel::thread::{
    IoQueueId, KLockId, ProgramCtx, ThreadAction, ThreadKind, ThreadProgram,
};
use guest_kernel::{ThreadId, VcpuId};
use sim_core::rng::SimRng;
use sim_core::time::{SimDuration, SimTime};
use vscale::{DomId, Machine};
use xen_sched::evtchn::PortId;
use xen_sched::Policy;

/// The served file plus HTTP headers, on the wire.
pub const REPLY_BYTES: u64 = 16 * 1024 + 512;

/// Apache server parameters.
#[derive(Clone, Copy, Debug)]
pub struct ApacheConfig {
    /// Worker threads (httpd `ThreadsPerChild`-style pool).
    pub workers: usize,
    /// CPU to parse a request and prepare the reply.
    pub service_cpu: SimDuration,
    /// Kernel lock (socket/accept) hold time per request.
    pub kernel_lock_hold: SimDuration,
    /// Probability a request takes the kernel lock path.
    pub kernel_lock_rate: f64,
    /// Listen-queue depth: connections arriving against a full queue are
    /// dropped (the client sees a failed connection).
    pub listen_backlog: u64,
}

impl Default for ApacheConfig {
    fn default() -> Self {
        ApacheConfig {
            workers: 32,
            service_cpu: SimDuration::from_us(70),
            kernel_lock_hold: SimDuration::from_us(4),
            kernel_lock_rate: 0.9,
            listen_backlog: 256,
        }
    }
}

/// One httpd worker: block for a connection, serve it, send the reply.
struct ApacheWorker {
    cfg: ApacheConfig,
    queue: IoQueueId,
    net_lock: KLockId,
    rng: SimRng,
    phase: Phase,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Accept,
    KernelPath,
    Serve,
    Reply,
}

impl ThreadProgram for ApacheWorker {
    fn next(&mut self, _ctx: ProgramCtx) -> ThreadAction {
        loop {
            match self.phase {
                Phase::Accept => {
                    self.phase = Phase::KernelPath;
                    return ThreadAction::IoWait(self.queue);
                }
                Phase::KernelPath => {
                    self.phase = Phase::Serve;
                    if self.rng.chance(self.cfg.kernel_lock_rate) {
                        return ThreadAction::KernelOp {
                            lock: self.net_lock,
                            hold: self.cfg.kernel_lock_hold,
                        };
                    }
                }
                Phase::Serve => {
                    self.phase = Phase::Reply;
                    let jitter = (1.0 + self.rng.normal(0.0, 0.15)).max(0.3);
                    return ThreadAction::Compute(self.cfg.service_cpu.mul_f64(jitter));
                }
                Phase::Reply => {
                    self.phase = Phase::Accept;
                    return ThreadAction::NicSend { bytes: REPLY_BYTES };
                }
            }
        }
    }

    fn label(&self) -> &str {
        "httpd-worker"
    }
}

sim_core::snap_enum!(Phase {
    0 => Accept,
    1 => KernelPath,
    2 => Serve,
    3 => Reply,
});

sim_core::snap_struct!(ApacheWorker { rng, phase } skip { cfg, queue, net_lock });

/// A running Apache instance.
#[derive(Clone, Debug)]
pub struct ApacheServer {
    /// The request queue fed by the NIC interrupt.
    pub queue: IoQueueId,
    /// The event-channel port requests arrive on.
    pub port: PortId,
    /// Worker thread ids.
    pub workers: Vec<ThreadId>,
}

/// Installs Apache into `dom`: request queue, IRQ port bound to vCPU0,
/// worker pool.
pub fn install<P: Policy>(m: &mut Machine<P>, dom: DomId, cfg: ApacheConfig) -> ApacheServer {
    let mut seed_rng = m.rng.fork(0x4150_4143);
    let guest = m.guest_mut(dom);
    let queue = guest.new_io_queue();
    guest.set_io_queue_capacity(queue, cfg.listen_backlog);
    let net_lock = guest.klocks.alloc();
    let mut workers = Vec::with_capacity(cfg.workers);
    for i in 0..cfg.workers {
        workers.push(guest.spawn(
            ThreadKind::User,
            Box::new(ApacheWorker {
                cfg,
                queue,
                net_lock,
                rng: seed_rng.fork(i as u64),
                phase: Phase::Accept,
            }),
        ));
    }
    let port = m.bind_io_port(dom, queue, VcpuId(0));
    for &t in &workers {
        m.start_thread(dom, t);
    }
    ApacheServer {
        queue,
        port,
        workers,
    }
}

/// Schedules an httperf-style constant-rate request stream: `rate`
/// requests/s for `duration`, with exponential inter-arrival jitter.
/// Returns the number of requests injected.
pub fn run_client<P: Policy>(
    m: &mut Machine<P>,
    dom: DomId,
    server: &ApacheServer,
    rate_per_sec: f64,
    start: SimTime,
    duration: SimDuration,
) -> u64 {
    assert!(rate_per_sec > 0.0);
    let mut rng = m.rng.fork(0x4854_5450);
    let end = start + duration;
    let mut t = start;
    let mut n = 0;
    loop {
        let gap = SimDuration::from_us_f64(rng.exponential(1e6 / rate_per_sec));
        t += gap;
        if t >= end {
            break;
        }
        m.inject_io(dom, server.port, t, 1);
        n += 1;
    }
    n
}

/// httperf-style measurement summary over one run window.
#[derive(Clone, Copy, Debug)]
pub struct HttperfSummary {
    /// Requests sent.
    pub requests: u64,
    /// Replies fully on the wire within the window.
    pub replies: u64,
    /// Average reply rate over the window, per second.
    pub reply_rate: f64,
    /// Mean connection time (request arrival → interrupt handled), ms.
    pub connection_time_ms: f64,
    /// Mean response time (accept → reply on the wire), ms.
    pub response_time_ms: f64,
    /// Connections dropped by the full listen queue over the run so far
    /// (httperf's `fd-unavail`/refused count — the saturation signal).
    pub drops: u64,
}

/// Computes the Figure 14 metrics from the machine's I/O logs over the
/// measurement window `[start, start + window]` — httperf reports the
/// average reply rate over its own run window.
///
/// Requests flow FIFO through the accept queue and the worker pool, so
/// arrival, delivery and completion logs are matched by index.
pub fn summarize<P: Policy>(
    m: &Machine<P>,
    dom: DomId,
    server: &ApacheServer,
    start: SimTime,
    window: SimDuration,
) -> HttperfSummary {
    let (arrivals, deliveries, completions) = m.io_logs(dom);
    let drops = m.guest(dom).io_drops(server.queue);
    let end = start + window;
    let requests = arrivals.len() as u64;
    let replies = completions
        .iter()
        .filter(|&&c| c >= start && c <= end)
        .count() as u64;
    let mut conn = 0.0;
    let mut conn_n = 0u64;
    for (a, d) in arrivals.iter().zip(deliveries.iter()) {
        conn += d.since(*a).as_ms_f64();
        conn_n += 1;
    }
    let mut resp = 0.0;
    let mut resp_n = 0u64;
    for (d, c) in deliveries.iter().zip(completions.iter()) {
        if *c > end {
            break;
        }
        resp += c.since(*d).as_ms_f64();
        resp_n += 1;
    }
    HttperfSummary {
        requests,
        replies,
        reply_rate: replies as f64 / window.as_secs_f64(),
        connection_time_ms: if conn_n > 0 {
            conn / conn_n as f64
        } else {
            0.0
        },
        response_time_ms: if resp_n > 0 {
            resp / resp_n as f64
        } else {
            0.0
        },
        drops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vscale::config::{DomainSpec, MachineConfig};

    #[test]
    fn wire_time_caps_at_about_7k_per_sec() {
        // 16.5 KB per reply at 1 Gb/s -> ~135 µs -> ~7.4 K/s ceiling.
        let wire_us = REPLY_BYTES as f64 * 8.0 / 1e9 * 1e6;
        let ceiling = 1e6 / wire_us;
        assert!((6_500.0..8_000.0).contains(&ceiling), "{ceiling}");
    }

    #[test]
    fn uncontended_server_answers_at_request_rate() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 4,
            ..MachineConfig::default()
        });
        let d = m.add_domain(DomainSpec::fixed(4));
        let srv = install(&mut m, d, ApacheConfig::default());
        let window = SimDuration::from_ms(500);
        let sent = run_client(&mut m, d, &srv, 2_000.0, SimTime::from_ms(10), window);
        m.run_until(SimTime::from_ms(700));
        let s = summarize(&m, d, &srv, SimTime::from_ms(10), window);
        assert_eq!(s.requests, sent);
        assert_eq!(s.drops, 0, "uncontended run never fills the backlog");
        // Nearly everything answered; latencies are sub-millisecond.
        assert!(
            s.replies as f64 >= 0.95 * sent as f64,
            "{} of {} replied",
            s.replies,
            sent
        );
        assert!(s.connection_time_ms < 1.0, "conn {}", s.connection_time_ms);
        assert!(s.response_time_ms < 5.0, "resp {}", s.response_time_ms);
    }

    #[test]
    fn overload_saturates_at_the_wire_rate() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 4,
            ..MachineConfig::default()
        });
        let d = m.add_domain(DomainSpec::fixed(4));
        let srv = install(&mut m, d, ApacheConfig::default());
        let window = SimDuration::from_ms(500);
        run_client(&mut m, d, &srv, 12_000.0, SimTime::from_ms(10), window);
        m.run_until(SimTime::from_ms(700));
        let s = summarize(&m, d, &srv, SimTime::from_ms(10), window);
        assert!(
            s.reply_rate < 8_000.0,
            "cannot exceed the 1 GbE ceiling: {}",
            s.reply_rate
        );
        assert!(
            s.reply_rate > 4_000.0,
            "should still serve: {}",
            s.reply_rate
        );
    }
}
