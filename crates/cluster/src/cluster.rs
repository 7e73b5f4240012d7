//! The deterministic cross-host event loop.
//!
//! A [`Cluster`] composes N independent [`Machine`] hosts under one
//! cluster-level event queue ([`EventQueue`]) that carries everything
//! crossing host boundaries: the open-loop request stream arriving at
//! the load balancer and the request deliveries it dispatches onto
//! per-host links. Hosts advance in **lockstep epochs**:
//!
//! 1. pop every cluster event with `t < epoch_end` (LB routing,
//!    request injections into target hosts);
//! 2. step all hosts to `epoch_end − 1 ns` — serially or fanned across
//!    worker threads, hosts share nothing;
//! 3. harvest replies and drops serially, in one pass over the backends;
//! 4. advance migrations and failure machinery, serially.
//!
//! Steps 1 and 3 cost O(backends + requests · log backends) per epoch.
//!
//! Determinism at any `VSCALE_THREADS`: the epoch length never exceeds
//! the smallest link latency (asserted per host), so a message sent
//! while popping epoch k's events is delivered at
//! `t + latency ≥ epoch_end` — i.e. in a strictly later epoch, *after*
//! the hosts it targets were fully stepped through epoch k. Within an
//! epoch each host therefore evolves only from events already in its
//! local queue, making its trajectory a pure function of its inputs and
//! independent of how hosts are partitioned across workers. Stepping to
//! `epoch_end − 1 ns` (not `epoch_end`) keeps boundary-instant events
//! out of the current epoch entirely, so no same-instant ordering
//! between cluster injection and host-local events ever arises. All
//! failure-domain machinery (crash, restore, migration phase
//! transitions) runs serially at epoch boundaries, so it inherits the
//! same guarantee for free.
//!
//! # Exactly-once accounting under failures
//!
//! The ledger invariant — every request is eventually counted exactly
//! once, as a completion or a drop — survives crashes, restores, and
//! migrations through two per-backend fences:
//!
//! * `generation`: bumped whenever the backend dies and its requests
//!   are re-dispatched. Every `Deliver` on the cluster queue carries the
//!   generation it was sent under, and a delivery from an older one is
//!   forgotten, so a re-queued request cannot double-inject. A backend
//!   taken down twice (a failed VM whose host then crashes) just moves
//!   on one more generation.
//! * `skip`: harvested completions/drops to discard. A restored host
//!   *replays* from its checkpoint, re-completing requests that were
//!   already served or re-queued; `skip` is sized to exactly that
//!   cohort, so replayed work is fenced instead of double-counted.
//!
//! The cluster keeps no index into a host's I/O history. Each harvest
//! takes the new replies out of the machine ([`Machine::take_io`]), so a
//! host holds at most one epoch of them. The fence is sized from the
//! lifetime totals ([`Machine::io_counts`]) and the listen-queue drop
//! counter. Both live in guest state, so they travel inside checkpoints
//! and migration images and continue across a restore or a cutover.
//!
//! Requests whose backend dies are re-dispatched exactly once (their
//! ledger entries move, they are never duplicated); requests that find
//! no healthy backend park at the LB and flush on recovery. Loss is
//! therefore impossible by construction — only queueing.

use std::collections::VecDeque;

use guest_kernel::thread::IoQueueId;
use metrics::elastic::SloWindow;
use metrics::fleet::{FleetPoint, HostSample, RobustnessStats};
use sim_core::event::EventQueue;
use sim_core::fault::{FaultPlan, SimError};
use sim_core::rng::SimRng;
use sim_core::stats::Histogram;
use sim_core::time::{SimDuration, SimTime};
use vscale::{DomId, Machine};
use workloads::traces::{RateTrace, TraceSampler};
use xen_sched::evtchn::PortId;

use crate::lb::{Health, LbPolicy, LoadBalancer};
use crate::migrate::{dirty_bytes, MigPhase, MigrationConfig, MigrationJob, CONTROL_BYTES};
use crate::net::{Link, LinkConfig};

/// Bytes of one HTTP request on the wire (GET + headers).
pub const REQUEST_BYTES: u64 = 512;

/// Cluster-level parameters.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Lockstep epoch length; must not exceed any host link's latency.
    pub epoch: SimDuration,
    /// Load-balancer policy.
    pub lb: LbPolicy,
    /// Seed for the cluster's own RNG (request inter-arrival jitter).
    pub seed: u64,
    /// Worker threads for host stepping; 0 means
    /// `testkit::parallel::threads_from_env()` (`VSCALE_THREADS`), read
    /// once when the cluster is built.
    pub threads: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            epoch: SimDuration::from_us(200),
            lb: LbPolicy::RoundRobin,
            seed: 1,
            threads: 0,
        }
    }
}

/// One Apache-serving VM the load balancer can route to.
#[derive(Clone, Copy, Debug)]
pub struct BackendSpec {
    /// Index of the host the VM runs on.
    pub host: usize,
    /// The serving domain.
    pub dom: DomId,
    /// Event-channel port requests arrive on (`ApacheServer::port`).
    pub port: PortId,
    /// The listen queue (`ApacheServer::queue`), for drop accounting.
    pub queue: IoQueueId,
    /// Reply size on the wire, for the host → LB leg.
    pub reply_bytes: u64,
}

/// Everything crossing host boundaries rides the cluster queue.
enum NetMsg {
    /// The next request of an open-loop stream reaches the load
    /// balancer.
    Arrival { stream: usize },
    /// A dispatched request reaches its target host's NIC; `generation`
    /// is the backend's generation when it was sent.
    Deliver { backend: u32, generation: u32 },
    /// A queued SLO sampling instant: hand the fleet-wide window
    /// accumulated since the last sample to the controller.
    SloSample,
}

/// One open-loop tenant stream: its rate-trace sampler and its end.
struct StreamRt {
    sampler: TraceSampler,
    end: SimTime,
}

struct HostSlot {
    machine: Machine,
    link: Link,
    /// In-window request latencies (LB send → reply back at LB), µs.
    latency_us: Histogram,
    /// In-window completions.
    completed: u64,
    /// In-window listen-backlog drops.
    drops: u64,
    /// False while crashed; a down host is neither stepped nor
    /// harvested and its machine stays frozen at the crash instant.
    up: bool,
    /// False while the host is a powered-down standby: it still steps
    /// (its idle spare VMs keep their daemons' event streams alive) but
    /// its spares are not migration landing slots and it does not count
    /// toward the fleet's host-seconds bill. The autoscaler flips this
    /// on scale-out/in.
    in_service: bool,
    /// When the host went down (for outage-duration accounting).
    down_at: SimTime,
    /// Bumped whenever a VM is extracted from or installed on this host,
    /// so a checkpoint taken before a migration cannot silently restore
    /// a moved VM back to life (exactly-one-live-copy).
    topology: u64,
}

struct BackendSlot {
    spec: BackendSpec,
    /// Send times of dispatched-but-unaccounted requests, FIFO.
    pending: VecDeque<SimTime>,
    /// Drops already harvested from this backend's queue counter.
    seen_drops: u64,
    /// Bumped each time the backend dies and its requests are
    /// re-dispatched; deliveries sent under an older generation are
    /// forgotten on arrival.
    generation: u32,
    /// Future harvested completions/drops to discard (checkpoint replay
    /// or a fenced zombie VM re-doing already-accounted work).
    skip: u64,
    /// True while the backend's VM is detached and on the wire.
    in_blackout: bool,
    /// Deliveries that arrived during a blackout, re-sent at cutover or
    /// rollback toward wherever the VM landed.
    held: u64,
}

impl BackendSlot {
    /// A delivery to backend `index`, stamped with its current
    /// generation.
    fn deliver_msg(&self, index: usize) -> NetMsg {
        NetMsg::Deliver {
            backend: index as u32,
            generation: self.generation,
        }
    }
}

/// Steps the due hosts of one chunk to `to`; every due host steps even
/// after an error, and the first error is returned.
fn step_chunk(hosts: &mut [HostSlot], due: &[bool], to: SimTime) -> Result<(), SimError> {
    let mut result = Ok(());
    for (h, _) in hosts.iter_mut().zip(due).filter(|(_, &d)| d) {
        let r = h.machine.step_to(to);
        if result.is_ok() {
            result = r;
        }
    }
    result
}

/// A fleet of machines behind one load balancer.
pub struct Cluster {
    config: ClusterConfig,
    queue: EventQueue<NetMsg>,
    now: SimTime,
    hosts: Vec<HostSlot>,
    backends: Vec<BackendSlot>,
    /// Requests that found no healthy backend, waiting at the LB.
    parking: VecDeque<SimTime>,
    /// Idle structural-twin domains migrations can land on: (host, dom).
    spares: Vec<(usize, DomId)>,
    migrations: Vec<MigrationJob>,
    robustness: RobustnessStats,
    lb: LoadBalancer,
    /// Open-loop tenant streams, in registration order.
    streams: Vec<StreamRt>,
    /// The legacy constant-stream RNG; [`Cluster::open_loop`] moves it
    /// into the stream's sampler (once), keeping that stream's arrival
    /// sequence byte-identical to the pre-trace loop.
    arrivals_rng: Option<SimRng>,
    /// Seed source for additional trace streams, forked per stream.
    stream_rng_src: SimRng,
    /// SLO sampling period, once installed.
    slo_period: Option<SimDuration>,
    /// The SLO sampler's window since the last drain, fleet-wide:
    /// every completion's latency and every drop. It fills only while a
    /// sampler is installed ([`Cluster::install_slo_sampler`]); with
    /// none, nothing takes it and it stays empty. Unlike the hosts'
    /// measurement-window fields it is not gated on
    /// [`Cluster::set_window`]; it is the online sensor the
    /// autoscaler's controller reads, warmup included. `in_flight` is
    /// filled at the drain.
    slo_window: SloWindow,
    /// Drained SLO windows awaiting the controller, in time order.
    slo_samples: VecDeque<(SimTime, SloWindow)>,
    /// Host `step_to` calls skipped because the host's next-event hint
    /// lay past the epoch horizon (sparse stepping).
    steps_skipped: u64,
    window: (SimTime, SimTime),
    sent: u64,
    /// Scratch for harvest: (host, completion time, backend index).
    harvest_buf: Vec<(usize, SimTime, usize)>,
    /// Scratch for sparse stepping: per-host due flags.
    due_buf: Vec<bool>,
}

impl Cluster {
    /// An empty cluster.
    pub fn new(mut config: ClusterConfig) -> Self {
        if config.threads == 0 {
            config.threads = testkit::parallel::threads_from_env();
        }
        let mut rng = SimRng::new(config.seed);
        let arrivals_rng = rng.fork(0x434c_5553);
        Cluster {
            queue: EventQueue::new(),
            arrivals_rng: Some(arrivals_rng),
            stream_rng_src: rng,
            now: SimTime::ZERO,
            hosts: Vec::new(),
            backends: Vec::new(),
            parking: VecDeque::new(),
            spares: Vec::new(),
            migrations: Vec::new(),
            robustness: RobustnessStats::default(),
            lb: LoadBalancer::new(config.lb),
            streams: Vec::new(),
            slo_period: None,
            slo_window: SloWindow::default(),
            slo_samples: VecDeque::new(),
            steps_skipped: 0,
            window: (SimTime::ZERO, SimTime::MAX),
            sent: 0,
            harvest_buf: Vec::new(),
            due_buf: Vec::new(),
            config,
        }
    }

    /// Adds a host behind `link`; returns its index. The lockstep
    /// guarantee needs `epoch <= link.latency`, asserted here.
    pub fn add_host(&mut self, machine: Machine, link: LinkConfig) -> usize {
        assert!(
            self.config.epoch <= link.latency,
            "epoch {:?} exceeds link latency {:?}: cross-host messages \
             could land inside the epoch that sent them",
            self.config.epoch,
            link.latency,
        );
        self.hosts.push(HostSlot {
            machine,
            link: Link::new(link),
            latency_us: Histogram::new(),
            completed: 0,
            drops: 0,
            up: true,
            in_service: true,
            down_at: SimTime::ZERO,
            topology: 0,
        });
        self.hosts.len() - 1
    }

    /// Registers a serving VM; returns its backend index.
    pub fn add_backend(&mut self, spec: BackendSpec) -> usize {
        assert!(spec.host < self.hosts.len(), "unknown host {}", spec.host);
        self.backends.push(BackendSlot {
            spec,
            pending: VecDeque::new(),
            seen_drops: 0,
            generation: 0,
            skip: 0,
            in_blackout: false,
            held: 0,
        });
        self.lb.add_backend();
        self.backends.len() - 1
    }

    /// Registers an idle structural twin of the serving VMs on `host`;
    /// migrations land on spare slots.
    pub fn add_spare(&mut self, host: usize, dom: DomId) {
        assert!(host < self.hosts.len(), "unknown host {host}");
        self.spares.push((host, dom));
    }

    /// Number of hosts.
    pub fn n_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Number of registered backends.
    pub fn n_backends(&self) -> usize {
        self.backends.len()
    }

    /// Unreserved spare slots.
    pub fn n_spares(&self) -> usize {
        self.spares.len()
    }

    /// Read access to a host's machine.
    pub fn machine(&self, host: usize) -> &Machine {
        &self.hosts[host].machine
    }

    /// Cluster time (last completed epoch boundary).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Requests dispatched inside the measurement window so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Is the host serving (not crashed)?
    pub fn host_up(&self, host: usize) -> bool {
        self.hosts[host].up
    }

    /// The LB's current view of a backend.
    pub fn backend_health(&self, backend: usize) -> Health {
        self.lb.health(backend)
    }

    /// Which host a backend currently lives on (changes at cutover).
    pub fn backend_host(&self, backend: usize) -> usize {
        self.backends[backend].spec.host
    }

    /// Migrations still in flight.
    pub fn active_migrations(&self) -> usize {
        self.migrations.len()
    }

    /// Is this backend the subject of an in-flight migration?
    pub fn backend_migrating(&self, backend: usize) -> bool {
        self.migrations.iter().any(|j| j.backend == backend)
    }

    /// True while `backend`'s VM is detached from its source and its
    /// image is on the wire (the stop-and-copy window).
    pub fn backend_in_blackout(&self, backend: usize) -> bool {
        self.backends[backend].in_blackout
    }

    /// Robustness counters accumulated so far.
    pub fn robustness(&self) -> &RobustnessStats {
        &self.robustness
    }

    /// Requests dispatched or parked but not yet accounted as a
    /// completion or drop. Zero after a fully drained run — the
    /// zero-request-loss acceptance check.
    pub fn in_flight(&self) -> u64 {
        let pending: u64 = self.backends.iter().map(|b| b.pending.len() as u64).sum();
        pending + self.parking.len() as u64
    }

    /// Restricts latency/drop accounting to requests *sent* in
    /// `[start, end)`; dispatches outside it still run (warmup,
    /// cooldown) but are not measured.
    pub fn set_window(&mut self, start: SimTime, end: SimTime) {
        self.window = (start, end);
    }

    // ------------------------------------------------------------------
    // SLO sampling and the elastic host lifecycle.
    // ------------------------------------------------------------------

    /// Schedules a recurring SLO sampling event on the cluster queue,
    /// every `period` starting one period from now. Each firing takes
    /// the fleet-wide window accumulated since the last one and holds it
    /// for [`Cluster::pop_slo_sample`]. Sampling rides the same queue as
    /// arrivals, so sample instants interleave deterministically with
    /// the load at any `VSCALE_THREADS`.
    pub fn install_slo_sampler(&mut self, period: SimDuration) {
        assert!(!period.is_zero(), "sampling period must be positive");
        assert!(self.slo_period.is_none(), "SLO sampler already installed");
        self.slo_period = Some(period);
        self.queue.schedule(self.now + period, NetMsg::SloSample);
    }

    /// The oldest undelivered SLO sample, if any: (sample instant, the
    /// window since the previous sample).
    pub fn pop_slo_sample(&mut self) -> Option<(SimTime, SloWindow)> {
        self.slo_samples.pop_front()
    }

    /// Takes the SLO window accumulated since the last take, with the
    /// in-flight depth now. Each queued sample takes one; called
    /// directly, it is the run-end flush that lets an elastic run's
    /// aggregate ledger account for completions after the last sample
    /// instant. The window fills only while a sampler is installed, so
    /// without one it holds no completions, drops or latencies.
    pub fn take_slo_window(&mut self) -> SloWindow {
        let mut w = std::mem::take(&mut self.slo_window);
        w.in_flight = self.in_flight();
        w
    }

    /// Is the host in service (serving capacity, not a parked standby)?
    pub fn host_in_service(&self, host: usize) -> bool {
        self.hosts[host].in_service
    }

    /// Hosts currently up and in service — the fleet's billed capacity.
    pub fn hosts_in_service(&self) -> usize {
        self.hosts.iter().filter(|h| h.up && h.in_service).count()
    }

    /// Moves a host into or out of service. An out-of-service host
    /// still steps (its idle VMs' daemons keep ticking, so a later
    /// activation is deterministic) but its spare slots stop being
    /// migration landing targets. Taking a host out of service requires
    /// that no routable backend still lives on it — evacuate first.
    pub fn set_in_service(&mut self, host: usize, in_service: bool) {
        assert!(host < self.hosts.len(), "unknown host {host}");
        if !in_service {
            let resident = self.backends.iter().enumerate().any(|(b, s)| {
                s.spec.host == host && self.lb.health(b) != Health::Down && !s.in_blackout
            });
            assert!(
                !resident,
                "host {host} still serves routable backends; evacuate before retiring"
            );
        }
        self.hosts[host].in_service = in_service;
    }

    /// Unreserved spare landing slots on one host.
    pub fn spares_on(&self, host: usize) -> usize {
        self.spares.iter().filter(|&&(h, _)| h == host).count()
    }

    /// The LB's in-flight count for one backend.
    pub fn backend_outstanding(&self, backend: usize) -> u64 {
        self.lb.outstanding(backend)
    }

    /// Host `step_to` calls skipped so far by sparse stepping.
    pub fn steps_skipped(&self) -> u64 {
        self.steps_skipped
    }

    /// Starts the classic open-loop request stream: `rate_rps`
    /// requests/s with exponential inter-arrival jitter, first arrival
    /// shortly after `start`, last before `end`. Open-loop means
    /// arrivals never wait for replies — exactly the load regime where
    /// tail latency explodes at saturation.
    ///
    /// Since the trace rework this is sugar for a
    /// [`RateTrace::Constant`] stream over the cluster's original
    /// arrivals RNG, so the arrival sequence is byte-identical to the
    /// pre-trace loop (the committed sweep checksums pin this). Callable
    /// once; additional tenants go through [`Cluster::add_stream`].
    pub fn open_loop(&mut self, rate_rps: f64, start: SimTime, end: SimTime) {
        assert!(rate_rps > 0.0);
        let rng = self
            .arrivals_rng
            .take()
            .expect("one constant stream per run");
        let sampler = TraceSampler::from_rng(RateTrace::Constant { rps: rate_rps }, rng);
        self.push_stream(sampler, start, end);
    }

    /// Starts an additional open-loop tenant stream driven by `trace`,
    /// with its own RNG forked from the cluster seed (streams are
    /// mutually independent and composable); returns the stream index.
    /// First arrival after `start`, last before `end`.
    pub fn add_stream(&mut self, trace: RateTrace, start: SimTime, end: SimTime) -> usize {
        let label = 0x7472_6163u64.wrapping_add(self.streams.len() as u64);
        let sampler = TraceSampler::from_rng(trace, self.stream_rng_src.fork(label));
        self.push_stream(sampler, start, end)
    }

    fn push_stream(&mut self, mut sampler: TraceSampler, start: SimTime, end: SimTime) -> usize {
        let stream = self.streams.len();
        let first = sampler.next_arrival(start);
        if first < end {
            self.queue.schedule(first, NetMsg::Arrival { stream });
        }
        self.streams.push(StreamRt { sampler, end });
        stream
    }

    fn in_window(&self, t: SimTime) -> bool {
        t >= self.window.0 && t < self.window.1
    }

    fn handle(&mut self, t: SimTime, msg: NetMsg) {
        match msg {
            NetMsg::Arrival { stream } => {
                self.dispatch(t);
                let s = &mut self.streams[stream];
                let next = s.sampler.next_arrival(t);
                if next < s.end {
                    self.queue.schedule(next, NetMsg::Arrival { stream });
                }
            }
            NetMsg::SloSample => {
                let window = self.take_slo_window();
                self.slo_samples.push_back((t, window));
                let period = self.slo_period.expect("sample without a sampler");
                self.queue.schedule(t + period, NetMsg::SloSample);
            }
            NetMsg::Deliver {
                backend,
                generation,
            } => {
                let slot = &mut self.backends[backend as usize];
                if generation != slot.generation {
                    // The request this packet carried was re-queued
                    // when its backend died; forget the packet.
                    return;
                }
                if slot.in_blackout {
                    // The VM is on the wire mid-cutover: hold the
                    // delivery, re-send it wherever the VM lands.
                    slot.held += 1;
                    return;
                }
                let spec = slot.spec;
                debug_assert!(
                    self.hosts[spec.host].up,
                    "a delivery to a down host must have been staled or held"
                );
                self.hosts[spec.host]
                    .machine
                    .inject_io(spec.dom, spec.port, t, 1);
            }
        }
    }

    fn dispatch(&mut self, t: SimTime) {
        if self.in_window(t) {
            self.sent += 1;
        }
        self.route(t, t);
    }

    /// Routes a request onto a healthy backend, putting it on the wire
    /// at `wire_at` (`send` is the original arrival time, kept for
    /// latency accounting across re-queues); parks it at the LB when
    /// nothing is routable.
    fn route(&mut self, send: SimTime, wire_at: SimTime) {
        let Some(b) = self.lb.pick() else {
            self.parking.push_back(send);
            return;
        };
        let slot = &mut self.backends[b];
        let deliver_at = self.hosts[slot.spec.host]
            .link
            .send_request(wire_at, REQUEST_BYTES);
        self.queue.schedule(deliver_at, slot.deliver_msg(b));
        slot.pending.push_back(send);
        self.lb.dispatched(b);
    }

    /// Re-dispatches parked requests while any backend is healthy.
    fn flush_parking(&mut self) {
        let now = self.now;
        while self.lb.any_healthy() {
            let Some(send) = self.parking.pop_front() else {
                return;
            };
            self.route(send, now);
        }
    }

    /// Runs the lockstep loop to `deadline` (an epoch multiple is not
    /// required; the final epoch is clipped).
    pub fn run_until(&mut self, deadline: SimTime) -> Result<(), SimError> {
        assert!(!self.hosts.is_empty(), "no hosts");
        while self.now < deadline {
            let epoch_end = (self.now + self.config.epoch).min(deadline);
            // 1. Cross-host deliveries and LB routing due this epoch.
            let lb_deadline = SimTime::from_ns(epoch_end.as_ns() - 1);
            while let Some((t, msg)) = self.queue.pop_next_until(lb_deadline) {
                self.handle(t, msg);
            }
            // 2. Step every live host through the epoch.
            self.step_hosts(SimTime::from_ns(epoch_end.as_ns() - 1))?;
            // 3. Serial harvest in host order.
            self.harvest();
            self.now = epoch_end;
            // 4. Serial migration progress at the boundary.
            self.advance_migrations();
        }
        Ok(())
    }

    /// Steps all live hosts to `to`, in one contiguous chunk of hosts
    /// per thread. The first error (in host order) is returned, so the
    /// error too is independent of the thread count.
    ///
    /// Sparse stepping: a host whose next-event hint lies past `to` has
    /// provably nothing to do this epoch — `step_to` would pop nothing
    /// and mutate nothing (`pop_next_until` leaves `now` untouched when
    /// the earliest event is beyond the deadline) — so it is skipped
    /// entirely. The hint is conservative (may be early, never late),
    /// so a wrong hint only costs a harmless no-op step, never a missed
    /// event. Due flags are computed serially before any fan-out, which
    /// keeps the skip counter and the work partition independent of the
    /// thread count.
    fn step_hosts(&mut self, to: SimTime) -> Result<(), SimError> {
        let n = self.hosts.len();
        let mut due = std::mem::take(&mut self.due_buf);
        due.clear();
        due.resize(n, false);
        let mut any_due = false;
        for (i, h) in self.hosts.iter().enumerate() {
            if !h.up {
                continue;
            }
            match h.machine.peek_time_hint() {
                Some(hint) if hint <= to => {
                    due[i] = true;
                    any_due = true;
                }
                // Beyond the horizon, or a (theoretical) empty queue:
                // stepping would be a no-op.
                Some(_) | None => self.steps_skipped += 1,
            }
        }
        if !any_due {
            self.due_buf = due;
            return Ok(());
        }
        let chunk = n.div_ceil(self.config.threads.clamp(1, n));
        // The calling thread steps the first chunk and one worker steps
        // each other chunk, so a one-thread run spawns nothing. Chunks
        // are contiguous and their results are taken in order, so the
        // first error in host order wins.
        let result = std::thread::scope(|scope| {
            let mut chunks = self.hosts.chunks_mut(chunk).zip(due.chunks(chunk));
            let (hosts, due) = chunks.next().expect("at least one host");
            let workers: Vec<_> = chunks
                .map(|(hs, ds)| scope.spawn(move || step_chunk(hs, ds, to)))
                .collect();
            let mut result = step_chunk(hosts, due, to);
            for w in workers {
                let r = w.join().expect("host worker panicked");
                if result.is_ok() {
                    result = r;
                }
            }
            result
        });
        self.due_buf = due;
        result
    }

    /// Matches new replies and drops against the dispatch ledger.
    ///
    /// Completions are matched FIFO per backend: per-request identity
    /// does not survive the Apache model's worker pool, and workers can
    /// reorder service completion slightly, so an individual latency
    /// sample may pair a reply with a neighbouring request's send time.
    /// Counts are exact, the pairing is deterministic, and the
    /// distortion is bounded by in-VM queueing spread — negligible off
    /// saturation, documented noise at it (re-queued requests add the
    /// same class of noise on the backend they land on). Listen-queue
    /// drops likewise retire the oldest pending entries (real drops hit
    /// the batch tail), keeping the ledger length exact. Down hosts are
    /// frozen and skipped; detached (mid-cutover) backends are skipped
    /// until they land (they were harvested just before detaching, and a
    /// detached VM completes nothing); `skip` discards exactly the
    /// replayed/fenced cohort after a restore.
    ///
    /// One pass over the backends takes every new completion, sorted
    /// by (host, time, backend): each host's reply link serializes its
    /// replies in completion-time order regardless of which VM sent
    /// what. Drops then retire in backend order; a backend lives on one
    /// host, so its completions still precede its drops.
    fn harvest(&mut self) {
        let sampling = self.slo_period.is_some();
        let mut buf = std::mem::take(&mut self.harvest_buf);
        buf.clear();
        for (bidx, b) in self.backends.iter().enumerate() {
            let host = b.spec.host;
            if !self.hosts[host].up || b.in_blackout {
                continue;
            }
            self.hosts[host]
                .machine
                .take_io(b.spec.dom, |c| buf.push((host, c, bidx)));
        }
        buf.sort_unstable();
        for &(host_idx, c, bidx) in &buf {
            let b = &mut self.backends[bidx];
            if b.skip > 0 {
                // Replay of already-accounted work (or a fenced
                // zombie's reply): discard, don't double-serve.
                b.skip -= 1;
                continue;
            }
            let send = b
                .pending
                .pop_front()
                .expect("reply without a pending request");
            self.lb.retired(bidx);
            let host = &mut self.hosts[host_idx];
            let reply_at = host.link.send_reply(c, b.spec.reply_bytes);
            // While a sampler runs, the SLO window sees every
            // completion: it is the controller's online sensor, not
            // gated on the offline measurement window.
            let latency_us = reply_at.since(send).as_us();
            if sampling {
                self.slo_window.latency_us.record(latency_us);
                self.slo_window.completed += 1;
            }
            if send >= self.window.0 && send < self.window.1 {
                host.latency_us.record(latency_us);
                host.completed += 1;
            }
        }
        self.harvest_buf = buf;
        // Listen-queue overflows: retire dropped requests.
        for (bidx, b) in self.backends.iter_mut().enumerate() {
            let host = &mut self.hosts[b.spec.host];
            if !host.up || b.in_blackout {
                continue;
            }
            let total = host.machine.guest(b.spec.dom).io_drops(b.spec.queue);
            debug_assert!(total >= b.seen_drops, "drop counter rewound");
            for _ in 0..total.saturating_sub(b.seen_drops) {
                if b.skip > 0 {
                    b.skip -= 1;
                    continue;
                }
                let send = b.pending.pop_front().expect("drop without a request");
                self.lb.retired(bidx);
                if sampling {
                    self.slo_window.drops += 1;
                }
                if send >= self.window.0 && send < self.window.1 {
                    host.drops += 1;
                }
            }
            b.seen_drops = total;
        }
    }

    // ------------------------------------------------------------------
    // Failure domains: backend health, host crash/restore.
    // ------------------------------------------------------------------

    /// Puts a healthy backend into connection draining: it finishes
    /// what it holds but receives nothing new.
    pub fn drain_backend(&mut self, backend: usize) {
        assert_eq!(
            self.lb.health(backend),
            Health::Healthy,
            "can only drain a healthy backend"
        );
        self.lb.set_health(backend, Health::Draining);
    }

    /// Returns a drained backend to rotation.
    pub fn undrain_backend(&mut self, backend: usize) {
        assert_eq!(self.lb.health(backend), Health::Draining);
        self.lb.set_health(backend, Health::Healthy);
        self.flush_parking();
    }

    /// Marks a backend's VM as failed while its host lives on. Its
    /// in-flight requests are re-queued exactly once; any replies the
    /// zombie VM still produces are fenced (discarded), so nothing is
    /// lost and nothing is double-served.
    pub fn fail_backend(&mut self, backend: usize) {
        assert!(
            !self.backends[backend].in_blackout,
            "cannot fail a backend mid-cutover"
        );
        assert_ne!(
            self.lb.health(backend),
            Health::Down,
            "backend {backend} already down"
        );
        let spec = self.backends[backend].spec;
        assert!(
            self.hosts[spec.host].up,
            "host-level failure is crash_host's job"
        );
        // Everything injected but unaccounted will still be completed or
        // dropped by the zombie; fence that entire cohort. Harvest took
        // every reply at the last epoch boundary, so `completed` counts
        // exactly the accounted ones.
        let (arrived, completed) = self.hosts[spec.host].machine.io_counts(spec.dom);
        let slot = &mut self.backends[backend];
        slot.skip += arrived - completed - slot.seen_drops;
        self.requeue_backend(backend);
    }

    /// Takes `backend` out of rotation and re-dispatches its in-flight
    /// requests exactly once; its deliveries still on the wire go stale.
    fn requeue_backend(&mut self, backend: usize) {
        self.lb.set_health(backend, Health::Down);
        self.lb.clear(backend);
        let slot = &mut self.backends[backend];
        slot.generation += 1;
        let pending: Vec<SimTime> = slot.pending.drain(..).collect();
        self.robustness.requests_requeued += pending.len() as u64;
        let now = self.now;
        for send in pending {
            self.route(send, now);
        }
    }

    /// Whole-host fail-stop crash: the machine freezes at the current
    /// instant, every backend on it goes down, and all their in-flight
    /// requests are re-dispatched exactly once. Migrations touching the
    /// host are settled first (pre-copies abort; a cutover whose
    /// destination died rolls back; a cutover whose *source* died keeps
    /// going — the in-flight image is the sole live copy).
    pub fn crash_host(&mut self, host: usize) {
        assert!(self.hosts[host].up, "host {host} already down");
        self.hosts[host].up = false;
        self.hosts[host].down_at = self.now;
        self.robustness.hosts_down += 1;
        self.settle_migrations_for_crash(host);
        for bidx in 0..self.backends.len() {
            if self.backends[bidx].spec.host != host || self.backends[bidx].in_blackout {
                continue;
            }
            // The frozen machine produces nothing until a restore, which
            // recomputes the replay fence from the restored state.
            self.backends[bidx].skip = 0;
            self.requeue_backend(bidx);
        }
    }

    /// Checkpoints a live host's full machine state (all VMs, scheduler,
    /// pending events). The image is fenced against topology changes:
    /// restoring it after a VM migrated in or out is refused, because it
    /// would resurrect a moved VM and violate exactly-one-live-copy.
    pub fn checkpoint_host(&mut self, host: usize) -> Vec<u8> {
        assert!(self.hosts[host].up, "cannot checkpoint a down host");
        assert!(
            self.migrations
                .iter()
                .all(|j| self.backends[j.backend].spec.host != host && j.dst_host != host),
            "cannot checkpoint host {host} mid-migration"
        );
        let mut out = self.hosts[host].topology.to_le_bytes().to_vec();
        out.extend(self.hosts[host].machine.checkpoint());
        out
    }

    /// Restores a crashed host from a [`checkpoint_host`] image and
    /// returns its backends to rotation. The machine rewinds to the
    /// checkpoint instant and deterministically replays forward; every
    /// completion/drop it re-produces for work that was already
    /// accounted (or re-queued at the crash) is discarded via the
    /// per-backend `skip` fence, so the restore is exactly-once too.
    ///
    /// [`checkpoint_host`]: Cluster::checkpoint_host
    pub fn restore_host(&mut self, host: usize, image: &[u8]) {
        assert!(!self.hosts[host].up, "restore targets a crashed host");
        assert!(
            self.migrations
                .iter()
                .all(|j| self.backends[j.backend].spec.host != host && j.dst_host != host),
            "cannot restore host {host} while a migration involves it"
        );
        let (tp, machine_image) = image.split_at(8);
        let tp = u64::from_le_bytes(tp.try_into().expect("8-byte topology prefix"));
        assert_eq!(
            tp, self.hosts[host].topology,
            "stale checkpoint: a VM migrated in or out of host {host} after \
             it was taken; restoring would resurrect a moved VM"
        );
        self.hosts[host].machine.restore(machine_image);
        self.hosts[host].up = true;
        let outage = self.now.since(self.hosts[host].down_at);
        self.robustness.downtime_us.record(outage.as_us());
        self.robustness.hosts_restored += 1;
        for bidx in 0..self.backends.len() {
            let spec = self.backends[bidx].spec;
            if spec.host != host {
                continue;
            }
            // Size the replay fence: everything in-guest at the
            // checkpoint plus deliveries still in the machine's queue
            // will be re-completed or re-dropped on replay, and every
            // one of those requests was either already served or
            // re-queued at the crash. Replies the image holds untaken
            // were accounted before the checkpoint: drop them.
            let machine = &mut self.hosts[host].machine;
            machine.take_io(spec.dom, |_| {});
            let (arrived, completed) = machine.io_counts(spec.dom);
            let dropped = machine.guest(spec.dom).io_drops(spec.queue);
            let queued = machine.pending_io_items(spec.dom);
            let slot = &mut self.backends[bidx];
            slot.seen_drops = dropped;
            slot.skip = arrived - completed - dropped + queued;
            self.lb.set_health(bidx, Health::Healthy);
        }
        self.flush_parking();
    }

    // ------------------------------------------------------------------
    // Live migration.
    // ------------------------------------------------------------------

    /// Starts migrating `backend` to a spare slot on `dst_host`.
    /// Panics if the destination has no spare; see
    /// [`evacuate_host`](Cluster::evacuate_host) for the policy-driven
    /// variant that skips instead.
    pub fn start_migration(&mut self, backend: usize, dst_host: usize, cfg: MigrationConfig) {
        assert!(
            self.try_start_migration(backend, dst_host, cfg, false),
            "no spare slot on host {dst_host}"
        );
    }

    fn try_start_migration(
        &mut self,
        backend: usize,
        dst_host: usize,
        cfg: MigrationConfig,
        evacuation: bool,
    ) -> bool {
        assert_eq!(
            self.lb.health(backend),
            Health::Healthy,
            "can only migrate a healthy backend"
        );
        assert!(
            self.migrations.iter().all(|j| j.backend != backend),
            "backend {backend} is already migrating"
        );
        assert!(
            self.hosts[dst_host].up,
            "destination host {dst_host} is down"
        );
        assert!(
            self.hosts[dst_host].in_service,
            "destination host {dst_host} is out of service; activate it first"
        );
        let src = self.backends[backend].spec.host;
        assert_ne!(src, dst_host, "source and destination are the same host");
        let Some(pos) = self.spares.iter().position(|&(h, _)| h == dst_host) else {
            return false;
        };
        let (_, dst_dom) = self.spares.remove(pos);
        let mut job = MigrationJob {
            backend,
            dst_host,
            dst_dom,
            plan: cfg.faults.map(FaultPlan::new),
            link: Link::new(cfg.link),
            cfg,
            rounds: 0,
            evacuation,
            phase: MigPhase::Settled,
        };
        let now = self.now;
        let spec = self.backends[backend].spec;
        let probe = self.hosts[src].machine.vm_image_bytes(spec.dom);
        if job.cfg.precopy {
            let bytes = dirty_bytes(&[], &probe) + CONTROL_BYTES;
            let (done_at, lost) = job.transfer(now, bytes);
            job.phase = MigPhase::PreCopy {
                synced: Vec::new(),
                sent_probe: probe,
                done_at,
                lost,
            };
        } else {
            // Cold path: stop-and-copy everything immediately, budget
            // not consulted — the fallback for hosts dying faster than
            // pre-copy can converge.
            let dirty = dirty_bytes(&[], &probe);
            self.begin_blackout(&mut job, dirty);
        }
        self.migrations.push(job);
        true
    }

    /// Evacuation policy for a dying host: live-migrate every healthy
    /// backend it serves onto spare slots elsewhere. Each backend lands
    /// on the least-outstanding candidate — among up, in-service hosts
    /// with a free spare, the one whose resident backends hold the
    /// fewest in-flight requests, ties broken by fewer already-inbound
    /// migrations and then by lowest host index (so one evacuation
    /// spreads rather than piling onto a single receiver). Returns the
    /// number of migrations started; backends without a landing slot
    /// stay put. [`start_migration`](Cluster::start_migration) remains
    /// the explicit-target API.
    pub fn evacuate_host(&mut self, host: usize, cfg: MigrationConfig) -> usize {
        assert!(
            self.hosts[host].up,
            "cannot evacuate a down host; restore it first"
        );
        let mut started = 0;
        for b in 0..self.backends.len() {
            if self.backends[b].spec.host != host || self.lb.health(b) != Health::Healthy {
                continue;
            }
            if self.migrations.iter().any(|j| j.backend == b) {
                continue;
            }
            let Some(dst) = self.pick_landing_host(host) else {
                break;
            };
            if self.try_start_migration(b, dst, cfg, true) {
                started += 1;
            }
        }
        started
    }

    /// The least-outstanding landing host for a migration off `src`:
    /// minimizes (resident in-flight requests, inbound migrations, host
    /// index) over up, in-service hosts ≠ `src` that hold a free spare.
    fn pick_landing_host(&self, src: usize) -> Option<usize> {
        let mut resident = vec![0u64; self.hosts.len()];
        for (b, s) in self.backends.iter().enumerate() {
            resident[s.spec.host] += self.lb.outstanding(b);
        }
        let mut best: Option<(u64, usize, usize)> = None;
        for (h, &outstanding) in resident.iter().enumerate() {
            if h == src || !self.hosts[h].up || !self.hosts[h].in_service {
                continue;
            }
            if !self.spares.iter().any(|&(sh, _)| sh == h) {
                continue;
            }
            let inbound = self.migrations.iter().filter(|j| j.dst_host == h).count();
            let key = (outstanding, inbound, h);
            if best.is_none_or(|k| key < k) {
                best = Some(key);
            }
        }
        best.map(|(_, _, h)| h)
    }

    fn advance_migrations(&mut self) {
        let mut i = 0;
        while i < self.migrations.len() {
            let mut job = self.migrations.remove(i);
            if !self.step_job(&mut job) {
                self.migrations.insert(i, job);
                i += 1;
            }
        }
    }

    /// Advances one job at an epoch boundary; true when it finished.
    fn step_job(&mut self, job: &mut MigrationJob) -> bool {
        let now = self.now;
        match &job.phase {
            MigPhase::PreCopy { done_at, .. } if now < *done_at => return false,
            MigPhase::Blackout { arrive_at, .. } if now < *arrive_at => return false,
            MigPhase::Settled => unreachable!("settled job left in the queue"),
            _ => {}
        }
        match std::mem::replace(&mut job.phase, MigPhase::Settled) {
            MigPhase::PreCopy {
                synced,
                sent_probe,
                lost,
                ..
            } => self.finish_round(job, synced, sent_probe, lost),
            MigPhase::Blackout {
                stopped_at,
                arrive_at,
                image,
                lost,
            } => {
                self.finish_cutover(job, stopped_at, arrive_at, image, lost);
                true
            }
            MigPhase::Settled => unreachable!(),
        }
    }

    /// A pre-copy round's transfer deadline passed: re-probe, decide
    /// between cutover, another round, and abort. Returns job-finished.
    fn finish_round(
        &mut self,
        job: &mut MigrationJob,
        synced: Vec<u8>,
        sent_probe: Vec<u8>,
        lost: bool,
    ) -> bool {
        let now = self.now;
        job.rounds += 1;
        self.robustness.precopy_rounds += 1;
        // A lost transfer leaves the destination where it was; the round
        // still counts against the cap (capped retries).
        let synced = if lost { synced } else { sent_probe };
        let spec = self.backends[job.backend].spec;
        let probe = self.hosts[spec.host].machine.vm_image_bytes(spec.dom);
        let dirty = dirty_bytes(&synced, &probe);
        let blackout_cost = job.cfg.link.wire_time(dirty + CONTROL_BYTES) + job.cfg.link.latency;
        if blackout_cost <= job.cfg.downtime_budget {
            self.begin_blackout(job, dirty);
            false
        } else if job.rounds >= job.cfg.max_rounds {
            // Rounds exhausted without convergence: abort. The source
            // VM never stopped, so there is nothing to roll back.
            self.robustness.migrations_aborted += 1;
            self.spares.push((job.dst_host, job.dst_dom));
            true
        } else {
            let (done_at, lost) = job.transfer(now, dirty + CONTROL_BYTES);
            job.phase = MigPhase::PreCopy {
                synced,
                sent_probe: probe,
                done_at,
                lost,
            };
            false
        }
    }

    /// Stop-and-copy: detach the VM from the source and put the final
    /// image on the wire. The source keeps an inert shell the image can
    /// roll back into.
    fn begin_blackout(&mut self, job: &mut MigrationJob, dirty: u64) {
        let now = self.now;
        let spec = self.backends[job.backend].spec;
        let image = self.hosts[spec.host].machine.extract_vm(spec.dom);
        self.hosts[spec.host].topology += 1;
        self.lb.set_health(job.backend, Health::Draining);
        self.backends[job.backend].in_blackout = true;
        let (arrive_at, lost) = job.transfer(now, dirty + CONTROL_BYTES);
        job.phase = MigPhase::Blackout {
            stopped_at: now,
            arrive_at,
            image,
            lost,
        };
    }

    /// The cutover transfer's deadline passed: install on the
    /// destination, or roll back to the source shell. The downtime
    /// budget is hard — a transfer delayed past it rolls back rather
    /// than extending the blackout.
    fn finish_cutover(
        &mut self,
        job: &mut MigrationJob,
        stopped_at: SimTime,
        arrive_at: SimTime,
        image: Vec<u8>,
        lost: bool,
    ) {
        let now = self.now;
        let b = job.backend;
        let src = self.backends[b].spec.host;
        let dst_up = self.hosts[job.dst_host].up;
        let over_budget = job.cfg.precopy && arrive_at.since(stopped_at) > job.cfg.downtime_budget;
        let downtime = now.since(stopped_at);
        if lost || !dst_up || over_budget {
            if self.hosts[src].up {
                // Roll back: the source shell absorbs the image and the
                // VM resumes exactly where it stopped.
                self.hosts[src]
                    .machine
                    .install_vm(self.backends[b].spec.dom, &image);
                self.hosts[src].topology += 1;
                self.backends[b].in_blackout = false;
                self.lb.set_health(b, Health::Healthy);
                self.release_held(b);
                if dst_up {
                    self.spares.push((job.dst_host, job.dst_dom));
                }
                self.robustness.migrations_aborted += 1;
                self.robustness.downtime_us.record(downtime.as_us());
                self.flush_parking();
            } else {
                // Source crashed after extraction AND the transfer
                // failed: no live copy remains. The requests must still
                // be accounted — re-queue everything exactly once.
                let slot = &mut self.backends[b];
                slot.in_blackout = false;
                slot.held = 0;
                slot.skip = 0;
                self.robustness.migrations_aborted += 1;
                self.requeue_backend(b);
            }
        } else {
            // Cutover: the destination twin absorbs the image (its idle
            // shell is discarded); the vacated source shell becomes a
            // spare. The ledger stays with the cluster, and the I/O
            // totals and drop counter travel inside the image, so
            // accounting continues seamlessly on the new host.
            let dst = &mut self.hosts[job.dst_host];
            let _idle_shell = dst.machine.extract_vm(job.dst_dom);
            dst.machine.install_vm(job.dst_dom, &image);
            dst.topology += 2;
            let old = self.backends[b].spec;
            if self.hosts[old.host].up {
                self.spares.push((old.host, old.dom));
            }
            self.backends[b].spec.host = job.dst_host;
            self.backends[b].spec.dom = job.dst_dom;
            self.backends[b].in_blackout = false;
            self.lb.set_health(b, Health::Healthy);
            self.release_held(b);
            self.robustness.migrations_ok += 1;
            if job.evacuation {
                self.robustness.vms_evacuated += 1;
            }
            self.robustness.downtime_us.record(downtime.as_us());
            self.flush_parking();
        }
    }

    /// Re-sends deliveries held during a blackout toward wherever the
    /// VM landed (destination after cutover, source after rollback).
    fn release_held(&mut self, backend: usize) {
        let slot = &mut self.backends[backend];
        let link = &mut self.hosts[slot.spec.host].link;
        for _ in 0..std::mem::take(&mut slot.held) {
            let deliver_at = link.send_request(self.now, REQUEST_BYTES);
            self.queue.schedule(deliver_at, slot.deliver_msg(backend));
        }
    }

    /// Settles every migration touching a crashing host, *before* its
    /// backends are torn down.
    fn settle_migrations_for_crash(&mut self, host: usize) {
        let mut i = 0;
        while i < self.migrations.len() {
            let src = self.backends[self.migrations[i].backend].spec.host;
            let dst = self.migrations[i].dst_host;
            if src != host && dst != host {
                i += 1;
                continue;
            }
            let mut job = self.migrations.remove(i);
            match std::mem::replace(&mut job.phase, MigPhase::Settled) {
                MigPhase::PreCopy { .. } => {
                    // The stream dies with either endpoint. A dead
                    // source's backend is re-queued by crash_host's main
                    // loop; a dead destination leaves the source VM
                    // serving untouched.
                    self.robustness.migrations_aborted += 1;
                    if dst != host && self.hosts[dst].up {
                        self.spares.push((job.dst_host, job.dst_dom));
                    }
                }
                MigPhase::Blackout {
                    stopped_at,
                    arrive_at,
                    image,
                    lost,
                } => {
                    if dst == host {
                        // Destination died mid-cutover: roll back to the
                        // source now (finish_cutover sees dst down).
                        self.finish_cutover(&mut job, stopped_at, arrive_at, image, lost);
                    } else {
                        // Source died after extraction: the in-flight
                        // image is the sole live copy; let the cutover
                        // finish on the destination.
                        job.phase = MigPhase::Blackout {
                            stopped_at,
                            arrive_at,
                            image,
                            lost,
                        };
                        self.migrations.insert(i, job);
                        i += 1;
                    }
                }
                MigPhase::Settled => unreachable!(),
            }
        }
    }

    /// The per-host measurement samples (for [`FleetPoint::from_hosts`]).
    pub fn host_samples(&self) -> Vec<HostSample> {
        self.hosts
            .iter()
            .enumerate()
            .map(|(i, h)| HostSample {
                host: i,
                latency_us: h.latency_us.clone(),
                completed: h.completed,
                drops: h.drops,
            })
            .collect()
    }

    /// Packages the run's measurements as one fleet sweep point,
    /// attaching robustness counters only when failure machinery
    /// actually fired (an undisturbed run serializes identically to one
    /// from a build without failure support).
    pub fn fleet_point(&self, mode: impl Into<String>, offered_rps: u64) -> FleetPoint {
        let point = FleetPoint::from_hosts(mode, offered_rps, self.sent, self.host_samples());
        if self.robustness.is_zero() {
            point
        } else {
            point.with_robustness(self.robustness.clone())
        }
    }
}
