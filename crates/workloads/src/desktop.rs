//! Virtual-desktop background VMs (§5.2.1's experimental setting).
//!
//! The paper's background load is a set of 2-vCPU virtual desktops running
//! a "photo-slideshow": every couple of seconds the viewer opens a
//! 2802×1849 JPEG, producing a CPU spike followed by idle think time.
//! This makes the co-located VMs' pCPU consumption *fluctuate* — the exact
//! condition under which a fixed vCPU count is always wrong and vScale's
//! rapid adaptation pays off.

use guest_kernel::thread::{ProgramCtx, ThreadAction, ThreadKind, ThreadProgram};
use sim_core::rng::SimRng;
use sim_core::time::SimDuration;
use vscale::config::DomainSpec;
use vscale::{DomId, Machine};
use xen_sched::Policy;

/// Slideshow parameters.
#[derive(Clone, Copy, Debug)]
pub struct SlideshowConfig {
    /// Mean think time between image openings.
    pub think_mean: SimDuration,
    /// Mean total CPU burst to decode and render one image.
    pub burst_mean: SimDuration,
    /// CPU chunk per frame/stripe within a burst: decode-render loops
    /// yield to the display path between stripes, so the burst is a train
    /// of compute chunks separated by tiny sleeps. Every chunk boundary
    /// is a fresh wakeup — and in Xen a fresh BOOST — which is what makes
    /// interactive neighbours so disruptive to co-located VMs.
    pub frame_chunk: SimDuration,
    /// Sleep between frame chunks.
    pub frame_gap: SimDuration,
    /// Mean gap between UI/compositor timer wakeups (X server, widget
    /// redraws, media timers). Zero disables the UI thread.
    pub ui_gap_mean: SimDuration,
    /// Mean CPU per UI wakeup.
    pub ui_work_mean: SimDuration,
}

impl Default for SlideshowConfig {
    fn default() -> Self {
        SlideshowConfig {
            think_mean: SimDuration::from_ms(1_100),
            burst_mean: SimDuration::from_ms(800),
            frame_chunk: SimDuration::from_ms(25),
            frame_gap: SimDuration::from_ms(4),
            ui_gap_mean: SimDuration::from_ms(15),
            ui_work_mean: SimDuration::ZERO,
        }
    }
}

struct SlideshowViewer {
    cfg: SlideshowConfig,
    rng: SimRng,
    /// CPU time left in the current decode burst (zero = thinking).
    burst_left: SimDuration,
    /// Next step is a frame gap (alternates with frame chunks).
    in_gap: bool,
}

impl ThreadProgram for SlideshowViewer {
    fn next(&mut self, _ctx: ProgramCtx) -> ThreadAction {
        if self.burst_left.is_zero() {
            // Start thinking, then a fresh burst.
            let think = self
                .rng
                .exponential(self.cfg.think_mean.as_us_f64())
                .max(20_000.0);
            let burst = self
                .rng
                .exponential(self.cfg.burst_mean.as_us_f64())
                .max(100_000.0);
            self.burst_left = SimDuration::from_us_f64(burst);
            self.in_gap = false;
            return ThreadAction::Sleep(SimDuration::from_us_f64(think));
        }
        if self.in_gap {
            self.in_gap = false;
            return ThreadAction::Sleep(self.cfg.frame_gap);
        }
        // One frame chunk of the burst.
        let chunk = self.cfg.frame_chunk.min(self.burst_left);
        self.burst_left = self.burst_left.saturating_sub(chunk);
        self.in_gap = !self.burst_left.is_zero();
        ThreadAction::Compute(chunk)
    }

    fn label(&self) -> &str {
        "slideshow"
    }
}

sim_core::snap_struct!(SlideshowViewer { rng, burst_left, in_gap } skip { cfg });

/// The interactive side of the desktop: UI timers and compositor work
/// waking every few milliseconds for a short burst. Each wake rides a
/// BOOST through the hypervisor, preempting whatever runs — the constant
/// millisecond-scale disruption co-located VMs inflict in practice.
struct UiTimers {
    cfg: SlideshowConfig,
    rng: SimRng,
    computing: bool,
}

impl ThreadProgram for UiTimers {
    fn next(&mut self, _ctx: ProgramCtx) -> ThreadAction {
        self.computing = !self.computing;
        if self.computing {
            let work = self
                .rng
                .exponential(self.cfg.ui_work_mean.as_us_f64())
                .max(200.0);
            ThreadAction::Compute(SimDuration::from_us_f64(work))
        } else {
            let gap = self
                .rng
                .exponential(self.cfg.ui_gap_mean.as_us_f64())
                .max(3_000.0);
            ThreadAction::Sleep(SimDuration::from_us_f64(gap))
        }
    }

    fn label(&self) -> &str {
        "ui-timers"
    }
}

sim_core::snap_struct!(UiTimers { rng, computing } skip { cfg });

/// Adds one 2-vCPU desktop VM running a slideshow (decode/render viewer
/// plus the interactive UI-timer side) and returns its domain.
pub fn add_desktop_vm<P: Policy>(m: &mut Machine<P>, cfg: SlideshowConfig) -> DomId {
    let dom = m.add_domain(DomainSpec::fixed(2));
    let mut seed_rng = m.rng.fork(0x6465_736b ^ dom.index() as u64);
    let guest = m.guest_mut(dom);
    let mut threads = Vec::new();
    for i in 0..2u64 {
        threads.push(guest.spawn(
            ThreadKind::User,
            Box::new(SlideshowViewer {
                cfg,
                rng: seed_rng.fork(i + 1),
                burst_left: SimDuration::ZERO,
                in_gap: false,
            }),
        ));
    }
    if !cfg.ui_work_mean.is_zero() {
        threads.push(guest.spawn(
            ThreadKind::User,
            Box::new(UiTimers {
                cfg,
                rng: seed_rng.fork(3),
                computing: false,
            }),
        ));
    }
    for t in threads {
        m.start_thread(dom, t);
    }
    dom
}

/// Adds `n` desktop VMs (the paper keeps ~2 vCPUs per pCPU by sizing this
/// count to the host).
pub fn add_desktops<P: Policy>(m: &mut Machine<P>, n: usize, cfg: SlideshowConfig) -> Vec<DomId> {
    (0..n).map(|_| add_desktop_vm(m, cfg)).collect()
}

/// The number of 2-vCPU background desktops needed to hold the paper's
/// 2:1 vCPU:pCPU overcommit given the test VM's size and the pool size.
pub fn desktops_for_overcommit(n_pcpus: usize, test_vm_vcpus: usize) -> usize {
    let target_vcpus = 2 * n_pcpus;
    target_vcpus.saturating_sub(test_vm_vcpus) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimTime;
    use vscale::config::MachineConfig;

    #[test]
    fn overcommit_sizing_matches_paper() {
        // 4-vCPU VM on 4 pCPUs: 2 desktops -> 8 vCPUs total = 2:1.
        assert_eq!(desktops_for_overcommit(4, 4), 2);
        // 8-vCPU VM on 4 pCPUs: already at 2:1 alone.
        assert_eq!(desktops_for_overcommit(4, 8), 0);
        // 8-vCPU VM on 8 pCPUs: 4 desktops.
        assert_eq!(desktops_for_overcommit(8, 8), 4);
    }

    #[test]
    fn slideshow_alternates_burst_and_sleep() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 2,
            ..MachineConfig::default()
        });
        let d = add_desktop_vm(&mut m, SlideshowConfig::default());
        m.run_until(SimTime::from_secs(20));
        let st = m.domain_stats(d);
        let used = st.run_total.as_secs_f64();
        // Two viewers at ~36% duty each over 20 s: 8-20 s of CPU, with
        // wide slack for randomness.
        assert!(used > 4.0, "desktop too idle: {used}s");
        assert!(used < 22.0, "desktop too busy: {used}s");
    }

    #[test]
    fn consumption_fluctuates_over_time() {
        let mut m = Machine::new(MachineConfig {
            n_pcpus: 2,
            ..MachineConfig::default()
        });
        let d = add_desktop_vm(&mut m, SlideshowConfig::default());
        // Sample consumption over 1 s windows; spikes mean high variance.
        let mut samples = Vec::new();
        let mut last = SimDuration::ZERO;
        for i in 1..=20u64 {
            m.run_until(SimTime::from_secs(i));
            let total = m.domain_stats(d).run_total;
            samples.push((total - last).as_ms_f64());
            last = total;
        }
        let busy = samples.iter().filter(|&&s| s > 900.0).count();
        let idle = samples.iter().filter(|&&s| s < 500.0).count();
        assert!(busy >= 1, "no busy windows: {samples:?}");
        assert!(idle >= 1, "no idle windows: {samples:?}");
    }
}
