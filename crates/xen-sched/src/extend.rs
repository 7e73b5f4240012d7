//! **Algorithm 1**: calculation of VM CPU extendability.
//!
//! The paper defines a VM's *CPU extendability* as the maximum amount of CPU
//! it would be able to receive from the hypervisor under fair,
//! work-conserving sharing. Every extendability period `t` (10 ms by
//! default) the pool master classifies each domain:
//!
//! - **Releaser** — consumed less than its fair share `s_fair = w_i/Σw · t·P`.
//!   Its unused portion (`s_fair − s_i`) is added to the machine-wide slack
//!   `c_slack`, and its extendability is pinned at its fair share so it can
//!   always ramp back up to its deserved parallelism.
//! - **Competitor** — consumed at least its fair share. Its extendability is
//!   its fair share plus a weight-proportional cut of the slack:
//!   `s_ext = w_i/Σ_S w_j · c_slack + s_fair`.
//!
//! The optimal vCPU count is `n_i = ceil(s_ext / t)` — how many *full*
//! pCPUs the domain could keep busy, with one extra vCPU for a partial
//! allocation. Reservation and cap bounds clamp `s_ext` before the ceiling.
//!
//! [`compute_extendability`] is pure — it is exercised directly by unit
//! and property tests. Every backend drives it through one
//! `ExtendWindow`, from [`Pool::on_extend_tick`](crate::pool::Pool::on_extend_tick):
//! the window's start and publication version are scheduler state, and
//! every backend's domain record is the shared `pool::Domain`.

use sim_core::ids::DomId;
use sim_core::soa::VcpuMap;
use sim_core::time::{SimDuration, SimTime};

use crate::pool::Domain;

/// Per-domain inputs to Algorithm 1 for one period.
#[derive(Clone, Copy, Debug)]
pub struct ExtendParams {
    /// Proportional-share weight `w_i`.
    pub weight: u32,
    /// Measured consumption `s_i(t)` in the elapsed window.
    pub consumed: SimDuration,
    /// Optional upper bound in pCPUs (Xen `cap`/100).
    pub cap_pcpus: Option<f64>,
    /// Optional lower bound in pCPUs.
    pub reservation_pcpus: Option<f64>,
    /// Number of vCPUs the domain owns (UP domains are not scaled).
    pub n_vcpus: usize,
}

/// Algorithm 1 output for one domain, published through the vScale channel.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct ExtendInfo {
    /// The domain's fair share `s_fair(t)` for the window.
    pub fair: SimDuration,
    /// The domain's extendability `s_ext(t)` for the window.
    pub ext: SimDuration,
    /// The domain's measured consumption `s_i(t)` in the window — a
    /// lower-bound witness of what the domain can obtain (used by the
    /// daemon as a floor on the extendability estimate, since slack
    /// apportioned to competitors that cannot use it is reclaimed by
    /// whoever can).
    pub consumed: SimDuration,
    /// The optimal active-vCPU count `n_i = ceil(s_ext / t)`.
    pub n_opt: usize,
    /// Whether the domain was classified as a competitor.
    pub competitor: bool,
    /// When this value was computed.
    pub computed_at: SimTime,
    /// The window length `t` the values refer to.
    pub period: SimDuration,
}

impl ExtendInfo {
    /// The value a domain holds before the first ticker pass: all its vCPUs
    /// are assumed usable.
    pub fn initial(n_vcpus: usize) -> Self {
        ExtendInfo {
            fair: SimDuration::ZERO,
            ext: SimDuration::ZERO,
            consumed: SimDuration::ZERO,
            n_opt: n_vcpus,
            competitor: false,
            computed_at: SimTime::ZERO,
            period: SimDuration::ZERO,
        }
    }

    /// Extendability expressed in pCPUs (`s_ext / t`).
    pub fn ext_pcpus(&self) -> f64 {
        self.ext.ratio(self.period)
    }

    /// Measured consumption expressed in pCPUs (`s_i / t`).
    pub fn consumed_pcpus(&self) -> f64 {
        self.consumed.ratio(self.period)
    }

    /// Checks the structural invariants every published snapshot satisfies,
    /// so a consumer (the vScale daemon) can detect and discard a torn read
    /// instead of feeding garbage into its smoothing filter.
    ///
    /// Valid snapshots are either the pristine [`initial`](Self::initial)
    /// value (all-zero durations before the first ticker pass) or a real
    /// Algorithm 1 output, for which `period > 0`, `ext >= fair` (slack is
    /// only ever added), and `n_opt >= 1`.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.period.is_zero() {
            return if self.ext.is_zero() && self.fair.is_zero() && self.consumed.is_zero() {
                Ok(())
            } else {
                Err("nonzero shares with a zero accounting period")
            };
        }
        if self.ext < self.fair {
            return Err("extendability below fair share");
        }
        if self.n_opt == 0 {
            return Err("optimal vCPU count of zero");
        }
        Ok(())
    }
}

/// Runs Algorithm 1 over all domains of a pool.
///
/// `n_pcpus` is `P`, `window` is the elapsed period `t`, and `now` stamps
/// the result. Returns one [`ExtendInfo`] per input, in order.
///
/// # Examples
///
/// ```
/// use sim_core::time::{SimDuration, SimTime};
/// use xen_sched::extend::{compute_extendability, ExtendParams};
///
/// // A busy 4-vCPU VM next to an idle desktop on 4 pCPUs: the busy VM
/// // can extend into the desktop's slack while the desktop keeps its
/// // fair share for ramp-up.
/// let busy = ExtendParams {
///     weight: 256, consumed: SimDuration::from_ms(20),
///     cap_pcpus: None, reservation_pcpus: None, n_vcpus: 4,
/// };
/// let idle = ExtendParams { consumed: SimDuration::ZERO, n_vcpus: 2, ..busy };
/// let out = compute_extendability(&[busy, idle], 4, SimDuration::from_ms(10), SimTime::ZERO);
/// assert_eq!(out[0].n_opt, 4);
/// assert_eq!(out[1].n_opt, 2);
/// ```
pub fn compute_extendability(
    domains: &[ExtendParams],
    n_pcpus: usize,
    window: SimDuration,
    now: SimTime,
) -> Vec<ExtendInfo> {
    let mut out = Vec::with_capacity(domains.len());
    compute_extendability_into(domains, n_pcpus, window, now, &mut out);
    out
}

/// Allocation-free Algorithm 1: like [`compute_extendability`] but writes
/// into a caller-supplied sink so the 10 ms extend tick can reuse one
/// buffer forever. `out` is cleared first; on return it holds one
/// [`ExtendInfo`] per input, in order.
///
/// The fair share is recomputed (not re-read from the rounded pass-1
/// value) in pass 2, so results are bit-identical to the allocating
/// wrapper's.
pub fn compute_extendability_into(
    domains: &[ExtendParams],
    n_pcpus: usize,
    window: SimDuration,
    now: SimTime,
    out: &mut Vec<ExtendInfo>,
) {
    out.clear();
    let t_ns = window.as_ns() as f64;
    let capacity_ns = t_ns * n_pcpus as f64;
    let weight_sum: f64 = domains.iter().map(|d| f64::from(d.weight)).sum();
    let fair_of = |weight: u32| {
        if weight_sum > 0.0 {
            f64::from(weight) / weight_sum * capacity_ns
        } else {
            0.0
        }
    };

    // Pass 1: fair shares, slack accumulation, competitor set. The
    // per-domain partials ride in the sink itself (fair rounded, the
    // competitor flag) instead of scratch vectors.
    let mut c_slack = 0.0f64;
    let mut competitor_weight = 0.0f64;
    for d in domains {
        let fair = fair_of(d.weight);
        let consumed = d.consumed.as_ns() as f64;
        let competitor = consumed >= fair;
        if competitor {
            competitor_weight += f64::from(d.weight);
        } else {
            c_slack += fair - consumed;
        }
        out.push(ExtendInfo {
            fair: SimDuration::from_ns(fair.round() as u64),
            ext: SimDuration::ZERO,
            consumed: d.consumed,
            n_opt: 0,
            competitor,
            computed_at: now,
            period: window,
        });
    }

    // Pass 2: extendability per domain, clamped to reservation/cap, then
    // the optimal vCPU count.
    for (d, o) in domains.iter().zip(out.iter_mut()) {
        let fair = fair_of(d.weight);
        let mut ext_ns = if o.competitor && competitor_weight > 0.0 {
            f64::from(d.weight) / competitor_weight * c_slack + fair
        } else {
            fair
        };
        if let Some(cap) = d.cap_pcpus {
            ext_ns = ext_ns.min(cap * t_ns);
        }
        if let Some(resv) = d.reservation_pcpus {
            ext_ns = ext_ns.max(resv * t_ns);
        }
        // No domain can exceed whole-machine capacity.
        ext_ns = ext_ns.min(capacity_ns);
        o.n_opt = if d.n_vcpus <= 1 {
            // UP domains have no room for scaling; leave them alone.
            d.n_vcpus
        } else {
            let ratio = if t_ns > 0.0 { ext_ns / t_ns } else { 0.0 };
            (ratio.ceil() as usize).clamp(1, d.n_vcpus)
        };
        o.ext = SimDuration::from_ns(ext_ns.round() as u64);
    }
}

sim_core::snap_struct!(ExtendInfo {
    fair,
    ext,
    consumed,
    n_opt,
    competitor,
    computed_at,
    period,
});

/// Algorithm 1's periodic ticker (`vscale_ticker_fn`), shared by every
/// backend: the window start, the publication version, and reused
/// scratch so the 10 ms pass allocates nothing in steady state.
#[derive(Debug, Default)]
pub(crate) struct ExtendWindow {
    /// Start of the current extendability window.
    start: SimTime,
    /// Seqlock-style version of the published extendability snapshots.
    version: u64,
    params: Vec<ExtendParams>,
    infos: Vec<ExtendInfo>,
}

sim_core::snap_struct!(ExtendWindow { start, version } skip { params, infos });

impl ExtendWindow {
    /// The publication version: bumped once per [`ExtendWindow::tick`]
    /// that republishes.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Closes the window at `now`, republishes every domain's
    /// extendability from its consumption over the window, and opens the
    /// next window. The caller burns every running vCPU up to `now`
    /// first; `hot` supplies the vCPU counts. A window of zero length
    /// publishes nothing.
    pub(crate) fn tick<A, T>(
        &mut self,
        now: SimTime,
        n_pcpus: usize,
        domains: &mut [Domain<A>],
        hot: &VcpuMap<T>,
    ) {
        let window = now.since(self.start);
        self.start = now;
        if window.is_zero() {
            return;
        }
        self.params.clear();
        self.params
            .extend(domains.iter().enumerate().map(|(di, d)| ExtendParams {
                weight: d.weight,
                consumed: d.consumed_extend,
                cap_pcpus: d.cap_pcpus,
                reservation_pcpus: d.reservation_pcpus,
                n_vcpus: hot.n_vcpus(DomId(di)),
            }));
        compute_extendability_into(&self.params, n_pcpus, window, now, &mut self.infos);
        for (d, info) in domains.iter_mut().zip(&self.infos) {
            d.consumed_extend = SimDuration::ZERO;
            d.extend = *info;
        }
        // Seqlock-style publication counter: readers compare the version
        // they consumed against this to detect stale serves, and a torn
        // serve (fields mixed across versions) fails snapshot validation.
        self.version += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: SimDuration = SimDuration::from_ms(10);

    fn params(weight: u32, consumed_ms_tenths: u64, n_vcpus: usize) -> ExtendParams {
        ExtendParams {
            weight,
            consumed: SimDuration::from_us(consumed_ms_tenths * 100),
            cap_pcpus: None,
            reservation_pcpus: None,
            n_vcpus,
        }
    }

    #[test]
    fn single_busy_domain_gets_whole_machine() {
        // One 4-vCPU domain on 4 pCPUs, consuming everything.
        let d = [ExtendParams {
            weight: 256,
            consumed: SimDuration::from_ms(40),
            cap_pcpus: None,
            reservation_pcpus: None,
            n_vcpus: 4,
        }];
        let out = compute_extendability(&d, 4, T, SimTime::ZERO);
        assert_eq!(out[0].n_opt, 4);
        assert!(out[0].competitor);
        assert_eq!(out[0].ext, SimDuration::from_ms(40));
    }

    #[test]
    fn idle_colocated_vm_donates_slack() {
        // Paper's motivating case: an HPC VM next to a mostly idle desktop.
        // 4 pCPUs, equal weights. Desktop consumed 0.5 pCPU-periods.
        let hpc = ExtendParams {
            weight: 256,
            consumed: SimDuration::from_ms(20), // Its full fair share.
            cap_pcpus: None,
            reservation_pcpus: None,
            n_vcpus: 4,
        };
        let desktop = ExtendParams {
            weight: 256,
            consumed: SimDuration::from_ms(5),
            cap_pcpus: None,
            reservation_pcpus: None,
            n_vcpus: 2,
        };
        let out = compute_extendability(&[hpc, desktop], 4, T, SimTime::ZERO);
        // HPC: fair 20 ms + slack 15 ms = 35 ms -> ceil(3.5) = 4 vCPUs.
        assert!(out[0].competitor);
        assert_eq!(out[0].ext, SimDuration::from_ms(35));
        assert_eq!(out[0].n_opt, 4);
        // Desktop keeps its fair share (releaser): 20 ms -> 2 vCPUs.
        assert!(!out[1].competitor);
        assert_eq!(out[1].ext, SimDuration::from_ms(20));
        assert_eq!(out[1].n_opt, 2);
    }

    #[test]
    fn two_competitors_split_slack_by_weight() {
        // 3 domains on 6 pCPUs: one releaser using nothing, two competitors
        // with weights 2:1.
        let releaser = params(256, 0, 2);
        let heavy = ExtendParams {
            weight: 512,
            consumed: SimDuration::from_ms(30), // Exactly its fair share.
            cap_pcpus: None,
            reservation_pcpus: None,
            n_vcpus: 8,
        };
        let light = ExtendParams {
            weight: 256,
            consumed: SimDuration::from_ms(15), // Exactly its fair share.
            cap_pcpus: None,
            reservation_pcpus: None,
            n_vcpus: 8,
        };
        let out = compute_extendability(&[releaser, heavy, light], 6, T, SimTime::ZERO);
        // Fair shares of 60 ms capacity: 15 / 30 / 15 ms.
        // Releaser consumed 0 -> slack 15 ms.
        // heavy: 30 + (2/3)*15 = 40 ms -> 4 vCPUs.
        // light: 15 + (1/3)*15 = 20 ms -> 2 vCPUs.
        assert_eq!(out[1].ext, SimDuration::from_ms(40));
        assert_eq!(out[1].n_opt, 4);
        assert_eq!(out[2].ext, SimDuration::from_ms(20));
        assert_eq!(out[2].n_opt, 2);
    }

    #[test]
    fn releaser_keeps_fair_share_for_rampup() {
        // Even a fully idle SMP VM must keep its deserved parallelism.
        let idle = params(256, 0, 4);
        let busy = ExtendParams {
            weight: 256,
            consumed: SimDuration::from_ms(20),
            cap_pcpus: None,
            reservation_pcpus: None,
            n_vcpus: 4,
        };
        let out = compute_extendability(&[idle, busy], 4, T, SimTime::ZERO);
        assert_eq!(out[0].ext, SimDuration::from_ms(20));
        assert_eq!(out[0].n_opt, 2, "fair share is 2 of 4 pCPUs");
    }

    #[test]
    fn cap_clamps_extendability() {
        let d = [ExtendParams {
            weight: 256,
            consumed: SimDuration::from_ms(40),
            cap_pcpus: Some(1.5),
            reservation_pcpus: None,
            n_vcpus: 4,
        }];
        let out = compute_extendability(&d, 4, T, SimTime::ZERO);
        assert_eq!(out[0].ext, SimDuration::from_ms(15));
        assert_eq!(out[0].n_opt, 2, "ceil(1.5) = 2");
    }

    #[test]
    fn reservation_floors_extendability() {
        let quiet = ExtendParams {
            weight: 1, // Tiny weight -> tiny fair share.
            consumed: SimDuration::ZERO,
            cap_pcpus: None,
            reservation_pcpus: Some(2.0),
            n_vcpus: 4,
        };
        let hog = ExtendParams {
            weight: 10_000,
            consumed: SimDuration::from_ms(40),
            cap_pcpus: None,
            reservation_pcpus: None,
            n_vcpus: 4,
        };
        let out = compute_extendability(&[quiet, hog], 4, T, SimTime::ZERO);
        assert!(out[0].ext >= SimDuration::from_ms(20));
        assert!(out[0].n_opt >= 2);
    }

    #[test]
    fn up_domains_are_not_scaled() {
        let d = [params(256, 0, 1)];
        let out = compute_extendability(&d, 8, T, SimTime::ZERO);
        assert_eq!(out[0].n_opt, 1);
    }

    #[test]
    fn partial_allocation_earns_one_extra_vcpu() {
        // 2 equal domains on 3 pCPUs, both competitors: 15 ms each ->
        // ceil(1.5) = 2 vCPUs (the paper's ceiling rule).
        let a = ExtendParams {
            weight: 256,
            consumed: SimDuration::from_ms(15),
            cap_pcpus: None,
            reservation_pcpus: None,
            n_vcpus: 4,
        };
        let out = compute_extendability(&[a, a], 3, T, SimTime::ZERO);
        assert_eq!(out[0].n_opt, 2);
        assert_eq!(out[1].n_opt, 2);
    }

    #[test]
    fn n_opt_never_exceeds_owned_vcpus() {
        let d = [ExtendParams {
            weight: 256,
            consumed: SimDuration::from_ms(160),
            cap_pcpus: None,
            reservation_pcpus: None,
            n_vcpus: 2,
        }];
        let out = compute_extendability(&d, 16, T, SimTime::ZERO);
        assert_eq!(out[0].n_opt, 2);
    }

    #[test]
    fn extendability_is_work_conserving() {
        // Total extendability across competitors + releasers' fair shares
        // never exceeds machine capacity when slack is claimed fully.
        let doms = [
            params(256, 100, 4), // Competitor (consumed 10 ms = fair+).
            params(256, 10, 4),
            params(256, 0, 4),
            params(256, 300, 4),
        ];
        let out = compute_extendability(&doms, 4, T, SimTime::ZERO);
        let total_ext_of_competitors: u64 = out
            .iter()
            .filter(|o| o.competitor)
            .map(|o| o.ext.as_ns())
            .sum();
        let consumed_by_releasers: u64 = doms
            .iter()
            .zip(&out)
            .filter(|(_, o)| !o.competitor)
            .map(|(d, _)| d.consumed.as_ns())
            .sum();
        let capacity = (T * 4).as_ns();
        assert!(
            total_ext_of_competitors + consumed_by_releasers <= capacity + 1000,
            "{total_ext_of_competitors} + {consumed_by_releasers} > {capacity}"
        );
    }

    #[test]
    fn sink_variant_reuses_buffer_across_calls() {
        let doms = [params(256, 100, 4), params(256, 0, 2)];
        let mut out = Vec::new();
        compute_extendability_into(&doms, 4, T, SimTime::ZERO, &mut out);
        assert_eq!(out, compute_extendability(&doms, 4, T, SimTime::ZERO));
        let cap = out.capacity();
        // A second pass with fewer domains clears and refills in place.
        compute_extendability_into(&doms[..1], 4, T, SimTime::from_ms(10), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.capacity(), cap);
        assert_eq!(out[0].computed_at, SimTime::from_ms(10));
    }

    #[test]
    fn validate_accepts_real_outputs_and_initial() {
        let doms = [params(256, 100, 4), params(256, 0, 2)];
        for o in compute_extendability(&doms, 4, T, SimTime::ZERO) {
            assert_eq!(o.validate(), Ok(()));
        }
        assert_eq!(ExtendInfo::initial(4).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_torn_snapshots() {
        let good = compute_extendability(&[params(256, 100, 4)], 4, T, SimTime::ZERO)[0];
        // A torn period field: nonzero shares against a zero window.
        let torn = ExtendInfo {
            period: SimDuration::ZERO,
            ..good
        };
        assert!(torn.validate().is_err());
        // Fields mixed across publications can drop ext below fair.
        let mixed = ExtendInfo {
            ext: SimDuration::ZERO,
            ..good
        };
        assert!(mixed.validate().is_err());
        let zeroed = ExtendInfo { n_opt: 0, ..good };
        assert!(zeroed.validate().is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use testkit::{prop_assert, prop_assert_eq, run_prop, tuple2, tuple3, vec_of};
    use testkit::{u32_in, u64_in, usize_in, Config, Gen};

    fn arb_domain() -> Gen<ExtendParams> {
        tuple3(u32_in(1..1024), u64_in(0..50_000), usize_in(1..16)).map(
            |(weight, consumed_us, n_vcpus)| ExtendParams {
                weight,
                consumed: SimDuration::from_us(consumed_us),
                cap_pcpus: None,
                reservation_pcpus: None,
                n_vcpus,
            },
        )
    }

    fn arb_doms_and_pcpus() -> Gen<(Vec<ExtendParams>, usize)> {
        tuple2(vec_of(arb_domain(), 1..8), usize_in(1..16))
    }

    /// Every domain's extendability is at least its fair share.
    #[test]
    fn ext_at_least_fair() {
        run_prop(
            "ext_at_least_fair",
            Config::default(),
            &arb_doms_and_pcpus(),
            |(doms, n_pcpus)| {
                let out =
                    compute_extendability(doms, *n_pcpus, SimDuration::from_ms(10), SimTime::ZERO);
                for o in &out {
                    prop_assert!(o.ext >= o.fair, "ext {} < fair {}", o.ext, o.fair);
                }
                Ok(())
            },
        );
    }

    /// No domain's extendability exceeds machine capacity, and n_opt is
    /// within [1, n_vcpus].
    #[test]
    fn ext_bounded_by_capacity() {
        run_prop(
            "ext_bounded_by_capacity",
            Config::default(),
            &arb_doms_and_pcpus(),
            |(doms, n_pcpus)| {
                let t = SimDuration::from_ms(10);
                let out = compute_extendability(doms, *n_pcpus, t, SimTime::ZERO);
                let cap = t * *n_pcpus as u64;
                for (d, o) in doms.iter().zip(&out) {
                    prop_assert!(o.ext <= cap);
                    prop_assert!(o.n_opt >= 1);
                    prop_assert!(o.n_opt <= d.n_vcpus.max(1));
                }
                Ok(())
            },
        );
    }

    /// Fair shares sum to machine capacity (within rounding).
    #[test]
    fn fair_shares_sum_to_capacity() {
        run_prop(
            "fair_shares_sum_to_capacity",
            Config::default(),
            &arb_doms_and_pcpus(),
            |(doms, n_pcpus)| {
                let t = SimDuration::from_ms(10);
                let out = compute_extendability(doms, *n_pcpus, t, SimTime::ZERO);
                let total: u64 = out.iter().map(|o| o.fair.as_ns()).sum();
                let cap = (t * *n_pcpus as u64).as_ns();
                let tolerance = out.len() as u64; // Rounding, 1 ns per domain.
                prop_assert!(
                    total <= cap + tolerance && total + tolerance >= cap,
                    "fair sum {total} vs capacity {cap}"
                );
                Ok(())
            },
        );
    }

    /// Weight monotonicity: among competitors with identical consumption,
    /// a higher weight never yields lower extendability.
    #[test]
    fn weight_monotone() {
        let gen = tuple2(u32_in(1..512), u32_in(1..512));
        run_prop("weight_monotone", Config::default(), &gen, |&(w1, w2)| {
            let t = SimDuration::from_ms(10);
            let busy = SimDuration::from_ms(100);
            let mk = |w| ExtendParams {
                weight: w,
                consumed: busy,
                cap_pcpus: None,
                reservation_pcpus: None,
                n_vcpus: 8,
            };
            // A third, idle domain provides slack.
            let idle = ExtendParams {
                weight: 256,
                consumed: SimDuration::ZERO,
                cap_pcpus: None,
                reservation_pcpus: None,
                n_vcpus: 8,
            };
            let out = compute_extendability(&[mk(w1), mk(w2), idle], 8, t, SimTime::ZERO);
            if w1 >= w2 {
                prop_assert!(out[0].ext >= out[1].ext);
            } else {
                prop_assert!(out[0].ext <= out[1].ext);
            }
            Ok(())
        });
    }

    /// Determinism: same inputs, same outputs — and the allocation-free
    /// sink variant is bit-identical to the allocating wrapper even when
    /// the sink carries stale contents from a previous, different call.
    #[test]
    fn deterministic() {
        run_prop(
            "deterministic",
            Config::default(),
            &arb_doms_and_pcpus(),
            |(doms, n_pcpus)| {
                let t = SimDuration::from_ms(10);
                let a = compute_extendability(doms, *n_pcpus, t, SimTime::ZERO);
                let b = compute_extendability(doms, *n_pcpus, t, SimTime::ZERO);
                prop_assert_eq!(&a, &b);
                let mut sink = vec![ExtendInfo::initial(3); 5]; // Stale junk.
                compute_extendability_into(doms, *n_pcpus, t, SimTime::ZERO, &mut sink);
                prop_assert_eq!(a, sink);
                Ok(())
            },
        );
    }
}
