//! Property: the load balancer's tournament tree picks exactly what a
//! linear scan over every backend picks.
//!
//! Random op streams (dispatch, route, retire, clear, set_health,
//! add_backend) drive a [`LoadBalancer`] and a brute-force oracle side
//! by side, under both policies. `Route` dispatches to the balancer's
//! own pick, as the cluster does, which spreads load evenly. After every
//! op both pick once, and the picks, the in-flight counts and the health
//! views must agree. Failures shrink to a minimal op stream.

use cluster::{Health, LbPolicy, LoadBalancer};
use testkit::{prop_assert, prop_assert_eq};

#[derive(Clone, Copy, Debug)]
enum Op {
    Dispatch(usize),
    Route,
    Retire(usize),
    Clear(usize),
    SetHealth(usize, Health),
    AddBackend,
}

/// The rule the balancer implements, by brute force: round robin scans
/// from its cursor; least-outstanding takes the healthy backend with the
/// fewest in flight, ties to the lowest index.
struct Oracle {
    policy: LbPolicy,
    next: usize,
    outstanding: Vec<u64>,
    health: Vec<Health>,
}

impl Oracle {
    fn pick(&mut self) -> Option<usize> {
        let n = self.health.len();
        match self.policy {
            LbPolicy::RoundRobin => {
                let i = (0..n)
                    .map(|step| (self.next + step) % n)
                    .find(|&i| self.health[i] == Health::Healthy)?;
                self.next = (i + 1) % n;
                Some(i)
            }
            LbPolicy::LeastOutstanding => (0..n)
                .filter(|&i| self.health[i] == Health::Healthy)
                .min_by_key(|&i| (self.outstanding[i], i)),
        }
    }
}

fn op() -> testkit::Gen<Op> {
    let backend = || testkit::usize_in(0..1 << 16);
    let health = testkit::usize_in(0..3).map(|h| match h {
        0 => Health::Healthy,
        1 => Health::Draining,
        _ => Health::Down,
    });
    testkit::one_of(vec![
        backend().map(Op::Dispatch),
        testkit::just(Op::Route),
        testkit::just(Op::Route),
        backend().map(Op::Retire),
        backend().map(Op::Clear),
        testkit::tuple2(backend(), health).map(|(b, h)| Op::SetHealth(b, h)),
        testkit::just(Op::AddBackend),
    ])
}

#[test]
fn lb_picks_match_a_linear_scan_oracle() {
    // Half the cases use at most 16 backends, where routed load covers
    // every backend and reaches the tree's padding.
    let backends = testkit::one_of(vec![testkit::usize_in(1..17), testkit::usize_in(1..301)]);
    let input = testkit::tuple3(backends, testkit::bool_any(), testkit::vec_of(op(), 0..200));
    testkit::run_prop(
        "lb_matches_oracle",
        testkit::Config::default(),
        &input,
        |(n, least, ops)| {
            let policy = if *least {
                LbPolicy::LeastOutstanding
            } else {
                LbPolicy::RoundRobin
            };
            let mut lb = LoadBalancer::new(policy);
            let mut oracle = Oracle {
                policy,
                next: 0,
                outstanding: Vec::new(),
                health: Vec::new(),
            };
            let add = |lb: &mut LoadBalancer, oracle: &mut Oracle| {
                assert_eq!(lb.add_backend(), oracle.health.len());
                oracle.outstanding.push(0);
                oracle.health.push(Health::Healthy);
            };
            for _ in 0..*n {
                add(&mut lb, &mut oracle);
            }
            for (step, &op) in ops.iter().enumerate() {
                let len = oracle.health.len();
                match op {
                    Op::Dispatch(b) => {
                        lb.dispatched(b % len);
                        oracle.outstanding[b % len] += 1;
                    }
                    Op::Route => {
                        let (got, want) = (lb.pick(), oracle.pick());
                        prop_assert!(
                            got == want,
                            "step {step}: routed to {got:?}, oracle {want:?}"
                        );
                        if let Some(b) = want {
                            lb.dispatched(b);
                            oracle.outstanding[b] += 1;
                        }
                    }
                    // Only in-flight requests can retire.
                    Op::Retire(b) if oracle.outstanding[b % len] > 0 => {
                        lb.retired(b % len);
                        oracle.outstanding[b % len] -= 1;
                    }
                    Op::Retire(_) => {}
                    Op::Clear(b) => {
                        lb.clear(b % len);
                        oracle.outstanding[b % len] = 0;
                    }
                    Op::SetHealth(b, h) => {
                        lb.set_health(b % len, h);
                        oracle.health[b % len] = h;
                    }
                    Op::AddBackend => add(&mut lb, &mut oracle),
                }
                let (got, want) = (lb.pick(), oracle.pick());
                prop_assert!(
                    got == want,
                    "step {step} ({op:?}): picked {got:?}, oracle {want:?}"
                );
                prop_assert_eq!(lb.any_healthy(), want.is_some());
                for b in 0..oracle.health.len() {
                    prop_assert!(
                        lb.outstanding(b) == oracle.outstanding[b]
                            && lb.health(b) == oracle.health[b],
                        "step {step} ({op:?}): backend {b} state diverged"
                    );
                }
            }
            Ok(())
        },
    );
}
