//! The front-end load balancer: backend selection policies and backend
//! health.
//!
//! Both policies are pure functions of explicitly-tracked state, so
//! routing decisions are deterministic and independent of the worker
//! thread count. The balancer owns each backend's in-flight count and
//! health, which the cluster reports to it; counts decrement at epoch
//! harvests, so least-outstanding feedback is epoch-granular — exactly
//! the staleness a real L4 balancer sees over a network.
//!
//! Least-outstanding keeps a min-tournament tree over the key
//! `(not Healthy, outstanding, index)`: fewest in flight, ties to the
//! lowest index. A pick reads the root and each report replays one
//! leaf-to-root path, so routing costs O(log backends), not a scan.
//! Round robin keeps its cursor scan.
//!
//! Health is the balancer's view of a backend, maintained by the
//! cluster's failure machinery: `Draining` backends finish what they
//! hold but receive nothing new (connection draining before maintenance
//! or a migration blackout); `Down` backends are gone and their
//! in-flight requests have been re-queued. Both are excluded from
//! routing; a request that finds no healthy backend parks at the LB
//! until one recovers, so overload degrades to queueing, never to loss.

/// Backend-selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LbPolicy {
    /// Cycle through backends in registration order.
    RoundRobin,
    /// Pick the backend with the fewest in-flight requests; ties go to
    /// the lowest-numbered backend.
    LeastOutstanding,
}

/// The balancer's view of one backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Health {
    /// Routable.
    #[default]
    Healthy,
    /// Finishing its in-flight requests; receives nothing new.
    Draining,
    /// Gone (host crash, VM failure, migration blackout); in-flight
    /// requests were re-queued by the cluster.
    Down,
}

/// Load-balancer state: per-backend in-flight counts and health, the
/// round-robin cursor and the least-outstanding tournament tree.
#[derive(Clone, Debug)]
pub struct LoadBalancer {
    policy: LbPolicy,
    next: usize,
    outstanding: Vec<u64>,
    health: Vec<Health>,
    /// Heap-ordered winners: node `i` holds the backend with the least
    /// key under it, the root is node 1, and leaf `b` is node
    /// `tree.len() / 2 + b`. Padding leaves hold `EMPTY`, which loses
    /// every match.
    tree: Vec<usize>,
}

const EMPTY: usize = usize::MAX;

impl LoadBalancer {
    /// A balancer with the given policy and no backends.
    pub fn new(policy: LbPolicy) -> Self {
        LoadBalancer {
            policy,
            next: 0,
            outstanding: Vec::new(),
            health: Vec::new(),
            tree: Vec::new(),
        }
    }

    /// Registers a healthy, idle backend; returns its index.
    /// Registration is set-up work, so it rebuilds the tree.
    pub fn add_backend(&mut self) -> usize {
        self.outstanding.push(0);
        self.health.push(Health::Healthy);
        let n = self.health.len();
        let leaves = n.next_power_of_two();
        self.tree = vec![EMPTY; 2 * leaves];
        for b in 0..n {
            self.tree[leaves + b] = b;
        }
        for i in (1..leaves).rev() {
            self.tree[i] = self.winner(self.tree[2 * i], self.tree[2 * i + 1]);
        }
        n - 1
    }

    /// In-flight requests the balancer has dispatched to `b`.
    pub fn outstanding(&self, b: usize) -> u64 {
        self.outstanding[b]
    }

    /// The balancer's view of `b`.
    pub fn health(&self, b: usize) -> Health {
        self.health[b]
    }

    /// Is any backend routable?
    pub fn any_healthy(&self) -> bool {
        self.tree
            .get(1)
            .is_some_and(|&w| self.health[w] == Health::Healthy)
    }

    /// One request was sent to `b`.
    pub fn dispatched(&mut self, b: usize) {
        self.outstanding[b] += 1;
        self.update(b);
    }

    /// One of `b`'s requests was answered or dropped.
    pub fn retired(&mut self, b: usize) {
        self.outstanding[b] -= 1;
        self.update(b);
    }

    /// All of `b`'s requests were re-queued elsewhere.
    pub fn clear(&mut self, b: usize) {
        self.outstanding[b] = 0;
        self.update(b);
    }

    /// Sets the balancer's view of `b`.
    pub fn set_health(&mut self, b: usize, h: Health) {
        self.health[b] = h;
        self.update(b);
    }

    /// Picks a backend. Draining and down backends are never picked;
    /// returns `None` when no backend is routable.
    pub fn pick(&mut self) -> Option<usize> {
        let n = self.health.len();
        assert!(n > 0, "no backends registered");
        match self.policy {
            LbPolicy::RoundRobin => {
                // Scan from the cursor for the next routable backend, so
                // unhealthy entries are skipped without stalling the
                // rotation.
                for step in 0..n {
                    let i = (self.next + step) % n;
                    if self.health[i] == Health::Healthy {
                        self.next = (i + 1) % n;
                        return Some(i);
                    }
                }
                None
            }
            LbPolicy::LeastOutstanding => self.any_healthy().then(|| self.tree[1]),
        }
    }

    /// The lesser of two tree entries by `(not Healthy, outstanding,
    /// index)`: fewest in flight among the healthy, ties to the lowest
    /// index.
    fn winner(&self, a: usize, b: usize) -> usize {
        let key = |i: usize| (self.health[i] != Health::Healthy, self.outstanding[i], i);
        match (a, b) {
            (EMPTY, _) => b,
            (_, EMPTY) => a,
            _ if key(b) < key(a) => b,
            _ => a,
        }
    }

    /// Replays the matches on `b`'s path to the root.
    fn update(&mut self, b: usize) {
        let mut i = self.tree.len() / 2 + b;
        while i > 1 {
            i /= 2;
            self.tree[i] = self.winner(self.tree[2 * i], self.tree[2 * i + 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: Health = Health::Healthy;

    /// A balancer whose backends hold `counts` in flight with `health`.
    fn lb(policy: LbPolicy, counts: &[u64], health: &[Health]) -> LoadBalancer {
        let mut lb = LoadBalancer::new(policy);
        for (&n, &h) in counts.iter().zip(health) {
            let b = lb.add_backend();
            for _ in 0..n {
                lb.dispatched(b);
            }
            lb.set_health(b, h);
        }
        lb
    }

    #[test]
    fn round_robin_cycles_in_order() {
        let mut lb = lb(LbPolicy::RoundRobin, &[5, 0, 7], &[H; 3]);
        let picks: Vec<usize> = (0..7).map(|_| lb.pick().unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_outstanding_prefers_idle_and_breaks_ties_low() {
        let lo = LbPolicy::LeastOutstanding;
        assert_eq!(lb(lo, &[3, 1, 2], &[H; 3]).pick(), Some(1));
        assert_eq!(lb(lo, &[2, 2, 2], &[H; 3]).pick(), Some(0), "tie goes low");
        assert_eq!(lb(lo, &[4, 3, 0, 0], &[H; 4]).pick(), Some(2));
    }

    #[test]
    fn draining_and_down_backends_are_never_picked() {
        // Backend 1 has the fewest in flight but is draining; 2 is down.
        let health = [Health::Healthy, Health::Draining, Health::Down];
        let mut lo = lb(LbPolicy::LeastOutstanding, &[9, 0, 0], &health);
        assert_eq!(lo.pick(), Some(0));
        // Round-robin likewise skips both and keeps rotating over the
        // healthy survivors.
        let health = [
            Health::Draining,
            Health::Healthy,
            Health::Down,
            Health::Healthy,
        ];
        let mut rr = lb(LbPolicy::RoundRobin, &[0; 4], &health);
        let picks: Vec<usize> = (0..4).map(|_| rr.pick().unwrap()).collect();
        assert_eq!(picks, vec![1, 3, 1, 3]);
    }

    #[test]
    fn no_routable_backend_yields_none() {
        let down = [Health::Down, Health::Draining];
        assert_eq!(lb(LbPolicy::LeastOutstanding, &[0, 0], &down).pick(), None);
        assert_eq!(lb(LbPolicy::RoundRobin, &[0], &[Health::Down]).pick(), None);
    }
}
