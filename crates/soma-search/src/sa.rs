//! Generic simulated annealing with the paper's cooling schedule
//! (Sec. V-C).

use rand::Rng;

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaSchedule {
    /// Initial temperature `T0`.
    pub t0: f64,
    /// Cooling rate `alpha`.
    pub alpha: f64,
    /// Total iteration count `N`.
    pub iters: u64,
    /// Extra iterations after cool-down that accept only improvements
    /// (the paper's optional greedy termination phase). The paper starts
    /// this phase at a wall-clock termination time; here it starts after
    /// `iters` proposals, so an outcome is a pure function of its inputs.
    pub greedy_tail: u64,
}

impl SaSchedule {
    /// Temperature at iteration `n` of `N`:
    /// `T_n = T0 * (1 - n/N) / (1 + alpha * n/N)`.
    pub fn temperature(&self, n: u64) -> f64 {
        if self.iters == 0 {
            return 0.0;
        }
        let x = n as f64 / self.iters as f64;
        (self.t0 * (1.0 - x) / (1.0 + self.alpha * x)).max(0.0)
    }
}

/// Outcome of an annealing run.
#[derive(Debug, Clone)]
#[must_use]
pub struct SaResult<S> {
    /// Best state observed.
    pub best: S,
    /// Cost of `best`.
    pub best_cost: f64,
    /// Number of proposals evaluated (valid neighbours).
    pub evaluated: u64,
    /// Number of accepted moves.
    pub accepted: u64,
}

/// Runs simulated annealing from `init`.
///
/// `neighbor` proposes a mutated state and its cost; returning `None`
/// means the mutation was invalid (rejected without cost). Acceptance of a
/// worse state with cost `c'` over `c` uses `p = exp((c - c') / (c T_n))`
/// — the paper's relative-degradation criterion.
///
/// This is a thin cloning adapter over [`anneal_inplace`], so the two
/// entry points share one control loop by construction (same cooling,
/// greedy-tail and acceptance logic — and therefore the
/// same RNG stream for equivalent proposal draws).
pub fn anneal<S: Clone, R: Rng>(
    schedule: &SaSchedule,
    rng: &mut R,
    init: S,
    init_cost: f64,
    neighbor: impl FnMut(&S, &mut R) -> Option<(S, f64)>,
) -> SaResult<S> {
    struct Cloning<S, F> {
        cur: S,
        cand: Option<S>,
        neighbor: F,
    }
    impl<S: Clone, R: Rng, F: FnMut(&S, &mut R) -> Option<(S, f64)>> AnnealState<R> for Cloning<S, F> {
        type Snapshot = S;
        fn propose(&mut self, rng: &mut R) -> Option<f64> {
            let (cand, cost) = (self.neighbor)(&self.cur, rng)?;
            self.cand = Some(cand);
            Some(cost)
        }
        fn resolve(&mut self, accept: bool) {
            let cand = self.cand.take().expect("resolve follows a successful propose");
            if accept {
                self.cur = cand;
            }
        }
        fn snapshot(&mut self) -> S {
            self.cur.clone()
        }
    }
    let mut state = Cloning { cur: init, cand: None, neighbor };
    anneal_inplace(schedule, rng, init_cost, &mut state)
}

/// An annealing problem mutated *in place*: proposals are applied to the
/// live state with apply/undo tokens instead of cloning it, so the inner
/// loop allocates nothing.
///
/// The contract mirrors the closure of [`anneal`]: a [`propose`]
/// (apply a mutation, evaluate, return its cost) that returns `None` for
/// invalid proposals **after fully rolling them back**, a [`resolve`]
/// that commits or rolls back the pending proposal, and a [`snapshot`]
/// that clones the current state (called only when a new best appears).
///
/// [`propose`]: AnnealState::propose
/// [`resolve`]: AnnealState::resolve
/// [`snapshot`]: AnnealState::snapshot
pub trait AnnealState<R: Rng> {
    /// Owned copy of the state (the `best` the annealer returns).
    type Snapshot;

    /// Applies one random mutation to the live state and evaluates it.
    /// `None` means the proposal was invalid (identity mutation, failed
    /// evaluation); the implementation must have undone any partial
    /// application before returning.
    fn propose(&mut self, rng: &mut R) -> Option<f64>;

    /// Called exactly once after each `Some` proposal: `accept == true`
    /// keeps the mutation, `false` must roll it back.
    fn resolve(&mut self, accept: bool);

    /// Clones the current state.
    fn snapshot(&mut self) -> Self::Snapshot;
}

/// [`anneal`] over an in-place [`AnnealState`]: identical cooling
/// schedule, acceptance criterion and RNG stream (a state machine built
/// from the same mutation draws follows the exact same trajectory), but
/// the state is mutated with apply/undo instead of cloned per proposal.
pub fn anneal_inplace<R: Rng, P: AnnealState<R>>(
    schedule: &SaSchedule,
    rng: &mut R,
    init_cost: f64,
    state: &mut P,
) -> SaResult<P::Snapshot> {
    let mut cur_cost = init_cost;
    let mut best = state.snapshot();
    let mut best_cost = init_cost;
    let mut evaluated = 0;
    let mut accepted = 0;

    for n in 0..schedule.iters + schedule.greedy_tail {
        let greedy = n >= schedule.iters;
        let Some(cost) = state.propose(rng) else {
            continue;
        };
        evaluated += 1;
        let accept = if cost <= cur_cost {
            true
        } else if greedy {
            false
        } else {
            let t = schedule.temperature(n);
            if t <= 0.0 || cur_cost <= 0.0 {
                false
            } else {
                let p = ((cur_cost - cost) / (cur_cost * t)).exp();
                rng.gen_bool(p.clamp(0.0, 1.0))
            }
        };
        state.resolve(accept);
        if accept {
            cur_cost = cost;
            accepted += 1;
            if cur_cost < best_cost {
                best = state.snapshot();
                best_cost = cur_cost;
            }
        }
    }

    SaResult { best, best_cost, evaluated, accepted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sched(iters: u64) -> SaSchedule {
        SaSchedule { t0: 0.2, alpha: 4.0, iters, greedy_tail: iters / 10 }
    }

    #[test]
    fn temperature_decreases_to_zero() {
        let s = sched(100);
        assert!((s.temperature(0) - 0.2).abs() < 1e-12);
        assert!(s.temperature(50) < s.temperature(10));
        assert_eq!(s.temperature(100), 0.0);
    }

    #[test]
    fn finds_minimum_of_quadratic() {
        // State: integer x; cost (x - 17)^2 + 1.
        let cost = |x: i64| ((x - 17) * (x - 17) + 1) as f64;
        let mut rng = StdRng::seed_from_u64(7);
        let r = anneal(&sched(3000), &mut rng, 100i64, cost(100), |&x, rng| {
            let step: i64 = rng.gen_range(-3..=3);
            let y = x + step;
            Some((y, cost(y)))
        });
        assert_eq!(r.best, 17);
        assert!(r.accepted > 0);
    }

    #[test]
    fn invalid_neighbours_are_skipped() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = anneal(&sched(50), &mut rng, 0i64, 10.0, |_, _| None);
        assert_eq!(r.evaluated, 0);
        assert_eq!(r.best, 0);
        assert_eq!(r.best_cost, 10.0);
    }

    #[test]
    fn greedy_tail_never_worsens() {
        // With only-worse proposals in the tail, best stays put.
        let mut rng = StdRng::seed_from_u64(2);
        let s = SaSchedule { t0: 0.2, alpha: 4.0, iters: 0, greedy_tail: 100 };
        let r = anneal(&s, &mut rng, 5i64, 5.0, |&x, _| Some((x + 1, 1000.0)));
        assert_eq!(r.best, 5);
        assert_eq!(r.accepted, 0);
    }

    #[test]
    fn inplace_annealer_follows_the_exact_cloning_trajectory() {
        // Same seed, same cooling schedule, same proposal distribution:
        // the in-place annealer must reproduce `anneal`'s result bit for
        // bit, because it consumes the identical RNG stream.
        let cost = |x: i64| ((x - 17) * (x - 17) + 1) as f64;
        let s = sched(3000);

        let mut rng = StdRng::seed_from_u64(7);
        let cloned = anneal(&s, &mut rng, 100i64, cost(100), |&x, rng| {
            let step: i64 = rng.gen_range(-3..=3);
            let y = x + step;
            Some((y, cost(y)))
        });

        struct Quad {
            x: i64,
            pending: i64,
        }
        impl AnnealState<StdRng> for Quad {
            type Snapshot = i64;
            fn propose(&mut self, rng: &mut StdRng) -> Option<f64> {
                let step: i64 = rng.gen_range(-3..=3);
                self.x += step;
                self.pending = step;
                Some(((self.x - 17) * (self.x - 17) + 1) as f64)
            }
            fn resolve(&mut self, accept: bool) {
                if !accept {
                    self.x -= self.pending;
                }
            }
            fn snapshot(&mut self) -> i64 {
                self.x
            }
        }
        let mut rng = StdRng::seed_from_u64(7);
        let mut q = Quad { x: 100, pending: 0 };
        let inplace = anneal_inplace(&s, &mut rng, cost(100), &mut q);

        assert_eq!(inplace.best, cloned.best);
        assert_eq!(inplace.best_cost.to_bits(), cloned.best_cost.to_bits());
        assert_eq!(inplace.evaluated, cloned.evaluated);
        assert_eq!(inplace.accepted, cloned.accepted);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cost = |x: i64| (x * x) as f64;
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            anneal(&sched(500), &mut rng, 40i64, cost(40), |&x, rng| {
                let y = x + rng.gen_range::<i64, _>(-2..=2);
                Some((y, cost(y)))
            })
            .best
        };
        assert_eq!(run(3), run(3));
    }
}
