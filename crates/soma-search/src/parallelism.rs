//! The [`Parallelism`] knob: how a portfolio run or a lab fan-out
//! spreads across threads.
//!
//! Every parallel site in the workspace takes an explicit `Parallelism`
//! instead of consulting ad-hoc globals —
//! [`Scheduler::parallelism`](crate::Scheduler::parallelism), the
//! `threads` directive of an experiment spec, and the `--threads` flag
//! of the `lab` binary all carry this type.
//!
//! Determinism: outcomes and ledger bytes are **bit-identical across
//! all variants**. Work is merged in submission order (never completion
//! order) and every seed owns its RNG stream, so thread count affects
//! wall-clock only. Thread count is deliberately *not* an input to
//! `cell_hash` — cached results stay valid when the machine changes.

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use serde::{Deserialize, Serialize};

/// Thread-count policy for a parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Parallelism {
    /// One thread per item, up to
    /// [`std::thread::available_parallelism`] threads (the caller
    /// counts as one). The default.
    #[default]
    Auto,
    /// At most `n` threads, the caller counts as one, started for the
    /// call and joined before it returns. `Fixed(1)` runs inline like
    /// [`Sequential`](Self::Sequential).
    Fixed(usize),
    /// Run inline on the calling thread — no worker threads.
    Sequential,
}

impl Parallelism {
    /// The policy an *inner* parallel region (e.g. the per-cell
    /// portfolio inside a lab fan-out) should inherit from this outer
    /// one. `Sequential` stays sequential — `--threads 1` means no
    /// threads anywhere. `Fixed(n)` maps to `Auto`: each inner region
    /// starts its own threads (up to one per seed), so a cell's
    /// portfolio still runs its seeds side by side inside a fan-out.
    pub fn nested(self) -> Parallelism {
        match self {
            Parallelism::Sequential => Parallelism::Sequential,
            Parallelism::Auto | Parallelism::Fixed(_) => Parallelism::Auto,
        }
    }

    /// How many threads (caller included) a region over `items` items
    /// runs on.
    fn threads_for(self, items: usize) -> usize {
        let cap = match self {
            Parallelism::Sequential => 1,
            Parallelism::Fixed(n) => n,
            Parallelism::Auto => thread::available_parallelism().map_or(1, |n| n.get()),
        };
        cap.min(items).max(1)
    }

    /// Maps `f` over `items` under this policy and collects results
    /// **in input order**, so the output is identical across all
    /// variants — only wall-clock differs.
    ///
    /// Threads claim items in input order through one shared index, so
    /// items start in order and finish in any order. A panic in `f`
    /// stops further items from being claimed and re-raises in the
    /// caller with its original payload once every thread has stopped.
    pub fn map_collect<T, R, F>(self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Send + Sync,
    {
        let threads = self.threads_for(items.len());
        if threads == 1 {
            return items.into_iter().map(f).collect();
        }
        let len = items.len();
        let inputs: Vec<Mutex<Option<T>>> =
            items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let outputs: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let work = || {
            catch_unwind(AssertUnwindSafe(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    return;
                }
                let item = inputs[i].lock().expect("input slot").take().expect("claimed once");
                let out = f(item);
                *outputs[i].lock().expect("output slot") = Some(out);
            }))
            .inspect_err(|_| next.store(len, Ordering::Relaxed))
        };
        let panic = thread::scope(|s| {
            let helpers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
            let mine = work();
            helpers
                .into_iter()
                .map(|h| h.join().expect("worker panics are caught inside it"))
                .fold(mine.err(), |first, r| first.or(r.err()))
        });
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        outputs
            .into_iter()
            .map(|slot| slot.into_inner().expect("output slot").expect("every item ran"))
            .collect()
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Auto => f.write_str("auto"),
            Parallelism::Sequential => f.write_str("seq"),
            Parallelism::Fixed(n) => write!(f, "{n}"),
        }
    }
}

impl FromStr for Parallelism {
    type Err = String;

    /// Parses `auto`, `seq`/`sequential`, or a thread count. `1` means
    /// [`Sequential`](Parallelism::Sequential) (no threads at all), any
    /// larger count a [`Fixed`](Parallelism::Fixed) cap of that many threads.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "auto" => Ok(Parallelism::Auto),
            "seq" | "sequential" => Ok(Parallelism::Sequential),
            other => match other.parse::<usize>() {
                Ok(0) | Err(_) => Err(format!(
                    "invalid parallelism `{other}`: expected `auto`, `seq`, or a thread count >= 1"
                )),
                Ok(1) => Ok(Parallelism::Sequential),
                Ok(n) => Ok(Parallelism::Fixed(n)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn parses_the_three_forms() {
        assert_eq!("auto".parse::<Parallelism>().unwrap(), Parallelism::Auto);
        assert_eq!("seq".parse::<Parallelism>().unwrap(), Parallelism::Sequential);
        assert_eq!("sequential".parse::<Parallelism>().unwrap(), Parallelism::Sequential);
        assert_eq!("1".parse::<Parallelism>().unwrap(), Parallelism::Sequential);
        assert_eq!("4".parse::<Parallelism>().unwrap(), Parallelism::Fixed(4));
        assert_eq!(" 8 ".parse::<Parallelism>().unwrap(), Parallelism::Fixed(8));
    }

    #[test]
    fn rejects_zero_and_junk() {
        assert!("0".parse::<Parallelism>().is_err());
        assert!("".parse::<Parallelism>().is_err());
        assert!("-2".parse::<Parallelism>().is_err());
        assert!("fast".parse::<Parallelism>().is_err());
        assert!("4.5".parse::<Parallelism>().is_err());
    }

    #[test]
    fn hostile_inputs_pin_their_exact_error_message() {
        // The message is part of the CLI contract (`--threads` and the
        // spec's `threads` directive surface it verbatim) — pin it exactly.
        let msg = |input: &str| {
            format!(
                "invalid parallelism `{}`: expected `auto`, `seq`, or a thread count >= 1",
                input.trim()
            )
        };
        for input in ["0", "-1", "fast", "0x4", "1e2", "18446744073709551616", ""] {
            assert_eq!(input.parse::<Parallelism>().unwrap_err(), msg(input), "input {input:?}");
        }
        // Whitespace is trimmed both for parsing and in the message.
        assert_eq!(" -1 ".parse::<Parallelism>().unwrap_err(), msg("-1"));
        assert_eq!("  4 ".parse::<Parallelism>().unwrap(), Parallelism::Fixed(4));
        assert_eq!("auto ".parse::<Parallelism>().unwrap(), Parallelism::Auto);
        // `usize::from_str` accepts an explicit sign, so `+4` is a cap
        // of four — pinned here so a change to the parser shows up.
        assert_eq!("+4".parse::<Parallelism>().unwrap(), Parallelism::Fixed(4));
        // A count beyond usize::MAX is junk, not a saturated cap.
        let huge = "18446744073709551616".parse::<Parallelism>();
        assert!(huge.is_err(), "u64::MAX + 1 must not parse");
    }

    #[test]
    fn display_round_trips() {
        for p in [Parallelism::Auto, Parallelism::Sequential, Parallelism::Fixed(6)] {
            assert_eq!(p.to_string().parse::<Parallelism>().unwrap(), p);
        }
    }

    #[test]
    fn nested_policy_keeps_sequential_threadless() {
        assert_eq!(Parallelism::Sequential.nested(), Parallelism::Sequential);
        assert_eq!(Parallelism::Auto.nested(), Parallelism::Auto);
        assert_eq!(Parallelism::Fixed(4).nested(), Parallelism::Auto);
    }

    #[test]
    fn map_collect_is_identical_across_variants() {
        let input: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = input.iter().map(|x| x * 3 + 1).collect();
        for p in [Parallelism::Sequential, Parallelism::Auto, Parallelism::Fixed(4)] {
            let got = p.map_collect(input.clone(), |x| x * 3 + 1);
            assert_eq!(got, expect, "variant {p} diverged");
        }
    }

    struct Boom;

    #[test]
    fn a_panic_on_a_spawned_thread_re_raises_with_its_original_payload() {
        let caller = thread::current().id();
        for p in [Parallelism::Fixed(4), Parallelism::Auto] {
            if p.threads_for(16) == 1 {
                continue; // `Auto` on a one-core host spawns nothing.
            }
            let spawned_ran = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                p.map_collect((0..16).collect(), |i: usize| {
                    if thread::current().id() != caller {
                        spawned_ran.fetch_add(1, Ordering::SeqCst);
                        std::panic::panic_any(Boom);
                    }
                    // Keep the caller busy until a spawned thread has
                    // claimed an item, so the panic cannot be skipped.
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while spawned_ran.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                        thread::sleep(Duration::from_millis(1));
                    }
                    i
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            assert!(payload.downcast_ref::<Boom>().is_some(), "{p}: payload replaced");
        }
    }

    #[test]
    fn fixed_never_has_more_than_n_items_in_flight() {
        let n = 3;
        let (in_flight, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        Parallelism::Fixed(n).map_collect((0..12).collect(), |i: usize| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            // The first `n` items wait for each other (bounded), so a
            // region of `n` threads is seen at full width.
            let deadline = Instant::now() + Duration::from_secs(5);
            while i < n && peak.load(Ordering::SeqCst) < n && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
            thread::sleep(Duration::from_millis(2));
            in_flight.fetch_sub(1, Ordering::SeqCst);
        });
        assert_eq!(peak.load(Ordering::SeqCst), n, "Fixed({n}) must run exactly {n} wide");
    }

    #[test]
    fn sequential_and_single_item_calls_run_on_the_caller() {
        let caller = thread::current().id();
        let on_caller = |p: Parallelism, items: usize| {
            p.map_collect(vec![(); items], |()| thread::current().id())
                .into_iter()
                .all(|id| id == caller)
        };
        assert!(on_caller(Parallelism::Sequential, 8));
        assert!(on_caller(Parallelism::Fixed(1), 8));
        for p in [Parallelism::Sequential, Parallelism::Fixed(4), Parallelism::Auto] {
            assert!(on_caller(p, 1), "{p}: one item must run inline");
            assert!(p.map_collect(Vec::<u8>::new(), |x| x).is_empty());
        }
    }
}
