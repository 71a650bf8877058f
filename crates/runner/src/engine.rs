//! The sharded parallel execution engine.
//!
//! Scenario lists are cut into fixed-size **shards** (contiguous index
//! ranges) that are dealt round-robin onto worker-local deques; workers
//! drain their own deque from the front and **steal** from the back of the
//! busiest other deque when idle. Determinism rules:
//!
//! 1. Sharding depends only on the item list and the shard size — never on
//!    the worker count.
//! 2. Every item's RNG seed is derived from `(base_seed, shard index,
//!    offset in shard)` through splitmix64, so the seed an item sees is a
//!    pure function of its position, not of which worker ran it or when.
//! 3. Results land in an index-addressed buffer, so output order equals
//!    input order regardless of completion order.
//!
//! Together these make `run_sharded` produce bit-identical results at any
//! thread count — the regression test in `tests/determinism.rs` pins this.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Shard-pool sizing.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker threads. Clamped to at least 1.
    pub threads: usize,
    /// Items per shard. Clamped to at least 1. Smaller shards balance
    /// load better; larger shards amortize steal overhead.
    pub shard_size: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            threads: default_threads(),
            shard_size: 1,
        }
    }
}

/// The host's available parallelism, capped at 8 (sweep scenarios are
/// memory-bound; more workers than memory channels rarely helps).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

pub use mithril_fasthash::splitmix64;

/// The deterministic RNG seed of the item at `offset` within its shard.
///
/// Delegates to [`mithril_fasthash::splitmix64_seed`] — the same helper
/// trace record/replay seeds through, so a recorded trace's generator seed
/// can be made to match the seed the engine will assign the replay
/// scenario at the same sweep position.
pub fn item_seed(base_seed: u64, shard: usize, offset: usize) -> u64 {
    mithril_fasthash::splitmix64_seed(base_seed, shard as u64, offset as u64)
}

/// The deterministic seed of the item at flat index `index` of a sweep
/// sharded with `shard_size` — [`item_seed`] at the position the sharding
/// assigns. Lets checkpoint/resume re-derive any single item's seed
/// without re-running the pool.
pub fn position_seed(base_seed: u64, shard_size: usize, index: usize) -> u64 {
    let shard_size = shard_size.max(1);
    item_seed(base_seed, index / shard_size, index % shard_size)
}

/// How [`run_sharded_robust`] disposed of one item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemOutcome<R> {
    /// The item completed (possibly after retries of a panicking run).
    Done(R),
    /// Every attempt panicked; the item's result is lost but the sweep
    /// survived. Carries the total attempts and the last panic message.
    Panicked {
        /// Attempts made (`1 + retries`).
        attempts: u32,
        /// Panic payload of the final attempt.
        message: String,
    },
}

impl<R> ItemOutcome<R> {
    /// The completed result, or the final panic message as an error.
    pub fn into_result(self) -> Result<R, String> {
        match self {
            ItemOutcome::Done(r) => Ok(r),
            ItemOutcome::Panicked { attempts, message } => {
                Err(format!("panicked ({attempts} attempts): {message}"))
            }
        }
    }
}

/// Default bounded retry budget of the robust engine: one retry. A
/// deterministic panic fails again immediately, so more buys nothing;
/// one retry absorbs environmental one-offs (e.g. a transient allocation
/// failure) without meaningfully extending a poisoned sweep.
pub const DEFAULT_RETRIES: u32 = 1;

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f(item, seed)` over every item on a work-stealing shard pool and
/// returns the results in input order.
///
/// `f` receives the item and its deterministic seed (see [`item_seed`]).
/// The result is bit-identical for any `cfg.threads`. A panicking item
/// panics the whole call (after the other in-flight items finish); use
/// [`run_sharded_robust`] to isolate failures instead.
pub fn run_sharded<T, R, F>(items: &[T], cfg: PoolConfig, base_seed: u64, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, u64) -> R + Sync,
{
    run_sharded_robust(items, cfg, base_seed, 0, f)
        .into_iter()
        .map(|o| match o {
            ItemOutcome::Done(r) => r,
            ItemOutcome::Panicked { message, .. } => {
                panic!("sweep item panicked: {message}")
            }
        })
        .collect()
}

/// As [`run_sharded`], but each item runs under panic isolation
/// (`catch_unwind`) with a bounded retry budget, so one poisoned item
/// cannot take down the sweep.
///
/// Every retry of an item reuses the item's **original position seed** —
/// the seed is computed once per item from `(base_seed, shard, offset)`
/// and never re-derived from attempt count — so a sweep that needed
/// retries reports byte-identically to one that didn't
/// (`tests/determinism.rs` pins this).
pub fn run_sharded_robust<T, R, F>(
    items: &[T],
    cfg: PoolConfig,
    base_seed: u64,
    retries: u32,
    f: F,
) -> Vec<ItemOutcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T, u64) -> R + Sync,
{
    let threads = cfg.threads.max(1);
    let shard_size = cfg.shard_size.max(1);
    if items.is_empty() {
        return Vec::new();
    }
    let n_shards = items.len().div_ceil(shard_size);

    // Deal shards round-robin onto worker-local deques.
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    for shard in 0..n_shards {
        queues[shard % threads].lock().unwrap().push_back(shard);
    }

    let results: Mutex<Vec<Option<ItemOutcome<R>>>> =
        Mutex::new((0..items.len()).map(|_| None).collect());

    let next_shard = |worker: usize| -> Option<usize> {
        // Own queue first (front: the shards dealt to us, in order)...
        if let Some(s) = queues[worker].lock().unwrap().pop_front() {
            return Some(s);
        }
        // ...then steal from the back of any other queue. Try every
        // victim: racing thieves may drain a queue between observation
        // and pop, and a worker must only retire once *all* queues are
        // empty (shards never re-enter a queue, so empty-everywhere is
        // final).
        (0..queues.len())
            .filter(|&w| w != worker)
            .find_map(|w| queues[w].lock().unwrap().pop_back())
    };

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let f = &f;
            let results = &results;
            let next_shard = &next_shard;
            scope.spawn(move || {
                while let Some(shard) = next_shard(worker) {
                    let lo = shard * shard_size;
                    let hi = (lo + shard_size).min(items.len());
                    // Compute the whole shard locally, then publish once.
                    let shard_results: Vec<(usize, ItemOutcome<R>)> = (lo..hi)
                        .map(|i| {
                            // One seed per position, reused verbatim on
                            // every retry — never reseeded.
                            let seed = item_seed(base_seed, shard, i - lo);
                            let mut attempts = 0u32;
                            let outcome = loop {
                                attempts += 1;
                                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    f(&items[i], seed)
                                })) {
                                    Ok(r) => break ItemOutcome::Done(r),
                                    Err(payload) if attempts > retries => {
                                        break ItemOutcome::Panicked {
                                            attempts,
                                            message: panic_message(&*payload),
                                        };
                                    }
                                    Err(_) => {}
                                }
                            };
                            (i, outcome)
                        })
                        .collect();
                    let mut out = results.lock().unwrap();
                    for (i, r) in shard_results {
                        out[i] = Some(r);
                    }
                }
            });
        }
    });

    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every item processed by some worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = run_sharded(
            &items,
            PoolConfig {
                threads: 4,
                shard_size: 3,
            },
            7,
            |&x, _seed| x * 2,
        );
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_are_thread_count_invariant() {
        let items: Vec<usize> = (0..53).collect();
        let run = |threads| {
            run_sharded(
                &items,
                PoolConfig {
                    threads,
                    shard_size: 4,
                },
                99,
                |_, seed| seed,
            )
        };
        let a = run(1);
        let b = run(3);
        let c = run(8);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn seeds_differ_across_items_and_base_seeds() {
        let items: Vec<usize> = (0..64).collect();
        let seeds = run_sharded(&items, PoolConfig::default(), 1, |_, s| s);
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len(), "item seeds must not collide");
        let other = run_sharded(&items, PoolConfig::default(), 2, |_, s| s);
        assert_ne!(seeds, other, "base seed must matter");
    }

    #[test]
    fn all_items_run_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..257).collect();
        let out = run_sharded(
            &items,
            PoolConfig {
                threads: 8,
                shard_size: 2,
            },
            3,
            |&i, _| {
                counter.fetch_add(1, Ordering::Relaxed);
                i
            },
        );
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn robust_isolates_panicking_items() {
        let items: Vec<u64> = (0..20).collect();
        let out = run_sharded_robust(
            &items,
            PoolConfig {
                threads: 4,
                shard_size: 2,
            },
            5,
            0,
            |&x, _seed| {
                if x % 5 == 3 {
                    panic!("boom {x}");
                }
                x * 10
            },
        );
        for (i, o) in out.iter().enumerate() {
            match o {
                ItemOutcome::Done(r) => {
                    assert_eq!(*r, i as u64 * 10);
                    assert_ne!(i as u64 % 5, 3);
                }
                ItemOutcome::Panicked { attempts, message } => {
                    assert_eq!(i as u64 % 5, 3, "wrong item panicked");
                    assert_eq!(*attempts, 1);
                    assert!(message.contains("boom"), "message: {message}");
                }
            }
        }
    }

    #[test]
    fn retry_reuses_the_original_position_seed() {
        use std::collections::HashMap;
        let items: Vec<usize> = (0..30).collect();
        // Record every seed each item is attempted with; fail the first
        // attempt of every third item.
        let seen: Mutex<HashMap<usize, Vec<u64>>> = Mutex::new(HashMap::new());
        let out = run_sharded_robust(
            &items,
            PoolConfig {
                threads: 3,
                shard_size: 4,
            },
            42,
            2,
            |&i, seed| {
                let mut m = seen.lock().unwrap();
                let attempts = m.entry(i).or_default();
                attempts.push(seed);
                let fail = i % 3 == 0 && attempts.len() == 1;
                drop(m);
                if fail {
                    panic!("transient failure");
                }
                seed
            },
        );
        let seen = seen.into_inner().unwrap();
        for (i, seeds) in &seen {
            assert!(
                seeds.windows(2).all(|w| w[0] == w[1]),
                "item {i} was reseeded across retries: {seeds:?}"
            );
            assert_eq!(seeds.len(), if i % 3 == 0 { 2 } else { 1 });
        }
        // The retried sweep reports exactly the seeds of a clean sweep.
        let clean = run_sharded(
            &items,
            PoolConfig {
                threads: 1,
                shard_size: 4,
            },
            42,
            |_, seed| seed,
        );
        let robust: Vec<u64> = out.into_iter().map(|o| o.into_result().unwrap()).collect();
        assert_eq!(robust, clean);
    }

    #[test]
    fn position_seed_matches_engine_assignment() {
        let items: Vec<usize> = (0..23).collect();
        let seeds = run_sharded(
            &items,
            PoolConfig {
                threads: 4,
                shard_size: 5,
            },
            77,
            |_, s| s,
        );
        for (i, &s) in seeds.iter().enumerate() {
            assert_eq!(s, position_seed(77, 5, i));
        }
    }

    #[test]
    fn exhausted_retries_report_attempt_count() {
        let items = vec![1u32];
        let out = run_sharded_robust(&items, PoolConfig::default(), 1, 3, |_, _| -> u32 {
            panic!("always")
        });
        assert_eq!(
            out,
            vec![ItemOutcome::Panicked {
                attempts: 4,
                message: "always".into()
            }]
        );
        assert!(out[0].clone().into_result().is_err());
    }

    #[test]
    fn empty_and_single_item_edge_cases() {
        let none: Vec<u32> = vec![];
        assert!(run_sharded(&none, PoolConfig::default(), 1, |&x, _| x).is_empty());
        let one = vec![42u32];
        assert_eq!(
            run_sharded(&one, PoolConfig::default(), 1, |&x, _| x),
            vec![42]
        );
    }
}
