//! Streaming frequency estimators behind the baselines' Row Hammer
//! trackers.
//!
//! Architectural Row Hammer mitigations estimate per-row activation counts
//! from the stream of `ACT` commands using *streaming algorithms*
//! (Mithril, HPCA 2022, Section II-C4 and III-C). This crate holds the two
//! whose estimates only bound the true count from above:
//!
//! * [`CountingBloomFilter`] — the one-sided, Count-Min-style
//!   over-approximation used by **BlockHammer**.
//! * [`CounterTree`] — the grouped-counter approach of **CBT**.
//!
//! The *Counter-based Summary* (CbS, Space-Saving) that **Mithril** and
//! **Graphene** build on is `mithril::MithrilTable`, which brackets the
//! true count from both sides (inequalities (1) and (2) of the paper).
//! **TWiCe**'s Lossy Counting table lives with its scheme in
//! `mithril-baselines`.
//!
//! Both trackers observe `u64` items (row addresses) through `record` and
//! answer point queries through `estimate`, which never under-counts
//! (inequality (1)): `estimate(x) >= actual(x)`, where `actual` is the
//! number of `record(x)` calls since the last `clear`.
//!
//! # Example
//!
//! ```
//! use mithril_trackers::{CounterTree, CountingBloomFilter};
//!
//! let mut cbf = CountingBloomFilter::new(6, 4, 1);
//! let mut tree = CounterTree::new(1024, 15, 8);
//! for _ in 0..10 {
//!     cbf.record(0xA0);
//!     tree.record(0xA0);
//! }
//! cbf.record(0xB0);
//! tree.record(0xB0);
//! // Both estimates are upper bounds on the true counts:
//! assert!(cbf.estimate(0xA0) >= 10 && tree.estimate(0xA0) >= 10);
//! assert!(cbf.estimate(0xB0) >= 1 && tree.estimate(0xB0) >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bloom;
mod tree;

pub use bloom::CountingBloomFilter;
pub use tree::{CounterTree, TreeStats};
