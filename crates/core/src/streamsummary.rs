//! The Stream-Summary bucket list (Metwally et al.) behind the Mithril
//! table (`mithril::MithrilTable`), the repository's Counter-based
//! Summary.
//!
//! A [`BucketList`] groups externally-owned *slots* (the caller keeps the
//! per-slot addresses and counter values) into **buckets**, one per
//! distinct counter value, chained in a doubly-linked list ordered by
//! value. Each bucket holds the doubly-linked sub-list of its slots,
//! oldest joiner first. All maintenance — moving a slot to the adjacent
//! bucket on increment, dropping a slot to the minimum, evicting the
//! oldest minimum slot — is a constant number of pointer updates, giving
//! O(1) amortized updates and O(1) min/max reads where a scan-based
//! implementation pays O(capacity). See `ARCHITECTURE.md` at the repo
//! root for the full amortized-cost and wrap-safety argument.
//!
//! The list never *compares* values — it only tests equality against a
//! caller-supplied successor or floor value — so it works unchanged for
//! wrapping hardware counters (`u16` with diff-from-min ordering) and for
//! unbounded `u64` counts: order is maintained structurally, because
//! slots only ever move by exactly one increment or drop to the minimum.

/// Sentinel for "no slot / no bucket" in the intrusive lists.
pub(crate) const NIL: u32 = u32::MAX;

/// One value bucket: position in the bucket list plus its slot sub-list.
#[derive(Debug, Clone, Copy)]
struct Bucket<V> {
    value: V,
    /// Neighbouring buckets, ordered by increasing (diff-from-min) value.
    prev: u32,
    next: u32,
    /// Slot sub-list, ordered by time of reaching `value` (oldest first).
    head: u32,
    tail: u32,
}

/// One slot's links: its neighbours within the owning bucket's sub-list
/// and the owning bucket, kept together so a slot move touches one record.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
    bucket: u32,
}

impl Link {
    const UNPLACED: Self = Self {
        prev: NIL,
        next: NIL,
        bucket: NIL,
    };
}

/// The bucket list over `V`-valued slots.
///
/// `V` only needs `Copy + Eq`; the caller supplies every new value
/// explicitly (successor on increment, floor on reset), so wrapping
/// arithmetic stays the caller's concern.
#[derive(Debug, Clone)]
pub(crate) struct BucketList<V> {
    /// Per-slot links within the owning bucket's sub-list.
    links: Vec<Link>,
    /// Bucket arena; `free` recycles unlinked nodes, so at most
    /// `slots + 1` arena nodes ever exist.
    buckets: Vec<Bucket<V>>,
    free: Vec<u32>,
    /// Bucket holding the minimum value (`MinPtr` bucket).
    head_bucket: u32,
    /// Bucket holding the maximum value (`MaxPtr` bucket).
    tail_bucket: u32,
}

impl<V: Copy + Eq> BucketList<V> {
    /// Creates an empty list with room for `capacity` slots.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            links: Vec::with_capacity(capacity),
            buckets: Vec::with_capacity(capacity + 1),
            free: Vec::new(),
            head_bucket: NIL,
            tail_bucket: NIL,
        }
    }

    /// Registers a new slot (the caller's next slot index); it belongs to
    /// no bucket until [`place_fresh`] or an explicit move.
    ///
    /// [`place_fresh`]: BucketList::place_fresh
    pub(crate) fn push_slot(&mut self) {
        self.links.push(Link::UNPLACED);
    }

    /// The minimum value over all occupied slots, if any.
    pub(crate) fn min_value(&self) -> Option<V> {
        (self.head_bucket != NIL).then(|| self.buckets[self.head_bucket as usize].value)
    }

    /// The maximum value over all occupied slots, if any.
    pub(crate) fn max_value(&self) -> Option<V> {
        (self.tail_bucket != NIL).then(|| self.buckets[self.tail_bucket as usize].value)
    }

    /// The slot that has held the minimum value longest (eviction target).
    pub(crate) fn oldest_min_slot(&self) -> Option<u32> {
        (self.head_bucket != NIL).then(|| self.buckets[self.head_bucket as usize].head)
    }

    /// The slot that reached the maximum value first (greedy selection).
    pub(crate) fn oldest_max_slot(&self) -> Option<u32> {
        (self.tail_bucket != NIL).then(|| self.buckets[self.tail_bucket as usize].head)
    }

    /// Live buckets (diagnostics; at most the number of occupied slots).
    pub(crate) fn bucket_count(&self) -> usize {
        self.buckets.len() - self.free.len()
    }

    /// Forgets all buckets and slots (allocations are kept).
    pub(crate) fn clear(&mut self) {
        self.links.clear();
        self.buckets.clear();
        self.free.clear();
        self.head_bucket = NIL;
        self.tail_bucket = NIL;
    }

    // ------------------------------------------------------------ plumbing

    fn alloc_bucket(&mut self, value: V) -> u32 {
        let node = Bucket {
            value,
            prev: NIL,
            next: NIL,
            head: NIL,
            tail: NIL,
        };
        match self.free.pop() {
            Some(b) => {
                self.buckets[b as usize] = node;
                b
            }
            None => {
                self.buckets.push(node);
                (self.buckets.len() - 1) as u32
            }
        }
    }

    fn link_bucket_after(&mut self, b: u32, after: u32) {
        let next = self.buckets[after as usize].next;
        self.buckets[b as usize].prev = after;
        self.buckets[b as usize].next = next;
        self.buckets[after as usize].next = b;
        match next {
            NIL => self.tail_bucket = b,
            n => self.buckets[n as usize].prev = b,
        }
    }

    fn link_bucket_front(&mut self, b: u32) {
        let head = self.head_bucket;
        self.buckets[b as usize].prev = NIL;
        self.buckets[b as usize].next = head;
        self.head_bucket = b;
        match head {
            NIL => self.tail_bucket = b,
            h => self.buckets[h as usize].prev = b,
        }
    }

    fn unlink_bucket(&mut self, b: u32) {
        debug_assert_eq!(
            self.buckets[b as usize].head, NIL,
            "only empty buckets unlink"
        );
        let Bucket { prev, next, .. } = self.buckets[b as usize];
        match prev {
            NIL => self.head_bucket = next,
            p => self.buckets[p as usize].next = next,
        }
        match next {
            NIL => self.tail_bucket = prev,
            n => self.buckets[n as usize].prev = prev,
        }
        self.free.push(b);
    }

    /// Appends `slot` to the sub-list of bucket `b` (newest joiner last —
    /// selection and eviction take from the front).
    fn push_entry_tail(&mut self, b: u32, slot: u32) {
        let tail = self.buckets[b as usize].tail;
        self.links[slot as usize] = Link {
            prev: tail,
            next: NIL,
            bucket: b,
        };
        match tail {
            NIL => self.buckets[b as usize].head = slot,
            t => self.links[t as usize].next = slot,
        }
        self.buckets[b as usize].tail = slot;
    }

    /// Removes `slot` from its bucket's sub-list (bucket stays linked even
    /// if it becomes empty; callers unlink it afterwards).
    fn detach_entry(&mut self, slot: u32) {
        let Link { prev, next, bucket } = self.links[slot as usize];
        let b = bucket as usize;
        match prev {
            NIL => self.buckets[b].head = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => self.buckets[b].tail = prev,
            n => self.links[n as usize].prev = prev,
        }
    }

    // ----------------------------------------------------------- movement

    /// Moves `slot` from its bucket to the bucket for `successor` (its
    /// value plus one, in the caller's arithmetic), creating that bucket
    /// next to the current one if absent — or, when `slot` is alone in
    /// its bucket, relabelling that bucket to `successor`. O(1).
    pub(crate) fn advance(&mut self, slot: u32, successor: V) {
        let b = self.links[slot as usize].bucket;
        let bucket = self.buckets[b as usize];
        let nb = bucket.next;
        let joins_next = nb != NIL && self.buckets[nb as usize].value == successor;
        if !joins_next && bucket.head == bucket.tail {
            // The slot is alone in its bucket and no bucket holds the
            // successor yet: relabel the bucket in place. It still sits
            // between its neighbours in order, so no link changes.
            self.buckets[b as usize].value = successor;
            return;
        }
        let target = if joins_next {
            nb
        } else {
            let t = self.alloc_bucket(successor);
            self.link_bucket_after(t, b);
            t
        };
        self.detach_entry(slot);
        self.push_entry_tail(target, slot);
        if self.buckets[b as usize].head == NIL {
            self.unlink_bucket(b);
        }
    }

    /// Moves `slot` to the bucket holding `floor` (the current minimum, or
    /// below every occupied value), creating it at the front if absent.
    /// This is the decrement-to-min of the greedy RFM step. O(1).
    pub(crate) fn drop_to_floor(&mut self, slot: u32, floor: V) {
        let b = self.links[slot as usize].bucket;
        self.detach_entry(slot);
        let head = self.head_bucket;
        if head != NIL && self.buckets[head as usize].value == floor {
            self.push_entry_tail(head, slot);
        } else {
            let nb = self.alloc_bucket(floor);
            self.link_bucket_front(nb);
            self.push_entry_tail(nb, slot);
        }
        if self.buckets[b as usize].head == NIL {
            self.unlink_bucket(b);
        }
    }

    // ------------------------------------------------------ fault recovery

    /// Verifies every structural invariant of the list against the
    /// caller's slot state: `value_of(slot)` is the caller's stored
    /// counter for `slot`, and `key_of(value)` is its rank in the
    /// caller's order (for wrapping counters, the diff from the current
    /// minimum; for unbounded counts, the count itself).
    ///
    /// Checked invariants:
    ///
    /// 1. the bucket chain is doubly linked, starts at `head_bucket`,
    ///    ends at `tail_bucket`, and bucket keys strictly increase;
    /// 2. every bucket's slot sub-list is doubly linked, non-empty and
    ///    consistent with the per-slot links;
    /// 3. every registered slot appears in exactly one sub-list;
    /// 4. every slot's bucket value equals `value_of(slot)` — the check
    ///    that catches a soft error flipping a stored counter bit.
    ///
    /// Returns the first violation found, as a human-readable description.
    /// O(slots).
    pub(crate) fn self_check(
        &self,
        value_of: impl Fn(u32) -> V,
        key_of: impl Fn(V) -> u64,
    ) -> Result<(), String> {
        let slots = self.links.len();
        let mut seen = vec![false; slots];
        let mut visited_buckets = 0usize;
        let mut prev_bucket = NIL;
        let mut prev_key: Option<u64> = None;
        let mut b = self.head_bucket;
        while b != NIL {
            visited_buckets += 1;
            if visited_buckets > self.bucket_count() {
                return Err("bucket chain longer than live bucket count (cycle?)".into());
            }
            let bucket = &self.buckets[b as usize];
            if bucket.prev != prev_bucket {
                return Err(format!("bucket {b}: prev link broken"));
            }
            let key = key_of(bucket.value);
            if let Some(pk) = prev_key {
                if key <= pk {
                    return Err(format!("bucket {b}: key {key} not above predecessor {pk}"));
                }
            }
            prev_key = Some(key);
            // Walk the slot sub-list.
            let mut prev_slot = NIL;
            let mut s = bucket.head;
            if s == NIL {
                return Err(format!("bucket {b}: empty but linked"));
            }
            while s != NIL {
                let si = s as usize;
                if si >= slots {
                    return Err(format!("bucket {b}: slot {s} out of range"));
                }
                if seen[si] {
                    return Err(format!("slot {s}: linked twice"));
                }
                seen[si] = true;
                let link = self.links[si];
                if link.bucket != b {
                    return Err(format!("slot {s}: owning bucket disagrees with chain"));
                }
                if link.prev != prev_slot {
                    return Err(format!("slot {s}: prev link broken"));
                }
                if value_of(s) != bucket.value {
                    return Err(format!("slot {s}: stored value disagrees with its bucket"));
                }
                prev_slot = s;
                s = link.next;
            }
            if bucket.tail != prev_slot {
                return Err(format!("bucket {b}: tail link broken"));
            }
            prev_bucket = b;
            b = bucket.next;
        }
        if self.tail_bucket != prev_bucket {
            return Err("tail_bucket does not end the chain".into());
        }
        if visited_buckets != self.bucket_count() {
            return Err(format!(
                "{} buckets linked, {} live in arena",
                visited_buckets,
                self.bucket_count()
            ));
        }
        if let Some(s) = seen.iter().position(|&v| !v) {
            return Err(format!("slot {s}: registered but in no bucket"));
        }
        Ok(())
    }

    /// Rebuilds the whole bucket structure from the caller's slot state
    /// (the repair to [`self_check`]'s detect): every registered slot is
    /// re-inserted in ascending `(key_of(value_of(slot)), slot)` order.
    ///
    /// True arrival ages are unrecoverable after corruption, so ties
    /// canonicalize to ascending slot index — callers mirroring a naive
    /// reference must canonicalize its ages the same way. O(slots·log).
    ///
    /// [`self_check`]: BucketList::self_check
    pub(crate) fn rebuild(&mut self, value_of: impl Fn(u32) -> V, key_of: impl Fn(V) -> u64) {
        let slots = self.links.len();
        let mut order: Vec<u32> = (0..slots as u32).collect();
        order.sort_unstable_by_key(|&s| (key_of(value_of(s)), s));
        self.buckets.clear();
        self.free.clear();
        self.head_bucket = NIL;
        self.tail_bucket = NIL;
        self.links.fill(Link::UNPLACED);
        for slot in order {
            let v = value_of(slot);
            let tail = self.tail_bucket;
            let target = if tail != NIL && self.buckets[tail as usize].value == v {
                tail
            } else {
                let b = self.alloc_bucket(v);
                match tail {
                    NIL => self.link_bucket_front(b),
                    t => self.link_bucket_after(b, t),
                }
                b
            };
            self.push_entry_tail(target, slot);
        }
    }

    /// Places a fresh slot holding value `one` into a list whose only
    /// possible smaller value is `zero` (slots reset by a not-full RFM).
    /// Callers use this while their table is below capacity, where those
    /// are the only two values at the bottom of the order — so placement
    /// is O(1) despite being an ordered insert.
    pub(crate) fn place_fresh(&mut self, slot: u32, zero: V, one: V) {
        let head = self.head_bucket;
        if head == NIL {
            let b = self.alloc_bucket(one);
            self.link_bucket_front(b);
            self.push_entry_tail(b, slot);
            return;
        }
        let hv = self.buckets[head as usize].value;
        let target = if hv == one {
            head
        } else if hv == zero {
            let nb = self.buckets[head as usize].next;
            if nb != NIL && self.buckets[nb as usize].value == one {
                nb
            } else {
                let t = self.alloc_bucket(one);
                self.link_bucket_after(t, head);
                t
            }
        } else {
            // Every occupied value exceeds `one`: the fresh slot is the
            // new minimum.
            let t = self.alloc_bucket(one);
            self.link_bucket_front(t);
            t
        };
        self.push_entry_tail(target, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny harness pairing the list with its external counter array.
    struct Harness {
        list: BucketList<u64>,
        counts: Vec<u64>,
    }

    impl Harness {
        fn new() -> Self {
            Self {
                list: BucketList::with_capacity(8),
                counts: Vec::new(),
            }
        }

        fn insert(&mut self) -> u32 {
            let slot = self.counts.len() as u32;
            self.counts.push(1);
            self.list.push_slot();
            self.list.place_fresh(slot, 0, 1);
            slot
        }

        fn bump(&mut self, slot: u32) {
            self.counts[slot as usize] += 1;
            self.list.advance(slot, self.counts[slot as usize]);
        }
    }

    #[test]
    fn min_max_track_structurally() {
        let mut h = Harness::new();
        let a = h.insert();
        let b = h.insert();
        let _c = h.insert();
        assert_eq!(h.list.min_value(), Some(1));
        assert_eq!(h.list.max_value(), Some(1));
        h.bump(b);
        h.bump(b);
        h.bump(a);
        assert_eq!(h.list.min_value(), Some(1));
        assert_eq!(h.list.max_value(), Some(3));
        assert_eq!(h.list.oldest_max_slot(), Some(b));
    }

    #[test]
    fn oldest_min_is_fifo() {
        let mut h = Harness::new();
        let a = h.insert();
        let b = h.insert();
        assert_eq!(h.list.oldest_min_slot(), Some(a));
        h.bump(a); // a leaves the min bucket
        assert_eq!(h.list.oldest_min_slot(), Some(b));
    }

    #[test]
    fn drop_to_floor_joins_min_bucket_at_tail() {
        let mut h = Harness::new();
        let a = h.insert();
        let b = h.insert();
        h.bump(a);
        h.bump(a);
        // a: 3, b: 1. Drop a to the floor: it joins b's bucket, younger.
        h.counts[a as usize] = 1;
        h.list.drop_to_floor(a, 1);
        assert_eq!(h.list.max_value(), Some(1));
        assert_eq!(h.list.oldest_min_slot(), Some(b));
    }

    #[test]
    fn bucket_arena_is_bounded_and_recycled() {
        let mut h = Harness::new();
        let a = h.insert();
        for _ in 0..1000 {
            h.bump(a);
        }
        // One occupied slot → one live bucket, relabelled in place on
        // every bump, so the arena never grows past its first node.
        assert_eq!(h.list.bucket_count(), 1);
        assert_eq!(h.list.buckets.len(), 1, "arena grew");
    }

    #[test]
    fn place_fresh_orders_around_zero_bucket() {
        let mut h = Harness::new();
        let a = h.insert();
        h.bump(a); // a: 2
                   // Simulate a not-full RFM reset of `a` to zero.
        h.counts[a as usize] = 0;
        h.list.drop_to_floor(a, 0);
        assert_eq!(h.list.min_value(), Some(0));
        // A fresh slot (value 1) lands between the 0 bucket and nothing.
        let b = h.insert();
        assert_eq!(h.list.min_value(), Some(0));
        assert_eq!(h.list.max_value(), Some(1));
        assert_eq!(h.list.oldest_max_slot(), Some(b));
    }

    #[test]
    fn self_check_detects_flipped_counter() {
        let mut h = Harness::new();
        let a = h.insert();
        let b = h.insert();
        h.bump(b);
        let ok = |h: &Harness| h.list.self_check(|s| h.counts[s as usize], |v| v);
        assert_eq!(ok(&h), Ok(()));
        // A soft error flips a stored counter bit; the bucket still holds
        // the old value, so the check trips on the value mismatch.
        h.counts[a as usize] ^= 1 << 4;
        assert!(ok(&h).unwrap_err().contains("disagrees"));
    }

    #[test]
    fn rebuild_restores_invariants_and_order() {
        let mut h = Harness::new();
        let a = h.insert();
        let b = h.insert();
        let c = h.insert();
        h.bump(b);
        h.bump(b);
        h.bump(c);
        // Corrupt two counters without telling the list.
        h.counts[a as usize] = 9;
        h.counts[c as usize] = 0;
        assert!(h.list.self_check(|s| h.counts[s as usize], |v| v).is_err());
        let counts = h.counts.clone();
        h.list.rebuild(|s| counts[s as usize], |v| v);
        assert_eq!(h.list.self_check(|s| h.counts[s as usize], |v| v), Ok(()));
        assert_eq!(h.list.min_value(), Some(0));
        assert_eq!(h.list.max_value(), Some(9));
        assert_eq!(h.list.oldest_min_slot(), Some(c));
        assert_eq!(h.list.oldest_max_slot(), Some(a));
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut h = Harness::new();
        h.insert();
        h.insert();
        h.list.clear();
        assert_eq!(h.list.min_value(), None);
        assert_eq!(h.list.bucket_count(), 0);
    }
}
