//! The free-capacity profile: how many processors are free at every
//! future instant.
//!
//! A profile is a piecewise-constant function of time. The planner
//! queries it with [`Profile::earliest_fit`] and narrows it with
//! [`Profile::allocate`] / [`Profile::allocate_earliest`].
//!
//! # Capacity-indexed representation
//!
//! The break points are stored in fixed-size *chunks* (a paged sorted
//! array). Three flat arrays, indexed by chunk position, summarise each
//! chunk: its first point's time (`first_time`, the binary-search key)
//! and a lower / upper bound on `free` over its segments (`min_free` /
//! `max_free`). [`Profile::earliest_fit`] answers "first instant ≥ t
//! where `width` processors stay free for `duration`" with a fused
//! two-state sweep: a single forward pass that alternates between
//! *verifying* the current candidate start (scanning for a segment with
//! `free < width` inside the window — if the window closes first, the
//! candidate settles) and *seeking* the next segment with
//! `free >= width` after a blocker (the next candidate). The summary
//! arrays let either state skip a whole chunk in O(1): a verify skips
//! chunks with `min_free >= width` (and settles as soon as
//! `first_time >= end`), a seek skips chunks with `max_free < width`.
//!
//! The summaries are **maintained bounds**, not exact extremes:
//! `min_free[c] <= free <= max_free[c]` for every point of chunk `c`.
//! Bounds are all the skips need. A verify skip is sound because
//! `min_free >= width` puts every point at or above `width`, so the
//! chunk holds no blocker; a seek skip is sound because
//! `max_free < width` puts every point below `width`, so it holds no
//! candidate. A loose bound only costs a scan of the chunk, never a
//! wrong answer.
//!
//! The summaries are deliberately plain arrays rather than a search
//! tree: measured scan dynamics on planner workloads show verify/seek
//! runs of only a handful of points (the profile alternates tight and
//! free segments at exactly the widths being placed), so tree descents
//! or finger structures cannot amortise — while a forward sweep over
//! contiguous 4-byte entries lets hardware prefetch do the work.
//!
//! What *does* go sublinear is the query stream, via a **dominance
//! memo** on [`Profile::allocate_earliest`] (see its doc comment):
//! earliest-fit is monotone in width and duration, and a planning pass
//! only narrows the profile, so the answer to a previous query is a
//! sound scan lower bound for any later query it dominates. Policy
//! passes sort by duration (SJF/LJF) or carry long runs of duplicate
//! estimates, so most queries start their scan where the previous one
//! answered instead of at `now` — turning the pass's quadratic rescans
//! into near-linear work at deep queues.
//!
//! The update path reuses the fit's position: [`Profile::allocate_earliest`]
//! threads the (chunk, index) of the found segment straight into a
//! single forward walk that inserts the two break points and decrements
//! the covered segments. The walk costs O(covered points) plus, per
//! insert, the in-chunk shift of at most `CHUNK_CAP` entries; keeping
//! the bounds on top of that is O(1) per touched chunk, with no
//! rescans: the decremented values can only lower the min, a fully
//! covered chunk shifts its max by `width` and takes its new min from
//! the walk, and an inserted point widens its chunk's bounds to cover
//! its value. Only `rebuild_from_spans`, the chunk split and
//! [`Profile::release`] recompute bounds exactly (one sweep of at most
//! `CHUNK_CAP` values per chunk).
//! Scans tighten bounds for free: a seek that reads a whole chunk
//! without a candidate proves its max is below `width`, a verify that
//! reads one without a blocker proves its min is at least `width`;
//! `allocate_earliest` records both, so deep profiles keep skipping
//! the chunks a pass has narrowed, while the `&self`
//! [`Profile::earliest_fit`] stays read-only.
//!
//! [`Profile::release`] is the inverse update: it hands a span's
//! processors back with the same forward walk, recomputes the touched
//! chunks' summaries exactly, and merges the break points the release
//! made redundant, so a
//! profile that places and releases the same spans over and over does
//! not grow. [`Profile::advance_origin`] drops the points before a new
//! origin. Together they let the planner keep a policy's working profile
//! across scheduling events instead of rebuilding it (DESIGN §10).
//!
//! Chunk splits append the upper half to the arena, or reuse the slot of
//! a chunk that a release or an origin advance emptied (no kilobyte-sized
//! memmove of sibling chunks), and shift only the small per-chunk array
//! entries. `restore_from` stays a flat `memcpy` of the chunk storage
//! and summary arrays, preserving the shared-base-profile
//! watermark-restore trick of the incremental planner. A profile that
//! fits one chunk degenerates to the plain linear scan, so small
//! profiles pay (almost) nothing for the index.
//!
//! The linear-scan implementation this replaced is retained verbatim as
//! [`NaiveProfile`](crate::naive::NaiveProfile) — the property-test
//! oracle and the `ReferencePlanner`'s profile, so measured speedups
//! compare against the real pre-index algorithm. `earliest_fit`'s answer
//! is the unique minimal feasible start, so the two implementations
//! agree bit-for-bit even where their probe orders differ.
//!
//! Invariants (checked in debug builds and by property tests):
//! * point times are strictly increasing;
//! * `0 <= free <= capacity` everywhere;
//! * the final point's free value equals the full capacity (every
//!   reservation ends eventually);
//! * every chunk holds at least one point; `first_time[c]` equals the
//!   chunk's first point time, and `min_free[c]` / `max_free[c]` bound
//!   the free values of its points from below / above.

use dynp_des::{SimDuration, SimTime};

/// One break point: `free` processors are available from `time` until the
/// next point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfilePoint {
    /// Start of the segment.
    pub time: SimTime,
    /// Free processors throughout the segment.
    pub free: u32,
}

/// Points per chunk: small enough that an in-chunk scan stays within a
/// few cache lines, large enough that the summary arrays stay short.
const CHUNK_CAP: usize = 64;

/// One page of the point list, stored struct-of-arrays: the fit probes
/// scan only free values (contiguous 4-byte lanes the compiler can
/// vectorise) and touch a time only at a hit, instead of dragging
/// 16-byte (time, free) pairs through the cache on every step. The
/// chunk's capacity summary lives in the profile's flat `min_free` /
/// `max_free` arrays, keyed by chunk *position*, so whole-chunk skips
/// touch contiguous memory too.
#[derive(Clone, Copy, Debug)]
struct Chunk {
    /// Number of valid entries in `times` / `frees`.
    len: u32,
    /// Break-point instants, strictly increasing.
    times: [SimTime; CHUNK_CAP],
    /// Free processors from the matching instant to the next.
    frees: [u32; CHUNK_CAP],
}

impl Chunk {
    fn of(pt: ProfilePoint) -> Self {
        let mut ch = Chunk {
            len: 1,
            times: [SimTime::ZERO; CHUNK_CAP],
            frees: [0; CHUNK_CAP],
        };
        ch.times[0] = pt.time;
        ch.frees[0] = pt.free;
        ch
    }

    fn times(&self) -> &[SimTime] {
        &self.times[..self.len as usize]
    }

    fn frees(&self) -> &[u32] {
        &self.frees[..self.len as usize]
    }

    fn point(&self, i: usize) -> ProfilePoint {
        ProfilePoint {
            time: self.times[i],
            free: self.frees[i],
        }
    }
}

/// One entry of the per-width-class dominance memo (see
/// [`Profile::allocate_earliest`]): the last query answered for the
/// class, as the lower bound it proves for later, harder queries.
/// `width == 0` marks an empty slot.
#[derive(Clone, Copy, Debug)]
struct MemoSlot {
    width: u32,
    duration: SimDuration,
    /// Start of the interval the slot's scan proved free of fits: the
    /// memo only says "no fit in `[after, answer)`", so it bounds later
    /// queries constrained to start at or after `after`, not earlier
    /// ones.
    after: SimTime,
    answer: SimTime,
}

const MEMO_EMPTY: MemoSlot = MemoSlot {
    width: 0,
    duration: SimDuration::ZERO,
    after: SimTime::ZERO,
    answer: SimTime::ZERO,
};

/// Piecewise-constant free-capacity timeline, indexed by capacity (see
/// the module docs for the chunk + summary-array layout).
#[derive(Clone)]
pub struct Profile {
    capacity: u32,
    /// Total break points across all chunks.
    n_points: usize,
    /// Chunk storage; `order` gives the time order. Chunk splits append
    /// here so a split never moves kilobytes of sibling chunks.
    arena: Vec<Chunk>,
    /// Arena indices of the live chunks, in time order.
    order: Vec<u32>,
    /// Per chunk position: time of the chunk's first point — the
    /// binary-search key for `seg_pos` and the gap test of the
    /// allocation walk.
    first_time: Vec<SimTime>,
    /// Per chunk position: a lower bound on `free` over the chunk's
    /// points (see the module docs for how it is kept).
    min_free: Vec<u32>,
    /// Per chunk position: an upper bound on `free` over the chunk's
    /// points (see the module docs for how it is kept).
    max_free: Vec<u32>,
    /// Per width class (`ilog2(width)`): the last
    /// [`Profile::allocate_earliest`] query and its answer. Valid as a
    /// scan lower bound for any later query that dominates it, because
    /// allocation only narrows the profile (see `allocate_earliest`).
    /// Cleared whenever the profile is rebuilt, restored or released.
    memo: [MemoSlot; 32],
    /// Scratch for the whole-chunk facts an `allocate_earliest` scan
    /// proves in passing (see `fit_pos`); empty between calls.
    proofs: Vec<(usize, bool)>,
    /// Arena slots of chunks that emptied; the next split reuses them.
    spare: Vec<u32>,
}

impl Profile {
    /// Creates a profile with all `capacity` processors free from
    /// `origin` onwards.
    pub fn new(capacity: u32, origin: SimTime) -> Self {
        assert!(capacity >= 1, "profile needs at least one processor");
        let mut p = Profile {
            capacity,
            n_points: 0,
            arena: Vec::new(),
            order: Vec::new(),
            first_time: Vec::new(),
            min_free: Vec::new(),
            max_free: Vec::new(),
            memo: [MEMO_EMPTY; 32],
            proofs: Vec::new(),
            spare: Vec::new(),
        };
        p.init_single(capacity, origin);
        p
    }

    /// Resets to the fully-free state at `origin`, reusing the
    /// allocations — the planner rebuilds the profile at every event.
    pub fn reset(&mut self, capacity: u32, origin: SimTime) {
        assert!(capacity >= 1);
        self.init_single(capacity, origin);
    }

    fn init_single(&mut self, capacity: u32, origin: SimTime) {
        self.capacity = capacity;
        self.n_points = 1;
        self.memo = [MEMO_EMPTY; 32];
        self.arena.clear();
        self.spare.clear();
        self.arena.push(Chunk::of(ProfilePoint {
            time: origin,
            free: capacity,
        }));
        self.order.clear();
        self.order.push(0);
        self.first_time.clear();
        self.first_time.push(origin);
        self.min_free.clear();
        self.min_free.push(capacity);
        self.max_free.clear();
        self.max_free.push(capacity);
    }

    /// Rebuilds the whole profile from `(start, end, width)` spans in one
    /// endpoint sweep: O((S + R) log R) for R spans producing S points,
    /// instead of the O(R·P) of repeated [`Profile::allocate`] calls.
    /// Spans starting before `origin` are clipped to it; empty and
    /// zero-width spans are ignored. `events` is caller-provided scratch
    /// so the per-event hot path allocates nothing.
    ///
    /// The resulting profile is the canonical minimal representation of
    /// the same piecewise-constant function the allocate-loop produces,
    /// so every [`Profile::earliest_fit`] answer — and therefore every
    /// schedule planned on top — is identical.
    ///
    /// # Panics
    /// Panics if the spans overcommit the machine at any instant (the
    /// same condition on which the allocate-loop panics) or if
    /// `capacity` is zero.
    pub fn rebuild_from_spans(
        &mut self,
        capacity: u32,
        origin: SimTime,
        spans: &[(SimTime, SimTime, u32)],
        events: &mut Vec<(SimTime, i64)>,
    ) {
        assert!(capacity >= 1, "profile needs at least one processor");
        self.init_single(capacity, origin);
        events.clear();
        for &(start, end, width) in spans {
            if width == 0 {
                continue;
            }
            let start = start.max(origin);
            if end <= start {
                continue;
            }
            events.push((start, width as i64));
            events.push((end, -(width as i64)));
        }
        events.sort_unstable_by_key(|&(time, _)| time);
        let mut used: i64 = 0;
        let mut i = 0;
        while i < events.len() {
            let time = events[i].0;
            let mut delta = 0i64;
            while i < events.len() && events[i].0 == time {
                delta += events[i].1;
                i += 1;
            }
            if delta == 0 {
                continue;
            }
            used += delta;
            assert!(
                (0..=capacity as i64).contains(&used),
                "overcommit: {used} processors reserved at {time:?}, capacity {capacity}"
            );
            let free = capacity - used as u32;
            // Append (or coalesce into) the last point.
            let last_id = *self.order.last().expect("origin chunk present") as usize;
            let ch = &mut self.arena[last_id];
            let len = ch.len as usize;
            if ch.times[len - 1] == time {
                ch.frees[len - 1] = free;
            } else if len < CHUNK_CAP {
                ch.times[len] = time;
                ch.frees[len] = free;
                ch.len += 1;
                self.n_points += 1;
            } else {
                let id = self.arena.len() as u32;
                self.arena.push(Chunk::of(ProfilePoint { time, free }));
                self.order.push(id);
                self.first_time.push(time);
                self.min_free.push(0);
                self.max_free.push(0);
                self.n_points += 1;
            }
        }
        for c in 0..self.n_chunks() {
            self.exact_bounds(c);
        }
        self.assert_invariants();
    }

    /// Makes this profile a copy of `base` without reallocating (flat
    /// `memcpy`s of the chunk storage, order and summary arrays). This is
    /// the per-policy "restore to watermark" step: the planner builds the
    /// running-jobs base once per event and every policy's planning pass
    /// starts from a restored copy instead of rebuilding it.
    pub fn restore_from(&mut self, base: &Profile) {
        self.capacity = base.capacity;
        self.n_points = base.n_points;
        self.arena.clear();
        self.arena.extend_from_slice(&base.arena);
        self.spare.clone_from(&base.spare);
        self.order.clear();
        self.order.extend_from_slice(&base.order);
        self.first_time.clear();
        self.first_time.extend_from_slice(&base.first_time);
        self.min_free.clear();
        self.min_free.extend_from_slice(&base.min_free);
        self.max_free.clear();
        self.max_free.extend_from_slice(&base.max_free);
        // The restored state has more capacity than this profile had
        // after its last pass, so memoised bounds no longer hold.
        self.memo = [MEMO_EMPTY; 32];
    }

    /// Total processors of the machine.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Number of break points.
    pub fn len(&self) -> usize {
        self.n_points
    }

    /// A profile always has at least its origin point.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The break points in time order (for inspection, plotting and the
    /// property-test oracles). Allocates; not for hot paths.
    pub fn to_points(&self) -> Vec<ProfilePoint> {
        self.iter_points().collect()
    }

    /// Iterates the break points in time order.
    pub fn iter_points(&self) -> impl Iterator<Item = ProfilePoint> + '_ {
        self.order.iter().flat_map(move |&id| {
            let ch = &self.arena[id as usize];
            ch.times()
                .iter()
                .zip(ch.frees())
                .map(|(&time, &free)| ProfilePoint { time, free })
        })
    }

    /// Start of the profile (its first break point).
    pub fn origin(&self) -> SimTime {
        self.first_time[0]
    }

    /// Free processors at instant `t` (clamped to the origin on the
    /// left). Two binary searches: chunk first-times, then in-chunk.
    pub fn free_at(&self, t: SimTime) -> u32 {
        let (c, i) = self.seg_pos(t);
        self.chunk(c).frees[i]
    }

    fn chunk(&self, c: usize) -> &Chunk {
        &self.arena[self.order[c] as usize]
    }

    fn chunk_mut(&mut self, c: usize) -> &mut Chunk {
        &mut self.arena[self.order[c] as usize]
    }

    fn n_chunks(&self) -> usize {
        self.order.len()
    }

    /// (chunk position, in-chunk index) of the segment containing `t`:
    /// the last point with `time <= t`, or `(0, 0)` for earlier instants.
    fn seg_pos(&self, t: SimTime) -> (usize, usize) {
        let c = self
            .first_time
            .partition_point(|&ft| ft <= t)
            .saturating_sub(1);
        let ch = self.chunk(c);
        let i = ch
            .times()
            .partition_point(|&time| time <= t)
            .saturating_sub(1);
        (c, i)
    }

    /// Recomputes the bounds of chunk position `c` exactly from its
    /// points (one vectorisable min/max sweep over at most `CHUNK_CAP`
    /// 4-byte entries). Only `rebuild_from_spans`, `split_chunk` and
    /// `release` pay for it; allocations keep the bounds in O(1).
    fn exact_bounds(&mut self, c: usize) {
        let ch = &self.arena[self.order[c] as usize];
        let mut lo = u32::MAX;
        let mut hi = 0;
        for &f in ch.frees() {
            lo = lo.min(f);
            hi = hi.max(f);
        }
        self.min_free[c] = lo;
        self.max_free[c] = hi;
    }

    // ------------------------------------------------------------------
    // Queries.

    /// The earliest fit together with the (chunk, index) of the segment
    /// containing it — the position seeds the allocation walk so
    /// [`Profile::allocate_earliest`] never re-searches for its start.
    ///
    /// One forward sweep alternating the blocker and jump probes of the
    /// module docs. A clean chunk (`min_free >= width`) needs no point
    /// access at all: if any of its points reaches past the window's
    /// close, the next scanned point's time check settles the window,
    /// because times increase strictly across chunks.
    ///
    /// A chunk read from its first point to its last without a state
    /// change proves a bound the summaries may have lost: a seek found
    /// no `free >= width` (its max is below `width`), a verify found no
    /// `free < width` (its min is at least `width`). With `proofs`, each
    /// such chunk is pushed as `(c, seeking)` for the caller to record;
    /// without, the scan stays read-only.
    fn fit_pos(
        &self,
        after: SimTime,
        duration: SimDuration,
        width: u32,
        mut proofs: Option<&mut Vec<(usize, bool)>>,
    ) -> (usize, usize, SimTime) {
        assert!(
            width <= self.capacity,
            "job width {width} exceeds capacity {}",
            self.capacity
        );
        let candidate = after.max(self.origin());
        if width == 0 || duration.is_zero() {
            // Trivial fit at the bound; callers skip the allocation walk,
            // so the position is unused.
            return (0, 0, candidate);
        }
        let n = self.n_chunks();
        let (mut c, mut i) = self.seg_pos(candidate);
        // Segment containing the current candidate.
        let (mut sc, mut si) = (c, i);
        let mut candidate = candidate;
        let mut end = candidate.saturating_add(duration);
        // The sweep alternates two states without re-deriving chunk
        // context: *verifying* (scanning the candidate window for a
        // blocker, i.e. free < width) and *seeking* (scanning past a
        // blocker for the next segment with free >= width, the next
        // candidate). Only free values are scanned — pure 4-byte sweeps
        // the compiler can vectorise; a hit's time decides between
        // "blocker" and "window settled", which is sound because times
        // increase strictly: a point skipped on free alone that lay past
        // `end` forces every later point past `end` too, so the next
        // low-free hit's time check still settles the window.
        let mut seeking = false;
        loop {
            if c >= n {
                // Horizon. Seeking cannot run past it: the final segment
                // is fully free, so a next candidate always exists.
                debug_assert!(!seeking, "seek ran past the horizon");
                return (sc, si, candidate);
            }
            // Whole-chunk skips via the contiguous summary arrays.
            if seeking {
                if self.max_free[c] < width {
                    c += 1;
                    i = 0;
                    continue;
                }
            } else {
                if self.first_time[c] >= end {
                    return (sc, si, candidate);
                }
                if self.min_free[c] >= width {
                    c += 1;
                    i = 0;
                    continue;
                }
            }
            let ch = self.chunk(c);
            let len = ch.len as usize;
            let frees = &ch.frees[..len];
            let mut k = i;
            let mut flipped = false;
            while k < len {
                if seeking {
                    while k < len && frees[k] < width {
                        k += 1;
                    }
                    if k >= len {
                        break;
                    }
                    candidate = ch.times[k];
                    end = candidate.saturating_add(duration);
                    sc = c;
                    si = k;
                    seeking = false;
                } else {
                    while k < len && frees[k] >= width {
                        k += 1;
                    }
                    if k >= len {
                        break;
                    }
                    if ch.times[k] >= end {
                        return (sc, si, candidate);
                    }
                    seeking = true;
                }
                flipped = true;
                k += 1;
            }
            if i == 0 && !flipped {
                if let Some(proofs) = proofs.as_deref_mut() {
                    proofs.push((c, seeking));
                }
            }
            c += 1;
            i = 0;
        }
    }

    /// The earliest instant `t >= after` at which `width` processors stay
    /// free for the whole span `[t, t + duration)`.
    ///
    /// Always succeeds because the profile returns to full capacity after
    /// its last break point. The answer is the unique minimal feasible
    /// start, so it is bit-identical to the retained linear scan's.
    ///
    /// # Panics
    /// Panics if `width` exceeds the machine capacity.
    pub fn earliest_fit(&self, after: SimTime, duration: SimDuration, width: u32) -> SimTime {
        self.fit_pos(after, duration, width, None).2
    }

    // ------------------------------------------------------------------
    // Updates.

    /// Inserts `pt` at in-chunk index `i` of chunk position `c`
    /// (`0 <= i <= len`), splitting the chunk first when full, and
    /// widens the target chunk's bounds to cover `pt.free`. Returns the
    /// final (chunk position, in-chunk index) of the inserted point.
    fn insert_point(&mut self, mut c: usize, mut i: usize, pt: ProfilePoint) -> (usize, usize) {
        const HALF: usize = CHUNK_CAP / 2;
        if self.chunk(c).len as usize == CHUNK_CAP {
            self.split_chunk(c);
            if i > HALF {
                c += 1;
                i -= HALF;
            }
        }
        let ch = self.chunk_mut(c);
        let len = ch.len as usize;
        debug_assert!(i <= len && len < CHUNK_CAP);
        ch.times.copy_within(i..len, i + 1);
        ch.frees.copy_within(i..len, i + 1);
        ch.times[i] = pt.time;
        ch.frees[i] = pt.free;
        ch.len += 1;
        self.n_points += 1;
        if i == 0 {
            self.first_time[c] = pt.time;
        }
        self.min_free[c] = self.min_free[c].min(pt.free);
        self.max_free[c] = self.max_free[c].max(pt.free);
        (c, i)
    }

    /// Splits the full chunk at position `c` into two half chunks. The
    /// upper half is appended to the arena (no kilobyte-sized memmove of
    /// sibling chunks); only the 4-byte order and summary entries shift,
    /// and both halves' bounds are recomputed exactly.
    fn split_chunk(&mut self, c: usize) {
        const HALF: usize = CHUNK_CAP / 2;
        let id = self.order[c] as usize;
        let mut hi = Chunk {
            len: (CHUNK_CAP - HALF) as u32,
            times: [SimTime::ZERO; CHUNK_CAP],
            frees: [0; CHUNK_CAP],
        };
        hi.times[..CHUNK_CAP - HALF].copy_from_slice(&self.arena[id].times[HALF..]);
        hi.frees[..CHUNK_CAP - HALF].copy_from_slice(&self.arena[id].frees[HALF..]);
        let hi_first = hi.times[0];
        self.arena[id].len = HALF as u32;
        let new_id = match self.spare.pop() {
            Some(slot) => {
                self.arena[slot as usize] = hi;
                slot
            }
            None => {
                self.arena.push(hi);
                self.arena.len() as u32 - 1
            }
        };
        self.order.insert(c + 1, new_id);
        self.first_time.insert(c + 1, hi_first);
        self.min_free.insert(c + 1, 0);
        self.max_free.insert(c + 1, 0);
        self.exact_bounds(c);
        self.exact_bounds(c + 1);
    }

    /// Carves `width` processors out of `[start, end)`, given the
    /// position `(c, i)` of the segment containing `start` (from
    /// `fit_pos` or `seg_pos`). One forward walk: the bounding break
    /// points are inserted as encountered, covered segments are
    /// decremented, and each touched chunk's bounds are kept in O(1)
    /// without rescanning its points: the decremented values can only
    /// lower the min, a fully covered chunk also shifts its max by
    /// `width`, and `insert_point` widens for the inserted values.
    ///
    /// # Panics
    /// Panics if any covered segment has fewer than `width` free.
    fn allocate_span(&mut self, c: usize, i: usize, start: SimTime, end: SimTime, width: u32) {
        let seg = self.chunk(c).point(i);
        debug_assert!(seg.time <= start, "position does not contain start");
        let (mut c, mut i) = if seg.time == start {
            (c, i)
        } else {
            // Split the segment: the new point keeps the segment's free
            // value until the decrement loop below reaches it.
            self.insert_point(
                c,
                i + 1,
                ProfilePoint {
                    time: start,
                    free: seg.free,
                },
            )
        };
        // Pre-decrement free value of the last covered segment — the
        // value the profile returns to when the reservation ends.
        let mut prev_free = 0;
        loop {
            let ch = &mut self.arena[self.order[c] as usize];
            let len = ch.len as usize;
            let entered_at = i;
            let mut lo = u32::MAX;
            while i < len && ch.times[i] < end {
                let f = ch.frees[i];
                assert!(
                    f >= width,
                    "overcommit: segment at {:?} has {f} free, needs {width}",
                    ch.times[i]
                );
                prev_free = f;
                lo = lo.min(f - width);
                ch.frees[i] = f - width;
                i += 1;
            }
            if entered_at == 0 && i == len {
                // Every point dropped by `width`: `lo` is the exact new
                // min, and the max (at least `width`, as it bounds the
                // covered values) shifts down with them.
                self.min_free[c] = lo;
                self.max_free[c] -= width;
            } else {
                self.min_free[c] = self.min_free[c].min(lo);
            }
            if i < len {
                // A point at or past `end` stops the walk in this chunk.
                if ch.times[i] > end {
                    self.insert_point(
                        c,
                        i,
                        ProfilePoint {
                            time: end,
                            free: prev_free,
                        },
                    );
                }
                return;
            }
            // Chunk consumed to its end.
            c += 1;
            if c == self.n_chunks() {
                // Ran past the horizon: close the reservation with a new
                // final point restoring the pre-decrement free value (the
                // full capacity, by the horizon invariant).
                let lc = c - 1;
                let li = self.chunk(lc).len as usize;
                self.insert_point(
                    lc,
                    li,
                    ProfilePoint {
                        time: end,
                        free: prev_free,
                    },
                );
                return;
            }
            if self.first_time[c] >= end {
                if self.first_time[c] > end {
                    // `end` falls in the gap before this chunk: the
                    // closing point becomes its new first point.
                    self.insert_point(
                        c,
                        0,
                        ProfilePoint {
                            time: end,
                            free: prev_free,
                        },
                    );
                }
                return;
            }
            i = 0;
        }
    }

    /// Reserves `width` processors over `[start, start + duration)`.
    /// Zero-length reservations are no-ops.
    ///
    /// # Panics
    /// Panics if any overlapped segment has fewer than `width` free
    /// processors (callers find slots with [`Profile::earliest_fit`]
    /// first) or if `start` precedes the profile origin.
    pub fn allocate(&mut self, start: SimTime, duration: SimDuration, width: u32) {
        if duration.is_zero() || width == 0 {
            return;
        }
        assert!(start >= self.origin(), "allocation before profile origin");
        let end = start.saturating_add(duration);
        let (c, i) = self.seg_pos(start);
        self.allocate_span(c, i, start, end, width);
        self.assert_invariants();
    }

    /// Finds the earliest fit and allocates it in one step; returns the
    /// chosen start time. Equivalent to [`Profile::earliest_fit`]
    /// followed by [`Profile::allocate`] — this is the planner's hot
    /// path (once per queued job per policy per event). The fit's
    /// position feeds the allocation walk directly, so the start is
    /// never searched for twice.
    ///
    /// Successive calls are accelerated by a per-width-class *dominance
    /// memo*. Earliest-fit is monotone two ways: a query with larger
    /// width or duration can never fit earlier than an easier one, and
    /// allocation only ever narrows the profile, so an answer computed
    /// earlier in a pass can only move later, never earlier. Therefore
    /// the answer `a` of a previous `(w, d)` query is a sound scan lower
    /// bound for any later `(w', d')` query with `w' >= w` and
    /// `d' >= d`: no fit for the harder query can exist before `a`. One
    /// slot per `ilog2(width)` class keeps the last query; a planning
    /// pass places many same-width jobs (and SJF/LJF passes walk
    /// duration monotonically), so most queries skip the packed prefix
    /// entirely and scan only near the frontier. The memo never changes
    /// any answer — only where the scan starts — and is cleared on
    /// rebuild/restore/reset/release, the only operations that widen
    /// capacity.
    ///
    /// A memoised answer proves only that `[slot.after, slot.answer)`
    /// holds no fit for the slot's query, so a later query may use it
    /// only when additionally constrained to start no earlier
    /// (`after >= slot.after`) — otherwise the skipped prefix could hide
    /// a legitimate earlier fit.
    pub fn allocate_earliest(
        &mut self,
        after: SimTime,
        duration: SimDuration,
        width: u32,
    ) -> SimTime {
        if duration.is_zero() || width == 0 {
            return self.fit_pos(after, duration, width, None).2;
        }
        let class = (31 - width.leading_zeros()) as usize;
        let mut from = after;
        let slot = self.memo[class];
        if slot.width != 0
            && width >= slot.width
            && duration >= slot.duration
            && after >= slot.after
        {
            from = from.max(slot.answer);
        }
        let mut proofs = std::mem::take(&mut self.proofs);
        let (c, i, start) = self.fit_pos(from, duration, width, Some(&mut proofs));
        for &(pc, seeking) in &proofs {
            if seeking {
                self.max_free[pc] = self.max_free[pc].min(width - 1);
            } else {
                self.min_free[pc] = self.min_free[pc].max(width);
            }
        }
        proofs.clear();
        self.proofs = proofs;
        // The slot records `after`, not `from`: on a hit the old slot
        // already proved `[after, from)` fit-free for this (dominating)
        // query, and the scan just proved `[from, start)`, so the union
        // `[after, start)` is established.
        self.memo[class] = MemoSlot {
            width,
            duration,
            after,
            answer: start,
        };
        let end = start.saturating_add(duration);
        self.allocate_span(c, i, start, end, width);
        self.assert_invariants();
        start
    }

    /// Hands `width` processors back over `[start, start + duration)` —
    /// the inverse of [`Profile::allocate`]. One forward walk raises the
    /// covered segments (inserting the bounding points where the span
    /// does not start or end on one) and recomputes each touched chunk's
    /// summary exactly: a raised value would otherwise leave a partly
    /// covered chunk's min too low for as long as the profile is kept,
    /// and releases are rare next to allocations. The points
    /// at `start` and `end` are then merged away if the release made them
    /// repeat their left neighbour's value, so allocating and releasing
    /// a span restores the profile's point count as well as its step
    /// function. The dominance memo is cleared: it is only sound while
    /// the profile narrows.
    ///
    /// # Panics
    /// Panics if any covered segment would exceed the machine capacity
    /// (the span was not allocated) or if `start` precedes the origin.
    pub fn release(&mut self, start: SimTime, duration: SimDuration, width: u32) {
        if duration.is_zero() || width == 0 {
            return;
        }
        assert!(start >= self.origin(), "release before profile origin");
        self.memo = [MEMO_EMPTY; 32];
        let end = start.saturating_add(duration);
        let (c, i) = self.seg_pos(start);
        let seg = self.chunk(c).point(i);
        let (mut c, mut i) = if seg.time == start {
            (c, i)
        } else {
            self.insert_point(
                c,
                i + 1,
                ProfilePoint {
                    time: start,
                    free: seg.free,
                },
            )
        };
        // Pre-increment value of the last covered segment: the value the
        // profile keeps after `end`.
        let mut prev_free = 0;
        let capacity = self.capacity;
        loop {
            let ch = &mut self.arena[self.order[c] as usize];
            let len = ch.len as usize;
            while i < len && ch.times[i] < end {
                let f = ch.frees[i];
                assert!(
                    f + width <= capacity,
                    "overrelease: segment at {:?} has {f} free, releasing {width} of {capacity}",
                    ch.times[i]
                );
                prev_free = f;
                ch.frees[i] = f + width;
                i += 1;
            }
            let stop = ch.times[..len].get(i).copied();
            self.exact_bounds(c);
            if let Some(stop) = stop {
                // A point at or past `end` stops the walk in this chunk.
                if stop > end {
                    self.insert_point(
                        c,
                        i,
                        ProfilePoint {
                            time: end,
                            free: prev_free,
                        },
                    );
                }
                break;
            }
            c += 1;
            // The final segment is at full capacity, so a released span
            // always ends at or before the final point.
            assert!(
                c < self.n_chunks(),
                "overrelease: span runs past the horizon"
            );
            if self.first_time[c] >= end {
                if self.first_time[c] > end {
                    self.insert_point(
                        c,
                        0,
                        ProfilePoint {
                            time: end,
                            free: prev_free,
                        },
                    );
                }
                break;
            }
            i = 0;
        }
        self.merge_at(end);
        self.merge_at(start);
        self.assert_invariants();
    }

    /// Removes the break point at exactly `t` when it repeats the value
    /// of the segment before it (the origin point always stays).
    fn merge_at(&mut self, t: SimTime) {
        let (c, i) = self.seg_pos(t);
        let ch = self.chunk(c);
        if ch.times[i] != t {
            return;
        }
        let before = if i > 0 {
            ch.frees[i - 1]
        } else if c > 0 {
            let prev = self.chunk(c - 1);
            prev.frees[prev.len as usize - 1]
        } else {
            return;
        };
        if before != ch.frees[i] {
            return;
        }
        let ch = self.chunk_mut(c);
        let len = ch.len as usize;
        ch.times.copy_within(i + 1..len, i);
        ch.frees.copy_within(i + 1..len, i);
        ch.len -= 1;
        let (emptied, first) = (ch.len == 0, ch.times[0]);
        self.n_points -= 1;
        if emptied {
            self.drop_chunks(c, c + 1);
        } else if i == 0 {
            self.first_time[c] = first;
        }
    }

    /// Unlinks chunk positions `lo..hi`, keeping their arena slots for
    /// later splits. The caller accounts for their points.
    fn drop_chunks(&mut self, lo: usize, hi: usize) {
        self.spare.extend(self.order.drain(lo..hi));
        self.first_time.drain(lo..hi);
        self.min_free.drain(lo..hi);
        self.max_free.drain(lo..hi);
    }

    /// Moves the origin forward to `t`: every point before the segment
    /// containing `t` is dropped and that segment now starts at `t`. The
    /// step function from `t` on is unchanged, so every query bounded
    /// below by `t` answers as before; the dominance memo stays valid for
    /// the same reason. A `t` at or before the origin is a no-op.
    pub fn advance_origin(&mut self, t: SimTime) {
        if t <= self.origin() {
            return;
        }
        let (c, i) = self.seg_pos(t);
        if c > 0 {
            self.n_points -= (0..c).map(|k| self.chunk(k).len as usize).sum::<usize>();
            self.drop_chunks(0, c);
        }
        let ch = self.chunk_mut(0);
        let len = ch.len as usize;
        ch.times.copy_within(i..len, 0);
        ch.frees.copy_within(i..len, 0);
        ch.len -= i as u32;
        ch.times[0] = t;
        self.n_points -= i;
        self.first_time[0] = t;
        self.assert_invariants();
    }

    /// Whether `self`, raised by `width` free processors on `[from, end)`
    /// for every `(end, width)` of `raised` (sorted by `end`), is the same
    /// step function as `other` on `[from, ∞)`, on the same machine. One
    /// merge walk over both point lists and `raised`, comparing values,
    /// so redundant break points on either side do not matter.
    pub fn same_from(&self, other: &Profile, from: SimTime, raised: &[(SimTime, u32)]) -> bool {
        if self.capacity != other.capacity {
            return false;
        }
        let mut a = PointCursor::after(self, from);
        let mut b = PointCursor::after(other, from);
        let mut r = raised.partition_point(|&(end, _)| end <= from);
        let mut extra: u32 = raised[r..].iter().map(|&(_, width)| width).sum();
        while a.free + extra == b.free {
            let tr = raised.get(r).map_or(SimTime::MAX, |&(end, _)| end);
            // Fast path: both walks share their next break points.
            let shared = a
                .times
                .iter()
                .zip(a.frees)
                .zip(b.times.iter().zip(b.frees))
                .take_while(|((ta, fa), (tb, fb))| ta == tb && **ta < tr && **fa + extra == **fb)
                .count();
            if shared > 0 {
                a.skip(shared);
                b.skip(shared);
                continue;
            }
            let t = a.next_time().min(b.next_time()).min(tr);
            if t == SimTime::MAX {
                return true;
            }
            a.advance_to(t);
            b.advance_to(t);
            while r < raised.len() && raised[r].0 == t {
                extra -= raised[r].1;
                r += 1;
            }
        }
        false
    }

    /// Whether chunk position `c`'s summary bounds its points:
    /// `min_free[c] <= free <= max_free[c]` for every point.
    #[cfg(any(test, debug_assertions))]
    fn bounds_hold(&self, c: usize) -> bool {
        let frees = self.chunk(c).frees();
        frees
            .iter()
            .all(|&f| self.min_free[c] <= f && f <= self.max_free[c])
    }

    /// Debug-build invariant check: strictly increasing times, free in
    /// range, full capacity at the horizon, summaries that bound their
    /// chunks.
    fn assert_invariants(&self) {
        #[cfg(debug_assertions)]
        {
            let pts = self.to_points();
            assert_eq!(pts.len(), self.n_points, "stale point count");
            assert!(
                pts.windows(2).all(|w| w[0].time < w[1].time),
                "profile times not strictly increasing"
            );
            assert!(
                pts.iter().all(|p| p.free <= self.capacity),
                "free exceeds capacity"
            );
            assert_eq!(
                pts.last().unwrap().free,
                self.capacity,
                "profile must end at full capacity"
            );
            assert_eq!(self.first_time.len(), self.n_chunks());
            assert_eq!(self.min_free.len(), self.n_chunks());
            assert_eq!(self.max_free.len(), self.n_chunks());
            for c in 0..self.n_chunks() {
                let ch = self.chunk(c);
                assert!(ch.len >= 1, "empty chunk");
                assert_eq!(
                    self.first_time[c], ch.times[0],
                    "stale first-time on chunk {c}"
                );
                assert!(
                    self.bounds_hold(c),
                    "summary [{}, {}] does not bound chunk {c}: {:?}",
                    self.min_free[c],
                    self.max_free[c],
                    ch.frees()
                );
            }
        }
    }
}

/// A forward walk over a profile's break points for [`Profile::same_from`]:
/// the free value in force, and the rest of the current chunk.
struct PointCursor<'a> {
    profile: &'a Profile,
    /// Free processors of the segment the walk is in.
    free: u32,
    /// Chunk position of `times` / `frees`.
    c: usize,
    /// The current chunk's points after the segment the walk is in.
    times: &'a [SimTime],
    frees: &'a [u32],
}

impl<'a> PointCursor<'a> {
    /// Positioned in the segment containing `t`.
    fn after(profile: &'a Profile, t: SimTime) -> Self {
        let (c, i) = profile.seg_pos(t);
        let ch = profile.chunk(c);
        let mut cursor = PointCursor {
            profile,
            free: ch.frees[i],
            c,
            times: &ch.times()[i + 1..],
            frees: &ch.frees()[i + 1..],
        };
        cursor.refill();
        cursor
    }

    /// Moves to the next chunk when the current one is used up.
    fn refill(&mut self) {
        if self.times.is_empty() && self.c + 1 < self.profile.n_chunks() {
            self.c += 1;
            let ch = self.profile.chunk(self.c);
            self.times = ch.times();
            self.frees = ch.frees();
        }
    }

    /// Time of the next break point, `SimTime::MAX` past the end.
    fn next_time(&self) -> SimTime {
        self.times.first().copied().unwrap_or(SimTime::MAX)
    }

    /// Enters the segment starting at `t` if the next point is there.
    fn advance_to(&mut self, t: SimTime) {
        if self.next_time() == t {
            self.skip(1);
        }
    }

    /// Enters the segment of the `k`-th next point of the current chunk.
    fn skip(&mut self, k: usize) {
        self.free = self.frees[k - 1];
        self.times = &self.times[k..];
        self.frees = &self.frees[k..];
        self.refill();
    }
}

impl std::fmt::Debug for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profile")
            .field("capacity", &self.capacity)
            .field("points", &self.to_points())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveProfile;
    use proptest::prelude::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }
    fn d(secs: u64) -> SimDuration {
        SimDuration::from_secs(secs)
    }

    #[test]
    fn fresh_profile_is_fully_free() {
        let p = Profile::new(16, t(100));
        assert_eq!(p.free_at(t(100)), 16);
        assert_eq!(p.free_at(t(1_000_000)), 16);
        assert_eq!(p.earliest_fit(t(100), d(3_600), 16), t(100));
    }

    #[test]
    fn allocate_carves_a_rectangle() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(10), d(20), 4);
        assert_eq!(p.free_at(t(0)), 10);
        assert_eq!(p.free_at(t(10)), 6);
        assert_eq!(p.free_at(t(29)), 6);
        assert_eq!(p.free_at(t(30)), 10);
    }

    #[test]
    fn overlapping_allocations_stack() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(0), d(100), 3);
        p.allocate(t(50), d(100), 3);
        assert_eq!(p.free_at(t(0)), 7);
        assert_eq!(p.free_at(t(50)), 4);
        assert_eq!(p.free_at(t(100)), 7);
        assert_eq!(p.free_at(t(150)), 10);
    }

    #[test]
    #[should_panic(expected = "overcommit")]
    fn allocate_panics_on_overcommit() {
        let mut p = Profile::new(4, t(0));
        p.allocate(t(0), d(10), 3);
        p.allocate(t(5), d(10), 3);
    }

    #[test]
    fn earliest_fit_skips_busy_window() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(0), d(100), 8); // only 2 free until t=100
        assert_eq!(p.earliest_fit(t(0), d(10), 2), t(0));
        assert_eq!(p.earliest_fit(t(0), d(10), 3), t(100));
    }

    #[test]
    fn earliest_fit_finds_gap_between_reservations() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(0), d(50), 8);
        p.allocate(t(100), d(50), 8);
        // 2 free in [0,50) and [100,150); 10 free in [50,100).
        assert_eq!(p.earliest_fit(t(0), d(50), 5), t(50));
        // Needs 60s with width 5: the [50,100) gap is too short; must wait
        // until t=150.
        assert_eq!(p.earliest_fit(t(0), d(60), 5), t(150));
        // Width 2 fits immediately even across the busy windows.
        assert_eq!(p.earliest_fit(t(0), d(200), 2), t(0));
    }

    #[test]
    fn earliest_fit_respects_after_bound() {
        let p = Profile::new(10, t(0));
        assert_eq!(p.earliest_fit(t(500), d(10), 10), t(500));
    }

    #[test]
    fn earliest_fit_starts_mid_segment() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(0), d(100), 5);
        // after = 30 lands inside the [0,100) segment with 5 free.
        assert_eq!(p.earliest_fit(t(30), d(10), 5), t(30));
        assert_eq!(p.earliest_fit(t(30), d(10), 6), t(100));
    }

    #[test]
    fn zero_duration_and_zero_width_are_trivial() {
        let mut p = Profile::new(4, t(0));
        assert_eq!(p.earliest_fit(t(7), SimDuration::ZERO, 4), t(7));
        p.allocate(t(7), SimDuration::ZERO, 4); // no-op
        assert_eq!(p.free_at(t(7)), 4);
        assert_eq!(p.earliest_fit(t(7), d(10), 0), t(7));
    }

    #[test]
    fn reset_reuses_the_buffer() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(0), d(10), 10);
        p.reset(20, t(5));
        assert_eq!(p.capacity(), 20);
        assert_eq!(p.free_at(t(5)), 20);
        assert_eq!(p.len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn earliest_fit_rejects_oversized_width() {
        let p = Profile::new(4, t(0));
        let _ = p.earliest_fit(t(0), d(1), 5);
    }

    #[test]
    fn sweep_rebuild_matches_allocate_loop() {
        let spans = [
            (t(0), t(100), 3u32),
            (t(50), t(150), 2),
            (t(100), t(200), 4),
            (t(300), t(310), 8),
        ];
        let mut by_alloc = Profile::new(8, t(0));
        for &(s, e, w) in &spans {
            by_alloc.allocate(s, e.saturating_since(s), w);
        }
        let mut by_sweep = Profile::new(1, t(99));
        let mut scratch = Vec::new();
        by_sweep.rebuild_from_spans(8, t(0), &spans, &mut scratch);
        // Identical as piecewise functions (representations may differ
        // only in redundant points, and the sweep emits none).
        for probe in 0..400 {
            assert_eq!(
                by_sweep.free_at(t(probe)),
                by_alloc.free_at(t(probe)),
                "free differs at t={probe}"
            );
        }
        assert_eq!(by_sweep.capacity(), 8);
    }

    #[test]
    fn sweep_rebuild_clips_to_origin_and_skips_empty_spans() {
        let mut p = Profile::new(1, t(0));
        let mut scratch = Vec::new();
        p.rebuild_from_spans(
            4,
            t(100),
            &[
                (t(0), t(150), 2),   // started before origin: clipped
                (t(0), t(50), 4),    // entirely past: dropped
                (t(120), t(120), 4), // empty: dropped
                (t(130), t(140), 0), // zero width: dropped
            ],
            &mut scratch,
        );
        assert_eq!(p.origin(), t(100));
        assert_eq!(p.free_at(t(100)), 2);
        assert_eq!(p.free_at(t(149)), 2);
        assert_eq!(p.free_at(t(150)), 4);
        assert_eq!(p.len(), 2);
    }

    #[test]
    #[should_panic(expected = "overcommit")]
    fn sweep_rebuild_panics_on_overcommit() {
        let mut p = Profile::new(1, t(0));
        let mut scratch = Vec::new();
        p.rebuild_from_spans(4, t(0), &[(t(0), t(10), 3), (t(5), t(15), 3)], &mut scratch);
    }

    #[test]
    fn restore_from_copies_without_affecting_the_base() {
        let mut base = Profile::new(8, t(0));
        base.allocate(t(10), d(20), 5);
        let mut work = Profile::new(1, t(999));
        work.restore_from(&base);
        assert_eq!(work.capacity(), 8);
        assert_eq!(work.to_points(), base.to_points());
        // Narrowing the copy leaves the base untouched.
        work.allocate(t(10), d(20), 3);
        assert_eq!(work.free_at(t(15)), 0);
        assert_eq!(base.free_at(t(15)), 3);
        // A second restore really is a reset to the watermark.
        work.restore_from(&base);
        assert_eq!(work.free_at(t(15)), 3);
    }

    /// Enough disjoint allocations to force many chunk splits, so the
    /// summary-skip probes cross chunk boundaries on every query.
    #[test]
    fn deep_profile_spans_many_chunks_and_answers_like_the_oracle() {
        let capacity = 64;
        let mut p = Profile::new(capacity, t(0));
        let mut oracle = NaiveProfile::new(capacity, t(0));
        // A comb of busy teeth: [20k, 20k+10) at width 63 — only 1 free.
        for k in 0..400u64 {
            p.allocate(t(20 * k), d(10), 63);
            oracle.allocate(t(20 * k), d(10), 63);
        }
        assert!(p.n_chunks() > 4, "expected chunk splits, got 1 chunk");
        assert_eq!(p.to_points(), oracle.points());
        for (after, dur, w) in [
            (0u64, 5u64, 1u32),
            (0, 5, 2),
            (0, 15, 2),
            (3, 7, 2),
            (3, 7, 63),
            (1_000, 9, 40),
            (3_999, 11, 64),
            (7_990, 10, 2),
            (8_005, 4, 2),
            (9_000, 1_000, 64),
        ] {
            assert_eq!(
                p.earliest_fit(t(after), d(dur), w),
                oracle.earliest_fit(t(after), d(dur), w),
                "fit differs for after={after} dur={dur} w={w}"
            );
            assert_eq!(p.free_at(t(after)), oracle.free_at(t(after)));
        }
    }

    /// Spans that give `frees[k]` free processors on `[10k, 10k + 10)`
    /// seconds and the full `capacity` after: one break point per entry
    /// as long as neighbouring entries differ.
    fn spans_for(capacity: u32, frees: &[u32]) -> Vec<(SimTime, SimTime, u32)> {
        frees
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f < capacity)
            .map(|(k, &f)| (t(10 * k as u64), t(10 * k as u64 + 10), capacity - f))
            .collect()
    }

    /// The same span set swept into an indexed profile and the oracle.
    fn built(capacity: u32, frees: &[u32]) -> (Profile, NaiveProfile) {
        let spans = spans_for(capacity, frees);
        let mut scratch = Vec::new();
        let mut p = Profile::new(1, t(0));
        p.rebuild_from_spans(capacity, t(0), &spans, &mut scratch);
        let mut oracle = NaiveProfile::new(1, t(0));
        oracle.rebuild_from_spans(capacity, t(0), &spans, &mut scratch);
        (p, oracle)
    }

    fn assert_bounded(p: &Profile) {
        for c in 0..p.n_chunks() {
            assert!(
                p.bounds_hold(c),
                "summary [{}, {}] does not bound chunk {c}: {:?}",
                p.min_free[c],
                p.max_free[c],
                p.chunk(c).frees()
            );
        }
    }

    fn assert_fits_match(p: &Profile, oracle: &NaiveProfile, queries: &[(u64, u64, u32)]) {
        for &(after, dur, w) in queries {
            assert_eq!(
                p.earliest_fit(t(after), d(dur), w),
                oracle.earliest_fit(t(after), d(dur), w),
                "fit differs for after={after} dur={dur} w={w}"
            );
        }
    }

    /// A chunk whose min bound is already below `width` and that a
    /// reservation then covers completely: the bound must not underflow
    /// and must still bound the shifted points.
    #[test]
    fn fully_covered_chunk_with_loose_min_does_not_underflow() {
        let capacity = 16;
        // Chunk 0: 10/12 alternating; chunk 1: 6/8 alternating; chunk 2:
        // the final full-capacity point at 1280 s.
        let frees: Vec<u32> = (0..128)
            .map(|k| {
                if k < 64 {
                    10 + 2 * (k % 2)
                } else {
                    6 + 2 * (k % 2)
                }
            })
            .collect();
        let (mut p, mut oracle) = built(capacity, &frees);
        assert_eq!(p.n_chunks(), 3);
        // Any lower bound is a valid summary; make chunk 1's loose.
        p.min_free[1] = 0;
        p.allocate(t(640), d(640), 4);
        oracle.allocate(t(640), d(640), 4);
        assert_bounded(&p);
        assert!(p.max_free[1] < 5, "fully covered max must shift by width");
        assert_eq!(p.to_points(), oracle.points());
        assert_fits_match(
            &p,
            &oracle,
            &[
                (0, 10, 5),
                (0, 700, 2),
                (600, 50, 3),
                (640, 10, 5),
                (700, 30, 16),
            ],
        );
    }

    /// The closing point lands at index 0 of the next chunk and carries
    /// more free processors than that chunk's old max: the max bound
    /// must widen, or a seek would skip the chunk and miss the fit.
    #[test]
    fn closing_point_at_next_chunk_start_widens_its_max() {
        let capacity = 16;
        // Chunk 0: 8/10 alternating, ending on 10 at 630 s; chunk 1: 2/3
        // alternating; then the full-capacity final point.
        let frees: Vec<u32> = (0..128)
            .map(|k| if k < 64 { 8 + 2 * (k % 2) } else { 2 + (k % 2) })
            .collect();
        let (mut p, mut oracle) = built(capacity, &frees);
        // Split the low chunk first so the closing insert below does not
        // (a split recomputes its bounds exactly).
        p.allocate(t(645), d(2), 1);
        oracle.allocate(t(645), d(2), 1);
        assert_eq!(p.n_chunks(), 4);
        assert!(p.max_free[1] < 10);
        // [630, 635) ends in the gap before chunk 1's first point (640 s).
        p.allocate(t(630), d(5), 1);
        oracle.allocate(t(630), d(5), 1);
        assert_eq!(p.first_time[1], t(635), "closing point must open chunk 1");
        assert_bounded(&p);
        assert_eq!(p.to_points(), oracle.points());
        // Width 10 fits only in [635, 640), reached by a seek from 630 s.
        assert_eq!(p.earliest_fit(t(630), d(5), 10), t(635));
        assert_fits_match(
            &p,
            &oracle,
            &[(0, 5, 10), (600, 5, 9), (0, 2, 3), (0, 50, 4)],
        );
    }

    /// The closing point goes in at the horizon after the walk covered
    /// the whole final chunk: its max must return to full capacity.
    #[test]
    fn closing_point_at_horizon_widens_the_last_chunk() {
        let capacity = 16;
        // Chunk 0: 64 points below capacity; chunk 1: the final point.
        let frees: Vec<u32> = (0..64).map(|k| 4 + 2 * (k % 2)).collect();
        let (mut p, mut oracle) = built(capacity, &frees);
        assert_eq!((p.n_chunks(), p.chunk(1).len), (2, 1));
        p.allocate(t(640), d(100), 4);
        oracle.allocate(t(640), d(100), 4);
        assert_bounded(&p);
        assert_eq!(p.max_free[1], capacity);
        assert_eq!(p.to_points(), oracle.points());
        // A full-width job seeks through chunk 0 into chunk 1.
        assert_eq!(p.earliest_fit(t(0), d(50), capacity), t(740));
        assert_fits_match(&p, &oracle, &[(0, 50, 13), (0, 50, 12), (500, 300, 7)]);
    }

    /// Scans tighten loose bounds only through `allocate_earliest`; the
    /// `&self` query leaves the summaries as they were.
    #[test]
    fn allocate_earliest_records_scan_proofs_and_earliest_fit_does_not() {
        let capacity = 64;
        let mut p = Profile::new(capacity, t(0));
        // A comb of teeth with one processor free, then one processor
        // taken throughout, so nothing is fully free before 4000 s.
        for k in 0..200u64 {
            p.allocate(t(20 * k), d(10), 63);
        }
        p.allocate(t(0), d(4_000), 1);
        assert!(p.n_chunks() > 4);
        // Loosen every max bound but the last chunk's (full capacity).
        let last = p.n_chunks() - 1;
        for c in 0..last {
            p.max_free[c] = capacity;
        }
        // A full-width job must seek past every tooth and gap.
        let before = p.max_free.clone();
        let fit = p.earliest_fit(t(5), d(100), capacity);
        assert_eq!(fit, t(4_000));
        assert_eq!(p.max_free, before, "earliest_fit must stay read-only");
        assert_eq!(p.allocate_earliest(t(5), d(100), capacity), fit);
        assert_bounded(&p);
        // The chunks the seek read whole now skip full-width seeks.
        assert!(
            (1..last).all(|c| p.max_free[c] < capacity),
            "seek proofs not recorded: {:?}",
            p.max_free
        );
    }

    #[test]
    fn release_undoes_an_allocation_point_for_point() {
        let mut p = Profile::new(10, t(0));
        p.allocate(t(0), d(100), 3);
        let before = p.to_points();
        p.allocate(t(20), d(30), 4);
        p.allocate(t(200), d(10), 10);
        p.release(t(20), d(30), 4);
        p.release(t(200), d(10), 10);
        assert_eq!(p.to_points(), before, "release must merge its break points");
        // Releasing everything leaves the bare origin point.
        p.release(t(0), d(100), 3);
        assert_eq!(p.to_points(), Profile::new(10, t(0)).to_points());
    }

    #[test]
    fn release_keeps_points_other_spans_still_need() {
        let mut p = Profile::new(8, t(0));
        p.allocate(t(0), d(50), 2);
        p.allocate(t(10), d(40), 3);
        p.release(t(10), d(40), 3);
        // The point at 50 closes the first span and must survive.
        assert_eq!(
            p.to_points(),
            vec![
                ProfilePoint {
                    time: t(0),
                    free: 6
                },
                ProfilePoint {
                    time: t(50),
                    free: 8
                },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "overrelease")]
    fn release_panics_on_a_span_that_was_never_allocated() {
        let mut p = Profile::new(4, t(0));
        p.allocate(t(0), d(10), 2);
        p.release(t(5), d(10), 2);
    }

    #[test]
    fn advance_origin_keeps_the_future_and_drops_the_past() {
        let capacity = 64;
        let mut p = Profile::new(capacity, t(0));
        let mut oracle = NaiveProfile::new(capacity, t(0));
        for k in 0..300u64 {
            p.allocate(t(20 * k), d(10), 63);
            oracle.allocate(t(20 * k), d(10), 63);
        }
        let chunks = p.n_chunks();
        p.advance_origin(t(3_005));
        assert_eq!(p.origin(), t(3_005));
        assert!(
            p.n_chunks() < chunks,
            "whole chunks before the origin must go"
        );
        assert_eq!(p.len(), p.to_points().len());
        assert_bounded(&p);
        for probe in (3_005..6_100).step_by(5) {
            assert_eq!(p.free_at(t(probe)), oracle.free_at(t(probe)));
            assert_eq!(
                p.earliest_fit(t(probe), d(15), 2),
                oracle.earliest_fit(t(probe), d(15), 2)
            );
        }
        // Splits after the advance reuse the dropped chunks' slots.
        let arena = p.arena.len();
        for k in 0..200u64 {
            p.allocate(t(3_010 + 20 * k), d(5), 1);
        }
        assert_eq!(p.arena.len(), arena, "splits must reuse spare slots");
        assert_bounded(&p);
    }

    #[test]
    fn same_from_compares_step_functions_not_point_lists() {
        let mut a = Profile::new(8, t(0));
        a.allocate(t(10), d(10), 2);
        a.allocate(t(20), d(10), 2); // redundant point at 20 in `a`
        let mut b = Profile::new(8, t(5));
        b.allocate(t(10), d(20), 2);
        assert!(a.same_from(&b, t(5), &[]));
        assert!(b.same_from(&a, t(12), &[]));
        b.allocate(t(40), d(1), 1);
        assert!(!a.same_from(&b, t(0), &[]));
        assert!(
            !a.same_from(&Profile::new(9, t(0)), t(100), &[]),
            "capacities differ"
        );
        // Differences before `from` do not count.
        let mut c = a.clone();
        c.allocate(t(0), d(5), 8);
        assert!(c.same_from(&a, t(5), &[]));
        assert!(!c.same_from(&a, t(4), &[]));
        // Raised spans from `from` on: `c` minus [12, 25) x 3 and
        // [12, 40) x 1, raised back, is `a` again.
        c.allocate(t(12), d(13), 3);
        c.allocate(t(12), d(28), 1);
        assert!(!c.same_from(&a, t(12), &[]));
        assert!(c.same_from(&a, t(12), &[(t(25), 3), (t(40), 1)]));
        assert!(!c.same_from(&a, t(12), &[(t(25), 3), (t(41), 1)]));
        // Spans that ended by `from` raise nothing.
        assert!(a.same_from(&a, t(30), &[(t(30), 5)]));
    }

    proptest! {
        /// `release` against the oracle: random interleavings of
        /// allocations and releases of live spans keep the indexed
        /// profile equal, as a step function, to the oracle swept from
        /// the live spans; every chunk summary keeps bounding its points;
        /// fits agree; and allocate-then-release of the same span
        /// restores the step function and the point count it started
        /// from.
        #[test]
        fn release_matches_the_oracle_and_restores_the_profile(
            ops in proptest::collection::vec(
                (0u8..10, 1u32..17, 0u64..4_000, 1u64..700),
                50..300,
            ),
            origin in 0u64..50,
        ) {
            let capacity = 16u32;
            let mut p = Profile::new(capacity, t(origin));
            let mut live: Vec<(SimTime, SimTime, u32)> = Vec::new();
            let mut scratch = Vec::new();
            let mut oracle = NaiveProfile::new(capacity, t(origin));
            for (kind, w, after, dur) in ops {
                match kind {
                    0..=5 => {
                        let a = p.allocate_earliest(t(after), d(dur), w);
                        live.push((a, a.saturating_add(d(dur)), w));
                    }
                    6 | 7 if !live.is_empty() => {
                        let (s, e, w) = live.swap_remove(after as usize % live.len());
                        p.release(s, e.saturating_since(s), w);
                    }
                    _ => {
                        let before = p.clone();
                        let a = p.earliest_fit(t(after), d(dur), w);
                        p.allocate(a, d(dur), w);
                        p.release(a, d(dur), w);
                        prop_assert!(p.same_from(&before, t(origin), &[]));
                        prop_assert_eq!(p.len(), before.len());
                    }
                }
                oracle.rebuild_from_spans(capacity, t(origin), &live, &mut scratch);
                for pt in oracle.points().iter().chain(p.to_points().iter()) {
                    prop_assert_eq!(p.free_at(pt.time), oracle.free_at(pt.time));
                }
                for c in 0..p.n_chunks() {
                    prop_assert!(
                        p.bounds_hold(c),
                        "summary [{}, {}] does not bound chunk {}: {:?}",
                        p.min_free[c], p.max_free[c], c, p.chunk(c).frees()
                    );
                }
                prop_assert_eq!(
                    p.earliest_fit(t(after), d(dur), w),
                    oracle.earliest_fit(t(after), d(dur), w)
                );
            }
            // Releasing every live span returns the bare machine.
            for (s, e, w) in live.drain(..) {
                p.release(s, e.saturating_since(s), w);
            }
            prop_assert_eq!(p.to_points(), Profile::new(capacity, t(origin)).to_points());
        }

        /// Random allocate_earliest sequences never violate profile
        /// invariants and always place each reservation at a feasible,
        /// minimal start.
        #[test]
        fn allocate_earliest_is_sound(
            jobs in proptest::collection::vec(
                (1u32..8, 1u64..500, 0u64..300), // (width, duration s, after s)
                1..60,
            )
        ) {
            let capacity = 8;
            let mut p = Profile::new(capacity, t(0));
            // Shadow model: sample free capacity on a 1s grid.
            let mut placed: Vec<(u64, u64, u32)> = Vec::new(); // (start, end, width)
            for (w, dur, after) in jobs {
                let start = p.earliest_fit(t(after), d(dur), w);
                p.allocate(start, d(dur), w);
                let s = start.as_millis() / 1000;
                placed.push((s, s + dur, w));
                prop_assert!(s >= after);
            }
            // No instant may be overcommitted (check at all event edges).
            let mut edges: Vec<u64> = placed.iter().flat_map(|&(s, e, _)| [s, e]).collect();
            edges.sort_unstable();
            edges.dedup();
            for &edge in &edges {
                let used: u32 = placed
                    .iter()
                    .filter(|&&(s, e, _)| s <= edge && edge < e)
                    .map(|&(_, _, w)| w)
                    .sum();
                prop_assert!(used <= capacity, "overcommit at {edge}: {used}");
                // Cross-check the profile agrees with the shadow model.
                prop_assert_eq!(p.free_at(t(edge)), capacity - used);
            }
        }

        /// earliest_fit returns the *minimal* feasible start: starting the
        /// same job one segment earlier must be infeasible.
        #[test]
        fn earliest_fit_is_minimal(
            pre in proptest::collection::vec((1u32..8, 1u64..200, 0u64..200), 0..20),
            w in 1u32..8,
            dur in 1u64..200,
            after in 0u64..100,
        ) {
            let mut p = Profile::new(8, t(0));
            for (pw, pdur, pafter) in pre {
                let s = p.earliest_fit(t(pafter), d(pdur), pw);
                p.allocate(s, d(pdur), pw);
            }
            let start = p.earliest_fit(t(after), d(dur), w);
            prop_assert!(start >= t(after));
            // Feasible at `start`: every second within has enough room.
            let s0 = start.as_millis() / 1000;
            for off in 0..dur {
                prop_assert!(p.free_at(t(s0 + off)) >= w);
            }
            // Minimal: any earlier start in [after, start) hits a blocked
            // instant within its window.
            let mut probe = after;
            while probe < s0 {
                let blocked = (0..dur).any(|off| p.free_at(t(probe + off)) < w);
                prop_assert!(blocked, "start {probe} would also fit (earliest was {s0})");
                probe += 1;
            }
        }

        /// The endpoint sweep builds the same piecewise function as the
        /// allocate loop, for any non-overcommitting span set — and every
        /// earliest_fit query answers identically on both.
        #[test]
        fn sweep_equals_allocate_loop(
            raw in proptest::collection::vec((1u32..5, 0u64..300, 1u64..200), 0..25),
            queries in proptest::collection::vec((1u32..9, 0u64..400, 1u64..150), 1..10),
        ) {
            let capacity = 16u32;
            // Keep the span set feasible by stacking greedily: place each
            // span at its requested time only if it still fits there.
            let mut by_alloc = Profile::new(capacity, t(0));
            let mut spans: Vec<(SimTime, SimTime, u32)> = Vec::new();
            for (w, start, dur) in raw {
                let fits = (start..start + dur).all(|sec| by_alloc.free_at(t(sec)) >= w);
                if fits {
                    by_alloc.allocate(t(start), d(dur), w);
                    spans.push((t(start), t(start + dur), w));
                }
            }
            let mut by_sweep = Profile::new(1, t(7));
            let mut scratch = Vec::new();
            by_sweep.rebuild_from_spans(capacity, t(0), &spans, &mut scratch);
            for sec in 0..600 {
                prop_assert_eq!(by_sweep.free_at(t(sec)), by_alloc.free_at(t(sec)));
            }
            for (w, after, dur) in queries {
                prop_assert_eq!(
                    by_sweep.earliest_fit(t(after), d(dur), w),
                    by_alloc.earliest_fit(t(after), d(dur), w)
                );
            }
        }

        /// The indexed profile against the retained linear-scan oracle:
        /// long random interleavings of allocate_earliest / allocate /
        /// earliest_fit / free_at / restore_from agree bit-for-bit on
        /// every answer and on the full point list. Sequences are long
        /// enough (up to 300 ops on a tight horizon) to force chunk
        /// splits, so the summary-skip paths are exercised across chunks.
        #[test]
        fn indexed_profile_matches_naive_oracle(
            ops in proptest::collection::vec(
                (0u8..5, 1u32..17, 0u64..4_000, 1u64..700),
                1..300,
            ),
            origin in 0u64..50,
        ) {
            let capacity = 16u32;
            let mut p = Profile::new(capacity, t(origin));
            let mut oracle = NaiveProfile::new(capacity, t(origin));
            // Watermark bases for restore_from, captured mid-sequence.
            let mut base = Profile::new(capacity, t(origin));
            let mut oracle_base = NaiveProfile::new(capacity, t(origin));
            for (kind, w, after, dur) in ops {
                match kind {
                    0 | 1 => {
                        // allocate_earliest is the planner hot path — give
                        // it double weight.
                        let a = p.allocate_earliest(t(after), d(dur), w);
                        let b = oracle.allocate_earliest(t(after), d(dur), w);
                        prop_assert_eq!(a, b, "allocate_earliest diverged");
                    }
                    2 => {
                        let a = p.earliest_fit(t(after), d(dur), w);
                        let b = oracle.earliest_fit(t(after), d(dur), w);
                        prop_assert_eq!(a, b, "earliest_fit diverged");
                        // Allocate at the agreed fit so states keep evolving.
                        p.allocate(a, d(dur), w);
                        oracle.allocate(a, d(dur), w);
                    }
                    3 => {
                        prop_assert_eq!(p.free_at(t(after)), oracle.free_at(t(after)));
                        // Capture the current state as the new watermark.
                        base.restore_from(&p);
                        oracle_base.restore_from(&oracle);
                    }
                    _ => {
                        // Roll both back to the watermark.
                        p.restore_from(&base);
                        oracle.restore_from(&oracle_base);
                    }
                }
                prop_assert_eq!(p.capacity(), oracle.capacity());
                prop_assert_eq!(p.len(), oracle.points().len());
            }
            prop_assert_eq!(p.to_points(), oracle.points().to_vec());
        }

        /// Summaries stay bounds through every kind of update: long
        /// random sequences of allocate / allocate_earliest / restore_from
        /// / rebuild_from_spans grow profiles past one chunk, and after
        /// every operation each chunk's summary bounds its points and a
        /// fit query answers like the oracle.
        #[test]
        fn summaries_bound_chunks_under_mixed_updates(
            ops in proptest::collection::vec(
                (0u8..40, 1u32..17, 0u64..4_000, 1u64..700),
                100..400,
            ),
            origin in 0u64..50,
        ) {
            let capacity = 16u32;
            let mut p = Profile::new(capacity, t(origin));
            let mut oracle = NaiveProfile::new(capacity, t(origin));
            let mut base = Profile::new(capacity, t(origin));
            let mut oracle_base = NaiveProfile::new(capacity, t(origin));
            // Reservations placed since the last rebuild: any prefix is a
            // feasible span set to rebuild from. Roll-backs are rare
            // enough that nearly every case grows past one chunk (2 to 7
            // chunks at the peak across the default 64 cases).
            let mut placed: Vec<(SimTime, SimTime, u32)> = Vec::new();
            let mut base_placed = Vec::new();
            let mut scratch = Vec::new();
            for (kind, w, after, dur) in ops {
                match kind {
                    0..=23 => {
                        let a = p.allocate_earliest(t(after), d(dur), w);
                        let b = oracle.allocate_earliest(t(after), d(dur), w);
                        prop_assert_eq!(a, b, "allocate_earliest diverged");
                        placed.push((a, a.saturating_add(d(dur)), w));
                    }
                    24..=35 => {
                        let a = oracle.earliest_fit(t(after), d(dur), w);
                        p.allocate(a, d(dur), w);
                        oracle.allocate(a, d(dur), w);
                        placed.push((a, a.saturating_add(d(dur)), w));
                    }
                    36 => {
                        base.restore_from(&p);
                        oracle_base.restore_from(&oracle);
                        base_placed.clone_from(&placed);
                    }
                    37 => {
                        p.restore_from(&base);
                        oracle.restore_from(&oracle_base);
                        placed.clone_from(&base_placed);
                    }
                    _ => {
                        placed.truncate(placed.len().saturating_sub(after as usize % 4));
                        p.rebuild_from_spans(capacity, t(origin), &placed, &mut scratch);
                        oracle.rebuild_from_spans(capacity, t(origin), &placed, &mut scratch);
                    }
                }
                for c in 0..p.n_chunks() {
                    prop_assert!(
                        p.bounds_hold(c),
                        "summary [{}, {}] does not bound chunk {}: {:?}",
                        p.min_free[c], p.max_free[c], c, p.chunk(c).frees()
                    );
                }
                for (qa, qd, qw) in [(after, dur, w), (after / 3, dur / 2 + 1, capacity - w + 1)] {
                    prop_assert_eq!(
                        p.earliest_fit(t(qa), d(qd), qw),
                        oracle.earliest_fit(t(qa), d(qd), qw),
                        "earliest_fit diverged"
                    );
                }
            }
            prop_assert_eq!(p.to_points(), oracle.points().to_vec());
        }

        /// Boundary-instant windows: fits queried exactly at break
        /// points, one tick before and after, with zero-width /
        /// zero-duration / full-capacity extremes — indexed and naive
        /// answers match everywhere.
        #[test]
        fn indexed_fit_matches_naive_at_boundaries(
            spans in proptest::collection::vec((1u32..9, 0u64..500, 1u64..120), 1..40),
            durs in proptest::collection::vec(1u64..200, 1..6),
        ) {
            let capacity = 16u32;
            let mut p = Profile::new(capacity, t(0));
            let mut oracle = NaiveProfile::new(capacity, t(0));
            for &(w, start, dur) in &spans {
                let s = oracle.earliest_fit(t(start), d(dur), w);
                oracle.allocate(s, d(dur), w);
                let s2 = p.earliest_fit(t(start), d(dur), w);
                prop_assert_eq!(s2, s);
                p.allocate(s, d(dur), w);
            }
            // Probe exactly at every break point and ±1s around it.
            let probes: Vec<u64> = oracle
                .points()
                .iter()
                .flat_map(|pt| {
                    let s = pt.time.as_millis() / 1000;
                    [s.saturating_sub(1), s, s + 1]
                })
                .collect();
            for &probe in &probes {
                prop_assert_eq!(p.free_at(t(probe)), oracle.free_at(t(probe)));
                for &dur in &durs {
                    for w in [0u32, 1, 8, capacity] {
                        prop_assert_eq!(
                            p.earliest_fit(t(probe), d(dur), w),
                            oracle.earliest_fit(t(probe), d(dur), w),
                            "diverged at probe={} dur={} w={}", probe, dur, w
                        );
                    }
                    prop_assert_eq!(
                        p.earliest_fit(t(probe), SimDuration::ZERO, capacity),
                        oracle.earliest_fit(t(probe), SimDuration::ZERO, capacity)
                    );
                }
            }
        }

        /// rebuild_from_spans parity: sweeping the same span set into an
        /// indexed and a naive profile yields identical point lists.
        #[test]
        fn indexed_sweep_matches_naive_sweep(
            raw in proptest::collection::vec((1u32..5, 0u64..2_000, 1u64..300), 0..120),
            origin in 0u64..100,
        ) {
            let capacity = 16u32;
            // Greedily keep the span set feasible.
            let mut feas = NaiveProfile::new(capacity, t(0));
            let mut spans: Vec<(SimTime, SimTime, u32)> = Vec::new();
            for (w, start, dur) in raw {
                let fits = (start..start + dur).all(|sec| feas.free_at(t(sec)) >= w);
                if fits {
                    feas.allocate(t(start), d(dur), w);
                    spans.push((t(start), t(start + dur), w));
                }
            }
            let mut scratch = Vec::new();
            let mut p = Profile::new(1, t(3));
            p.rebuild_from_spans(capacity, t(origin), &spans, &mut scratch);
            let mut oracle = NaiveProfile::new(1, t(3));
            oracle.rebuild_from_spans(capacity, t(origin), &spans, &mut scratch);
            prop_assert_eq!(p.to_points(), oracle.points().to_vec());
        }
    }
}
