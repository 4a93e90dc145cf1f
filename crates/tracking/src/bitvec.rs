//! Plain and atomic bit-vectors.
//!
//! Both store bits in 64-bit words. The atomic variant supports concurrent
//! `set` from any number of threads with `Relaxed` ordering — marking is a
//! monotonic, commutative operation (set-only between resets), so no ordering
//! stronger than the eventual snapshot synchronization is required. The
//! snapshot itself (`swap`/`load` in [`AtomicBitVec::snapshot`]) happens while
//! the trainer is stalled at a batch boundary, which is the paper's
//! consistency point (§4.2).

use std::sync::atomic::{AtomicU64, Ordering};

/// A plain, cloneable bit-vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero bit-vector of `len` bits.
    pub fn new(len: usize) -> Self {
        Self {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Sets every bit that is set in `other`. Lengths must match.
    pub fn union_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "union of mismatched lengths");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Clears bits that are set in `other` (set difference). Lengths must match.
    pub fn subtract(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "subtract of mismatched lengths");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// Resets every bit to zero.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            bv: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterates over the maximal runs of consecutive set bits, ascending:
    /// the same bits as [`Self::iter_ones`], one item per run instead of
    /// one per bit (an all-ones vector is a single run).
    pub fn iter_runs(&self) -> IterRuns<'_> {
        IterRuns { bv: self, pos: 0 }
    }

    /// First index at or after `from` whose bit equals `set`; `len` when
    /// there is none.
    fn next_bit(&self, from: usize, set: bool) -> usize {
        let flip = if set { 0 } else { !0u64 };
        let mut mask = !0u64 << (from % 64);
        for (i, &word) in self.words.iter().enumerate().skip(from / 64) {
            let hits = (word ^ flip) & mask;
            if hits != 0 {
                // A cleared padding bit of the last word reads as `len`.
                return (i * 64 + hits.trailing_zeros() as usize).min(self.len);
            }
            mask = !0;
        }
        self.len
    }

    /// Raw words (little-endian bit order within each word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds from raw words. Extra high bits in the last word must be zero.
    pub fn from_words(len: usize, words: Vec<u64>) -> Option<Self> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last() {
                if last >> (len % 64) != 0 {
                    return None;
                }
            }
        }
        Some(Self { len, words })
    }

    /// In-memory footprint of the bit data in bytes.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }
}

/// Iterator over set-bit indices of a [`BitVec`].
pub struct IterOnes<'a> {
    bv: &'a BitVec,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.word_idx * 64 + tz);
            }
            self.word_idx += 1;
            if self.word_idx >= self.bv.words.len() {
                return None;
            }
            self.current = self.bv.words[self.word_idx];
        }
    }
}

/// Iterator over the runs of set bits of a [`BitVec`].
pub struct IterRuns<'a> {
    bv: &'a BitVec,
    pos: usize,
}

impl Iterator for IterRuns<'_> {
    type Item = std::ops::Range<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        let start = self.bv.next_bit(self.pos, true);
        if start == self.bv.len {
            return None;
        }
        self.pos = self.bv.next_bit(start, false);
        Some(start..self.pos)
    }
}

/// A bit-vector supporting concurrent `set` from multiple threads.
#[derive(Debug)]
pub struct AtomicBitVec {
    len: usize,
    words: Vec<AtomicU64>,
}

impl AtomicBitVec {
    /// Creates an all-zero atomic bit-vector of `len` bits.
    pub fn new(len: usize) -> Self {
        let mut words = Vec::with_capacity(len.div_ceil(64));
        words.resize_with(len.div_ceil(64), || AtomicU64::new(0));
        Self { len, words }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`. Safe to call from any thread; relaxed ordering is
    /// sufficient because marking is monotonic between snapshots.
    #[inline]
    pub fn set(&self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64].fetch_or(1u64 << (i % 64), Ordering::Relaxed);
    }

    /// Reads bit `i` (racy with concurrent setters, exact when quiesced).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        (self.words[i / 64].load(Ordering::Relaxed) >> (i % 64)) & 1 == 1
    }

    /// Number of set bits (exact only when no concurrent setters).
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Copies the current contents into a plain [`BitVec`].
    pub fn snapshot(&self) -> BitVec {
        let words = self
            .words
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .collect();
        BitVec {
            len: self.len,
            words,
        }
    }

    /// Atomically (per word) reads out the contents and resets them to zero.
    ///
    /// Must be called while trainers are quiesced at a batch boundary —
    /// per-word atomicity then composes into a consistent whole-vector
    /// snapshot, exactly as in the paper's stall-and-snapshot design.
    pub fn snapshot_and_reset(&self) -> BitVec {
        let words = self
            .words
            .iter()
            .map(|w| w.swap(0, Ordering::AcqRel))
            .collect();
        BitVec {
            len: self.len,
            words,
        }
    }

    /// Resets every bit to zero.
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Release);
        }
    }

    /// In-memory footprint of the bit data in bytes. The paper reports this
    /// is "typically less than 0.05%" of the model; see
    /// `tracker::ModificationTracker::overhead_fraction`.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bv = BitVec::new(130);
        assert!(!bv.get(0));
        bv.set(0);
        bv.set(63);
        bv.set(64);
        bv.set(129);
        assert!(bv.get(0) && bv.get(63) && bv.get(64) && bv.get(129));
        assert_eq!(bv.count_ones(), 4);
        bv.clear(63);
        assert!(!bv.get(63));
        assert_eq!(bv.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let bv = BitVec::new(10);
        bv.get(10);
    }

    #[test]
    fn iter_ones_in_order() {
        let mut bv = BitVec::new(200);
        for i in [3usize, 64, 65, 127, 128, 199] {
            bv.set(i);
        }
        let ones: Vec<usize> = bv.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn iter_ones_empty_and_full() {
        let bv = BitVec::new(77);
        assert_eq!(bv.iter_ones().count(), 0);
        let mut full = BitVec::new(77);
        for i in 0..77 {
            full.set(i);
        }
        assert_eq!(full.iter_ones().count(), 77);
        assert_eq!(full.count_ones(), 77);
    }

    #[test]
    fn iter_runs_are_the_maximal_runs_of_iter_ones() {
        let patterns: Vec<(usize, Vec<usize>)> = vec![
            (0, vec![]),
            (77, vec![]),
            (77, (0..77).collect()),
            (128, (0..128).collect()),
            (200, vec![3, 63, 64, 65, 127, 129, 199]),
            (130, (0..130).step_by(2).collect()),
            (192, (60..140).collect()),
        ];
        for (len, ones) in patterns {
            let mut bv = BitVec::new(len);
            ones.iter().for_each(|&i| bv.set(i));
            let runs: Vec<_> = bv.iter_runs().collect();
            let flat: Vec<usize> = runs.iter().cloned().flatten().collect();
            assert_eq!(flat, ones, "len {len}");
            for pair in runs.windows(2) {
                assert!(pair[0].end < pair[1].start, "runs must be maximal: {runs:?}");
            }
        }
        let mut full = BitVec::new(1000);
        (0..1000).for_each(|i| full.set(i));
        assert_eq!(full.iter_runs().collect::<Vec<_>>(), vec![0..1000]);
    }

    #[test]
    fn union_intersect_subtract() {
        let mut a = BitVec::new(70);
        let mut b = BitVec::new(70);
        a.set(1);
        a.set(65);
        b.set(65);
        b.set(69);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 65, 69]);

        // a ∩ b = a ∖ (a ∖ b)
        let mut only_a = a.clone();
        only_a.subtract(&b);
        let mut i = a.clone();
        i.subtract(&only_a);
        assert_eq!(i.iter_ones().collect::<Vec<_>>(), vec![65]);

        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter_ones().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "mismatched lengths")]
    fn union_length_mismatch_panics() {
        let mut a = BitVec::new(10);
        let b = BitVec::new(11);
        a.union_with(&b);
    }

    #[test]
    fn from_words_roundtrip() {
        let mut bv = BitVec::new(100);
        bv.set(0);
        bv.set(99);
        let rebuilt = BitVec::from_words(100, bv.words().to_vec()).unwrap();
        assert_eq!(bv, rebuilt);
    }

    #[test]
    fn from_words_rejects_garbage() {
        // Wrong word count.
        assert!(BitVec::from_words(100, vec![0; 1]).is_none());
        // High bits beyond len set.
        assert!(BitVec::from_words(65, vec![0, 0b100]).is_none());
    }

    #[test]
    fn atomic_snapshot_and_reset() {
        let abv = AtomicBitVec::new(100);
        abv.set(5);
        abv.set(99);
        assert_eq!(abv.count_ones(), 2);
        let snap = abv.snapshot_and_reset();
        assert_eq!(snap.iter_ones().collect::<Vec<_>>(), vec![5, 99]);
        assert_eq!(abv.count_ones(), 0);
    }

    #[test]
    fn atomic_concurrent_marking_loses_nothing() {
        use std::sync::Arc;
        let abv = Arc::new(AtomicBitVec::new(64 * 1024));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let abv = Arc::clone(&abv);
            handles.push(std::thread::spawn(move || {
                // Each thread sets a disjoint stripe plus a shared region.
                for i in 0..8 * 1024usize {
                    abv.set((t as usize) * 8 * 1024 + i);
                }
                for i in 0..1000usize {
                    abv.set(i); // contended sets
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(abv.count_ones(), 64 * 1024);
    }

    #[test]
    fn zero_length_vectors() {
        let bv = BitVec::new(0);
        assert!(bv.is_empty());
        assert_eq!(bv.count_ones(), 0);
        let abv = AtomicBitVec::new(0);
        assert!(abv.is_empty());
        assert_eq!(abv.snapshot().len(), 0);
    }

    #[test]
    fn word_boundary_lengths_roundtrip_through_words() {
        // Lengths straddling the 64-bit word edge are where from_words'
        // high-bit validation and iter_ones' word stepping can go wrong.
        for len in [63usize, 64, 65, 128, 129] {
            let mut bv = BitVec::new(len);
            bv.set(0);
            bv.set(len - 1);
            let rebuilt = BitVec::from_words(len, bv.words().to_vec()).unwrap();
            assert_eq!(rebuilt, bv, "len {len}");
            assert_eq!(
                rebuilt.iter_ones().collect::<Vec<_>>(),
                vec![0, len - 1],
                "len {len}"
            );
        }
    }

    #[test]
    fn from_words_rejects_high_bits_at_exact_boundary() {
        // len 65 -> two words; bit 1 of the second word is past the end.
        assert!(BitVec::from_words(65, vec![0, 0b10]).is_none());
        // len 64 -> one full word; every bit of it is in range.
        assert!(BitVec::from_words(64, vec![u64::MAX]).is_some());
    }

    #[test]
    fn clear_all_then_reuse() {
        let mut bv = BitVec::new(70);
        bv.set(3);
        bv.set(69);
        bv.clear_all();
        assert_eq!(bv.count_ones(), 0);
        bv.set(68);
        assert_eq!(bv.iter_ones().collect::<Vec<_>>(), vec![68]);
    }

    #[test]
    fn empty_inputs_to_set_algebra() {
        let mut a = BitVec::new(0);
        let b = BitVec::new(0);
        a.union_with(&b);
        a.subtract(&b);
        assert_eq!(a.count_ones(), 0);
        assert_eq!(a.iter_ones().count(), 0);
    }
}
