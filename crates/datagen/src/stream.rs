//! Timestamped transaction streams for the incremental-ingestion path.
//!
//! The batch generators in this crate produce a whole database up
//! front; the live write path and the sliding-window miner instead
//! consume transactions **one at a time, in arrival order**. A
//! [`StreamSpec`] describes such a stream — Zipf-skewed item picks
//! (the same head-heavy regime as the WebDocs model, so head items
//! carry large deltas and tail items small ones), a target mean
//! transaction length, and a mean inter-arrival gap — and generates a
//! deterministic `Vec<TxnEvent>` given its seed.
//!
//! Timestamps are synthetic milliseconds from stream start. They exist
//! so windowed-mining scenarios can reason about *time*-based windows
//! and replay pacing; the [`WindowedMiner`]'s count-based window only
//! needs the order, which is the `seq` field.
//!
//! [`WindowedMiner`]: ../pairminer/ingest/struct.WindowedMiner.html

use crate::zipf::Zipf;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One transaction arriving on a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnEvent {
    /// Arrival order, `0..events`.
    pub seq: u64,
    /// Synthetic arrival time in milliseconds from stream start
    /// (non-decreasing).
    pub at_ms: u64,
    /// The transaction's items: strictly ascending, non-empty — exactly
    /// what `LayeredCorpus::insert_txn` and `WindowedMiner::push`
    /// accept.
    pub items: Vec<u32>,
}

/// Parameters of a synthetic transaction stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Vocabulary size (item ids are `0..n_items`).
    pub n_items: u32,
    /// Number of events to generate.
    pub events: usize,
    /// Target mean items per transaction (each transaction draws its
    /// length uniformly from `1..=2*avg_len - 1`, then dedups, so the
    /// realized mean is slightly below for skewed vocabularies).
    pub avg_len: usize,
    /// Zipf exponent of the item popularity distribution.
    pub alpha: f64,
    /// Mean inter-arrival gap in milliseconds (gaps are uniform in
    /// `0..=2*gap_ms`; `0` collapses the stream to a single instant).
    pub gap_ms: u64,
    /// ChaCha8 seed; equal specs generate equal streams.
    pub seed: u64,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            n_items: 1_000,
            events: 10_000,
            avg_len: 8,
            alpha: 1.0,
            gap_ms: 10,
            seed: 0x57EA,
        }
    }
}

impl StreamSpec {
    /// Generate the full event list, deterministically from the spec.
    ///
    /// # Panics
    /// Panics if `n_items == 0` or `avg_len == 0`.
    pub fn generate(&self) -> Vec<TxnEvent> {
        assert!(self.n_items > 0, "stream needs a non-empty vocabulary");
        assert!(self.avg_len > 0, "stream needs a positive mean length");
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let zipf = Zipf::new(self.n_items as usize, self.alpha);
        let mut events = Vec::with_capacity(self.events);
        let mut now_ms = 0u64;
        for seq in 0..self.events as u64 {
            if self.gap_ms > 0 {
                now_ms += rng.random_range(0..2 * self.gap_ms + 1);
            }
            let target = rng.random_range(1..2 * self.avg_len);
            let mut items: Vec<u32> = (0..target).map(|_| zipf.sample(&mut rng) as u32).collect();
            items.sort_unstable();
            items.dedup();
            events.push(TxnEvent {
                seq,
                at_ms: now_ms,
                items,
            });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_well_formed() {
        let spec = StreamSpec {
            n_items: 50,
            events: 500,
            avg_len: 6,
            ..StreamSpec::default()
        };
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b, "same spec must generate the same stream");
        assert_eq!(a.len(), 500);
        let mut last_ms = 0;
        for (i, ev) in a.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            assert!(ev.at_ms >= last_ms, "timestamps must be non-decreasing");
            last_ms = ev.at_ms;
            assert!(!ev.items.is_empty());
            assert!(ev.items.windows(2).all(|w| w[0] < w[1]));
            assert!(ev.items.iter().all(|&x| x < 50));
        }
    }

    #[test]
    fn different_seeds_differ_and_lengths_track_the_mean() {
        let base = StreamSpec {
            n_items: 200,
            events: 2_000,
            avg_len: 10,
            alpha: 0.8,
            ..StreamSpec::default()
        };
        let other = StreamSpec {
            seed: base.seed + 1,
            ..base
        };
        let a = base.generate();
        let b = other.generate();
        assert_ne!(a, b, "different seeds must diverge");
        let mean = a.iter().map(|e| e.items.len()).sum::<usize>() as f64 / a.len() as f64;
        // Dedup under a mild skew trims a little off the target of 10.
        assert!((4.0..=12.0).contains(&mean), "mean length drifted: {mean}");
    }

    #[test]
    fn zero_gap_collapses_time() {
        let spec = StreamSpec {
            events: 20,
            gap_ms: 0,
            ..StreamSpec::default()
        };
        assert!(spec.generate().iter().all(|e| e.at_ms == 0));
    }
}
