//! Synthetic WebDocs (Fig. 10's "real-life" dataset, substituted).
//!
//! The real WebDocs instance (FIMI repository) associates web documents
//! with the words they contain. The experiment's load-bearing properties
//! are (a) heavily skewed word frequencies and (b) a vocabulary that
//! grows rapidly with the number of documents read — which is what blows
//! up Apriori on small prefixes. We model (a) with a Zipf(α) rank
//! distribution and (b) with Heaps'-law vocabulary growth
//! (`V(N) ≈ K·N^β`), the standard generative model of text corpora.
//! ARCHITECTURE.md, "Deviations from the paper" (item 2), records the
//! substitution.

use crate::zipf::Zipf;
use fim::TransactionDb;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Parameters of the synthetic corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WebDocsSpec {
    /// Number of documents (transactions / prefix lines).
    pub documents: usize,
    /// Mean distinct words per document.
    pub mean_doc_len: usize,
    /// Heaps constant `K` (vocabulary = K·Nᵝ for N word tokens).
    pub heaps_k: f64,
    /// Heaps exponent `β` (≈ 0.5–0.7 for real corpora).
    pub heaps_beta: f64,
    /// Zipf exponent for word frequencies.
    pub zipf_alpha: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WebDocsSpec {
    fn default() -> Self {
        WebDocsSpec {
            documents: 10_000,
            mean_doc_len: 100,
            heaps_k: 10.0,
            heaps_beta: 0.6,
            zipf_alpha: 1.1,
            seed: 0xD0C5,
        }
    }
}

impl WebDocsSpec {
    /// Vocabulary size after `tokens` word tokens (Heaps' law).
    pub fn vocabulary(&self, tokens: usize) -> usize {
        ((self.heaps_k * (tokens as f64).powf(self.heaps_beta)) as usize).max(1)
    }
}

/// Generate the corpus. Document `d` draws its words Zipf-ranked from
/// the vocabulary available after the first `d` documents' tokens, so
/// the distinct-item count grows with prefix size exactly as the
/// experiment requires.
pub fn generate(spec: &WebDocsSpec) -> TransactionDb {
    assert!(spec.documents > 0 && spec.mean_doc_len > 0);
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let total_tokens = spec.documents * spec.mean_doc_len;
    let max_vocab = spec.vocabulary(total_tokens);
    // One Zipf table over the final vocabulary; documents early in the
    // corpus clamp ranks to their current vocabulary, giving the Heaps
    // growth without rebuilding tables per document.
    let zipf = Zipf::new(max_vocab, spec.zipf_alpha);
    let mut transactions = Vec::with_capacity(spec.documents);
    let mut tokens_so_far = 0usize;
    for _ in 0..spec.documents {
        // Document length: geometric-ish around the mean (≥ 1).
        let len = 1 + rng.random_range(0..2 * spec.mean_doc_len);
        let vocab_now = spec.vocabulary(tokens_so_far + len).min(max_vocab);
        let mut doc = Vec::with_capacity(len);
        for _ in 0..len {
            let rank = zipf.sample(&mut rng) % vocab_now;
            doc.push(rank as u32);
        }
        tokens_so_far += len;
        transactions.push(doc);
    }
    TransactionDb::new(max_vocab as u32, transactions)
}

/// The Fig. 10 protocol: a prefix of the corpus, as its own database
/// (items re-counted over the prefix only).
pub fn prefix(db: &TransactionDb, lines: usize) -> TransactionDb {
    let take = lines.min(db.len());
    TransactionDb::new(db.n_items(), db.transactions()[..take].to_vec())
}

/// Distinct items actually present in a database (WebDocs' rapidly
/// growing quantity; Fig. 10's x-axis commentary).
pub fn distinct_items(db: &TransactionDb) -> usize {
    db.item_supports().iter().filter(|&&s| s > 0).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WebDocsSpec {
        WebDocsSpec {
            documents: 2000,
            mean_doc_len: 40,
            ..Default::default()
        }
    }

    #[test]
    fn vocabulary_grows_with_prefix() {
        let db = generate(&spec());
        let v400 = distinct_items(&prefix(&db, 400));
        let v2000 = distinct_items(&prefix(&db, 2000));
        assert!(
            v2000 as f64 > v400 as f64 * 1.5,
            "vocabulary growth too flat: {v400} → {v2000}"
        );
    }

    #[test]
    fn word_frequencies_are_skewed() {
        let db = generate(&spec());
        let mut s = db.item_supports();
        s.sort_unstable_by(|a, b| b.cmp(a));
        // Top word far above the median word.
        let median = s[s.len() / 2].max(1);
        assert!(s[0] > median * 10, "head {} vs median {median}", s[0]);
    }

    #[test]
    fn prefix_truncates() {
        let db = generate(&spec());
        let p = prefix(&db, 100);
        assert_eq!(p.len(), 100);
        assert_eq!(p.transactions()[..], db.transactions()[..100]);
        // Oversized prefix returns the whole corpus.
        assert_eq!(prefix(&db, 10_000_000).len(), db.len());
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate(&spec()), generate(&spec()));
    }

    #[test]
    fn heaps_formula() {
        let s = WebDocsSpec::default();
        assert!(s.vocabulary(1_000_000) > s.vocabulary(10_000) * 5);
        assert_eq!(s.vocabulary(0), 1);
    }
}
