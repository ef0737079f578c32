//! Synthetic training data — the substitute for the paper's Wikipedia dump
//! (WikiExtractor, Sec. III-B2).
//!
//! Dataset *content* never influences the paper's measurements (bandwidth,
//! throughput, memory); only the token geometry does. This module provides
//! a deterministic token-stream generator with the right geometry so that
//! examples and tests can drive the full input pipeline.

use zerosim_testkit::rng::splitmix64;

use crate::config::GptConfig;

/// A batch of token ids, `sequences × seq_len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBatch {
    /// Number of sequences in the batch.
    pub sequences: usize,
    /// Tokens per sequence.
    pub seq_len: usize,
    /// Row-major token ids.
    pub tokens: Vec<u32>,
}

impl TokenBatch {
    /// Bytes this batch occupies as int32 ids (what travels host → GPU).
    pub fn bytes(&self) -> f64 {
        (self.tokens.len() * 4) as f64
    }
}

/// Deterministic synthetic corpus with a Zipf-flavoured token distribution.
///
/// ```
/// use zerosim_model::{GptConfig, SyntheticCorpus};
/// let corpus = SyntheticCorpus::new(GptConfig::default(), 42);
/// let batch = corpus.batch(0, 16);
/// assert_eq!(batch.tokens.len(), 16 * 256);
/// // Deterministic: same index, same batch.
/// assert_eq!(corpus.batch(0, 16), batch);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticCorpus {
    config: GptConfig,
    seed: u64,
}

impl SyntheticCorpus {
    /// Creates a corpus for the given model configuration.
    pub fn new(config: GptConfig, seed: u64) -> Self {
        SyntheticCorpus { config, seed }
    }

    /// The `index`-th batch with `sequences` sequences.
    pub fn batch(&self, index: u64, sequences: usize) -> TokenBatch {
        let seq_len = self.config.seq_len;
        let vocab = self.config.vocab_size as u64;
        let mut state = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let mut tokens = Vec::with_capacity(sequences * seq_len);
        for _ in 0..sequences * seq_len {
            let r = splitmix64(&mut state);
            // Squaring a uniform skews low ids — a cheap Zipf stand-in.
            let u = (r >> 11) as f64 / (1u64 << 53) as f64;
            // u*u in [0,1), so the product stays below `vocab` (< 2^32).
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let id = ((u * u) * vocab as f64) as u64 % vocab;
            #[allow(clippy::cast_possible_truncation)] // id < vocab < 2^32
            tokens.push(id as u32);
        }
        TokenBatch {
            sequences,
            seq_len,
            tokens,
        }
    }

    /// Bytes per iteration fed to each GPU (`per_gpu_batch` sequences of
    /// int32 ids) — the input-pipeline volume, negligible next to gradient
    /// traffic, exactly as in the paper.
    pub fn bytes_per_gpu_iteration(&self, per_gpu_batch: usize) -> f64 {
        (per_gpu_batch * self.config.seq_len * 4) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_deterministic_and_in_vocab() {
        let c = SyntheticCorpus::new(GptConfig::default(), 7);
        let a = c.batch(3, 4);
        let b = c.batch(3, 4);
        assert_eq!(a, b);
        assert!(a.tokens.iter().all(|&t| (t as usize) < 50257));
        assert_ne!(c.batch(4, 4), a, "different indices differ");
    }

    #[test]
    fn distribution_is_skewed_low() {
        let c = SyntheticCorpus::new(GptConfig::default(), 1);
        let batch = c.batch(0, 64);
        let below_half = batch
            .tokens
            .iter()
            .filter(|&&t| (t as usize) < 50257 / 2)
            .count();
        // A Zipf-ish skew puts well over half the mass in the lower half.
        assert!(below_half as f64 > 0.6 * batch.tokens.len() as f64);
    }

    #[test]
    fn byte_accounting() {
        let c = SyntheticCorpus::new(GptConfig::default(), 1);
        assert_eq!(c.bytes_per_gpu_iteration(16), (16 * 256 * 4) as f64);
        assert_eq!(c.batch(0, 16).bytes(), (16 * 256 * 4) as f64);
    }
}
