//! SPRITE system configuration.
//!
//! Every field is a parameter of the paper's system (budgets, cache size,
//! replication degree) or an ablation axis of its evaluation. There are
//! no representation or protocol switches: bulk publication always
//! batches, inverted lists are always stored packed, and document
//! deletion always tombstones (DESIGN.md §10, §14, §15).

use sprite_ir::Similarity;

/// Tunables of a SPRITE deployment. Defaults are the paper's §6.2 settings.
#[derive(Clone, Debug)]
pub struct SpriteConfig {
    /// Global index terms published when a document is first shared
    /// (`F = 5`, §6.2) — the top-F most frequent terms.
    pub initial_terms: usize,
    /// New terms admitted per learning iteration (5, §6.2). The term budget
    /// grows by this amount each iteration until [`Self::max_terms`]; after
    /// that, learning only *replaces* terms (§6.3's Figure 4(c) setup).
    pub terms_per_iteration: usize,
    /// Hard cap on global index terms per document (20 by default; 30 in
    /// the pattern-change experiment; "say, 30" in §5).
    pub max_terms: usize,
    /// Queries an indexing peer keeps in its history, most recent first
    /// ("each indexing peer maintains only the most recently issued
    /// queries", §3).
    pub query_cache_capacity: usize,
    /// The "sufficiently large N" of §4 used for IDF in the distributed
    /// setting, where the true corpus size is unknowable.
    pub assumed_n: f64,
    /// Index replication degree (§7): 1 = no replication; `r` stores each
    /// term's inverted list on the owner plus `r − 1` successors.
    pub replication: usize,
    /// Similarity formula for distributed ranking. The paper uses the
    /// simplified Lee et al. "second method".
    pub similarity: Similarity,
    /// Term-scoring variant for learning (ablation; default the paper's
    /// combined `qScore · log QF`).
    pub score_mode: crate::learn::ScoreMode,
    /// IDF source for distributed ranking (ablation; default the paper's
    /// indexed document frequency).
    pub idf_mode: IdfMode,
}

/// Which document frequency feeds the IDF during distributed ranking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IdfMode {
    /// The paper's surrogate: the *indexed* document frequency `n′_k`
    /// (length of the retrieved inverted list).
    #[default]
    Indexed,
    /// Oracle leak of the exact corpus document frequency `n_k` — an upper
    /// bound showing how much the surrogate costs (§3 argues: nothing).
    TrueDf,
}

impl Default for SpriteConfig {
    fn default() -> Self {
        SpriteConfig {
            initial_terms: 5,
            terms_per_iteration: 5,
            max_terms: 20,
            query_cache_capacity: 4096,
            assumed_n: 1.0e6,
            replication: 1,
            similarity: Similarity::LeeSecond,
            score_mode: crate::learn::ScoreMode::Full,
            idf_mode: IdfMode::Indexed,
        }
    }
}

impl SpriteConfig {
    /// The basic-eSearch baseline (§6): a *static* index of the `k` most
    /// frequent terms — i.e. SPRITE with all terms published up front and no
    /// learning.
    #[must_use]
    pub fn esearch(k: usize) -> Self {
        SpriteConfig {
            initial_terms: k,
            terms_per_iteration: 0,
            max_terms: k,
            ..SpriteConfig::default()
        }
    }

    /// True when this configuration never learns (a static index).
    #[must_use]
    pub fn is_static(&self) -> bool {
        self.terms_per_iteration == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SpriteConfig::default();
        assert_eq!(c.initial_terms, 5);
        assert_eq!(c.terms_per_iteration, 5);
        assert_eq!(c.max_terms, 20);
        assert_eq!(c.replication, 1);
        assert!(!c.is_static());
        assert_eq!(c.similarity, Similarity::LeeSecond);
    }

    #[test]
    fn esearch_is_static() {
        let c = SpriteConfig::esearch(20);
        assert!(c.is_static());
        assert_eq!(c.initial_terms, 20);
        assert_eq!(c.max_terms, 20);
    }
}
