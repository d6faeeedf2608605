//! The globally ordered ledger.
//!
//! The paper's prototype is a permissioned blockchain: "Each group
//! concurrently accepts local client transactions and generates a
//! subchain of blocks. These blocks are then synchronized across groups
//! using MassBFT to create a single, globally ordered, ledger" (§VI).
//! [`Ledger`] is that final artifact at one node: a hash chain over the
//! deterministically ordered, executed entries, binding each block to the
//! entry content and the post-execution state fingerprint.
//!
//! Two correct nodes' ledgers are prefix-identical (Agreement); the chain
//! head hash is a single value that audits an entire shared history.

use crate::entry::EntryId;
use massbft_crypto::Digest;

/// One ledger block: an executed entry with its chain linkage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Position in the chain, starting at 1.
    pub height: u64,
    /// The entry executed at this height.
    pub entry: EntryId,
    /// Digest of the entry bytes.
    pub entry_digest: Digest,
    /// Hash of the previous block ([`Digest::ZERO`] for the genesis link).
    pub prev_hash: Digest,
    /// Database content fingerprint after executing this entry.
    pub state_fingerprint: u64,
    /// This block's hash (binds all of the above).
    pub hash: Digest,
}

/// A node-local hash chain over the executed entry sequence.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    blocks: Vec<Block>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Chain height (number of blocks).
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// The head block's hash, or [`Digest::ZERO`] before genesis.
    pub fn head_hash(&self) -> Digest {
        self.blocks.last().map(|b| b.hash).unwrap_or(Digest::ZERO)
    }

    /// Block at `height` (1-based).
    pub fn block(&self, height: u64) -> Option<&Block> {
        if height == 0 {
            return None;
        }
        self.blocks.get(height as usize - 1)
    }

    /// All blocks in order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Appends the next executed entry, returning the new block.
    pub fn append(
        &mut self,
        entry: EntryId,
        entry_digest: Digest,
        state_fingerprint: u64,
    ) -> &Block {
        let height = self.height() + 1;
        let prev_hash = self.head_hash();
        let hash = block_hash(height, entry, &entry_digest, &prev_hash, state_fingerprint);
        self.blocks.push(Block {
            height,
            entry,
            entry_digest,
            prev_hash,
            state_fingerprint,
            hash,
        });
        self.blocks.last().expect("just pushed")
    }

    /// Verifies the internal hash chain (tamper-evidence).
    pub fn verify_chain(&self) -> bool {
        let mut prev = Digest::ZERO;
        for (i, b) in self.blocks.iter().enumerate() {
            if b.height != i as u64 + 1 || b.prev_hash != prev {
                return false;
            }
            let expect = block_hash(
                b.height,
                b.entry,
                &b.entry_digest,
                &b.prev_hash,
                b.state_fingerprint,
            );
            if b.hash != expect {
                return false;
            }
            prev = b.hash;
        }
        true
    }

    /// Whether `other` is a prefix of `self` or vice versa — the
    /// Agreement check between two replicas' ledgers.
    pub fn prefix_consistent(&self, other: &Ledger) -> bool {
        self.first_mismatch(other).is_none()
    }

    /// The first height at which `self` and `other` hold different blocks,
    /// and what differs there; `None` when one is a prefix of the other.
    /// Below that height both chains agree, so a block built by
    /// [`Ledger::append`] differs in entry id, entry digest or state
    /// fingerprint.
    pub(crate) fn first_mismatch(&self, other: &Ledger) -> Option<(u64, Mismatch)> {
        let mut pairs = self.blocks.iter().zip(&other.blocks);
        let (a, b) = pairs.find(|(a, b)| a != b)?;
        let field = if a.entry != b.entry {
            Mismatch::EntryId
        } else if a.entry_digest != b.entry_digest {
            Mismatch::EntryDigest
        } else {
            Mismatch::StateFingerprint
        };
        Some((a.height, field))
    }
}

/// What two blocks at the same height disagree on, checked in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mismatch {
    /// Different entries executed at that height.
    EntryId,
    /// The same entry with different content.
    EntryDigest,
    /// The same content, a different database state after it.
    StateFingerprint,
}

fn block_hash(
    height: u64,
    entry: EntryId,
    entry_digest: &Digest,
    prev_hash: &Digest,
    state_fingerprint: u64,
) -> Digest {
    Digest::of_parts(&[
        b"massbft-block",
        &height.to_le_bytes(),
        &entry.gid.to_le_bytes(),
        &entry.seq.to_le_bytes(),
        &entry_digest.0,
        &prev_hash.0,
        &state_fingerprint.to_le_bytes(),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Ledger {
        let mut l = Ledger::new();
        for i in 1..=n {
            let id = EntryId::new((i % 3) as u32, i);
            l.append(id, Digest::of(&i.to_le_bytes()), i * 7);
        }
        l
    }

    #[test]
    fn chain_links_and_verifies() {
        let l = sample(5);
        assert_eq!(l.height(), 5);
        assert!(l.verify_chain());
        assert_eq!(l.block(1).unwrap().prev_hash, Digest::ZERO);
        for h in 2..=5 {
            assert_eq!(l.block(h).unwrap().prev_hash, l.block(h - 1).unwrap().hash);
        }
        assert_eq!(l.head_hash(), l.block(5).unwrap().hash);
        assert!(l.block(0).is_none());
        assert!(l.block(6).is_none());
    }

    #[test]
    fn tampering_is_detected() {
        let mut l = sample(4);
        assert!(l.verify_chain());
        l.blocks[1].state_fingerprint ^= 1;
        assert!(!l.verify_chain());

        let mut l = sample(4);
        l.blocks[2].entry = EntryId::new(9, 9);
        assert!(!l.verify_chain());

        let mut l = sample(4);
        l.blocks.remove(1);
        assert!(!l.verify_chain());
    }

    #[test]
    fn identical_histories_identical_heads() {
        let a = sample(6);
        let b = sample(6);
        assert_eq!(a.head_hash(), b.head_hash());
        assert!(a.prefix_consistent(&b));
    }

    #[test]
    fn prefix_consistency_detects_forks() {
        let a = sample(6);
        let b = sample(4);
        assert!(a.prefix_consistent(&b), "shorter chain is a prefix");
        let mut forked = sample(4);
        forked.append(EntryId::new(2, 99), Digest::of(b"fork"), 1);
        assert!(!a.prefix_consistent(&forked) || a.blocks()[4].entry == EntryId::new(2, 99));
    }

    #[test]
    fn empty_ledger_is_trivially_valid() {
        let l = Ledger::new();
        assert_eq!(l.height(), 0);
        assert_eq!(l.head_hash(), Digest::ZERO);
        assert!(l.verify_chain());
        assert!(l.prefix_consistent(&Ledger::new()));
    }
}
