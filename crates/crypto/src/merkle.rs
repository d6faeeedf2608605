//! Merkle trees and inclusion proofs.
//!
//! Paper §IV-C: after encoding an entry into chunks, each sender builds a
//! Merkle tree over the chunks and ships each chunk with its proof.
//! Receivers bucket chunks by Merkle *root*; chunks in one bucket are
//! guaranteed to come from the same encoding, so a bucket that reaches
//! `n_data` chunks can attempt a rebuild, and a failed rebuild condemns the
//! whole bucket (all its chunk IDs get blacklisted).
//!
//! Leaves are domain-separated from internal nodes (prefix byte) to prevent
//! second-preimage tricks where an internal node is replayed as a leaf.
//! Odd nodes at any level are promoted unchanged (Bitcoin-style duplication
//! is avoided because it admits trivial collisions).

use crate::{sha256::Sha256, Digest};

const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

/// Minimum leaf count before [`MerkleTree::build`] hashes leaves on scoped
/// worker threads. Chunked entries at paper scale (tens of leaves, each a
/// sizeable erasure-coded chunk) clear this easily; tiny trees stay on the
/// calling thread.
pub const PARALLEL_LEAF_COUNT: usize = 4;

/// Minimum total leaf bytes before leaf hashing goes parallel. Hashing is
/// ~100 MiB/s-scale work, so below this the thread-spawn cost outweighs
/// the win even when the leaf count clears [`PARALLEL_LEAF_COUNT`].
const PARALLEL_LEAF_BYTES: usize = 256 * 1024;

#[cfg(test)]
thread_local!(static CORE_LOOKUPS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) });

/// [`massbft_accel::host_cores`], counted per thread under test.
fn host_cores() -> usize {
    #[cfg(test)]
    CORE_LOOKUPS.with(|c| c.set(c.get() + 1));
    massbft_accel::host_cores()
}

fn hash_leaf(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[LEAF_PREFIX]);
    h.update(data);
    Digest(h.finalize())
}

fn hash_node(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[NODE_PREFIX]);
    h.update(&left.0);
    h.update(&right.0);
    Digest(h.finalize())
}

/// A Merkle tree over an ordered list of byte-string leaves.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `levels[0]` = leaf hashes, last level = `[root]`.
    levels: Vec<Vec<Digest>>,
}

/// One sibling step of a Merkle proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProofStep {
    /// The sibling hash at this level.
    pub sibling: Digest,
    /// Whether the sibling sits to the left of the path node.
    pub sibling_on_left: bool,
}

/// An inclusion proof for one leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// Total number of leaves in the tree (binds the proof to a geometry).
    pub leaf_count: usize,
    /// Sibling hashes bottom-up. Levels where the node had no sibling
    /// (odd promotion) contribute no step.
    pub path: Vec<ProofStep>,
}

impl MerkleTree {
    /// Builds a tree over `leaves`.
    ///
    /// Leaf hashing — the dominant cost, proportional to total leaf bytes —
    /// fans out over scoped threads once the leaf set is large enough
    /// ([`PARALLEL_LEAF_COUNT`] leaves and ≥256 KiB of data). The inner
    /// levels hash fixed-size digests and always stay sequential.
    ///
    /// # Panics
    /// Panics on an empty leaf set — the replication layer never encodes
    /// zero chunks.
    pub fn build<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        assert!(!leaves.is_empty(), "Merkle tree needs at least one leaf");
        let total_bytes: usize = leaves.iter().map(|l| l.as_ref().len()).sum();
        // Size first: small leaf sets never ask for the core count.
        if leaves.len() < PARALLEL_LEAF_COUNT || total_bytes < PARALLEL_LEAF_BYTES {
            return Self::build_sequential(leaves);
        }
        let workers = host_cores();
        if workers < 2 {
            return Self::build_sequential(leaves);
        }

        let refs: Vec<&[u8]> = leaves.iter().map(AsRef::as_ref).collect();
        let band = refs.len().div_ceil(workers.min(refs.len()));
        let leaf_hashes: Vec<Digest> = std::thread::scope(|s| {
            let handles: Vec<_> = refs
                .chunks(band)
                .map(|chunk| {
                    s.spawn(move || chunk.iter().map(|l| hash_leaf(l)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("leaf hash worker panicked"))
                .collect()
        });
        Self::from_leaf_hashes(leaf_hashes)
    }

    /// Builds a tree over `leaves` entirely on the calling thread.
    ///
    /// Same tree as [`MerkleTree::build`]; kept public so tests and benches
    /// can compare the two paths.
    ///
    /// # Panics
    /// Panics on an empty leaf set.
    pub fn build_sequential<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        assert!(!leaves.is_empty(), "Merkle tree needs at least one leaf");
        Self::from_leaf_hashes(leaves.iter().map(|l| hash_leaf(l.as_ref())).collect())
    }

    /// Builds the inner levels above an already-hashed leaf row.
    fn from_leaf_hashes(leaf_hashes: Vec<Digest>) -> Self {
        let mut levels = vec![leaf_hashes];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            let mut i = 0;
            while i < prev.len() {
                if i + 1 < prev.len() {
                    next.push(hash_node(&prev[i], &prev[i + 1]));
                    i += 2;
                } else {
                    next.push(prev[i]); // odd promotion
                    i += 1;
                }
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root hash.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("nonempty")[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Generates the inclusion proof for leaf `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn prove(&self, index: usize) -> MerkleProof {
        assert!(index < self.leaf_count(), "leaf index out of range");
        let mut path = Vec::new();
        let mut i = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = if i.is_multiple_of(2) { i + 1 } else { i - 1 };
            if sibling < level.len() {
                path.push(ProofStep {
                    sibling: level[sibling],
                    sibling_on_left: sibling < i,
                });
            }
            i /= 2;
        }
        MerkleProof {
            leaf_index: index,
            leaf_count: self.leaf_count(),
            path,
        }
    }
}

impl MerkleProof {
    /// Verifies that `leaf_data` is the leaf at `self.leaf_index` of the
    /// tree with root `root`.
    pub fn verify(&self, root: &Digest, leaf_data: &[u8]) -> bool {
        // Recompute the path; also check the path length is plausible for
        // the claimed geometry so proofs can't smuggle extra levels.
        if self.leaf_index >= self.leaf_count {
            return false;
        }
        let mut acc = hash_leaf(leaf_data);
        let mut i = self.leaf_index;
        let mut width = self.leaf_count;
        let mut step_iter = self.path.iter();
        while width > 1 {
            let has_sibling = if i.is_multiple_of(2) {
                i + 1 < width
            } else {
                true
            };
            if has_sibling {
                let Some(step) = step_iter.next() else {
                    return false;
                };
                let expected_side = i % 2 == 1;
                if step.sibling_on_left != expected_side {
                    return false;
                }
                acc = if step.sibling_on_left {
                    hash_node(&step.sibling, &acc)
                } else {
                    hash_node(&acc, &step.sibling)
                };
            }
            i /= 2;
            width = width.div_ceil(2);
        }
        step_iter.next().is_none() && acc == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("chunk-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_tree() {
        let t = MerkleTree::build(&[b"only".to_vec()]);
        assert_eq!(t.leaf_count(), 1);
        let p = t.prove(0);
        assert!(p.path.is_empty());
        assert!(p.verify(&t.root(), b"only"));
        assert!(!p.verify(&t.root(), b"other"));
    }

    #[test]
    fn all_proofs_verify_for_many_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 13, 28, 33, 64] {
            let ls = leaves(n);
            let t = MerkleTree::build(&ls);
            for (i, l) in ls.iter().enumerate() {
                let p = t.prove(i);
                assert!(p.verify(&t.root(), l), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_data_rejected() {
        let ls = leaves(7);
        let t = MerkleTree::build(&ls);
        let p = t.prove(3);
        assert!(!p.verify(&t.root(), &ls[4]));
        assert!(!p.verify(&t.root(), b"garbage"));
    }

    #[test]
    fn proof_not_transferable_between_indices() {
        let ls = leaves(8);
        let t = MerkleTree::build(&ls);
        let mut p = t.prove(2);
        p.leaf_index = 3; // claim a different position
        assert!(!p.verify(&t.root(), &ls[2]));
    }

    #[test]
    fn tampered_sibling_rejected() {
        let ls = leaves(6);
        let t = MerkleTree::build(&ls);
        let mut p = t.prove(1);
        p.path[0].sibling = Digest::of(b"evil");
        assert!(!p.verify(&t.root(), &ls[1]));
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // Big enough to cross both parallel thresholds (16 leaves, 512 KiB).
        let ls: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8 * 3 + 1; 32 * 1024]).collect();
        let par = MerkleTree::build(&ls);
        let seq = MerkleTree::build_sequential(&ls);
        assert_eq!(par.root(), seq.root());
        for (i, l) in ls.iter().enumerate() {
            assert_eq!(par.prove(i), seq.prove(i), "leaf {i}");
            assert!(seq.prove(i).verify(&par.root(), l));
        }
        // Odd leaf counts exercise promotion in the banded parallel path.
        let odd = &ls[..13];
        assert_eq!(
            MerkleTree::build(odd).root(),
            MerkleTree::build_sequential(odd).root()
        );
    }

    #[test]
    fn small_trees_never_resolve_the_core_count() {
        // Protocol-sized leaf sets (28 chunks of ~0.4 KB and of ~8 KB) sit
        // below the byte threshold: the size test answers on its own.
        let before = CORE_LOOKUPS.with(|c| c.get());
        for len in [400usize, 8 * 1024] {
            let ls: Vec<Vec<u8>> = (0..28).map(|i| vec![i as u8; len]).collect();
            assert_eq!(
                MerkleTree::build(&ls).root(),
                MerkleTree::build_sequential(&ls).root()
            );
        }
        assert_eq!(CORE_LOOKUPS.with(|c| c.get()), before);
        // Above it the count is asked for, once per build.
        let big: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 32 * 1024]).collect();
        MerkleTree::build(&big);
        assert_eq!(CORE_LOOKUPS.with(|c| c.get()), before + 1);
    }

    #[test]
    fn different_leaf_sets_different_roots() {
        let a = MerkleTree::build(&leaves(5));
        let mut ls = leaves(5);
        ls[2][0] ^= 1;
        let b = MerkleTree::build(&ls);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn leaf_not_confused_with_internal_node() {
        // Build a 2-leaf tree; its root's preimage (NODE_PREFIX || h1 || h2)
        // presented as leaf data of a 1-leaf tree must hash differently.
        let ls = leaves(2);
        let t = MerkleTree::build(&ls);
        let l0 = hash_leaf(&ls[0]);
        let l1 = hash_leaf(&ls[1]);
        let mut preimage = vec![NODE_PREFIX];
        preimage.extend_from_slice(&l0.0);
        preimage.extend_from_slice(&l1.0);
        let fake = MerkleTree::build(&[preimage]);
        assert_ne!(fake.root(), t.root());
    }

    #[test]
    fn extra_path_steps_rejected() {
        let ls = leaves(4);
        let t = MerkleTree::build(&ls);
        let mut p = t.prove(0);
        p.path.push(ProofStep {
            sibling: Digest::of(b"pad"),
            sibling_on_left: false,
        });
        assert!(!p.verify(&t.root(), &ls[0]));
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_tree_panics() {
        let empty: Vec<Vec<u8>> = vec![];
        let _ = MerkleTree::build(&empty);
    }

    proptest! {
        #[test]
        fn prop_every_proof_verifies(
            data in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..40)
        ) {
            let t = MerkleTree::build(&data);
            for (i, leaf) in data.iter().enumerate() {
                let p = t.prove(i);
                prop_assert!(p.verify(&t.root(), leaf));
            }
        }

        #[test]
        fn prop_proofs_fail_against_other_roots(
            data in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..32), 2..20),
            flip_leaf in any::<prop::sample::Index>(),
        ) {
            let t = MerkleTree::build(&data);
            let mut other = data.clone();
            let k = flip_leaf.index(other.len());
            other[k].push(0xFF);
            let t2 = MerkleTree::build(&other);
            prop_assume!(t.root() != t2.root());
            // A proof from t for an unmodified leaf must not verify under t2
            // unless the leaf occupies an identical position/path, which the
            // flip rules out for leaf k itself.
            let p = t.prove(k);
            prop_assert!(!p.verify(&t2.root(), &data[k]));
        }
    }
}
