//! Map-chunk digests (format v3): a hash tree over a map chunk's slots.
//!
//! §4.3 hashes a map chunk in one pass over its body. Format v3 makes a map
//! chunk's digest — the hash its parent's descriptor carries, where the
//! one-pass hash sat — the root of a tree over its slots. A read proof
//! ([`crate::proof`]) then carries, per map level, the one leaf that holds
//! the path's slot and the sibling digests above it instead of the whole
//! body. A cached map chunk keeps its tree ([`crate::cache::MapCache`]),
//! with the leaves whose effective slots changed marked stale, and
//! rehashes only those leaves when a root, a proof or a checkpoint needs
//! it.
//!
//! Shape, for a body of `n` encoded slots:
//!
//! - leaf `i` covers slots `[i·LEAF_SLOTS, (i+1)·LEAF_SLOTS)`, the last one
//!   possibly short, and its digest is `H(0x00 ‖ encoded slots)`;
//! - each level groups [`NODE_CHILDREN`] neighbours as
//!   `H(0x01 ‖ d₀ ‖ … ‖ dₖ)`, the last group possibly smaller, and a group
//!   of one moves up unchanged, so every fanout — a power of two or not —
//!   has one fixed shape;
//! - the distinct prefixes keep a leaf from passing for an inner node.
//!
//! Data chunks keep the one-pass hash of their body ([`chunk_digest`]).

use std::ops::Range;

use tdb_crypto::{HashKind, HashValue};

use crate::descriptor::Descriptor;
use crate::ids::Position;

/// Slots per leaf, a format constant.
///
/// Measured at fanout 64 against one and two (EXPERIMENTS.md, *Verified
/// reads at a tenth of the bytes*): a verifier hashes about as many blocks
/// at any of the three, and four makes a proof larger than one does, but
/// 16 leaves take far fewer hash calls to build than 64, so a map-chunk
/// load and a checkpoint cost least at four.
pub const LEAF_SLOTS: usize = 4;

/// Children per inner node, a format constant.
///
/// Four rather than two (EXPERIMENTS.md, *A checkpoint within its bound*):
/// a 16-leaf tree has 5 inner nodes instead of 15, so a checkpoint that
/// rehashes most of a chunk's leaves makes 10 fewer hash calls per chunk,
/// and a verifier hashes two nodes of three SHA-256 blocks per level
/// instead of four of two, for two more sibling digests per proof level.
pub const NODE_CHILDREN: usize = 4;

/// Prefix of a leaf's hash input.
const LEAF_TAG: [u8; 1] = [0x00];

/// Prefix of an inner node's hash input.
const NODE_TAG: [u8; 1] = [0x01];

/// The digest a descriptor at `pos` carries for `body`: the root of the
/// slot tree for a map chunk, the one-pass hash for any other chunk.
pub fn chunk_digest(kind: HashKind, pos: Position, body: &[u8]) -> HashValue {
    if pos.is_map() {
        SlotTree::over_body(kind, body).root()
    } else {
        kind.hash(body)
    }
}

/// Leaves of a map chunk of `slots` slots (at least one).
pub fn leaf_count(slots: usize) -> usize {
    slots.div_ceil(LEAF_SLOTS).max(1)
}

/// Bytes of a whole leaf's encoded slots.
fn leaf_len(kind: HashKind) -> usize {
    LEAF_SLOTS * Descriptor::encoded_len(kind.digest_len())
}

/// The slots leaf `leaf` covers in a map chunk of `slots` slots.
pub fn leaf_slots(leaf: usize, slots: usize) -> Range<usize> {
    let start = leaf.saturating_mul(LEAF_SLOTS).min(slots);
    start..start.saturating_add(LEAF_SLOTS).min(slots)
}

/// The digest of a leaf whose encoded slots are `leaf`.
pub fn leaf_digest(kind: HashKind, leaf: &[u8]) -> HashValue {
    kind.hash_parts(&[&LEAF_TAG, leaf])
}

/// The digest of an inner node over its children's digests, laid end to
/// end.
fn node_digest(kind: HashKind, children: &[u8]) -> HashValue {
    kind.hash_parts(&[&NODE_TAG, children])
}

/// The nodes of the group holding node `index` of a level `width` nodes
/// wide.
fn group(index: usize, width: usize) -> Range<usize> {
    let first = index - index % NODE_CHILDREN;
    first..(first + NODE_CHILDREN).min(width)
}

/// Folds the digest of leaf `index` of a `leaves`-leaf tree up to the root
/// along `siblings`, bottom-up as [`SlotTree::path`] gives them. `None`
/// when `siblings` does not hold exactly the path's siblings.
pub fn fold(
    kind: HashKind,
    leaves: usize,
    mut index: usize,
    mut digest: HashValue,
    siblings: &[HashValue],
) -> Option<HashValue> {
    if index >= leaves {
        return None;
    }
    let mut siblings = siblings.iter();
    let mut width = leaves;
    while width > 1 {
        let nodes = group(index, width);
        if nodes.len() > 1 {
            let mut children = [0u8; NODE_CHILDREN * 32];
            let mut at = 0;
            for node in nodes {
                let child = if node == index {
                    digest
                } else {
                    *siblings.next()?
                };
                let bytes = child.as_bytes();
                children[at..at + bytes.len()].copy_from_slice(bytes);
                at += bytes.len();
            }
            digest = node_digest(kind, &children[..at]);
        }
        index /= NODE_CHILDREN;
        width = width.div_ceil(NODE_CHILDREN);
    }
    siblings.next().is_none().then_some(digest)
}

/// Hashes `tag ‖ bytes` for each `(at, bytes)` of `inputs` into digest
/// slot `at` of `out`, two inputs to a call ([`HashKind::hash_pair`]).
fn hash_into<'a>(
    kind: HashKind,
    tag: &[u8],
    mut inputs: impl Iterator<Item = (usize, &'a [u8])>,
    out: &mut [u8],
    len: usize,
) {
    while let Some((at, a)) = inputs.next() {
        let mut put = |at: usize, digest: HashValue| {
            out[at * len..(at + 1) * len].copy_from_slice(digest.as_bytes());
        };
        match inputs.next() {
            Some((next, b)) => {
                let [da, db] = kind.hash_pair(&[tag, a], &[tag, b]);
                put(at, da);
                put(next, db);
            }
            None => put(at, kind.hash_parts(&[tag, a])),
        }
    }
}

/// Every node of one map chunk's slot tree, level by level from the leaves
/// up, as digests laid end to end; the root is the last node.
#[derive(Debug, Clone)]
pub struct SlotTree {
    nodes: Vec<u8>,
    digest_len: usize,
    leaves: usize,
    /// Leaves marked as no longer matching the chunk's body: their digests
    /// and the nodes above them wait for [`SlotTree::refresh`].
    stale: Vec<usize>,
}

impl SlotTree {
    /// A tree of `leaves` leaves (at least one) whose digests are all
    /// still to be set by [`SlotTree::rehash`].
    fn new(kind: HashKind, leaves: usize) -> SlotTree {
        let leaves = leaves.max(1);
        let mut len = 0;
        let mut width = leaves;
        while width > 1 {
            len += width;
            width = width.div_ceil(NODE_CHILDREN);
        }
        let digest_len = kind.digest_len();
        SlotTree {
            nodes: vec![0; (len + 1) * digest_len],
            digest_len,
            leaves,
            stale: Vec::new(),
        }
    }

    /// The tree over an encoded map-chunk body, hashing every leaf.
    pub fn over_body(kind: HashKind, body: &[u8]) -> SlotTree {
        let leaves = body.len().div_ceil(leaf_len(kind)).max(1);
        let mut tree = SlotTree::new(kind, leaves);
        tree.rehash(kind, body, (0..leaves).collect());
        tree
    }

    fn nodes(&self, range: Range<usize>) -> &[u8] {
        &self.nodes[range.start * self.digest_len..range.end * self.digest_len]
    }

    /// The root digest, current only when no leaf is marked stale.
    pub fn root(&self) -> HashValue {
        HashValue::new(&self.nodes[self.nodes.len() - self.digest_len..])
    }

    /// True when no leaf is marked stale.
    pub fn is_current(&self) -> bool {
        self.stale.is_empty()
    }

    /// Marks leaf `leaf` as no longer matching the body; false when it was
    /// marked already. No hashing.
    pub fn mark_stale(&mut self, leaf: usize) -> bool {
        !self.stale.contains(&leaf) && {
            self.stale.push(leaf);
            true
        }
    }

    /// Brings the tree current over `body`, the chunk's encoded slots, by
    /// hashing only the stale leaves and the nodes above them.
    pub fn refresh(&mut self, kind: HashKind, body: &[u8]) {
        let stale = std::mem::take(&mut self.stale);
        self.rehash(kind, body, stale);
    }

    /// Hashes the leaves named in `changed`, each once, out of `body`, the
    /// chunk's encoded slots, and rehashes every inner node above them,
    /// and no other.
    fn rehash(&mut self, kind: HashKind, body: &[u8], mut changed: Vec<usize>) {
        changed.sort_unstable();
        let (len, leaf_len) = (self.digest_len, leaf_len(kind));
        let leaf = |i: usize| {
            let start = (i * leaf_len).min(body.len());
            (i, &body[start..(start + leaf_len).min(body.len())])
        };
        hash_into(
            kind,
            &LEAF_TAG,
            changed.iter().map(|&i| leaf(i)),
            &mut self.nodes,
            len,
        );
        let (mut offset, mut width) = (0, self.leaves);
        while width > 1 {
            let up = offset + width;
            changed.dedup_by_key(|i| *i / NODE_CHILDREN);
            changed.iter_mut().for_each(|i| *i /= NODE_CHILDREN);
            let (lower, upper) = self.nodes.split_at_mut(up * len);
            let children = |i: usize| {
                let nodes = group(i * NODE_CHILDREN, width);
                (
                    i,
                    &lower[(offset + nodes.start) * len..(offset + nodes.end) * len],
                )
            };
            // Only the last group can hold a single node, which moves up
            // unchanged.
            let mut groups = &changed[..];
            if width % NODE_CHILDREN == 1 && groups.last() == Some(&(width / NODE_CHILDREN)) {
                let (i, node) = children(width / NODE_CHILDREN);
                upper[i * len..(i + 1) * len].copy_from_slice(node);
                groups = &groups[..groups.len() - 1];
            }
            hash_into(
                kind,
                &NODE_TAG,
                groups.iter().map(|&i| children(i)),
                upper,
                len,
            );
            offset = up;
            width = width.div_ceil(NODE_CHILDREN);
        }
    }

    /// The sibling digests on leaf `index`'s path to the root, bottom-up
    /// and left to right within a group: what [`fold`] takes.
    pub fn path(&self, mut index: usize) -> Vec<HashValue> {
        let mut out = Vec::new();
        let (mut offset, mut width) = (0, self.leaves);
        while width > 1 {
            for node in group(index, width).filter(|node| *node != index) {
                out.push(HashValue::new(self.nodes(offset + node..offset + node + 1)));
            }
            offset += width;
            index /= NODE_CHILDREN;
            width = width.div_ceil(NODE_CHILDREN);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIND: HashKind = HashKind::Sha256;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; LEAF_SLOTS * 49]).collect()
    }

    /// The recursive definition the level-by-level tree must agree with.
    fn reference(kind: HashKind, digests: &[HashValue]) -> HashValue {
        if digests.len() == 1 {
            return digests[0];
        }
        let up: Vec<HashValue> = digests
            .chunks(NODE_CHILDREN)
            .map(|group| match group {
                [one] => *one,
                _ => {
                    let children: Vec<u8> =
                        group.iter().flat_map(|d| d.as_bytes().to_vec()).collect();
                    kind.hash_parts(&[&[0x01], &children])
                }
            })
            .collect();
        reference(kind, &up)
    }

    #[test]
    fn every_width_matches_the_reference_and_every_path_folds() {
        for n in 1..=70 {
            let leaves = leaves(n);
            let digests: Vec<HashValue> = leaves.iter().map(|l| leaf_digest(KIND, l)).collect();
            let body = leaves.concat();
            let tree = SlotTree::over_body(KIND, &body);
            assert_eq!(tree.leaves, n);
            assert_eq!(tree.root(), reference(KIND, &digests), "{n} leaves");
            for (i, digest) in digests.iter().enumerate() {
                let path = tree.path(i);
                assert_eq!(fold(KIND, n, i, *digest, &path), Some(tree.root()));
                // One sibling short, one too many, or another leaf's index.
                if let Some((_, short)) = path.split_last() {
                    assert_eq!(fold(KIND, n, i, *digest, short), None);
                }
                let mut long = path.clone();
                long.push(*digest);
                assert_eq!(fold(KIND, n, i, *digest, &long), None);
                assert_eq!(fold(KIND, n, n + i, *digest, &path), None);
            }
        }
    }

    #[test]
    fn updates_rehash_only_what_changed_and_agree_with_a_rebuild() {
        // Every tree width from one leaf to 70, so that each level's last
        // group takes one to four nodes, and a short last leaf.
        for n in 1..=70 {
            let mut body = leaves(n).concat();
            body.truncate(body.len() - 49);
            let mut tree = SlotTree::over_body(KIND, &body);
            for changed in [vec![0], vec![n / 2, n - 1], (0..n).step_by(3).collect()] {
                let mut changed = changed;
                changed.dedup();
                let last = body.len() - 1;
                for &i in &changed {
                    body[(i * LEAF_SLOTS * 49).min(last)] ^= 0x5A;
                }
                tree.rehash(KIND, &body, changed);
                assert_eq!(tree.root(), SlotTree::over_body(KIND, &body).root(), "{n}");
            }
        }
    }

    #[test]
    fn leaves_and_nodes_are_domain_separated() {
        // A leaf whose bytes are an inner node's input does not hash to it.
        let (a, b) = (leaf_digest(KIND, b"a"), leaf_digest(KIND, b"b"));
        let forged = [a.as_bytes(), b.as_bytes()].concat();
        assert_ne!(leaf_digest(KIND, &forged), node_digest(KIND, &forged));
        assert_ne!(
            chunk_digest(KIND, Position::map(1, 0), &forged),
            chunk_digest(KIND, Position::data(0), &forged)
        );
    }
}
