//! A persistent B+-tree whose nodes are objects (§8: "collections and
//! indexes are themselves represented as objects").
//!
//! Sorted indexes back range iterators; entries are `(key bytes, object
//! rank)` pairs, made unique by the rank so non-unique keys work naturally.
//! All node reads and writes go through the caller's transaction, so index
//! maintenance commits atomically with the object update that caused it.
//!
//! The root node keeps a fixed object id for its whole life: splitting the
//! root moves its contents into two fresh children instead of reparenting,
//! so the collection object never needs rewriting on splits.

use std::any::Any;
use std::sync::Arc;

use tdb_core::codec::{Dec, Enc};
use tdb_core::{PartitionId, Result as CoreResult};
use tdb_object::errors::Result;
use tdb_object::pickle::{StoredObject, TypeRegistry};
use tdb_object::{ObjectId, Tx};

use crate::unpickle_with;

/// Reserved type tag for B-tree nodes.
pub(crate) const BTREE_NODE_TAG: u32 = 0xF000_0002;

/// Maximum entries per node before splitting. Small enough that tests
/// exercise multi-level trees; large enough to amortize per-node overhead.
const MAX_ENTRIES: usize = 16;

/// One index entry.
pub type Entry = (Vec<u8>, u64);

/// A B+-tree node object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BTreeNode {
    /// Leaf nodes hold data entries; internal nodes hold separators.
    pub leaf: bool,
    /// Sorted by `(key, value)`.
    pub entries: Vec<Entry>,
    /// Internal only: child object ranks, `entries.len() + 1` of them.
    /// Child `i` holds pairs `< entries[i]`; the last child holds the rest.
    pub children: Vec<u64>,
}

impl BTreeNode {
    pub(crate) fn empty_leaf() -> BTreeNode {
        BTreeNode {
            leaf: true,
            entries: Vec::new(),
            children: Vec::new(),
        }
    }
}

impl StoredObject for BTreeNode {
    fn type_tag(&self) -> u32 {
        BTREE_NODE_TAG
    }

    fn pickle(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(u8::from(self.leaf)).list(&self.entries, put_entry);
        e.list(&self.children, |e, c| {
            e.u64(*c);
        });
        e.finish()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Writes one `(key, rank)` entry: the key length-prefixed, then the rank.
pub(crate) fn put_entry(e: &mut Enc, (key, rank): &Entry) {
    e.bytes(key).u64(*rank);
}

/// Reads one entry written by [`put_entry`], which is at least
/// [`ENTRY_MIN_LEN`] bytes.
pub(crate) fn get_entry(d: &mut Dec) -> CoreResult<Entry> {
    Ok((d.bytes()?.to_vec(), d.u64()?))
}

/// The smallest encoded entry: an empty key's length and the rank.
pub(crate) const ENTRY_MIN_LEN: usize = 12;

/// Unpickler registered for [`BTREE_NODE_TAG`].
pub(crate) fn unpickle_node(body: &[u8]) -> Result<Arc<dyn StoredObject>> {
    unpickle_with(body, "btree node", |d| {
        Ok(BTreeNode {
            leaf: d.u8()? != 0,
            entries: d.list(ENTRY_MIN_LEN, get_entry)?,
            children: d.list(8, Dec::u64)?,
        })
    })
}

/// Registers the node type; call once when building the type registry.
pub fn register_types(registry: &mut TypeRegistry) {
    registry.register(BTREE_NODE_TAG, unpickle_node);
}

/// A handle over one persistent B+-tree.
pub(crate) struct BTree {
    /// Partition the nodes live in.
    pub partition: PartitionId,
    /// Fixed rank of the root node object.
    pub root: u64,
}

impl BTree {
    fn node_id(&self, rank: u64) -> ObjectId {
        ObjectId::from_parts(self.partition, rank)
    }

    fn read(&self, tx: &mut Tx, rank: u64) -> Result<Arc<BTreeNode>> {
        tx.get::<BTreeNode>(self.node_id(rank))
    }

    fn write(&self, tx: &mut Tx, rank: u64, node: BTreeNode) -> Result<()> {
        tx.put(self.node_id(rank), Arc::new(node))
    }

    /// Creates a fresh empty tree in `partition`, returning its handle.
    pub fn create(tx: &mut Tx, partition: PartitionId) -> Result<BTree> {
        let id = tx.create(partition, Arc::new(BTreeNode::empty_leaf()))?;
        Ok(BTree {
            partition,
            root: id.rank(),
        })
    }

    /// Inserts `(key, value)`. Duplicate pairs are idempotent.
    pub fn insert(&self, tx: &mut Tx, key: &[u8], value: u64) -> Result<()> {
        if let Some((sep, new_child)) = self.insert_rec(tx, self.root, key, value)? {
            // The root split: move the root's current content into a fresh
            // left sibling; the root becomes internal over [left, right].
            let root = self.read(tx, self.root)?;
            let left = BTreeNode {
                leaf: root.leaf,
                entries: root.entries.clone(),
                children: root.children.clone(),
            };
            let left_id = tx.create(self.partition, Arc::new(left))?;
            let new_root = BTreeNode {
                leaf: false,
                entries: vec![sep],
                children: vec![left_id.rank(), new_child],
            };
            self.write(tx, self.root, new_root)?;
        }
        Ok(())
    }

    /// Recursive insert; returns `Some((separator, new_right_rank))` when
    /// the visited node split.
    fn insert_rec(
        &self,
        tx: &mut Tx,
        rank: u64,
        key: &[u8],
        value: u64,
    ) -> Result<Option<(Entry, u64)>> {
        let node = self.read(tx, rank)?;
        let mut node = (*node).clone();
        if node.leaf {
            let probe = (key.to_vec(), value);
            match node.entries.binary_search(&probe) {
                Ok(_) => return Ok(None), // Idempotent duplicate.
                Err(pos) => node.entries.insert(pos, probe),
            }
        } else {
            let slot = child_slot(&node, key, value);
            let child = node.children[slot];
            if let Some((sep, new_child)) = self.insert_rec(tx, child, key, value)? {
                node.entries.insert(slot, sep);
                node.children.insert(slot + 1, new_child);
            } else {
                return Ok(None);
            }
        }
        if node.entries.len() <= MAX_ENTRIES {
            self.write(tx, rank, node)?;
            return Ok(None);
        }
        // Split.
        let mid = node.entries.len() / 2;
        let (sep, right) = if node.leaf {
            let right_entries = node.entries.split_off(mid);
            let sep = right_entries[0].clone();
            (
                sep,
                BTreeNode {
                    leaf: true,
                    entries: right_entries,
                    children: Vec::new(),
                },
            )
        } else {
            let mut right_entries = node.entries.split_off(mid);
            let sep = right_entries.remove(0);
            let right_children = node.children.split_off(mid + 1);
            (
                sep,
                BTreeNode {
                    leaf: false,
                    entries: right_entries,
                    children: right_children,
                },
            )
        };
        let right_id = tx.create(self.partition, Arc::new(right))?;
        self.write(tx, rank, node)?;
        Ok(Some((sep, right_id.rank())))
    }

    /// Removes `(key, value)`; returns whether it was present.
    pub fn remove(&self, tx: &mut Tx, key: &[u8], value: u64) -> Result<bool> {
        let removed = self.remove_rec(tx, self.root, key, value)?;
        if removed {
            // Collapse a childless-chain root: an internal root with no
            // separators has exactly one child; pull its content up.
            loop {
                let root = self.read(tx, self.root)?;
                if root.leaf || !root.entries.is_empty() {
                    break;
                }
                let only_child = root.children[0];
                let child = self.read(tx, only_child)?;
                let promoted = (*child).clone();
                self.write(tx, self.root, promoted)?;
                tx.delete(self.node_id(only_child))?;
            }
        }
        Ok(removed)
    }

    fn remove_rec(&self, tx: &mut Tx, rank: u64, key: &[u8], value: u64) -> Result<bool> {
        let node = self.read(tx, rank)?;
        let mut node = (*node).clone();
        if node.leaf {
            let probe = (key.to_vec(), value);
            match node.entries.binary_search(&probe) {
                Ok(pos) => {
                    node.entries.remove(pos);
                    self.write(tx, rank, node)?;
                    Ok(true)
                }
                Err(_) => Ok(false),
            }
        } else {
            // The entry may sit in the separator position itself (B-tree
            // variant: separators are real entries copied up on leaf
            // splits; the authoritative copy lives in the leaf). Descend.
            let slot = child_slot(&node, key, value);
            let child = node.children[slot];
            let removed = self.remove_rec(tx, child, key, value)?;
            if removed {
                // Prune an empty non-root leaf child to keep scans cheap.
                let child_node = self.read(tx, child)?;
                if child_node.leaf && child_node.entries.is_empty() && node.children.len() > 1 {
                    let sep_at = slot.min(node.entries.len() - 1);
                    node.entries.remove(sep_at);
                    node.children.remove(slot);
                    self.write(tx, rank, node)?;
                    tx.delete(self.node_id(child))?;
                }
            }
            Ok(removed)
        }
    }

    /// All `(key, value)` pairs with `lo ≤ key < hi` (whole-key bounds;
    /// `hi = None` means unbounded), in order.
    pub fn range(&self, tx: &mut Tx, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Result<Vec<Entry>> {
        let mut out = Vec::new();
        self.range_rec(tx, self.root, lo, hi, &mut out)?;
        Ok(out)
    }

    fn range_rec(
        &self,
        tx: &mut Tx,
        rank: u64,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        out: &mut Vec<Entry>,
    ) -> Result<()> {
        let node = self.read(tx, rank)?;
        if node.leaf {
            for (k, v) in &node.entries {
                if lo.is_some_and(|lo| k.as_slice() < lo) {
                    continue;
                }
                if hi.is_some_and(|hi| k.as_slice() >= hi) {
                    break;
                }
                out.push((k.clone(), *v));
            }
            return Ok(());
        }
        for (i, child) in node.children.iter().enumerate() {
            // Subtree i holds pairs < entries[i] and ≥ entries[i-1].
            let subtree_min = if i == 0 {
                None
            } else {
                Some(&node.entries[i - 1].0)
            };
            let subtree_max = node.entries.get(i).map(|e| &e.0);
            // Prune subtrees wholly outside the range. A subtree whose max
            // key equals `lo` may still contain (lo, v) pairs, so compare
            // strictly.
            if let (Some(hi), Some(min)) = (hi, subtree_min) {
                if min.as_slice() >= hi {
                    break;
                }
            }
            if let (Some(lo), Some(max)) = (lo, subtree_max) {
                if max.as_slice() < lo {
                    continue;
                }
            }
            self.range_rec(tx, *child, lo, hi, out)?;
        }
        Ok(())
    }

    /// All values whose key equals `key` exactly.
    pub fn lookup(&self, tx: &mut Tx, key: &[u8]) -> Result<Vec<u64>> {
        let mut hi = key.to_vec();
        hi.push(0);
        Ok(self
            .range(tx, Some(key), Some(&hi))?
            .into_iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v)
            .collect())
    }

    /// Every entry, in order.
    pub fn scan(&self, tx: &mut Tx) -> Result<Vec<Entry>> {
        self.range(tx, None, None)
    }

    /// Deletes every node object of this tree (index drop).
    pub fn destroy(&self, tx: &mut Tx) -> Result<()> {
        self.destroy_rec(tx, self.root)
    }

    fn destroy_rec(&self, tx: &mut Tx, rank: u64) -> Result<()> {
        let node = self.read(tx, rank)?;
        let children = node.children.clone();
        for c in children {
            self.destroy_rec(tx, c)?;
        }
        tx.delete(self.node_id(rank))?;
        Ok(())
    }
}

/// Index of the child subtree that would contain `(key, value)`.
fn child_slot(node: &BTreeNode, key: &[u8], value: u64) -> usize {
    let probe = (key.to_vec(), value);
    match node.entries.binary_search(&probe) {
        // An exact separator match belongs to the right subtree (entries ≥
        // separator live right of it).
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{check_golden, fixture};

    #[test]
    fn node_pickle_is_golden() {
        let node = BTreeNode {
            leaf: false,
            entries: vec![(b"ab".to_vec(), 7), (Vec::new(), 0x0102_0304_0506_0708)],
            children: vec![3, 9, 11],
        };
        check_golden(
            &node,
            unpickle_node,
            "000200000002000000616207000000000000000000000008070605040302010300000003\
             0000000000000009000000000000000b00000000000000",
            "btree node",
        );
    }

    #[test]
    fn insert_lookup_small() {
        let fx = fixture();
        let mut tx = fx.store.begin();
        let tree = BTree::create(&mut tx, fx.partition).unwrap();
        tree.insert(&mut tx, b"bob", 2).unwrap();
        tree.insert(&mut tx, b"alice", 1).unwrap();
        tree.insert(&mut tx, b"carol", 3).unwrap();
        assert_eq!(tree.lookup(&mut tx, b"alice").unwrap(), vec![1]);
        assert_eq!(tree.lookup(&mut tx, b"bob").unwrap(), vec![2]);
        assert_eq!(tree.lookup(&mut tx, b"dave").unwrap(), Vec::<u64>::new());
        tx.commit().unwrap();
    }

    #[test]
    fn duplicate_keys_supported() {
        let fx = fixture();
        let mut tx = fx.store.begin();
        let tree = BTree::create(&mut tx, fx.partition).unwrap();
        for v in [5u64, 3, 9] {
            tree.insert(&mut tx, b"same", v).unwrap();
        }
        // Idempotent re-insert.
        tree.insert(&mut tx, b"same", 5).unwrap();
        let mut vals = tree.lookup(&mut tx, b"same").unwrap();
        vals.sort_unstable();
        assert_eq!(vals, vec![3, 5, 9]);
        tx.commit().unwrap();
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let fx = fixture();
        let mut tx = fx.store.begin();
        let tree = BTree::create(&mut tx, fx.partition).unwrap();
        // Insert in a scrambled order.
        let mut keys: Vec<u64> = (0..500).collect();
        keys.reverse();
        keys.sort_by_key(|k| k.wrapping_mul(2654435761) % 1000);
        for k in &keys {
            let key = crate::keys::IndexKey::new().u64(*k).into_bytes();
            tree.insert(&mut tx, &key, *k).unwrap();
        }
        let scan = tree.scan(&mut tx).unwrap();
        assert_eq!(scan.len(), 500);
        let values: Vec<u64> = scan.iter().map(|(_, v)| *v).collect();
        let expected: Vec<u64> = (0..500).collect();
        assert_eq!(values, expected, "scan returns key order");
        tx.commit().unwrap();
    }

    #[test]
    fn range_queries() {
        let fx = fixture();
        let mut tx = fx.store.begin();
        let tree = BTree::create(&mut tx, fx.partition).unwrap();
        for k in 0..100u64 {
            let key = crate::keys::IndexKey::new().u64(k).into_bytes();
            tree.insert(&mut tx, &key, k).unwrap();
        }
        let lo = crate::keys::IndexKey::new().u64(10).into_bytes();
        let hi = crate::keys::IndexKey::new().u64(20).into_bytes();
        let hits = tree.range(&mut tx, Some(&lo), Some(&hi)).unwrap();
        let values: Vec<u64> = hits.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, (10..20).collect::<Vec<u64>>());

        // Open-ended ranges.
        assert_eq!(tree.range(&mut tx, Some(&hi), None).unwrap().len(), 80);
        assert_eq!(tree.range(&mut tx, None, Some(&lo)).unwrap().len(), 10);
        tx.commit().unwrap();
    }

    #[test]
    fn remove_and_rescan() {
        let fx = fixture();
        let mut tx = fx.store.begin();
        let tree = BTree::create(&mut tx, fx.partition).unwrap();
        for k in 0..200u64 {
            let key = crate::keys::IndexKey::new().u64(k).into_bytes();
            tree.insert(&mut tx, &key, k).unwrap();
        }
        for k in (0..200u64).filter(|k| k % 2 == 0) {
            let key = crate::keys::IndexKey::new().u64(k).into_bytes();
            assert!(tree.remove(&mut tx, &key, k).unwrap(), "remove {k}");
        }
        // Removing again reports absence.
        let key0 = crate::keys::IndexKey::new().u64(0).into_bytes();
        assert!(!tree.remove(&mut tx, &key0, 0).unwrap());
        let scan = tree.scan(&mut tx).unwrap();
        assert_eq!(scan.len(), 100);
        assert!(scan.iter().all(|(_, v)| v % 2 == 1));
        tx.commit().unwrap();
    }

    #[test]
    fn remove_everything_collapses() {
        let fx = fixture();
        let mut tx = fx.store.begin();
        let tree = BTree::create(&mut tx, fx.partition).unwrap();
        for k in 0..100u64 {
            let key = crate::keys::IndexKey::new().u64(k).into_bytes();
            tree.insert(&mut tx, &key, k).unwrap();
        }
        for k in 0..100u64 {
            let key = crate::keys::IndexKey::new().u64(k).into_bytes();
            assert!(tree.remove(&mut tx, &key, k).unwrap());
        }
        assert!(tree.scan(&mut tx).unwrap().is_empty());
        // The tree is still usable after total drain.
        tree.insert(&mut tx, b"again", 1).unwrap();
        assert_eq!(tree.lookup(&mut tx, b"again").unwrap(), vec![1]);
        tx.commit().unwrap();
    }

    #[test]
    fn persists_across_transactions() {
        let fx = fixture();
        let tree = {
            let mut tx = fx.store.begin();
            let tree = BTree::create(&mut tx, fx.partition).unwrap();
            tree.insert(&mut tx, b"k", 7).unwrap();
            tx.commit().unwrap();
            tree
        };
        let mut tx = fx.store.begin();
        assert_eq!(tree.lookup(&mut tx, b"k").unwrap(), vec![7]);
        tx.abort();
    }
}
