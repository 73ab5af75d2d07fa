//! Keyword interning.
//!
//! Attributed-graph algorithms (ACQ, CODICIL, the CPJ/CMF metrics) work with
//! per-vertex keyword *sets* and do a great deal of set intersection. Interning
//! every keyword string to a dense [`KeywordId`] makes a keyword set a small
//! sorted `&[KeywordId]`, so intersections are linear merges over integers and
//! inverted lists are `Vec<VertexId>` per id.

use std::collections::HashMap;

/// A dense, interned keyword identifier.
///
/// Ids are assigned in first-seen order by a [`KeywordInterner`] and are only
/// meaningful together with the interner (or graph) that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeywordId(pub u32);

impl KeywordId {
    /// The id as a usize, for indexing inverted lists.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for KeywordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kw#{}", self.0)
    }
}

/// Bidirectional map between keyword strings and dense [`KeywordId`]s.
#[derive(Debug, Default, Clone)]
pub struct KeywordInterner {
    by_name: HashMap<String, KeywordId>,
    names: Vec<String>,
}

impl KeywordInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An interner whose ids are the positions in `names`; the duplicated
    /// name is the error when one appears twice.
    pub(crate) fn from_names(names: Vec<String>) -> Result<Self, String> {
        let mut by_name = HashMap::with_capacity(names.len());
        for (id, name) in names.iter().enumerate() {
            if by_name.insert(name.clone(), KeywordId(id as u32)).is_some() {
                return Err(name.clone());
            }
        }
        Ok(Self { by_name, names })
    }

    /// Interns `name`, returning its existing id if already present.
    pub fn intern(&mut self, name: &str) -> KeywordId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = KeywordId(
            u32::try_from(self.names.len()).expect("more than u32::MAX distinct keywords"),
        );
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned keyword without inserting.
    pub fn get(&self, name: &str) -> Option<KeywordId> {
        self.by_name.get(name).copied()
    }

    /// Returns the string for `id`, or `None` if the id was produced by a
    /// different interner.
    pub fn name(&self, id: KeywordId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Resolves a slice of ids to their names, skipping foreign ids.
    pub fn names<'a>(&'a self, ids: &'a [KeywordId]) -> impl Iterator<Item = &'a str> + 'a {
        ids.iter().filter_map(|&id| self.name(id))
    }

    /// Number of distinct keywords interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no keyword has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, &str)> + '_ {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (KeywordId(i as u32), n.as_str()))
    }
}

/// Intersects two sorted keyword slices into a new sorted vector.
///
/// Both inputs must be strictly sorted (as produced by
/// [`crate::GraphBuilder`]); the output is then strictly sorted too.
pub fn intersect_sorted(a: &[KeywordId], b: &[KeywordId]) -> Vec<KeywordId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    intersect_sorted_into(a, b, &mut out);
    out
}

/// Intersects two sorted keyword slices into a caller-provided buffer
/// (cleared first) — the reusable-scratch variant of
/// [`intersect_sorted`], allocation-free once the buffer has capacity.
pub fn intersect_sorted_into(a: &[KeywordId], b: &[KeywordId], out: &mut Vec<KeywordId>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Size of the intersection of two sorted keyword slices, without allocating.
pub fn intersection_size(a: &[KeywordId], b: &[KeywordId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Jaccard similarity of two sorted keyword slices; 0 when both are empty.
///
/// This is the pairwise similarity underlying the paper's CPJ metric.
pub fn jaccard(a: &[KeywordId], b: &[KeywordId]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = intersection_size(a, b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Returns true if sorted slice `hay` contains every element of sorted `needles`.
pub fn contains_all(hay: &[KeywordId], needles: &[KeywordId]) -> bool {
    intersection_size(hay, needles) == needles.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<KeywordId> {
        v.iter().map(|&i| KeywordId(i)).collect()
    }

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut it = KeywordInterner::new();
        let a = it.intern("data");
        let b = it.intern("system");
        let a2 = it.intern("data");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a, KeywordId(0));
        assert_eq!(b, KeywordId(1));
        assert_eq!(it.len(), 2);
        assert_eq!(it.name(a), Some("data"));
        assert_eq!(it.get("system"), Some(b));
        assert_eq!(it.get("missing"), None);
    }

    #[test]
    fn name_of_foreign_id_is_none() {
        let it = KeywordInterner::new();
        assert_eq!(it.name(KeywordId(5)), None);
        assert!(it.is_empty());
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut it = KeywordInterner::new();
        it.intern("x");
        it.intern("y");
        let pairs: Vec<_> = it.iter().collect();
        assert_eq!(pairs, vec![(KeywordId(0), "x"), (KeywordId(1), "y")]);
    }

    #[test]
    fn intersect_sorted_basics() {
        assert_eq!(intersect_sorted(&ids(&[0, 2, 4]), &ids(&[1, 2, 3, 4])), ids(&[2, 4]));
        assert_eq!(intersect_sorted(&ids(&[]), &ids(&[1])), ids(&[]));
        assert_eq!(intersect_sorted(&ids(&[7]), &ids(&[7])), ids(&[7]));
        assert_eq!(intersection_size(&ids(&[0, 2, 4]), &ids(&[1, 2, 3, 4])), 2);
    }

    #[test]
    fn jaccard_matches_hand_computation() {
        // |{2,4}| / |{0,1,2,3,4}| = 2/5
        let j = jaccard(&ids(&[0, 2, 4]), &ids(&[1, 2, 3, 4]));
        assert!((j - 0.4).abs() < 1e-12);
        assert_eq!(jaccard(&[], &[]), 0.0);
        assert_eq!(jaccard(&ids(&[1]), &ids(&[1])), 1.0);
        assert_eq!(jaccard(&ids(&[1]), &ids(&[2])), 0.0);
    }

    #[test]
    fn contains_all_subset_semantics() {
        assert!(contains_all(&ids(&[1, 3, 5]), &ids(&[3, 5])));
        assert!(contains_all(&ids(&[1, 3, 5]), &ids(&[])));
        assert!(!contains_all(&ids(&[1, 3, 5]), &ids(&[2])));
        assert!(!contains_all(&ids(&[]), &ids(&[1])));
    }
}
