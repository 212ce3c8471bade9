//! Collections of documents with filter queries and optional indexes.

use crate::document::{Document, DocumentId};
use crate::error::StoreError;
use crate::filter::Filter;
use crate::index::FieldIndex;
use crate::json::Json;
use std::collections::BTreeMap;

/// A named collection of documents (the Mongo-collection analogue).
#[derive(Debug, Default)]
pub struct Collection {
    docs: BTreeMap<DocumentId, Document>,
    next_id: u64,
    indexes: Vec<FieldIndex>,
}

impl Collection {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Declares a hash index on a field path. Existing documents are indexed
    /// immediately; declaring the same path twice is a no-op.
    pub fn create_index(&mut self, path: &str) {
        if self.indexes.iter().any(|i| i.path() == path) {
            return;
        }
        let mut idx = FieldIndex::new(path);
        idx.rebuild(self.docs.values());
        self.indexes.push(idx);
    }

    /// Paths of the declared indexes.
    pub fn index_paths(&self) -> Vec<&str> {
        self.indexes.iter().map(|i| i.path()).collect()
    }

    /// Inserts a JSON body as a new document, returning its id.
    pub fn insert(&mut self, body: Json) -> DocumentId {
        let id = DocumentId(self.next_id);
        self.next_id += 1;
        let doc = Document::new(id, body);
        for idx in &mut self.indexes {
            idx.insert(&doc);
        }
        self.docs.insert(id, doc);
        id
    }

    /// Inserts a document that already has an id (used when loading a
    /// persisted collection). Keeps `next_id` ahead of the largest seen id.
    pub fn insert_with_id(&mut self, doc: Document) {
        self.next_id = self.next_id.max(doc.id.0 + 1);
        for idx in &mut self.indexes {
            idx.insert(&doc);
        }
        self.docs.insert(doc.id, doc);
    }

    /// Fetches a document by id.
    pub fn get(&self, id: DocumentId) -> Option<&Document> {
        self.docs.get(&id)
    }

    /// Deletes a document by id, returning whether it existed.
    pub fn delete(&mut self, id: DocumentId) -> bool {
        if let Some(doc) = self.docs.remove(&id) {
            for idx in &mut self.indexes {
                idx.remove(&doc);
            }
            true
        } else {
            false
        }
    }

    /// Deletes every document matching the filter, returning how many were
    /// removed.
    pub fn delete_where(&mut self, filter: &Filter) -> usize {
        let ids: Vec<DocumentId> = self.find(filter).into_iter().map(|d| d.id).collect();
        let n = ids.len();
        for id in ids {
            self.delete(id);
        }
        n
    }

    /// Replaces the body of an existing document.
    pub fn update(&mut self, id: DocumentId, body: Json) -> Result<(), StoreError> {
        let Some(old) = self.docs.remove(&id) else {
            return Err(StoreError::UnknownDocument(id.0));
        };
        for idx in &mut self.indexes {
            idx.remove(&old);
        }
        let doc = Document::new(id, body);
        for idx in &mut self.indexes {
            idx.insert(&doc);
        }
        self.docs.insert(id, doc);
        Ok(())
    }

    /// Finds every document matching the filter, in id order.
    ///
    /// When the filter pins an indexed field to an exact value, the matching
    /// index narrows the candidate set before the filter is evaluated.
    pub fn find(&self, filter: &Filter) -> Vec<&Document> {
        // Try to answer from an index.
        for idx in &self.indexes {
            if let Some(value) = filter.equality_on(idx.path()) {
                let mut out: Vec<&Document> = idx
                    .lookup(value)
                    .into_iter()
                    .filter_map(|id| self.docs.get(&id))
                    .filter(|d| filter.matches(d))
                    .collect();
                out.sort_by_key(|d| d.id);
                return out;
            }
        }
        self.docs.values().filter(|d| filter.matches(d)).collect()
    }

    /// First document matching the filter (id order).
    pub fn find_one(&self, filter: &Filter) -> Option<&Document> {
        // Index-accelerated path reuses `find`, which is already ordered.
        for idx in &self.indexes {
            if filter.equality_on(idx.path()).is_some() {
                return self.find(filter).into_iter().next();
            }
        }
        self.docs.values().find(|d| filter.matches(d))
    }

    /// Number of documents matching the filter.
    pub fn count(&self, filter: &Filter) -> usize {
        self.find(filter).len()
    }

    /// Iterates over all documents in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Document> {
        self.docs.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(json: &str) -> Json {
        Json::parse(json).unwrap()
    }

    #[test]
    fn insert_get_delete() {
        let mut c = Collection::new();
        let id1 = c.insert(body(r#"{"dataset":"santander","n":1}"#));
        let id2 = c.insert(body(r#"{"dataset":"china6","n":2}"#));
        assert_eq!(c.len(), 2);
        assert_ne!(id1, id2);
        assert_eq!(c.get(id1).unwrap().get("n").unwrap().as_i64(), Some(1));
        assert!(c.delete(id1));
        assert!(!c.delete(id1));
        assert_eq!(c.len(), 1);
        assert!(c.get(id1).is_none());
    }

    #[test]
    fn find_with_filters() {
        let mut c = Collection::new();
        for i in 0..10 {
            c.insert(body(&format!(
                r#"{{"dataset":"{}","support":{}}}"#,
                if i % 2 == 0 { "a" } else { "b" },
                i
            )));
        }
        assert_eq!(c.count(&Filter::eq("dataset", "a")), 5);
        assert_eq!(c.count(&Filter::Gte("support".into(), 5.0)), 5);
        let both = Filter::and([
            Filter::eq("dataset", "a"),
            Filter::Gt("support".into(), 5.0),
        ]);
        let found = c.find(&both);
        assert_eq!(found.len(), 2); // support 6 and 8
        assert_eq!(c.count(&Filter::All), 10);
        assert!(c.find_one(&Filter::eq("dataset", "zzz")).is_none());
    }

    #[test]
    fn update_replaces_body() {
        let mut c = Collection::new();
        let id = c.insert(body(r#"{"state":"pending"}"#));
        c.update(id, body(r#"{"state":"done"}"#)).unwrap();
        assert_eq!(
            c.get(id).unwrap().get("state").unwrap().as_str(),
            Some("done")
        );
        assert!(c.update(DocumentId(999), Json::object()).is_err());
    }

    #[test]
    fn indexed_queries_match_scan_results() {
        let mut c = Collection::new();
        for i in 0..50 {
            c.insert(body(&format!(
                r#"{{"dataset":"d{}","params":{{"psi":{}}}}}"#,
                i % 5,
                i % 3
            )));
        }
        // Results before index...
        let scan = c.find(&Filter::eq("dataset", "d2")).len();
        c.create_index("dataset");
        c.create_index("params.psi");
        assert_eq!(c.index_paths().len(), 2);
        // ...equal results after.
        assert_eq!(c.find(&Filter::eq("dataset", "d2")).len(), scan);
        // Compound query answered via the index then refined by the filter.
        let q = Filter::and([Filter::eq("dataset", "d1"), Filter::eq("params.psi", 0i64)]);
        let via_index: Vec<DocumentId> = c.find(&q).into_iter().map(|d| d.id).collect();
        let via_scan: Vec<DocumentId> = c.iter().filter(|d| q.matches(d)).map(|d| d.id).collect();
        assert_eq!(via_index, via_scan);
        assert!(!via_index.is_empty());
        // Indexes stay correct across delete and update.
        let id = via_index[0];
        c.delete(id);
        assert_eq!(c.find(&q).len(), via_scan.len() - 1);
        let other = c.find(&Filter::eq("dataset", "d3"))[0].id;
        c.update(other, body(r#"{"dataset":"d1","params":{"psi":0}}"#))
            .unwrap();
        assert_eq!(c.find(&q).len(), via_scan.len());
    }

    #[test]
    fn duplicate_index_declaration_is_noop() {
        let mut c = Collection::new();
        c.create_index("a");
        c.create_index("a");
        assert_eq!(c.index_paths(), vec!["a"]);
    }

    #[test]
    fn delete_where_removes_matches() {
        let mut c = Collection::new();
        for i in 0..6 {
            c.insert(body(&format!(
                r#"{{"kind":"{}"}}"#,
                if i < 4 { "x" } else { "y" }
            )));
        }
        let removed = c.delete_where(&Filter::eq("kind", "x"));
        assert_eq!(removed, 4);
        assert_eq!(c.len(), 2);
        assert_eq!(c.count(&Filter::eq("kind", "x")), 0);
    }

    #[test]
    fn insert_with_id_keeps_id_sequence_ahead() {
        let mut c = Collection::new();
        c.insert_with_id(Document::new(DocumentId(10), body(r#"{"a":1}"#)));
        let id = c.insert(body(r#"{"a":2}"#));
        assert!(id.0 > 10);
        assert_eq!(c.len(), 2);
    }
}
