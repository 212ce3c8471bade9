//! A database: named collections of JSON documents, each stored under a
//! key its caller chooses.
//!
//! Miscela-V stores each CAP mining result under the dataset name and the
//! parameters, and looks up that exact pair before mining (Section 3.3).
//! That is the whole access pattern, so a [`Database`] reads and replaces a
//! document by its key and prunes a collection with a predicate over the
//! document bodies.

use crate::json::Json;
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// One collection: document bodies by key, in key order.
pub(crate) type Collection = BTreeMap<String, Json>;

/// Named collections of keyed JSON documents. Cheap to share via
/// `Arc<Database>`; all methods take `&self` and lock internally.
#[derive(Debug, Default)]
pub struct Database {
    pub(crate) collections: RwLock<BTreeMap<String, Collection>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The document stored under `key` in `collection` (cloned out).
    pub fn get(&self, collection: &str, key: &str) -> Option<Json> {
        self.collections.read().get(collection)?.get(key).cloned()
    }

    /// Stores `body` under `key` in `collection`, replacing the document
    /// already there. Creates the collection if needed.
    pub fn put(&self, collection: &str, key: impl Into<String>, body: Json) {
        self.collections
            .write()
            .entry(collection.to_string())
            .or_default()
            .insert(key.into(), body);
    }

    /// Keeps only the documents of `collection` whose body passes `keep`.
    /// Returns how many were removed.
    pub fn retain(&self, collection: &str, mut keep: impl FnMut(&Json) -> bool) -> usize {
        let mut collections = self.collections.write();
        let Some(docs) = collections.get_mut(collection) else {
            return 0;
        };
        let before = docs.len();
        docs.retain(|_, body| keep(body));
        before - docs.len()
    }

    /// Number of documents in `collection` (0 when it does not exist).
    pub fn len(&self, collection: &str) -> usize {
        self.collections
            .read()
            .get(collection)
            .map_or(0, |docs| docs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn doc(dataset: &str, n: i64) -> Json {
        Json::from_pairs([("dataset", Json::from(dataset)), ("n", Json::from(n))])
    }

    #[test]
    fn put_get_replace_retain() {
        let db = Database::new();
        db.put("caps", "a", doc("santander", 3));
        assert_eq!(db.len("caps"), 1);
        assert_eq!(db.get("caps", "a"), Some(doc("santander", 3)));
        // A put under the same key replaces the document.
        db.put("caps", "a", doc("santander", 5));
        assert_eq!(db.len("caps"), 1);
        assert_eq!(
            db.get("caps", "a").unwrap().get("n").unwrap().as_i64(),
            Some(5)
        );
        db.put("caps", "b", doc("china6", 1));
        let removed = db.retain("caps", |body| {
            body.get("dataset").and_then(Json::as_str) != Some("santander")
        });
        assert_eq!(removed, 1);
        assert_eq!(db.get("caps", "a"), None);
        assert_eq!(db.len("caps"), 1);
        // Unknown collections and keys.
        assert_eq!(db.get("caps", "missing"), None);
        assert_eq!(db.get("missing", "a"), None);
        assert_eq!(db.len("missing"), 0);
        assert_eq!(db.retain("missing", |_| false), 0);
    }

    #[test]
    fn concurrent_puts_from_threads() {
        let db = Arc::new(Database::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    db.put("conc", format!("{t}/{i}"), doc(&format!("t{t}"), i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.len("conc"), 200);
        for t in 0..4 {
            let dataset = format!("t{t}");
            let removed = db.retain("conc", |body| {
                body.get("dataset").and_then(Json::as_str) != Some(dataset.as_str())
            });
            assert_eq!(removed, 50);
        }
        assert_eq!(db.len("conc"), 0);
    }
}
