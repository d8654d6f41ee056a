//! A counting, span-recording [`ResourceStore`] decorator: the store
//! layer's boundary, passed to the service constructors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wsrf_core::properties::PropertyDoc;
use wsrf_core::store::{ResourceStore, StoreError};
use wsrf_xml::xpath::Path;

use crate::trace;

/// Counters shared by every decorated store of one run.
#[derive(Default)]
pub struct StoreStats {
    pub loads: AtomicU64,
    pub saves: AtomicU64,
    pub creates: AtomicU64,
    pub destroys: AtomicU64,
}

impl StoreStats {
    /// Resources alive in the decorated stores (created minus
    /// destroyed since the counters were made).
    pub fn resources(&self) -> u64 {
        let c = self.creates.load(Ordering::Relaxed);
        c.saturating_sub(self.destroys.load(Ordering::Relaxed))
    }
}

/// Forwards every call to `inner`, counting it and recording a span
/// around `load` and `save`.
pub struct TimingStore {
    inner: Arc<dyn ResourceStore>,
    stats: Arc<StoreStats>,
}

impl TimingStore {
    pub fn wrap(inner: Arc<dyn ResourceStore>, stats: &Arc<StoreStats>) -> Arc<dyn ResourceStore> {
        Arc::new(TimingStore {
            inner,
            stats: stats.clone(),
        })
    }
}

impl ResourceStore for TimingStore {
    fn create(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        let r = self.inner.create(service, key, doc);
        if r.is_ok() {
            self.stats.creates.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn load(&self, service: &str, key: &str) -> Result<PropertyDoc, StoreError> {
        self.stats.loads.fetch_add(1, Ordering::Relaxed);
        let _s = trace::span("wsrf-core.store.load");
        self.inner.load(service, key)
    }

    fn save(&self, service: &str, key: &str, doc: &PropertyDoc) -> Result<(), StoreError> {
        self.stats.saves.fetch_add(1, Ordering::Relaxed);
        let _s = trace::span("wsrf-core.store.save");
        self.inner.save(service, key, doc)
    }

    fn destroy(&self, service: &str, key: &str) -> Result<(), StoreError> {
        let r = self.inner.destroy(service, key);
        if r.is_ok() {
            self.stats.destroys.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn exists(&self, service: &str, key: &str) -> bool {
        self.inner.exists(service, key)
    }

    fn list(&self, service: &str) -> Vec<String> {
        self.inner.list(service)
    }

    fn query(&self, service: &str, path: &Path) -> Vec<String> {
        self.inner.query(service, path)
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrf_core::store::MemoryStore;
    use wsrf_xml::QName;

    #[test]
    fn decorator_is_transparent_and_counts() {
        let plain: Arc<dyn ResourceStore> = Arc::new(MemoryStore::new());
        let stats = Arc::new(StoreStats::default());
        let timed = TimingStore::wrap(Arc::new(MemoryStore::new()), &stats);
        let name = QName::new("urn:t", "Status");
        let mut doc = PropertyDoc::new();
        doc.set_text(name.clone(), "Running");
        for store in [&plain, &timed] {
            store.create("Svc", "k1", &doc).unwrap();
            assert!(store.create("Svc", "k1", &doc).is_err());
            let mut d = store.load("Svc", "k1").unwrap();
            d.set_text(name.clone(), "Exited");
            store.save("Svc", "k1", &d).unwrap();
            store.create("Svc", "k2", &doc).unwrap();
            store.destroy("Svc", "k2").unwrap();
        }
        assert_eq!(
            plain.load("Svc", "k1").unwrap().text(&name),
            timed.load("Svc", "k1").unwrap().text(&name)
        );
        assert_eq!(plain.list("Svc"), timed.list("Svc"));
        assert_eq!(plain.exists("Svc", "k2"), timed.exists("Svc", "k2"));
        assert_eq!(plain.backend_name(), timed.backend_name());
        assert_eq!(stats.loads.load(Ordering::Relaxed), 2);
        assert_eq!(stats.saves.load(Ordering::Relaxed), 1);
        assert_eq!(stats.resources(), 1);
    }
}
