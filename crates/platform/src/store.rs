//! The data store: sharded entity storage.
//!
//! "The data store stores, modifies, and retrieves entities." WebFountain's
//! store spans a shared-nothing cluster; ours shards entities across
//! in-process partitions (one per simulated node) guarded by `parking_lot`
//! RwLocks, so miners can process shards in parallel without contention.

use crate::durable::{Annotated, DurableStorage, WalOp};
use crate::entity::{Entity, EntityEdit};
use crate::evlog::Level;
use crate::telemetry::{Counter, Gauge, Telemetry};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::mem::take;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wf_types::{DocId, Error, NodeId, Result};

/// One shard: the entities owned by one simulated cluster node.
#[derive(Debug, Default)]
struct Shard {
    entities: RwLock<BTreeMap<DocId, Entity>>,
}

/// CRUD/versioning instruments, resolved once so hot paths touch only
/// atomics. See DESIGN.md §8 for the `store.*` taxonomy.
#[derive(Debug)]
struct StoreMetrics {
    inserts: Arc<Counter>,
    get_ok: Arc<Counter>,
    get_miss: Arc<Counter>,
    update_ok: Arc<Counter>,
    update_miss: Arc<Counter>,
    delete_ok: Arc<Counter>,
    delete_miss: Arc<Counter>,
    version_bumps: Arc<Counter>,
    entities: Arc<Gauge>,
}

impl StoreMetrics {
    fn resolve(tele: &Telemetry) -> Self {
        StoreMetrics {
            inserts: tele.counter("store.insert"),
            get_ok: tele.counter("store.get.ok"),
            get_miss: tele.counter("store.get.miss"),
            update_ok: tele.counter("store.update.ok"),
            update_miss: tele.counter("store.update.miss"),
            delete_ok: tele.counter("store.delete.ok"),
            delete_miss: tele.counter("store.delete.miss"),
            version_bumps: tele.counter("store.version_bumps"),
            entities: tele.gauge("store.entities"),
        }
    }
}

/// Sharded entity store.
#[derive(Debug)]
pub struct DataStore {
    shards: Vec<Shard>,
    next_id: AtomicU64,
    telemetry: Arc<Telemetry>,
    metrics: StoreMetrics,
    /// Optional durable layer: when attached, every mutation appends a
    /// WAL record under the owning shard's write lock, so per-shard log
    /// order always equals apply order.
    durability: RwLock<Option<Arc<DurableStorage>>>,
}

impl DataStore {
    /// Creates a store with `shard_count` shards (≥ 1) and a private
    /// telemetry registry.
    pub fn new(shard_count: usize) -> Result<Self> {
        Self::with_telemetry(shard_count, Telemetry::new())
    }

    /// Creates a store recording its instruments into a shared registry.
    pub fn with_telemetry(shard_count: usize, telemetry: Arc<Telemetry>) -> Result<Self> {
        if shard_count == 0 {
            return Err(Error::Config("store needs at least one shard".into()));
        }
        Ok(DataStore {
            shards: (0..shard_count).map(|_| Shard::default()).collect(),
            next_id: AtomicU64::new(0),
            metrics: StoreMetrics::resolve(&telemetry),
            telemetry,
            durability: RwLock::new(None),
        })
    }

    /// Attaches a durable layer (same shard count required) and binds
    /// its `durable.*` instruments to this store's registry.
    pub fn attach_durability(&self, storage: Arc<DurableStorage>) -> Result<()> {
        if storage.shard_count() != self.shards.len() {
            return Err(Error::Config(format!(
                "durable storage has {} shard(s), store has {}",
                storage.shard_count(),
                self.shards.len()
            )));
        }
        storage.bind_telemetry(&self.telemetry);
        *self.durability.write() = Some(storage);
        Ok(())
    }

    /// The attached durable layer, if any.
    pub fn durability(&self) -> Option<Arc<DurableStorage>> {
        self.durability.read().clone()
    }

    /// The registry this store (and any pipeline run over it) records into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Single-shard store for tests and small runs.
    pub fn single() -> Self {
        Self::new(1).expect("one shard is valid")
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The node (shard) owning a document id.
    pub fn node_of(&self, id: DocId) -> NodeId {
        NodeId((id.as_u64() % self.shards.len() as u64) as u32)
    }

    fn shard_index(&self, id: DocId) -> usize {
        (id.as_u64() % self.shards.len() as u64) as usize
    }

    fn shard_of(&self, id: DocId) -> &Shard {
        &self.shards[self.shard_index(id)]
    }

    /// Emits a warn-level event for a CRUD miss on `id`'s shard, stamped
    /// with the registry's simulated clock.
    fn log_miss(&self, op: &str, id: DocId) {
        let log = self.telemetry.evlog();
        if !log.enabled() {
            return;
        }
        log.event(
            Level::Warn,
            &format!("store.shard:{}", self.shard_index(id)),
            self.telemetry.clock().now(),
            format!("{op} miss"),
            &[("doc", id.as_u64().to_string())],
        );
    }

    /// Ingests an entity: assigns the next id, stores it, returns the id.
    pub fn insert(&self, mut entity: Entity) -> DocId {
        let id = DocId(self.next_id.fetch_add(1, Ordering::Relaxed));
        entity.id = id;
        entity.version = 1;
        let shard = self.shard_index(id);
        {
            let mut guard = self.shards[shard].entities.write();
            if let Some(durable) = self.durability.read().as_ref() {
                durable.log(shard as u32, WalOp::Insert(entity.clone()));
            }
            guard.insert(id, entity);
        }
        self.metrics.inserts.inc();
        self.metrics.entities.add(1);
        id
    }

    /// Retrieves a clone of an entity.
    pub fn get(&self, id: DocId) -> Result<Entity> {
        self.read(id, Entity::clone)
    }

    /// Lends an entity to `f` by reference, under its shard's read lock,
    /// and returns what `f` makes of it. Counts as [`DataStore::get`]
    /// does: one `store.get.ok`, or a logged `store.get.miss`.
    pub fn read<R>(&self, id: DocId, f: impl FnOnce(&Entity) -> R) -> Result<R> {
        self.read_shard(self.node_of(id), |read| read.get(id).map(f))
            .ok_or_else(|| Error::NotFound(id.to_string()))
    }

    /// Lends an entity to `f` as an [`EntityEdit`] and keeps what `f`
    /// leaves in its annotations and metadata, bumping the version. They
    /// move into the view and back, so nothing is copied. With
    /// durability on, the WAL gets their post-state.
    pub fn update<F: FnOnce(&mut EntityEdit<'_>)>(&self, id: DocId, f: F) -> Result<()> {
        let mut guard = self.shard_of(id).entities.write();
        let Some(entity) = guard.get_mut(&id) else {
            drop(guard);
            self.metrics.update_miss.inc();
            self.log_miss("update", id);
            return Err(Error::NotFound(id.to_string()));
        };
        let (metadata, annotations) = (take(&mut entity.metadata), take(&mut entity.annotations));
        // the view's own copies of the emptied fields cost nothing
        let mut edit = EntityEdit {
            metadata,
            annotations,
            ..EntityEdit::of(entity)
        };
        f(&mut edit);
        (entity.metadata, entity.annotations) = (edit.metadata, edit.annotations);
        entity.version += 1;
        if let Some(durable) = self.durability.read().as_ref() {
            // full post-state of what an update can change, so replay is
            // idempotent
            let annotated = Annotated {
                doc: id,
                version: entity.version,
                metadata: entity.metadata.clone(),
                annotations: entity.annotations.clone(),
            };
            durable.log(self.shard_index(id) as u32, WalOp::Annotate(annotated));
        }
        drop(guard);
        self.metrics.update_ok.inc();
        self.metrics.version_bumps.inc();
        Ok(())
    }

    /// Deletes an entity; returns it if present.
    pub fn delete(&self, id: DocId) -> Option<Entity> {
        let removed = {
            let mut guard = self.shard_of(id).entities.write();
            let removed = guard.remove(&id);
            if removed.is_some() {
                if let Some(durable) = self.durability.read().as_ref() {
                    durable.log(self.shard_index(id) as u32, WalOp::Delete(id));
                }
            }
            removed
        };
        match removed {
            Some(_) => {
                self.metrics.delete_ok.inc();
                self.metrics.entities.add(-1);
            }
            None => {
                self.metrics.delete_miss.inc();
                self.log_miss("delete", id);
            }
        }
        removed
    }

    /// Recovery path: re-seats a replayed entity preserving its id and
    /// version, without writing the WAL (the record already lives
    /// there). Keeps id assignment ahead of everything restored.
    pub fn restore_entity(&self, entity: Entity) {
        let id = entity.id;
        self.next_id
            .fetch_max(id.as_u64().saturating_add(1), Ordering::Relaxed);
        let prev = self.shard_of(id).entities.write().insert(id, entity);
        if prev.is_none() {
            self.metrics.entities.add(1);
        }
    }

    /// Simulated crash: discards one shard's in-memory entities (the
    /// durable layer, if any, is deliberately untouched — surviving the
    /// loss is its job). Returns how many entities were dropped.
    pub fn drop_shard(&self, node: NodeId) -> usize {
        let Some(shard) = self.shards.get(node.0 as usize) else {
            return 0;
        };
        let mut guard = shard.entities.write();
        let lost = guard.len();
        guard.clear();
        self.metrics.entities.add(-(lost as i64));
        lost
    }

    /// Total number of stored entities.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entities.read().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All ids, ascending.
    pub fn ids(&self) -> Vec<DocId> {
        let mut out: Vec<DocId> = self
            .shards
            .iter()
            .flat_map(|s| s.entities.read().keys().copied().collect::<Vec<_>>())
            .collect();
        out.sort();
        out
    }

    /// Ids owned by one shard, ascending (parallel miners iterate these).
    pub fn shard_ids(&self, node: NodeId) -> Vec<DocId> {
        self.shards
            .get(node.0 as usize)
            .map(|s| s.entities.read().keys().copied().collect())
            .unwrap_or_default()
    }

    /// Lends one of this store's shards to `f` by reference under the
    /// shard's read lock: the one reader that copies nothing.
    pub(crate) fn read_shard<R>(&self, node: NodeId, f: impl FnOnce(ShardRead<'_>) -> R) -> R {
        let entities = self.shards[node.0 as usize].entities.read();
        f(ShardRead {
            store: self,
            entities: &entities,
        })
    }

    /// Runs `f` over a read-only snapshot reference of every entity, in id
    /// order within each shard. Avoids cloning the whole store.
    pub fn for_each<F: FnMut(&Entity)>(&self, mut f: F) {
        for node in 0..self.shards.len() {
            self.for_each_in(NodeId(node as u32), &mut f);
        }
    }

    /// Runs `f` over every entity one shard owns, by reference and in
    /// ascending id order, under that shard's read lock: one worker per
    /// shard can read the store in parallel. A node with no shard has no
    /// entities.
    pub fn for_each_in<F: FnMut(&Entity)>(&self, node: NodeId, f: F) {
        if let Some(shard) = self.shards.get(node.0 as usize) {
            shard.entities.read().values().for_each(f);
        }
    }

    /// Per-shard entity counts (cluster balance diagnostics).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.entities.read().len())
            .collect()
    }
}

/// One shard lent by [`DataStore::read_shard`]. Each entity it hands
/// out counts as one `store.get.ok`, as reading it with
/// [`DataStore::get`] would, and a miss counts and logs as there.
#[derive(Clone, Copy)]
pub(crate) struct ShardRead<'a> {
    store: &'a DataStore,
    entities: &'a BTreeMap<DocId, Entity>,
}

impl<'a> ShardRead<'a> {
    /// The entity `id`, if this shard holds it.
    pub(crate) fn get(self, id: DocId) -> Option<&'a Entity> {
        let entity = self.entities.get(&id);
        if entity.is_some() {
            self.store.metrics.get_ok.inc();
        } else {
            self.store.metrics.get_miss.inc();
            self.store.log_miss("get", id);
        }
        entity
    }

    /// Every entity of the shard, in id order.
    pub(crate) fn all(self) -> impl ExactSizeIterator<Item = &'a Entity> {
        self.store.metrics.get_ok.add(self.entities.len() as u64);
        self.entities.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::SourceKind;

    fn entity(text: &str) -> Entity {
        Entity::new("uri://test", SourceKind::Web, text)
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let store = DataStore::single();
        let a = store.insert(entity("a"));
        let b = store.insert(entity("b"));
        assert_eq!(a, DocId(0));
        assert_eq!(b, DocId(1));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn get_returns_stored_entity() {
        let store = DataStore::single();
        let id = store.insert(entity("hello"));
        let e = store.get(id).unwrap();
        assert_eq!(e.text, "hello");
        assert_eq!(e.version, 1);
    }

    #[test]
    fn get_missing_is_not_found() {
        let store = DataStore::single();
        assert!(matches!(store.get(DocId(42)), Err(Error::NotFound(_))));
    }

    #[test]
    fn update_bumps_version() {
        let store = DataStore::single();
        let id = store.insert(entity("v1"));
        store
            .update(id, |e| {
                assert_eq!((e.id, e.text, e.uri), (id, "v1", "uri://test"));
                e.metadata.insert("lang".into(), "en".into());
            })
            .unwrap();
        let e = store.get(id).unwrap();
        assert_eq!(e.metadata["lang"], "en");
        assert_eq!(e.text, "v1");
        assert_eq!(e.version, 2);
    }

    #[test]
    fn delete_removes() {
        let store = DataStore::single();
        let id = store.insert(entity("bye"));
        assert!(store.delete(id).is_some());
        assert!(store.delete(id).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn sharding_distributes_by_id() {
        let store = DataStore::new(4).unwrap();
        for i in 0..100 {
            store.insert(entity(&format!("doc {i}")));
        }
        let sizes = store.shard_sizes();
        assert_eq!(sizes.len(), 4);
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        assert!(sizes.iter().all(|&s| s == 25), "{sizes:?}");
    }

    #[test]
    fn shard_ids_partition_ids() {
        let store = DataStore::new(3).unwrap();
        for i in 0..10 {
            store.insert(entity(&format!("{i}")));
        }
        let mut all: Vec<DocId> = (0..3).flat_map(|n| store.shard_ids(NodeId(n))).collect();
        all.sort();
        assert_eq!(all, store.ids());
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(DataStore::new(0).is_err());
    }

    #[test]
    fn for_each_visits_everything() {
        let store = DataStore::new(2).unwrap();
        for i in 0..7 {
            store.insert(entity(&format!("{i}")));
        }
        let mut seen = 0;
        store.for_each(|_| seen += 1);
        assert_eq!(seen, 7);
    }

    #[test]
    fn for_each_in_visits_exactly_one_shards_ids_ascending() {
        let store = DataStore::new(3).unwrap();
        for i in 0..11 {
            store.insert(entity(&format!("{i}")));
        }
        // a restored entity lands out of insertion order
        let mut late = entity("late");
        late.id = DocId(30);
        store.restore_entity(late);
        for node in 0..3 {
            let mut seen = Vec::new();
            store.for_each_in(NodeId(node), |e| seen.push(e.id));
            let owned: Vec<DocId> = store
                .ids()
                .into_iter()
                .filter(|&id| store.node_of(id) == NodeId(node))
                .collect();
            assert!(!owned.is_empty());
            assert_eq!(seen, owned, "node {node}");
        }
        let mut none = 0;
        store.for_each_in(NodeId(3), |_| none += 1);
        assert_eq!(none, 0, "a node with no shard has no entities");
    }

    #[test]
    fn read_shard_lends_one_shard_in_id_order() {
        let store = DataStore::new(2).unwrap();
        for i in 0..7 {
            store.insert(entity(&format!("{i}")));
        }
        let seen: Vec<DocId> =
            store.read_shard(NodeId(1), |shard| shard.all().map(|e| e.id).collect());
        assert_eq!(seen, store.shard_ids(NodeId(1)));
        let texts = store.read_shard(NodeId(1), |shard| {
            [DocId(3), DocId(2)].map(|id| shard.get(id).map(|e| e.text.clone()))
        });
        assert_eq!(
            texts,
            [Some("3".to_string()), None],
            "doc 2 lives on shard 0"
        );
        // counted like the gets it replaces
        let snap = store.telemetry().snapshot();
        assert_eq!(snap.counter("store.get.ok"), 4);
        assert_eq!(snap.counter("store.get.miss"), 1);
    }

    #[test]
    fn crud_is_instrumented() {
        let store = DataStore::single();
        let id = store.insert(entity("a"));
        store.insert(entity("b"));
        let _ = store.get(id);
        let _ = store.get(DocId(99));
        store.update(id, |e| e.annotations.clear()).unwrap();
        assert!(store.update(DocId(99), |_| {}).is_err());
        store.delete(id);
        assert!(store.delete(id).is_none());
        let snap = store.telemetry().snapshot();
        assert_eq!(snap.counter("store.insert"), 2);
        assert_eq!(snap.counter("store.get.ok"), 1);
        assert_eq!(snap.counter("store.get.miss"), 1);
        assert_eq!(snap.counter("store.update.ok"), 1);
        assert_eq!(snap.counter("store.update.miss"), 1);
        assert_eq!(snap.counter("store.delete.ok"), 1);
        assert_eq!(snap.counter("store.delete.miss"), 1);
        assert_eq!(snap.counter("store.version_bumps"), 1);
        assert_eq!(snap.gauge("store.entities"), 1, "two in, one deleted");
        assert_eq!(snap.gauge("store.entities"), store.len() as i64);
    }

    #[test]
    fn concurrent_inserts_are_unique() {
        use std::sync::Arc;
        let store = Arc::new(DataStore::new(4).unwrap());
        let mut handles = Vec::new();
        for t in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                (0..50)
                    .map(|i| {
                        store.insert(Entity::new(format!("uri://{t}/{i}"), SourceKind::Web, "x"))
                    })
                    .collect::<Vec<_>>()
            }));
        }
        let mut ids: Vec<DocId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 400);
        assert_eq!(store.len(), 400);
    }
}
