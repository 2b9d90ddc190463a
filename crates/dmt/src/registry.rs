//! Sharded multi-tenant model registry: the state behind the serving plane.
//!
//! A [`ModelRegistry`] holds many named models ("tenants") behind one shared
//! [`WorkerPool`], and separates each tenant's two traffic classes:
//!
//! * **Learn traffic** serialises on the tenant's writer lock — one
//!   `learn_batch` at a time per tenant, exactly like a single-threaded
//!   training loop.
//! * **Predict traffic** for Dynamic Model Tree tenants never touches the
//!   writer lock: after every learn batch the writer publishes an immutable
//!   **epoch snapshot** (a near-memcpy clone of the flat SoA arena) through
//!   an [`EpochCell`], and predictions pin whichever epoch is current — see
//!   [`dmt_core::epoch`]. A prediction is therefore always bit-identical to
//!   *some* published epoch, and its latency is independent of any
//!   concurrent `learn_batch`. Tenants of other kinds (the baselines) have
//!   no epoch machinery and predict under the writer lock — correct, but
//!   coupled; the DMT is the serving-grade model.
//!
//! Tenant lookup is sharded (hash of the name → shard, each shard its own
//! `RwLock`) so concurrent requests for different tenants do not contend on
//! one map lock, and a shard's lock is never held across model work.
//!
//! ## Fleet-wide memory arbitration
//!
//! A registry can carry a fleet-wide byte pool
//! ([`RegistryConfig::fleet_budget_bytes`]): every Dynamic Model Tree tenant
//! receives an equal share of the pool as its
//! [`DmtConfig::memory_budget_bytes`](dmt_core::DmtConfig::memory_budget_bytes),
//! re-arbitrated whenever tenants join or leave (or the pool is resized), so
//! a fleet of thousands of models degrades gracefully instead of any one
//! tree growing unbounded. Non-DMT tenants have no budget ladder and are
//! excluded from arbitration.
//!
//! ## Crash safety and hot swap
//!
//! [`ModelRegistry::checkpoint`] writes a tenant's sealed snapshot
//! atomically; [`ModelRegistry::swap_from_snapshot`] hot-swaps a tenant's
//! model from a snapshot file (same kind, same schema) and republishes the
//! serving epoch, so a fleet can roll back or promote a model without
//! dropping predict traffic. Kinds without a snapshot codec (HT-Ada, EFDT,
//! FIMT-DD) surface [`CheckpointError::Unsupported`] as the typed
//! [`RegistryError::Checkpoint`] — never a panic, never a silent drop.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use dmt_core::epoch::EpochCell;
use dmt_core::lockrank::{LockRank, RankToken, Ranked};
use dmt_core::{DmtError, DynamicModelTree, Parallelism, WorkerPool};
use dmt_models::Rows;
use dmt_stream::StreamSchema;

use crate::zoo::{CheckpointError, ModelKind, ZooModel};

/// Configuration of a [`ModelRegistry`].
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Number of tenant-map shards (rounded up to at least 1). Lookups hash
    /// the tenant name to a shard; more shards mean less map-lock contention
    /// between unrelated tenants.
    pub shards: usize,
    /// Fleet-wide resident-memory pool in bytes, arbitrated equally across
    /// the Dynamic Model Tree tenants (`None` = unbudgeted fleet).
    pub fleet_budget_bytes: Option<usize>,
    /// Parallelism of the one [`WorkerPool`] shared by every tenant that can
    /// use it (the ensembles' member fan-out). `Serial` (and `Threads(0|1)`)
    /// creates no pool and no threads.
    pub parallelism: Parallelism,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            fleet_budget_bytes: None,
            parallelism: Parallelism::from_env(),
        }
    }
}

/// Why a registry operation failed. Every failure mode of the serving plane
/// maps onto one of these variants — the wire protocol transports them as
/// typed error responses.
#[derive(Debug)]
pub enum RegistryError {
    /// No tenant with this name is registered.
    UnknownTenant(String),
    /// [`ModelRegistry::register`] was called with a name already in use.
    DuplicateTenant(String),
    /// The batch was rejected by the model's input validation (mismatched
    /// lengths, wrong feature dimension, non-finite values, out-of-range
    /// labels). The tenant is untouched.
    Model(DmtError),
    /// Checkpoint or swap failed — including the typed
    /// [`CheckpointError::Unsupported`] for kinds without a snapshot codec.
    Checkpoint(CheckpointError),
    /// A swapped-in snapshot disagrees with the tenant's registered stream
    /// schema (feature count or class count).
    SchemaMismatch {
        /// What the tenant was registered with.
        expected: String,
        /// What the snapshot carries.
        found: String,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownTenant(name) => write!(f, "unknown tenant {name:?}"),
            RegistryError::DuplicateTenant(name) => {
                write!(f, "tenant {name:?} is already registered")
            }
            RegistryError::Model(e) => write!(f, "rejected batch: {e}"),
            RegistryError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            RegistryError::SchemaMismatch { expected, found } => {
                write!(
                    f,
                    "schema mismatch: tenant has {expected}, snapshot has {found}"
                )
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Model(e) => Some(e),
            RegistryError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DmtError> for RegistryError {
    fn from(e: DmtError) -> Self {
        RegistryError::Model(e)
    }
}

impl From<CheckpointError> for RegistryError {
    fn from(e: CheckpointError) -> Self {
        RegistryError::Checkpoint(e)
    }
}

/// The result of a predict request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictOutcome {
    /// The epoch the predictions were computed from (`None` for tenants
    /// without epoch serving — the baselines, which predict under the
    /// writer lock).
    pub epoch: Option<u64>,
    /// One predicted class per input row.
    pub predictions: Vec<usize>,
}

/// The result of a learn request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnOutcome {
    /// The epoch published from the post-batch model state (`None` for
    /// tenants without epoch serving).
    pub epoch: Option<u64>,
    /// Total rows the tenant has consumed since registration.
    pub observations: u64,
}

/// A point-in-time view of one tenant, as served by the `stats` op.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Model kind display name (the paper's row name).
    pub kind: String,
    /// Current serving epoch (0 for tenants without epoch serving).
    pub epoch: u64,
    /// Epoch snapshots currently resident: the served one plus any
    /// superseded epochs still pinned by in-flight predictions.
    pub live_epochs: u64,
    /// Resident heap bytes of the writer model.
    pub memory_bytes: u64,
    /// Total rows consumed since registration.
    pub observations: u64,
    /// The tenant's arbitrated share of the fleet byte pool, if any.
    pub budget_bytes: Option<u64>,
}

struct Tenant {
    name: String,
    kind: ModelKind,
    schema: StreamSchema,
    /// The learning model. Learn/checkpoint/swap serialise here; DMT predict
    /// traffic never takes this lock.
    writer: Mutex<ZooModel>,
    /// Epoch publication point — `Some` only for DMT tenants.
    epochs: Option<EpochCell<DynamicModelTree>>,
    observations: AtomicU64,
}

impl Tenant {
    fn lock_writer(&self) -> Ranked<MutexGuard<'_, ZooModel>> {
        // The rank token must exist before blocking on the lock so an
        // out-of-order acquisition asserts instead of deadlocking.
        let token = RankToken::acquire(LockRank::TenantWriter);
        // Model code behind this lock is panic-audited (typed errors on
        // hostile input), but a poisoned lock must not wedge the tenant
        // forever: the model state is still consistent (learn validates
        // before mutating), so recover the guard.
        let guard = match self.writer.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        Ranked::new(token, guard)
    }
}

/// A sharded, thread-safe registry of named models (see the
/// [module docs](self)).
pub struct ModelRegistry {
    shards: Vec<RwLock<HashMap<String, Arc<Tenant>>>>,
    /// The one worker pool shared by every pool-capable tenant (`None` when
    /// the registry runs serial).
    pool: Option<Arc<WorkerPool>>,
    parallelism: Parallelism,
    fleet_budget: Mutex<Option<usize>>,
}

impl ModelRegistry {
    /// Create an empty registry. A shared [`WorkerPool`] is spun up only if
    /// `config.parallelism` asks for 2+ executors.
    pub fn new(config: RegistryConfig) -> Self {
        let pool = match config.parallelism.workers() {
            n if n >= 2 => Some(Arc::new(WorkerPool::new(n))),
            _ => None,
        };
        Self {
            shards: (0..config.shards.max(1))
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            pool,
            parallelism: config.parallelism,
            fleet_budget: Mutex::new(config.fleet_budget_bytes),
        }
    }

    fn shard(&self, name: &str) -> &RwLock<HashMap<String, Arc<Tenant>>> {
        let mut hasher = DefaultHasher::new();
        name.hash(&mut hasher);
        &self.shards[(hasher.finish() % self.shards.len() as u64) as usize]
    }

    fn read_shard(
        shard: &RwLock<HashMap<String, Arc<Tenant>>>,
    ) -> Ranked<std::sync::RwLockReadGuard<'_, HashMap<String, Arc<Tenant>>>> {
        let token = RankToken::acquire(LockRank::RegistryMap);
        let guard = match shard.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        Ranked::new(token, guard)
    }

    fn write_shard(
        shard: &RwLock<HashMap<String, Arc<Tenant>>>,
    ) -> Ranked<std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<Tenant>>>> {
        let token = RankToken::acquire(LockRank::RegistryMap);
        let guard = match shard.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        Ranked::new(token, guard)
    }

    fn tenant(&self, name: &str) -> Result<Arc<Tenant>, RegistryError> {
        Self::read_shard(self.shard(name))
            .get(name)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownTenant(name.to_string()))
    }

    /// Register `model` under `name`, sharing the registry's worker pool
    /// with it and re-arbitrating the fleet budget. DMT tenants immediately
    /// publish epoch 0 (the freshly registered state) and serve predictions
    /// from it.
    pub fn register(
        &self,
        name: &str,
        schema: StreamSchema,
        mut model: ZooModel,
    ) -> Result<(), RegistryError> {
        if let Some(pool) = &self.pool {
            model.set_worker_pool(Arc::clone(pool));
        }
        let epochs = match &model {
            ZooModel::Dmt(tree) => Some(EpochCell::new(tree.clone())),
            _ => None,
        };
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            kind: model.kind(),
            schema,
            writer: Mutex::new(model),
            epochs,
            observations: AtomicU64::new(0),
        });
        {
            let mut shard = Self::write_shard(self.shard(name));
            if shard.contains_key(name) {
                return Err(RegistryError::DuplicateTenant(name.to_string()));
            }
            shard.insert(name.to_string(), tenant);
        }
        self.rebalance();
        Ok(())
    }

    /// Remove a tenant. Returns `false` if no tenant had that name. In-flight
    /// predictions that pinned one of its epochs finish undisturbed; the
    /// epochs are reclaimed when the last pin drops.
    pub fn remove(&self, name: &str) -> bool {
        let removed = Self::write_shard(self.shard(name)).remove(name).is_some();
        if removed {
            self.rebalance();
        }
        removed
    }

    /// Names of all registered tenants, sorted (stable across shard layout).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|shard| Self::read_shard(shard).keys().cloned().collect::<Vec<_>>())
            .collect();
        names.sort();
        names
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| Self::read_shard(shard).len())
            .sum()
    }

    /// Whether the registry has no tenants.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared worker pool, if the registry runs threaded.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// Validate a batch against `schema` the way the DMT's checked entry
    /// points do, so non-DMT tenants reject hostile input with the same
    /// typed errors instead of panicking inside model code.
    fn validate_batch(
        schema: &StreamSchema,
        xs: Rows<'_>,
        ys: Option<&[usize]>,
    ) -> Result<(), RegistryError> {
        if let Some(ys) = ys {
            if xs.len() != ys.len() {
                return Err(DmtError::LengthMismatch {
                    xs: xs.len(),
                    ys: ys.len(),
                }
                .into());
            }
            if xs.is_empty() {
                return Err(DmtError::EmptyBatch.into());
            }
        }
        let expected = schema.num_features();
        for (row, x) in xs.iter().enumerate() {
            if x.len() != expected {
                return Err(DmtError::FeatureDimension {
                    row,
                    got: x.len(),
                    expected,
                }
                .into());
            }
            for (feature, v) in x.iter().enumerate() {
                if !v.is_finite() {
                    return Err(DmtError::NonFiniteFeature { row, feature }.into());
                }
            }
        }
        if let Some(ys) = ys {
            for (row, &label) in ys.iter().enumerate() {
                if label >= schema.num_classes {
                    return Err(DmtError::LabelOutOfRange {
                        row,
                        label,
                        num_classes: schema.num_classes,
                    }
                    .into());
                }
            }
        }
        Ok(())
    }

    /// Predict a batch for a tenant.
    ///
    /// DMT tenants answer from the pinned current epoch without touching the
    /// writer lock; every returned prediction vector is bit-identical to
    /// what that epoch's snapshot predicts in isolation. Other kinds predict
    /// under the writer lock.
    pub fn predict(&self, name: &str, xs: Rows<'_>) -> Result<PredictOutcome, RegistryError> {
        let tenant = self.tenant(name)?;
        let mut predictions = vec![0usize; xs.len()];
        if let Some(cell) = &tenant.epochs {
            let epoch = cell.pin();
            epoch.try_predict_batch_into(xs, &mut predictions)?;
            return Ok(PredictOutcome {
                epoch: Some(epoch.seq()),
                predictions,
            });
        }
        Self::validate_batch(&tenant.schema, xs, None)?;
        let guard = tenant.lock_writer();
        guard
            .as_classifier()
            .predict_batch_into(xs, &mut predictions);
        Ok(PredictOutcome {
            epoch: None,
            predictions,
        })
    }

    /// Learn a batch for a tenant and, for DMT tenants, publish the
    /// post-batch state as the next serving epoch.
    ///
    /// Hostile batches are rejected with a typed error before any state is
    /// touched — the tenant keeps serving its current epoch.
    pub fn learn(
        &self,
        name: &str,
        xs: Rows<'_>,
        ys: &[usize],
    ) -> Result<LearnOutcome, RegistryError> {
        let tenant = self.tenant(name)?;
        let mut guard = tenant.lock_writer();
        let epoch = match (&mut *guard, &tenant.epochs) {
            (ZooModel::Dmt(tree), Some(cell)) => {
                tree.try_learn_batch(xs, ys)?;
                Some(cell.publish(tree.clone()))
            }
            (model, _) => {
                Self::validate_batch(&tenant.schema, xs, Some(ys))?;
                model.as_classifier_mut().learn_batch(xs, ys);
                None
            }
        };
        drop(guard);
        let observations = tenant
            .observations
            .fetch_add(xs.len() as u64, Ordering::Relaxed)
            + xs.len() as u64;
        Ok(LearnOutcome {
            epoch,
            observations,
        })
    }

    /// Write a crash-safe checkpoint of a tenant's current model.
    ///
    /// Kinds without a snapshot codec (HT-Ada, EFDT, FIMT-DD) return the
    /// typed [`RegistryError::Checkpoint`]`(`[`CheckpointError::Unsupported`]`)`
    /// without touching the filesystem.
    pub fn checkpoint<P: AsRef<Path>>(&self, name: &str, path: P) -> Result<(), RegistryError> {
        let tenant = self.tenant(name)?;
        let guard = tenant.lock_writer();
        guard.checkpoint(path)?;
        Ok(())
    }

    /// Hot-swap a tenant's model from a snapshot file written by
    /// [`ModelRegistry::checkpoint`] (or any [`ZooModel::checkpoint`]).
    ///
    /// The snapshot must be of the tenant's registered kind and schema;
    /// mismatches and unsupported kinds are typed errors and leave the
    /// tenant serving its current model. On success the restored model
    /// inherits the shared worker pool and its fleet-budget share, and DMT
    /// tenants publish it as the next epoch — in-flight predictions pinned
    /// on older epochs finish undisturbed. Returns the new epoch, if any.
    pub fn swap_from_snapshot<P: AsRef<Path>>(
        &self,
        name: &str,
        path: P,
    ) -> Result<Option<u64>, RegistryError> {
        let tenant = self.tenant(name)?;
        let mut restored = ZooModel::restore(tenant.kind, &tenant.schema, path)?;
        if let ZooModel::Dmt(tree) = &restored {
            if *tree.schema() != tenant.schema {
                return Err(RegistryError::SchemaMismatch {
                    expected: format!(
                        "{} features / {} classes",
                        tenant.schema.num_features(),
                        tenant.schema.num_classes
                    ),
                    found: format!(
                        "{} features / {} classes",
                        tree.schema().num_features(),
                        tree.schema().num_classes
                    ),
                });
            }
        }
        if let Some(pool) = &self.pool {
            restored.set_worker_pool(Arc::clone(pool));
        }
        let epoch = {
            let mut guard = tenant.lock_writer();
            *guard = restored;
            match (&*guard, &tenant.epochs) {
                (ZooModel::Dmt(tree), Some(cell)) => Some(cell.publish(tree.clone())),
                _ => None,
            }
        };
        self.rebalance();
        Ok(epoch)
    }

    /// Stats snapshot for one tenant.
    pub fn stats(&self, name: &str) -> Result<TenantStats, RegistryError> {
        let tenant = self.tenant(name)?;
        let guard = tenant.lock_writer();
        let memory_bytes = guard.memory_bytes() as u64;
        let budget_bytes = match &*guard {
            ZooModel::Dmt(tree) => tree.config().memory_budget_bytes.map(|b| b as u64),
            _ => None,
        };
        drop(guard);
        let (epoch, live_epochs) = match &tenant.epochs {
            Some(cell) => (cell.current_seq(), cell.live_epochs() as u64),
            None => (0, 0),
        };
        Ok(TenantStats {
            name: tenant.name.clone(),
            kind: tenant.kind.display_name().to_string(),
            epoch,
            live_epochs,
            memory_bytes,
            observations: tenant.observations.load(Ordering::Relaxed),
            budget_bytes,
        })
    }

    /// Resize (or disarm, with `None`) the fleet-wide byte pool and
    /// re-arbitrate every DMT tenant's share.
    pub fn set_fleet_budget(&self, bytes: Option<usize>) {
        {
            let mut guard = match self.fleet_budget.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            *guard = bytes;
        }
        self.rebalance();
    }

    /// The configured fleet-wide byte pool.
    pub fn fleet_budget(&self) -> Option<usize> {
        match self.fleet_budget.lock() {
            Ok(guard) => *guard,
            Err(poisoned) => *poisoned.into_inner(),
        }
    }

    /// Re-arbitrate the fleet byte pool across the DMT tenants: each
    /// receives an equal share `fleet / n`, applied through
    /// [`DynamicModelTree::set_memory_budget`] (the budget ladder enforces
    /// it at the tenant's next learn batch). With no fleet budget every
    /// tenant is disarmed. Runs automatically on register, remove, swap and
    /// [`ModelRegistry::set_fleet_budget`].
    pub fn rebalance(&self) {
        let fleet = self.fleet_budget();
        let tenants: Vec<Arc<Tenant>> = self
            .shards
            .iter()
            .flat_map(|shard| {
                Self::read_shard(shard)
                    .values()
                    .filter(|t| t.kind == ModelKind::Dmt)
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        if tenants.is_empty() {
            return;
        }
        let share = fleet.map(|bytes| bytes / tenants.len());
        for tenant in tenants {
            let mut guard = tenant.lock_writer();
            if let ZooModel::Dmt(tree) = &mut *guard {
                tree.set_memory_budget(share);
            }
        }
    }

    /// The parallelism the registry was built with (what the shared pool
    /// runs, or `Serial`).
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::build_zoo_model;
    use dmt_core::DmtConfig;
    use dmt_models::OnlineClassifier;

    fn toy_schema() -> StreamSchema {
        StreamSchema::numeric("toy", 2, 2)
    }

    fn toy_batch(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, ((i * 13) % n) as f64 / n as f64])
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
        (xs, ys)
    }

    fn rows(xs: &[Vec<f64>]) -> Vec<&[f64]> {
        xs.iter().map(|v| v.as_slice()).collect()
    }

    fn serial_registry() -> ModelRegistry {
        ModelRegistry::new(RegistryConfig {
            parallelism: Parallelism::Serial,
            ..RegistryConfig::default()
        })
    }

    fn register_dmt(registry: &ModelRegistry, name: &str) {
        let schema = toy_schema();
        let tree = DynamicModelTree::new(schema.clone(), DmtConfig::default());
        registry
            .register(name, schema, ZooModel::Dmt(tree))
            .expect("register");
    }

    #[test]
    fn register_predict_learn_advances_epochs() {
        let registry = serial_registry();
        register_dmt(&registry, "m");
        let (xs, ys) = toy_batch(64);
        let xs = rows(&xs);

        let before = registry.predict("m", &xs).expect("predict");
        assert_eq!(before.epoch, Some(0));
        assert_eq!(before.predictions.len(), 64);

        for round in 1..=5u64 {
            let outcome = registry.learn("m", &xs, &ys).expect("learn");
            assert_eq!(outcome.epoch, Some(round));
            assert_eq!(outcome.observations, round * 64);
        }
        let after = registry.predict("m", &xs).expect("predict");
        assert_eq!(after.epoch, Some(5));

        let stats = registry.stats("m").expect("stats");
        assert_eq!(stats.epoch, 5);
        assert_eq!(stats.observations, 320);
        assert_eq!(stats.live_epochs, 1);
        assert!(stats.memory_bytes > 0);
    }

    #[test]
    fn epoch_predictions_match_an_isolated_twin() {
        let registry = serial_registry();
        register_dmt(&registry, "m");
        let schema = toy_schema();
        let mut twin = DynamicModelTree::new(schema, DmtConfig::default());
        let (xs, ys) = toy_batch(48);
        let xs = rows(&xs);
        for _ in 0..8 {
            registry.learn("m", &xs, &ys).expect("learn");
            twin.learn_batch(&xs, &ys);
        }
        let served = registry.predict("m", &xs).expect("predict");
        let mut expected = vec![0usize; xs.len()];
        twin.predict_batch_into(&xs, &mut expected);
        assert_eq!(served.predictions, expected);
    }

    #[test]
    fn unknown_and_duplicate_tenants_are_typed_errors() {
        let registry = serial_registry();
        let (xs, _) = toy_batch(4);
        match registry.predict("ghost", &rows(&xs)) {
            Err(RegistryError::UnknownTenant(name)) => assert_eq!(name, "ghost"),
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
        register_dmt(&registry, "m");
        let schema = toy_schema();
        let model = build_zoo_model(ModelKind::Dmt, &schema, 1);
        match registry.register("m", schema, model) {
            Err(RegistryError::DuplicateTenant(name)) => assert_eq!(name, "m"),
            other => panic!("expected DuplicateTenant, got {other:?}"),
        }
    }

    #[test]
    fn hostile_batches_are_rejected_typed_for_every_tenant_kind() {
        let registry = serial_registry();
        register_dmt(&registry, "dmt");
        let schema = toy_schema();
        registry
            .register(
                "hat",
                schema.clone(),
                build_zoo_model(ModelKind::HtAda, &schema, 1),
            )
            .expect("register hat");
        for name in ["dmt", "hat"] {
            let bad_dim: Vec<&[f64]> = vec![&[0.5]];
            match registry.predict(name, &bad_dim) {
                Err(RegistryError::Model(DmtError::FeatureDimension { .. })) => {}
                other => panic!("{name}: expected FeatureDimension, got {other:?}"),
            }
            let nan: Vec<&[f64]> = vec![&[0.5, f64::NAN]];
            match registry.learn(name, &nan, &[0]) {
                Err(RegistryError::Model(DmtError::NonFiniteFeature { .. })) => {}
                other => panic!("{name}: expected NonFiniteFeature, got {other:?}"),
            }
            let (xs, _) = toy_batch(3);
            match registry.learn(name, &rows(&xs), &[0, 9, 1]) {
                Err(RegistryError::Model(DmtError::LabelOutOfRange { .. })) => {}
                other => panic!("{name}: expected LabelOutOfRange, got {other:?}"),
            }
            // The tenant still serves after every rejection.
            let (xs, ys) = toy_batch(8);
            registry.learn(name, &rows(&xs), &ys).expect("learn");
            registry.predict(name, &rows(&xs)).expect("predict");
        }
    }

    #[test]
    fn fleet_budget_is_arbitrated_equally_across_dmt_tenants() {
        let registry = ModelRegistry::new(RegistryConfig {
            fleet_budget_bytes: Some(1 << 20),
            parallelism: Parallelism::Serial,
            ..RegistryConfig::default()
        });
        register_dmt(&registry, "a");
        let schema = toy_schema();
        registry
            .register(
                "hat",
                schema.clone(),
                build_zoo_model(ModelKind::HtAda, &schema, 1),
            )
            .expect("register hat");
        assert_eq!(
            registry.stats("a").expect("stats").budget_bytes,
            Some(1 << 20),
            "a lone DMT tenant owns the whole pool (non-DMT tenants excluded)"
        );
        register_dmt(&registry, "b");
        for name in ["a", "b"] {
            assert_eq!(
                registry.stats(name).expect("stats").budget_bytes,
                Some((1 << 20) / 2)
            );
        }
        assert!(registry.remove("b"));
        assert_eq!(
            registry.stats("a").expect("stats").budget_bytes,
            Some(1 << 20)
        );
        registry.set_fleet_budget(None);
        assert_eq!(registry.stats("a").expect("stats").budget_bytes, None);
        // Non-DMT tenants never get a budget.
        assert_eq!(registry.stats("hat").expect("stats").budget_bytes, None);
    }

    #[test]
    fn checkpoint_unsupported_is_a_typed_registry_error() {
        let registry = serial_registry();
        let schema = toy_schema();
        for kind in [ModelKind::HtAda, ModelKind::Efdt, ModelKind::FimtDd] {
            let name = format!("{kind:?}");
            registry
                .register(&name, schema.clone(), build_zoo_model(kind, &schema, 1))
                .expect("register");
            let path = std::env::temp_dir().join("dmt-registry-unsupported.dmt");
            match registry.checkpoint(&name, &path) {
                Err(RegistryError::Checkpoint(CheckpointError::Unsupported(k))) => {
                    assert_eq!(k, kind)
                }
                other => panic!("{kind:?}: expected Unsupported, got {other:?}"),
            }
            match registry.swap_from_snapshot(&name, &path) {
                Err(RegistryError::Checkpoint(CheckpointError::Unsupported(k))) => {
                    assert_eq!(k, kind)
                }
                other => panic!("{kind:?}: expected Unsupported, got {other:?}"),
            }
            // The tenant keeps serving after both rejections.
            let (xs, ys) = toy_batch(8);
            registry.learn(&name, &rows(&xs), &ys).expect("learn");
            registry.predict(&name, &rows(&xs)).expect("predict");
        }
    }

    #[test]
    fn hot_swap_from_snapshot_republishes_the_serving_epoch() {
        let registry = serial_registry();
        register_dmt(&registry, "m");
        let (xs, ys) = toy_batch(64);
        let xs = rows(&xs);
        for _ in 0..6 {
            registry.learn("m", &xs, &ys).expect("learn");
        }
        let dir = std::env::temp_dir().join("dmt-registry-swap-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("m.dmt");
        registry.checkpoint("m", &path).expect("checkpoint");
        let trained = registry.predict("m", &xs).expect("predict");

        // Keep learning past the checkpoint, then roll back via hot swap.
        for _ in 0..4 {
            registry.learn("m", &xs, &ys).expect("learn");
        }
        let epoch = registry.swap_from_snapshot("m", &path).expect("swap");
        assert_eq!(epoch, Some(11), "6 learns + 4 learns + 1 swap publish");
        let rolled_back = registry.predict("m", &xs).expect("predict");
        assert_eq!(rolled_back.epoch, Some(11));
        assert_eq!(
            rolled_back.predictions, trained.predictions,
            "swap must serve exactly the checkpointed state"
        );
        // The swapped-in model keeps learning.
        registry.learn("m", &xs, &ys).expect("learn");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn swapping_a_mismatched_schema_is_rejected() {
        let registry = serial_registry();
        register_dmt(&registry, "m");
        // Checkpoint a tree with a *different* schema under another tenant.
        let other_schema = StreamSchema::numeric("other", 5, 3);
        let tree = DynamicModelTree::new(other_schema.clone(), DmtConfig::default());
        let dir = std::env::temp_dir().join("dmt-registry-schema-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("other.dmt");
        tree.save_snapshot(&path).expect("save");
        match registry.swap_from_snapshot("m", &path) {
            Err(RegistryError::SchemaMismatch { .. }) => {}
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
        // Tenant unharmed.
        let (xs, ys) = toy_batch(8);
        registry.learn("m", &rows(&xs), &ys).expect("learn");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn names_and_len_cover_all_shards() {
        let registry = serial_registry();
        assert!(registry.is_empty());
        for i in 0..20 {
            register_dmt(&registry, &format!("tenant-{i:02}"));
        }
        assert_eq!(registry.len(), 20);
        let names = registry.names();
        assert_eq!(names.len(), 20);
        assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted");
        assert!(registry.remove("tenant-07"));
        assert!(!registry.remove("tenant-07"));
        assert_eq!(registry.len(), 19);
    }
}
