//! Multi-tenant model registry: the state behind the serving plane.
//!
//! A [`ModelRegistry`] holds many named Dynamic Model Trees ("tenants") and
//! separates each tenant's two traffic classes:
//!
//! * **Learn traffic** serialises on the tenant's writer lock — one
//!   `learn_batch` at a time per tenant, exactly like a single-threaded
//!   training loop.
//! * **Predict traffic** never touches the writer lock: after every learn
//!   batch the writer publishes an immutable **epoch snapshot** through an
//!   [`EpochCell`], and predictions pin whichever epoch is current — see
//!   [`dmt_core::epoch`]. An epoch is a [`PredictView`]: the tree's split
//!   keys and leaf models, without the inner models, loss windows and
//!   candidate pools only learning reads. A prediction is therefore always
//!   bit-identical to *some* published epoch, and its latency is
//!   independent of any concurrent `learn_batch`.
//!
//! The registry serves Dynamic Model Trees only; [`ModelRegistry::register`]
//! refuses every other zoo kind with [`RegistryError::UnsupportedKind`].
//!
//! Tenants live in one map behind an `RwLock`. Requests take its read lock
//! only to look a tenant up, so the map lock is never held across model
//! work.
//!
//! ## Fleet-wide memory arbitration
//!
//! A registry can carry a fleet-wide byte pool
//! ([`RegistryConfig::fleet_budget_bytes`]): every tenant receives an equal
//! share of the pool as its
//! [`DmtConfig::memory_budget_bytes`](dmt_core::DmtConfig::memory_budget_bytes),
//! re-arbitrated whenever tenants join or leave, so a fleet of thousands of
//! models degrades gracefully instead of any one tree growing unbounded. The
//! pool is fixed for the registry's lifetime.
//!
//! ## Crash safety and hot swap
//!
//! [`ModelRegistry::checkpoint`] writes a tenant's sealed snapshot
//! atomically; [`ModelRegistry::swap_from_snapshot`] hot-swaps a tenant's
//! tree from a snapshot file (same schema) and republishes the serving
//! epoch, so a fleet can roll back or promote a model without dropping
//! predict traffic. I/O failures, corruption and version skew surface as the
//! typed [`RegistryError::Checkpoint`] — never a panic, never a silent drop.
//!
//! Both are an in-process API for the code that owns the registry: no
//! `dmt-serve` opcode reaches them, so no network peer can name a file.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use dmt_core::epoch::EpochCell;
use dmt_core::lockrank::{LockRank, RankToken, Ranked};
use dmt_core::{DmtError, DynamicModelTree, PredictView, SnapshotError};
use dmt_models::Rows;
use dmt_stream::StreamSchema;

use crate::zoo::{ModelKind, ZooModel};

/// Configuration of a [`ModelRegistry`].
#[derive(Debug, Clone, Default)]
pub struct RegistryConfig {
    /// Fleet-wide resident-memory pool in bytes, arbitrated equally across
    /// the tenants (`None` = unbudgeted fleet).
    pub fleet_budget_bytes: Option<usize>,
}

/// Why a registry operation failed. `dmt-serve` maps each variant onto a
/// typed wire error; the ones only in-process callers can hit (register,
/// checkpoint, swap) all become `BadRequest`.
#[derive(Debug)]
pub enum RegistryError {
    /// No tenant with this name is registered.
    UnknownTenant(String),
    /// [`ModelRegistry::register`] was called with a name already in use.
    DuplicateTenant(String),
    /// [`ModelRegistry::register`] was handed a model that is not a Dynamic
    /// Model Tree: the registry serves DMTs only.
    UnsupportedKind(ModelKind),
    /// The batch was rejected by the model's input validation (mismatched
    /// lengths, wrong feature dimension, non-finite values, out-of-range
    /// labels). The tenant is untouched.
    Model(DmtError),
    /// Checkpoint or swap failed in the snapshot machinery (I/O,
    /// corruption, forged state, version skew).
    Checkpoint(SnapshotError),
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
            RegistryError::UnsupportedKind(kind) => write!(
                f,
                "{} cannot be registered: the registry serves Dynamic Model Trees only",
                kind.display_name()
            ),
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

impl From<SnapshotError> for RegistryError {
    fn from(e: SnapshotError) -> Self {
        RegistryError::Checkpoint(e)
    }
}

/// The result of a predict request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictOutcome {
    /// The epoch the predictions were computed from (always `Some`; the
    /// wire format keeps the option).
    pub epoch: Option<u64>,
    /// One predicted class per input row.
    pub predictions: Vec<usize>,
}

/// The result of a learn request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnOutcome {
    /// The epoch published from the post-batch tree (always `Some`; the
    /// wire format keeps the option).
    pub epoch: Option<u64>,
    /// Total rows the tenant has consumed since registration, up to and
    /// including the batch that built `epoch`.
    pub observations: u64,
}

/// A point-in-time view of one tenant, as served by the `stats` op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Model kind display name (the paper's row name).
    pub kind: String,
    /// Current serving epoch.
    pub epoch: u64,
    /// Epoch snapshots currently resident: the served one plus any
    /// superseded epochs still pinned by in-flight predictions.
    pub live_epochs: u64,
    /// Resident heap bytes of the writer tree.
    pub memory_bytes: u64,
    /// Total rows consumed since registration.
    pub observations: u64,
    /// The tenant's arbitrated share of the fleet byte pool, if any.
    pub budget_bytes: Option<u64>,
}

struct Tenant {
    name: String,
    schema: StreamSchema,
    /// The learning tree. Learn/checkpoint/swap serialise here; predict
    /// traffic never takes this lock.
    writer: Mutex<DynamicModelTree>,
    /// Epoch publication point: each epoch is a predict-only view of the
    /// writer. Checkpoints come from the writer, never from an epoch.
    epochs: EpochCell<PredictView>,
    /// Rows consumed since registration. Written and read only under the
    /// writer lock, so it always pairs with the epoch published there.
    observations: AtomicU64,
}

impl Tenant {
    fn lock_writer(&self) -> Ranked<MutexGuard<'_, DynamicModelTree>> {
        // The rank token must exist before blocking on the lock so an
        // out-of-order acquisition asserts instead of deadlocking.
        let token = RankToken::acquire(LockRank::TenantWriter);
        // Tree code behind this lock is panic-audited (typed errors on
        // hostile input), but a poisoned lock must not wedge the tenant
        // forever: the tree is still consistent (learn validates before
        // mutating), so recover the guard.
        let guard = match self.writer.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        Ranked::new(token, guard)
    }
}

/// A thread-safe registry of named Dynamic Model Trees (see the
/// [module docs](self)).
pub struct ModelRegistry {
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    fleet_budget: Option<usize>,
}

impl ModelRegistry {
    /// Create an empty registry.
    pub fn new(config: RegistryConfig) -> Self {
        Self {
            tenants: RwLock::new(HashMap::new()),
            fleet_budget: config.fleet_budget_bytes,
        }
    }

    fn read_map(&self) -> Ranked<std::sync::RwLockReadGuard<'_, HashMap<String, Arc<Tenant>>>> {
        let token = RankToken::acquire(LockRank::RegistryMap);
        let guard = match self.tenants.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        Ranked::new(token, guard)
    }

    fn write_map(&self) -> Ranked<std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<Tenant>>>> {
        let token = RankToken::acquire(LockRank::RegistryMap);
        let guard = match self.tenants.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        Ranked::new(token, guard)
    }

    fn tenant(&self, name: &str) -> Result<Arc<Tenant>, RegistryError> {
        self.read_map()
            .get(name)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownTenant(name.to_string()))
    }

    /// Register a Dynamic Model Tree under `name` and re-arbitrate the fleet
    /// budget. The tenant immediately publishes epoch 0 (the freshly
    /// registered state) and serves predictions from it. Any other zoo kind
    /// is refused with [`RegistryError::UnsupportedKind`].
    pub fn register(
        &self,
        name: &str,
        schema: StreamSchema,
        model: ZooModel,
    ) -> Result<(), RegistryError> {
        let tree = match model {
            ZooModel::Dmt(tree) => tree,
            other => return Err(RegistryError::UnsupportedKind(other.kind())),
        };
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            schema,
            epochs: EpochCell::new(tree.predict_view()),
            writer: Mutex::new(tree),
            observations: AtomicU64::new(0),
        });
        {
            let mut tenants = self.write_map();
            if tenants.contains_key(name) {
                return Err(RegistryError::DuplicateTenant(name.to_string()));
            }
            tenants.insert(name.to_string(), tenant);
        }
        self.rebalance();
        Ok(())
    }

    /// Remove a tenant. Returns `false` if no tenant had that name. In-flight
    /// predictions that pinned one of its epochs finish undisturbed; the
    /// epochs are reclaimed when the last pin drops.
    pub fn remove(&self, name: &str) -> bool {
        let removed = self.write_map().remove(name).is_some();
        if removed {
            self.rebalance();
        }
        removed
    }

    /// Names of all registered tenants, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read_map().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.read_map().len()
    }

    /// Whether the registry has no tenants.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Predict a batch for a tenant from the pinned current epoch, without
    /// touching the writer lock. Every returned prediction vector is
    /// bit-identical to what that epoch's snapshot predicts in isolation.
    pub fn predict(&self, name: &str, xs: Rows<'_>) -> Result<PredictOutcome, RegistryError> {
        let tenant = self.tenant(name)?;
        let mut predictions = vec![0usize; xs.len()];
        let epoch = tenant.epochs.pin();
        epoch.try_predict_batch_into(xs, &mut predictions)?;
        Ok(PredictOutcome {
            epoch: Some(epoch.seq()),
            predictions,
        })
    }

    /// Learn a batch for a tenant and publish a predict-only view of the
    /// post-batch tree as the next serving epoch.
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
        let mut tree = tenant.lock_writer();
        tree.try_learn_batch(xs, ys)?;
        let epoch = tenant.epochs.publish(tree.predict_view());
        // Counted before the writer lock drops, so two learners on one
        // tenant each get the row count of the epoch they published.
        let rows = xs.len() as u64;
        let observations = tenant.observations.fetch_add(rows, Ordering::Relaxed) + rows;
        Ok(LearnOutcome {
            epoch: Some(epoch),
            observations,
        })
    }

    /// Write a crash-safe checkpoint of a tenant's current tree.
    pub fn checkpoint<P: AsRef<Path>>(&self, name: &str, path: P) -> Result<(), RegistryError> {
        let tenant = self.tenant(name)?;
        tenant.lock_writer().save_snapshot(path)?;
        Ok(())
    }

    /// Hot-swap a tenant's tree from a snapshot file written by
    /// [`ModelRegistry::checkpoint`] (or any
    /// [`DynamicModelTree::save_snapshot`]).
    ///
    /// The snapshot must carry the tenant's registered schema; a mismatch
    /// or a broken file is a typed error and leaves the tenant serving its
    /// current tree. On success the restored tree takes over the tenant's
    /// fleet-budget share (not the budget the snapshot was saved with) and
    /// is published as the next epoch — in-flight predictions pinned on
    /// older epochs finish undisturbed. Returns the new epoch.
    pub fn swap_from_snapshot<P: AsRef<Path>>(
        &self,
        name: &str,
        path: P,
    ) -> Result<u64, RegistryError> {
        let tenant = self.tenant(name)?;
        let mut restored = DynamicModelTree::load_snapshot(path)?;
        if *restored.schema() != tenant.schema {
            return Err(RegistryError::SchemaMismatch {
                expected: format!(
                    "{} features / {} classes",
                    tenant.schema.num_features(),
                    tenant.schema.num_classes
                ),
                found: format!(
                    "{} features / {} classes",
                    restored.schema().num_features(),
                    restored.schema().num_classes
                ),
            });
        }
        let mut tree = tenant.lock_writer();
        // The share is copied under the writer lock, so no learn ever runs
        // the budget ladder against the saver's budget.
        restored.set_memory_budget(tree.config().memory_budget_bytes);
        *tree = restored;
        Ok(tenant.epochs.publish(tree.predict_view()))
    }

    /// Stats snapshot for one tenant. Every field is read under the writer
    /// lock, so the epoch and the observation count describe one state.
    pub fn stats(&self, name: &str) -> Result<TenantStats, RegistryError> {
        let tenant = self.tenant(name)?;
        let tree = tenant.lock_writer();
        Ok(TenantStats {
            name: tenant.name.clone(),
            kind: ModelKind::Dmt.display_name().to_string(),
            epoch: tenant.epochs.current_seq(),
            live_epochs: tenant.epochs.live_epochs() as u64,
            memory_bytes: tree.memory_bytes() as u64,
            observations: tenant.observations.load(Ordering::Relaxed),
            budget_bytes: tree.config().memory_budget_bytes.map(|b| b as u64),
        })
    }

    /// Re-arbitrate the fleet byte pool across the tenants: each receives an
    /// equal share `fleet / n`, applied through
    /// [`DynamicModelTree::set_memory_budget`] (the budget ladder enforces
    /// it at the tenant's next learn batch). With no fleet budget every
    /// tenant is disarmed. Runs on register and remove; a swap keeps the
    /// tenant count, so it keeps the share too.
    fn rebalance(&self) {
        let tenants: Vec<Arc<Tenant>> = self.read_map().values().cloned().collect();
        if tenants.is_empty() {
            return;
        }
        let share = self.fleet_budget.map(|bytes| bytes / tenants.len());
        for tenant in tenants {
            tenant.lock_writer().set_memory_budget(share);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{build_zoo_model, ALL_MODELS};
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

    fn registry() -> ModelRegistry {
        ModelRegistry::new(RegistryConfig::default())
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
        let registry = registry();
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
        let registry = registry();
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
    fn epochs_are_predict_only_views_of_the_writer() {
        let registry = registry();
        register_dmt(&registry, "m");
        let (xs, ys) = toy_batch(64);
        let xs = rows(&xs);
        for _ in 0..8 {
            registry.learn("m", &xs, &ys).expect("learn");
        }
        let tenant = registry.tenant("m").expect("tenant");
        let writer = tenant.lock_writer();
        let epoch = tenant.epochs.pin();
        // The view drops the windows, pools and inner models the writer
        // keeps for learning, and predicts exactly as the writer does.
        assert!(epoch.memory_bytes() < writer.memory_bytes() / 2);
        for &x in &xs {
            assert_eq!(epoch.predict(x), writer.predict(x));
        }
    }

    #[test]
    fn unknown_and_duplicate_tenants_are_typed_errors() {
        let registry = registry();
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
    fn non_dmt_kinds_are_refused_typed() {
        let registry = registry();
        let schema = toy_schema();
        for kind in ALL_MODELS.into_iter().filter(|&k| k != ModelKind::Dmt) {
            match registry.register("m", schema.clone(), build_zoo_model(kind, &schema, 1)) {
                Err(RegistryError::UnsupportedKind(k)) => assert_eq!(k, kind),
                other => panic!("{kind:?}: expected UnsupportedKind, got {other:?}"),
            }
        }
        assert!(registry.is_empty(), "a refused model must not register");
        register_dmt(&registry, "m");
        assert_eq!(registry.stats("m").expect("stats").kind, "DMT (ours)");
    }

    #[test]
    fn hostile_batches_are_rejected_typed_for_every_tenant_kind() {
        let registry = registry();
        register_dmt(&registry, "dmt");
        let bad_dim: Vec<&[f64]> = vec![&[0.5]];
        match registry.predict("dmt", &bad_dim) {
            Err(RegistryError::Model(DmtError::FeatureDimension { .. })) => {}
            other => panic!("expected FeatureDimension, got {other:?}"),
        }
        let nan: Vec<&[f64]> = vec![&[0.5, f64::NAN]];
        match registry.learn("dmt", &nan, &[0]) {
            Err(RegistryError::Model(DmtError::NonFiniteFeature { .. })) => {}
            other => panic!("expected NonFiniteFeature, got {other:?}"),
        }
        let (xs, _) = toy_batch(3);
        match registry.learn("dmt", &rows(&xs), &[0, 9, 1]) {
            Err(RegistryError::Model(DmtError::LabelOutOfRange { .. })) => {}
            other => panic!("expected LabelOutOfRange, got {other:?}"),
        }
        // The tenant still serves after every rejection.
        let (xs, ys) = toy_batch(8);
        registry.learn("dmt", &rows(&xs), &ys).expect("learn");
        registry.predict("dmt", &rows(&xs)).expect("predict");
    }

    #[test]
    fn fleet_budget_is_arbitrated_equally_across_dmt_tenants() {
        let registry = ModelRegistry::new(RegistryConfig {
            fleet_budget_bytes: Some(1 << 20),
        });
        register_dmt(&registry, "a");
        assert_eq!(
            registry.stats("a").expect("stats").budget_bytes,
            Some(1 << 20),
            "a lone tenant owns the whole pool"
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
        // A registry without a pool leaves its tenants unbudgeted.
        let unbudgeted = ModelRegistry::new(RegistryConfig::default());
        register_dmt(&unbudgeted, "a");
        register_dmt(&unbudgeted, "b");
        for name in ["a", "b"] {
            assert_eq!(unbudgeted.stats(name).expect("stats").budget_bytes, None);
        }
    }

    #[test]
    fn concurrent_learners_pair_each_epoch_with_its_row_count() {
        const BATCHES: u64 = 40;
        const ROWS: usize = 12;
        let registry = registry();
        register_dmt(&registry, "m");
        let (xs, ys) = toy_batch(ROWS);
        let xs = rows(&xs);
        // Both learners enter every round together, so each round contends
        // on the writer lock.
        let round = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..BATCHES {
                        round.wait();
                        let outcome = registry.learn("m", &xs, &ys).expect("learn");
                        let epoch = outcome.epoch.expect("every learn publishes");
                        assert_eq!(outcome.observations, epoch * ROWS as u64);
                    }
                });
            }
        });
        let stats = registry.stats("m").expect("stats");
        assert_eq!(stats.epoch, 2 * BATCHES);
        assert_eq!(stats.observations, stats.epoch * ROWS as u64);
    }

    #[test]
    fn swap_keeps_the_tenant_share_not_the_snapshot_budget() {
        const FLEET: usize = 1 << 20;
        let registry = ModelRegistry::new(RegistryConfig {
            fleet_budget_bytes: Some(FLEET),
        });
        register_dmt(&registry, "a");
        let (xs, ys) = toy_batch(32);
        registry.learn("a", &rows(&xs), &ys).expect("learn");
        let dir = std::env::temp_dir().join(format!(
            "dmt-registry-swap-share-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("a.dmt");
        // Saved while "a" owns the whole pool.
        registry.checkpoint("a", &path).expect("checkpoint");
        register_dmt(&registry, "b");
        registry.swap_from_snapshot("a", &path).expect("swap");
        let half = Some((FLEET / 2) as u64);
        assert_eq!(registry.stats("a").expect("stats").budget_bytes, half);
        // The swapped-in writer already carries the share: no learn can run
        // on the saver's budget between the swap and a later rebalance.
        let tenant = registry.tenant("a").expect("tenant");
        assert_eq!(
            tenant.lock_writer().config().memory_budget_bytes,
            Some(FLEET / 2)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hot_swap_from_snapshot_republishes_the_serving_epoch() {
        let registry = registry();
        register_dmt(&registry, "m");
        let (xs, ys) = toy_batch(64);
        let xs = rows(&xs);
        for _ in 0..6 {
            registry.learn("m", &xs, &ys).expect("learn");
        }
        let dir =
            std::env::temp_dir().join(format!("dmt-registry-swap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("m.dmt");
        registry.checkpoint("m", &path).expect("checkpoint");
        let trained = registry.predict("m", &xs).expect("predict");

        // Keep learning past the checkpoint, then roll back via hot swap.
        for _ in 0..4 {
            registry.learn("m", &xs, &ys).expect("learn");
        }
        let epoch = registry.swap_from_snapshot("m", &path).expect("swap");
        assert_eq!(epoch, 11, "6 learns + 4 learns + 1 swap publish");
        let rolled_back = registry.predict("m", &xs).expect("predict");
        assert_eq!(rolled_back.epoch, Some(11));
        assert_eq!(
            rolled_back.predictions, trained.predictions,
            "swap must serve exactly the checkpointed state"
        );
        // Swapping from a missing file is a typed error that publishes
        // nothing: the tenant keeps serving the same epoch.
        match registry.swap_from_snapshot("m", dir.join("missing.dmt")) {
            Err(RegistryError::Checkpoint(_)) => {}
            other => panic!("expected Checkpoint, got {other:?}"),
        }
        assert_eq!(registry.stats("m").expect("stats").epoch, 11);
        assert_eq!(
            registry.predict("m", &xs).expect("predict"),
            rolled_back,
            "a failed swap must leave the serving epoch untouched"
        );
        // The swapped-in model keeps learning.
        registry.learn("m", &xs, &ys).expect("learn");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn swapping_a_mismatched_schema_is_rejected() {
        let registry = registry();
        register_dmt(&registry, "m");
        // Checkpoint a tree with a *different* schema under another tenant.
        let other_schema = StreamSchema::numeric("other", 5, 3);
        let tree = DynamicModelTree::new(other_schema.clone(), DmtConfig::default());
        let dir =
            std::env::temp_dir().join(format!("dmt-registry-schema-test-{}", std::process::id()));
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
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn names_and_len_cover_every_tenant() {
        let registry = registry();
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
