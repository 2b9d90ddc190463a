//! Reusable scratch buffers for the Dynamic Model Tree update and predict
//! loops.
//!
//! The per-instance cost of a streaming learner must stay constant and small
//! (the paper reports test/train runtime as a headline result, Table V).
//! Allocating per instance — or per node per batch — makes the allocator the
//! dominant cost of the hot loop, so all intermediate storage the update path
//! needs lives in one [`UpdateScratch`] owned by the tree and reused across
//! batches, and the batched prediction routing pass keeps its buffers in a
//! [`PredictScratch`]. In steady state (buffers grown to their high-water
//! mark) the learn/predict path performs **no** per-instance heap
//! allocations.

use std::collections::HashMap;

use dmt_models::memory::{slice_deep_bytes, vec_bytes};
use dmt_models::MemoryUsage;

use crate::arena::{NodeArena, NodeId};
use crate::candidate::SplitCandidate;

/// Scratch buffers threaded through `DynamicModelTree::learn_batch` →
/// `node::learn_at` → `NodeStats::update_with_batch` → the GLM `*_into`
/// methods.
///
/// All buffers are resized on demand and retain their capacity, so after the
/// first few batches the hot path stops touching the allocator entirely.
#[derive(Debug, Default)]
pub struct UpdateScratch {
    /// Per-instance losses of the node currently being updated, indexed by
    /// position within the node's index slice.
    pub(crate) losses: Vec<f64>,
    /// Flattened per-instance gradients of the node currently being updated
    /// (row-major, stride = number of model parameters).
    pub(crate) grads: Vec<f64>,
    /// Gradient accumulator handed to the per-instance SGD steps.
    pub(crate) grad_buf: Vec<f64>,
    /// Per-class scratch handed to the GLM `*_into` methods (softmax
    /// probabilities / logits).
    pub(crate) class_buf: Vec<f64>,
    /// Instance indices of the current batch; inner nodes partition this
    /// in place to route instances to their children.
    pub(crate) indices: Vec<usize>,
    /// Holding pen for right-routed indices during the stable partition.
    pub(crate) partition_buf: Vec<usize>,
    /// Sort buffer for per-feature values during candidate proposal.
    pub(crate) values_buf: Vec<f64>,
    /// The node's routed sub-batch gathered into one contiguous row-major
    /// matrix (`instances × features`); every batched kernel of the update
    /// loop runs over this buffer instead of chasing scattered row pointers.
    pub(crate) xbuf: Vec<f64>,
    /// Labels of the gathered sub-batch, aligned with `xbuf` rows.
    pub(crate) ybuf: Vec<usize>,
    /// `(order-preserving bit key, row)` pairs of the column being sorted;
    /// the `u64` keys make the sort a branchless integer sort.
    pub(crate) sort_pairs: Vec<(u64, u32)>,
    /// Presorted attribute lists (as in SLIQ): one stripe of
    /// `order_stride` node-local rows per numeric feature, each sorted by
    /// `(numeric_sort_key, row)`. Filled once per batch by
    /// `node::sort_columns` at the node that starts the descent; every node
    /// below reads its rows out of the stripes at its offset, and
    /// `node::split_orders` hands each child its sorted rows.
    pub(crate) orders: Vec<u32>,
    /// Rows per stripe of `orders` (the batch size at the sorting node).
    pub(crate) order_stride: usize,
    /// Destination map of the last routing partition: for every row of the
    /// partitioned node, its row number inside the child it was routed to,
    /// tagged with `node::RIGHT_CHILD` when that child is the right one.
    pub(crate) dest: Vec<u32>,
    /// Holding pen for the left-routed rows while a stripe is split.
    pub(crate) order_pen: Vec<u32>,
    /// Indices of the stored candidates grouped by feature (pool order kept
    /// inside each group); group `f` is
    /// `cand_order[cand_start[f]..cand_start[f + 1]]`.
    pub(crate) cand_order: Vec<u32>,
    /// Group offsets of `cand_order` (`features + 2` entries; see
    /// `NodeStats::group_candidates`).
    pub(crate) cand_start: Vec<u32>,
    /// `(prefix length, candidate tag)` boundaries of the numeric sweep,
    /// sorted by prefix length.
    pub(crate) boundaries: Vec<(u32, u32)>,
    /// Running gradient accumulator of the numeric sweep (`num_params`).
    pub(crate) acc_buf: Vec<f64>,
    /// Freshly proposed candidates of the current node update (drained into
    /// the pool or retired each batch; capacity reused).
    pub(crate) proposals_buf: Vec<SplitCandidate>,
    /// Retired candidates recycled by the next proposal round, so
    /// steady-state proposal generation never touches the allocator.
    pub(crate) retired: Vec<SplitCandidate>,
    /// Distinct category codes of the nominal feature currently being
    /// accumulated (bucket pass; one entry per category seen in the batch).
    pub(crate) bucket_keys: Vec<f64>,
    /// Per-category loss sums, aligned with `bucket_keys`.
    pub(crate) bucket_losses: Vec<f64>,
    /// Per-category observation counts, aligned with `bucket_keys`.
    pub(crate) bucket_counts: Vec<u64>,
    /// Per-category gradient sums, row-major (`categories × num_params`).
    pub(crate) bucket_grads: Vec<f64>,
    /// Category-code → bucket-index map used instead of the linear
    /// `bucket_keys` scan once a nominal column exceeds the small-cardinality
    /// threshold (`node::NOMINAL_LINEAR_SCAN_MAX`). Keys are the exact bit
    /// patterns of the category codes; the map is only ever *looked up*, never
    /// iterated, so its nondeterministic internal order cannot leak into any
    /// result. Cleared per feature, capacity retained across batches.
    pub(crate) bucket_lookup: HashMap<u64, u32>,
}

impl MemoryUsage for UpdateScratch {
    /// Heap bytes retained by every reusable buffer, including the gradient
    /// vectors owned by pooled proposal/retired candidates. `HashMap`
    /// capacity is approximated as `capacity × (key + value + 1 metadata
    /// byte)`, close enough for budget purposes.
    fn memory_bytes(&self) -> usize {
        let map_entry = std::mem::size_of::<u64>() + std::mem::size_of::<u32>() + 1;
        vec_bytes(&self.losses)
            + vec_bytes(&self.grads)
            + vec_bytes(&self.grad_buf)
            + vec_bytes(&self.class_buf)
            + vec_bytes(&self.indices)
            + vec_bytes(&self.partition_buf)
            + vec_bytes(&self.values_buf)
            + vec_bytes(&self.xbuf)
            + vec_bytes(&self.ybuf)
            + vec_bytes(&self.sort_pairs)
            + vec_bytes(&self.orders)
            + vec_bytes(&self.dest)
            + vec_bytes(&self.order_pen)
            + vec_bytes(&self.cand_order)
            + vec_bytes(&self.cand_start)
            + vec_bytes(&self.boundaries)
            + vec_bytes(&self.acc_buf)
            + vec_bytes(&self.proposals_buf)
            + slice_deep_bytes(&self.proposals_buf)
            + vec_bytes(&self.retired)
            + slice_deep_bytes(&self.retired)
            + vec_bytes(&self.bucket_keys)
            + vec_bytes(&self.bucket_losses)
            + vec_bytes(&self.bucket_counts)
            + vec_bytes(&self.bucket_grads)
            + self.bucket_lookup.capacity() * map_entry
    }
}

impl UpdateScratch {
    /// Create an empty scratch space (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepare the per-node buffers for `instances` rows of `num_params`
    /// gradient entries and `num_classes` classes.
    ///
    /// The buffers are only re-sized, not re-zeroed: the batched model pass
    /// fully overwrites `losses` and `grads`, and the SGD/`class_buf` scratch
    /// is cleared by its consumers, so zero-filling here would add one
    /// `instances × num_params` memory sweep per node per batch for nothing.
    pub(crate) fn prepare_node(&mut self, instances: usize, num_params: usize, num_classes: usize) {
        self.losses.resize(instances, 0.0);
        self.grads.resize(instances * num_params, 0.0);
        self.grad_buf.resize(num_params, 0.0);
        self.class_buf.resize(num_classes, 0.0);
    }

    /// Gather the sub-batch selected by `idx` into the contiguous `xbuf`
    /// (row-major) and `ybuf` buffers. Capacity is retained across batches,
    /// so in steady state this is a straight copy with no allocation.
    pub(crate) fn gather(&mut self, xs: &[&[f64]], ys: &[usize], idx: &[usize]) {
        self.xbuf.clear();
        self.ybuf.clear();
        for &i in idx {
            self.xbuf.extend_from_slice(xs[i]);
            self.ybuf.push(ys[i]);
        }
    }
}

/// One worker's private state for a parallel subtree update: the arena a
/// detached subtree is moved into and the scratch space its node updates run
/// through. Pooled inside [`ParallelScratch`] and reused across batches, so
/// the parallel learn path keeps the same steady-state allocation contract as
/// the serial one (per-worker buffers grow to their high-water mark once).
#[derive(Debug)]
pub(crate) struct WorkerSlot {
    /// Owned arena the detached subtree lives in while a worker updates it.
    pub(crate) arena: NodeArena,
    /// The worker's private update scratch (disjoint from the tree's own).
    pub(crate) scratch: UpdateScratch,
}

impl WorkerSlot {
    fn new() -> Self {
        Self {
            arena: NodeArena::new_empty(),
            scratch: UpdateScratch::new(),
        }
    }
}

/// Pooled buffers of the parallel learn path (`Parallelism::Threads`): the
/// spine/task bookkeeping of the top-level partition and one [`WorkerSlot`]
/// per concurrent subtree task. Owned by the tree and reused across batches;
/// a tree running in serial mode never materialises any of it beyond the
/// empty `Vec`s.
#[derive(Debug, Default)]
pub(crate) struct ParallelScratch {
    /// Subtree tasks `(node id, index range start, index range end)`, kept
    /// in left-to-right child order — the deterministic merge order.
    pub(crate) tasks: Vec<(NodeId, usize, usize)>,
    /// Inner nodes updated serially during the top-level descent, in
    /// expansion order (parents before their children); structural checks
    /// run over this list in reverse after the workers join.
    pub(crate) spine: Vec<NodeId>,
    /// One pooled slot per concurrent subtree task.
    pub(crate) slots: Vec<WorkerSlot>,
}

impl MemoryUsage for ParallelScratch {
    /// Heap bytes of the task/spine bookkeeping plus every pooled worker's
    /// private arena and scratch.
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.tasks)
            + vec_bytes(&self.spine)
            + vec_bytes(&self.slots)
            + self
                .slots
                .iter()
                .map(|s| s.arena.memory_bytes() + s.scratch.memory_bytes())
                .sum::<usize>()
    }
}

impl ParallelScratch {
    /// Create an empty pool (buffers grow on first parallel batch).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Ensure at least `n` worker slots exist.
    pub(crate) fn ensure_slots(&mut self, n: usize) {
        while self.slots.len() < n {
            self.slots.push(WorkerSlot::new());
        }
    }
}

/// Scratch buffers of the single-pass batched prediction routing
/// ([`crate::arena::NodeArena::predict_batch_into`]).
///
/// Owned by the tree (behind a `RefCell`, since prediction is `&self`) and
/// reused across batches. `DynamicModelTree::learn_batch` pre-grows the
/// buffers to the observed batch dimensions, so a test-then-train loop's
/// predictions are allocation-free from the first call.
#[derive(Debug, Default)]
pub struct PredictScratch {
    /// Instance indices of the batch, partitioned in place level-by-level.
    pub(crate) indices: Vec<usize>,
    /// Holding pen for right-routed indices during the stable partition.
    pub(crate) pen: Vec<usize>,
    /// DFS work stack of `(node slot, range start, range end)` triples.
    pub(crate) stack: Vec<(u32, u32, u32)>,
    /// Contiguous row-major gather buffer for one leaf group.
    pub(crate) xbuf: Vec<f64>,
    /// Class probabilities of one leaf group (`group × num_classes`).
    pub(crate) probs: Vec<f64>,
}

impl MemoryUsage for PredictScratch {
    /// Heap bytes of the routing/gather buffers.
    fn memory_bytes(&self) -> usize {
        vec_bytes(&self.indices)
            + vec_bytes(&self.pen)
            + vec_bytes(&self.stack)
            + vec_bytes(&self.xbuf)
            + vec_bytes(&self.probs)
    }
}

impl PredictScratch {
    /// Create an empty scratch space (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve every buffer for a batch of `rows × features` instances over
    /// `classes` classes routed through a tree of at most `max_nodes` nodes,
    /// so a following [`crate::arena::NodeArena::predict_batch_into`] call
    /// performs no allocation.
    pub(crate) fn prepare(
        &mut self,
        rows: usize,
        features: usize,
        classes: usize,
        max_nodes: usize,
    ) {
        fn reserve_to<T>(v: &mut Vec<T>, cap: usize) {
            if v.capacity() < cap {
                v.reserve(cap - v.len());
            }
        }
        reserve_to(&mut self.indices, rows);
        reserve_to(&mut self.pen, rows);
        // The DFS stack holds at most one pending range per tree level plus
        // the current path; the node count is a safe upper bound.
        reserve_to(&mut self.stack, max_nodes + 1);
        reserve_to(&mut self.xbuf, rows * features);
        reserve_to(&mut self.probs, rows * classes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_node_sizes_buffers() {
        let mut scratch = UpdateScratch::new();
        scratch.prepare_node(10, 3, 2);
        assert_eq!(scratch.losses.len(), 10);
        assert_eq!(scratch.grads.len(), 30);
        assert_eq!(scratch.grad_buf.len(), 3);
        assert_eq!(scratch.class_buf.len(), 2);
    }

    #[test]
    fn gather_builds_contiguous_rows_in_index_order() {
        let mut scratch = UpdateScratch::new();
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let c = [5.0, 6.0];
        let xs: Vec<&[f64]> = vec![&a, &b, &c];
        let ys = vec![0usize, 1, 0];
        scratch.gather(&xs, &ys, &[2, 0]);
        assert_eq!(scratch.xbuf, vec![5.0, 6.0, 1.0, 2.0]);
        assert_eq!(scratch.ybuf, vec![0, 0]);
        // Re-gathering reuses the buffers.
        let capacity = scratch.xbuf.capacity();
        scratch.gather(&xs, &ys, &[1]);
        assert_eq!(scratch.xbuf, vec![3.0, 4.0]);
        assert_eq!(scratch.ybuf, vec![1]);
        assert_eq!(scratch.xbuf.capacity(), capacity);
    }

    #[test]
    fn prepare_node_reuses_capacity() {
        let mut scratch = UpdateScratch::new();
        scratch.prepare_node(100, 5, 3);
        let capacity = scratch.grads.capacity();
        scratch.prepare_node(10, 5, 3);
        scratch.prepare_node(100, 5, 3);
        assert_eq!(scratch.grads.capacity(), capacity);
    }

    #[test]
    fn predict_scratch_prepare_reserves_capacity() {
        let mut scratch = PredictScratch::new();
        scratch.prepare(100, 3, 2, 9);
        assert!(scratch.indices.capacity() >= 100);
        assert!(scratch.xbuf.capacity() >= 300);
        assert!(scratch.probs.capacity() >= 200);
        assert!(scratch.stack.capacity() >= 10);
        // Preparing for a smaller batch never shrinks.
        let xcap = scratch.xbuf.capacity();
        scratch.prepare(10, 3, 2, 1);
        assert_eq!(scratch.xbuf.capacity(), xcap);
    }
}
