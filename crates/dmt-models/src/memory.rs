//! Byte accounting for long-lived learning state.
//!
//! The north star is thousands of resident models serving one process, which
//! makes per-model memory a first-class reliability axis: a model registry
//! can only evict, budget or alert by size if every component can say how
//! many bytes it holds. [`MemoryUsage`] is that contract. Implementations
//! report **resident heap footprint** — the bytes a component keeps alive
//! between calls — measured by *capacity*, not length: a `Vec` that grew to a
//! high-water mark holds that allocation whether or not it is currently
//! full, and the high-water mark is exactly what an operator budgeting a
//! fleet needs to know.
//!
//! Conventions shared by every implementation in the workspace:
//!
//! * **Heap only.** `memory_bytes` counts owned heap allocations; the
//!   caller adds `size_of::<T>()` for the inline part where it matters
//!   (containers do this for their elements via [`slice_deep_bytes`]).
//! * **Capacity, not length** — see above. [`vec_bytes`] is the helper.
//! * **Approximate is fine, systematic is not.** Allocator slack and the
//!   internal layout of `std` collections are not modelled; whole
//!   subsystems must never be silently omitted.
//!
//! The accounting itself performs no allocation and is cheap (linear in the
//! number of containers, not elements), so callers can evaluate it at every
//! batch boundary — the Dynamic Model Tree's budget-enforcement ladder does.

/// Resident heap bytes owned by a value (capacity-based; see the
/// [module docs](self) for the exact conventions).
pub trait MemoryUsage {
    /// Bytes of owned heap memory this value keeps alive, excluding
    /// `size_of::<Self>()` itself.
    fn memory_bytes(&self) -> usize;
}

/// Heap bytes held by a `Vec`'s buffer: `capacity × size_of::<T>()`.
///
/// This intentionally ignores any heap memory the *elements* own; use
/// [`slice_deep_bytes`] when `T: MemoryUsage`.
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Heap bytes owned by the elements of a slice (their inline parts are
/// already covered by the containing buffer; this adds what each element
/// owns beyond it).
pub fn slice_deep_bytes<T: MemoryUsage>(items: &[T]) -> usize {
    items.iter().map(MemoryUsage::memory_bytes).sum()
}

impl MemoryUsage for crate::naive_bayes::GaussianNaiveBayes {
    fn memory_bytes(&self) -> usize {
        self.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GaussianNaiveBayes, Glm};

    #[test]
    fn vec_bytes_tracks_capacity_not_length() {
        let mut v: Vec<f64> = Vec::with_capacity(16);
        assert_eq!(vec_bytes(&v), 16 * 8);
        v.push(1.0);
        assert_eq!(vec_bytes(&v), 16 * 8);
        assert_eq!(vec_bytes(&Vec::<f64>::new()), 0);
    }

    #[test]
    fn glm_bytes_cover_the_parameter_vector() {
        // Binary logit over m features: m + 1 parameters.
        let logit = Glm::new_zeros(4, 2);
        assert_eq!(logit.memory_bytes(), 5 * 8);
        // Softmax over c classes: c × (m + 1) parameters.
        let softmax = Glm::new_zeros(4, 3);
        assert_eq!(softmax.memory_bytes(), 3 * 5 * 8);
    }

    #[test]
    fn naive_bayes_reports_nonzero_heap() {
        let nb = GaussianNaiveBayes::new(3, 2);
        // Two per-class stat vectors plus the outer vec and class counts.
        assert!(nb.memory_bytes() > 0);
    }

    #[test]
    fn slice_deep_bytes_sums_elements() {
        let models = vec![Glm::new_zeros(2, 2), Glm::new_zeros(2, 2)];
        assert_eq!(slice_deep_bytes(&models), 2 * 3 * 8);
    }
}
