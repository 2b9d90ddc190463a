//! Instance and batch containers.

/// A single labelled observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Dense feature vector.
    pub x: Vec<f64>,
    /// Class index in `0..num_classes`.
    pub y: usize,
}

impl Instance {
    /// Create a new instance.
    pub fn new(x: Vec<f64>, y: usize) -> Self {
        Self { x, y }
    }
}

/// A batch of observations, stored row-major.
///
/// The paper processes the stream in batches of 0.1 % of the data
/// ("batch-incremental" learning); [`Batch`] is the unit handed to every
/// classifier's `learn`/`predict` methods.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batch {
    /// Feature rows.
    pub xs: Vec<Vec<f64>>,
    /// Class indices, one per row.
    pub ys: Vec<usize>,
}

impl Batch {
    /// Create an empty batch with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
        }
    }

    /// Create a batch from parallel vectors.
    ///
    /// # Panics
    /// Panics if `xs` and `ys` have different lengths.
    pub fn new(xs: Vec<Vec<f64>>, ys: Vec<usize>) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs and ys must have the same length");
        Self { xs, ys }
    }

    /// Append an instance.
    pub fn push(&mut self, instance: Instance) {
        self.xs.push(instance.x);
        self.ys.push(instance.y);
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the batch contains no rows.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Borrowed row view suitable for the `SimpleModel` APIs.
    pub fn rows(&self) -> Vec<&[f64]> {
        self.xs.iter().map(|v| v.as_slice()).collect()
    }

    /// Iterate over `(features, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], usize)> + '_ {
        self.xs
            .iter()
            .map(|v| v.as_slice())
            .zip(self.ys.iter().copied())
    }

    /// Per-class counts over the batch labels (length = `num_classes`).
    pub fn class_counts(&self, num_classes: usize) -> Vec<u64> {
        let mut counts = vec![0u64; num_classes];
        for &y in &self.ys {
            if y < num_classes {
                counts[y] += 1;
            }
        }
        counts
    }
}

impl FromIterator<Instance> for Batch {
    fn from_iter<T: IntoIterator<Item = Instance>>(iter: T) -> Self {
        let mut batch = Batch::default();
        for instance in iter {
            batch.push(instance);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_batch() -> Batch {
        Batch::new(
            vec![
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![2.0, 2.0],
                vec![3.0, 1.0],
            ],
            vec![0, 1, 1, 0],
        )
    }

    #[test]
    fn len_and_empty() {
        let b = toy_batch();
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        assert!(Batch::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_lengths_panic() {
        let _ = Batch::new(vec![vec![1.0]], vec![0, 1]);
    }

    #[test]
    fn rows_borrow_the_data() {
        let b = toy_batch();
        let rows = b.rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[2], &[2.0, 2.0]);
    }

    #[test]
    fn class_counts_counts_labels() {
        let b = toy_batch();
        assert_eq!(b.class_counts(2), vec![2, 2]);
        assert_eq!(b.class_counts(3), vec![2, 2, 0]);
    }

    #[test]
    fn from_iterator_collects() {
        let b: Batch = (0..5)
            .map(|i| Instance::new(vec![i as f64], i % 2))
            .collect();
        assert_eq!(b.len(), 5);
        assert_eq!(b.ys, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn push_appends() {
        let mut b = Batch::with_capacity(2);
        b.push(Instance::new(vec![1.0], 1));
        assert_eq!(b.len(), 1);
        assert_eq!(b.ys[0], 1);
    }

    #[test]
    fn iter_yields_pairs() {
        let b = toy_batch();
        let pairs: Vec<(usize, usize)> = b.iter().map(|(x, y)| (x.len(), y)).collect();
        assert_eq!(pairs, vec![(2, 0), (2, 1), (2, 1), (2, 0)]);
    }
}
