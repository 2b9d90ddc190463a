//! The [`DataStream`] trait and simple in-memory streams.

use crate::instance::{Batch, Instance};
use crate::schema::StreamSchema;

/// A (potentially unbounded) source of labelled observations.
///
/// Streams are consumed once, front to back — re-ordering a data stream would
/// introduce artificial concept drift (§VI-A), so there is deliberately no
/// `seek`/`shuffle` on the trait. Generators can be re-created from their seed
/// to "restart".
pub trait DataStream: Send {
    /// The stream's schema.
    fn schema(&self) -> &StreamSchema;

    /// Produce the next instance, or `None` when the stream is exhausted.
    fn next_instance(&mut self) -> Option<Instance>;

    /// Total number of instances this stream will emit, if known.
    ///
    /// Unbounded generators return `None`; the evaluation harness then relies
    /// on an explicit sample budget.
    fn remaining_hint(&self) -> Option<u64> {
        None
    }

    /// Produce the next batch of at most `n` instances. Returns `None` when
    /// the stream is exhausted (an empty final batch is never returned).
    fn next_batch(&mut self, n: usize) -> Option<Batch> {
        let mut batch = Batch::with_capacity(n);
        for _ in 0..n {
            match self.next_instance() {
                Some(instance) => batch.push(instance),
                None => break,
            }
        }
        if batch.is_empty() {
            None
        } else {
            Some(batch)
        }
    }
}

/// A fully materialized, in-memory stream. Useful for tests and for replaying
/// a pre-generated sequence with known drift positions.
#[derive(Debug, Clone)]
pub struct MaterializedStream {
    schema: StreamSchema,
    data: Vec<Instance>,
    cursor: usize,
}

impl MaterializedStream {
    /// Create a materialized stream from a schema and instances.
    pub fn new(schema: StreamSchema, data: Vec<Instance>) -> Self {
        Self {
            schema,
            data,
            cursor: 0,
        }
    }

    /// Number of instances left to emit.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.cursor
    }

    /// Total number of instances, consumed or not.
    pub fn total_len(&self) -> usize {
        self.data.len()
    }

    /// Reset the read cursor to the beginning.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// Immutable access to all instances (for offline analysis in tests).
    pub fn instances(&self) -> &[Instance] {
        &self.data
    }

    /// Replace the schema, keeping the instances.
    ///
    /// CSV files carry no type information, so [`crate::realworld::load_csv`]
    /// declares every column numeric; workloads with factorised categorical
    /// columns use this to re-declare them nominal (and to rename the
    /// stream). The replacement schema must describe the same number of
    /// feature columns and at least as many classes as the loaded data uses.
    pub fn with_schema(mut self, schema: StreamSchema) -> Self {
        assert_eq!(
            schema.num_features(),
            self.schema.num_features(),
            "replacement schema must keep the feature count"
        );
        assert!(
            schema.num_classes >= self.schema.num_classes,
            "replacement schema must cover every observed class"
        );
        self.schema = schema;
        self
    }
}

impl DataStream for MaterializedStream {
    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_instance(&mut self) -> Option<Instance> {
        if self.cursor < self.data.len() {
            let instance = self.data[self.cursor].clone();
            self.cursor += 1;
            Some(instance)
        } else {
            None
        }
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.remaining() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_stream(n: usize, label: usize) -> MaterializedStream {
        let schema = StreamSchema::numeric("toy", 2, 2);
        let data = (0..n)
            .map(|i| Instance::new(vec![i as f64, 0.0], label))
            .collect();
        MaterializedStream::new(schema, data)
    }

    #[test]
    fn materialized_stream_emits_in_order_then_ends() {
        let mut s = toy_stream(3, 1);
        assert_eq!(s.remaining_hint(), Some(3));
        assert_eq!(s.next_instance().unwrap().x[0], 0.0);
        assert_eq!(s.next_instance().unwrap().x[0], 1.0);
        assert_eq!(s.next_instance().unwrap().x[0], 2.0);
        assert!(s.next_instance().is_none());
        assert_eq!(s.remaining_hint(), Some(0));
    }

    #[test]
    fn next_batch_respects_size_and_final_partial_batch() {
        let mut s = toy_stream(5, 0);
        let b1 = s.next_batch(2).unwrap();
        assert_eq!(b1.len(), 2);
        let b2 = s.next_batch(2).unwrap();
        assert_eq!(b2.len(), 2);
        let b3 = s.next_batch(2).unwrap();
        assert_eq!(b3.len(), 1);
        assert!(s.next_batch(2).is_none());
    }

    #[test]
    fn reset_replays_from_the_start() {
        let mut s = toy_stream(2, 0);
        let _ = s.next_instance();
        s.reset();
        assert_eq!(s.remaining(), 2);
        assert_eq!(s.total_len(), 2);
    }

    #[test]
    fn with_schema_replaces_metadata_but_not_data() {
        use crate::schema::FeatureSpec;
        let s = toy_stream(3, 1);
        let replacement = StreamSchema::new(
            "renamed",
            vec![FeatureSpec::numeric("a"), FeatureSpec::nominal("b", 5)],
            4,
        );
        let mut s = s.with_schema(replacement);
        assert_eq!(s.schema().name, "renamed");
        assert_eq!(s.schema().nominal_indices(), vec![1]);
        assert_eq!(s.schema().num_classes, 4);
        assert_eq!(s.next_instance().unwrap().x[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "feature count")]
    fn with_schema_rejects_a_width_mismatch() {
        let s = toy_stream(1, 0);
        let _ = s.with_schema(StreamSchema::numeric("bad", 3, 2));
    }

    #[test]
    #[should_panic(expected = "every observed class")]
    fn with_schema_rejects_narrowing_the_label_space() {
        let schema = StreamSchema::numeric("toy", 1, 4);
        let data = vec![Instance::new(vec![0.0], 3)];
        let s = MaterializedStream::new(schema, data);
        let _ = s.with_schema(StreamSchema::numeric("bad", 1, 2));
    }
}
