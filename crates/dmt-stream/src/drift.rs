//! Concept-drift composition wrappers.
//!
//! The paper generates abrupt drift by switching the generator's
//! classification function at fixed positions (SEA) and incremental drift by
//! gradually transitioning between two concepts (Agrawal) or by continuously
//! rotating the concept itself (Hyperplane). The wrappers in this module
//! reproduce the first two mechanisms for arbitrary [`DataStream`]s, matching
//! scikit-multiflow's `ConceptDriftStream` semantics:
//!
//! * [`AbruptDriftStream`] — switches from stream A to stream B exactly at a
//!   given position.
//! * [`GradualDriftStream`] — over a transition window centred at the drift
//!   position, instances are drawn from stream B with a probability that
//!   follows a sigmoid in the position, producing incremental/gradual drift.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::instance::Instance;
use crate::schema::StreamSchema;
use crate::stream::DataStream;

/// Abrupt concept drift: emits `before` until `position` instances have been
/// produced, then emits `after`.
pub struct AbruptDriftStream<A, B> {
    before: A,
    after: B,
    position: u64,
    emitted: u64,
    schema: StreamSchema,
}

impl<A: DataStream, B: DataStream> AbruptDriftStream<A, B> {
    /// Create an abrupt drift at `position` (0-based instance index of the
    /// first post-drift instance).
    pub fn new(before: A, after: B, position: u64) -> Self {
        let schema = check_compatible(&before, &after);
        Self {
            before,
            after,
            position,
            emitted: 0,
            schema,
        }
    }

    /// The configured drift position.
    pub fn position(&self) -> u64 {
        self.position
    }
}

impl<A: DataStream, B: DataStream> DataStream for AbruptDriftStream<A, B> {
    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_instance(&mut self) -> Option<Instance> {
        let instance = if self.emitted < self.position {
            self.before.next_instance()
        } else {
            self.after.next_instance()
        };
        if instance.is_some() {
            self.emitted += 1;
        }
        instance
    }

    fn remaining_hint(&self) -> Option<u64> {
        // If `before` exhausts ahead of the drift position the stream ends
        // there (the switch never happens), so the head segment is bounded by
        // both the position and `before`'s own hint.
        let (before, after) = (self.before.remaining_hint()?, self.after.remaining_hint()?);
        let until_switch = self.position.saturating_sub(self.emitted);
        if before < until_switch {
            Some(before)
        } else {
            Some(until_switch + after)
        }
    }
}

/// Gradual (incremental) concept drift following scikit-multiflow's
/// `ConceptDriftStream`: the probability of drawing from the new concept is
/// `1 / (1 + e^{-4 (t - position) / width})`.
pub struct GradualDriftStream<A, B> {
    before: A,
    after: B,
    position: u64,
    width: u64,
    emitted: u64,
    rng: StdRng,
    schema: StreamSchema,
}

impl<A: DataStream, B: DataStream> GradualDriftStream<A, B> {
    /// Create a gradual drift centred at `position` with transition `width`.
    pub fn new(before: A, after: B, position: u64, width: u64, seed: u64) -> Self {
        assert!(width >= 1, "transition width must be at least 1");
        let schema = check_compatible(&before, &after);
        Self {
            before,
            after,
            position,
            width,
            emitted: 0,
            rng: StdRng::seed_from_u64(seed),
            schema,
        }
    }

    /// Probability of drawing from the new concept at instance index `t`.
    pub fn probability_after(&self, t: u64) -> f64 {
        let x = -4.0 * (t as f64 - self.position as f64) / self.width as f64;
        1.0 / (1.0 + x.exp())
    }
}

impl<A: DataStream, B: DataStream> DataStream for GradualDriftStream<A, B> {
    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_instance(&mut self) -> Option<Instance> {
        let p_after = self.probability_after(self.emitted);
        let use_after = self.rng.gen::<f64>() < p_after;
        let instance = if use_after {
            self.after
                .next_instance()
                .or_else(|| self.before.next_instance())
        } else {
            self.before
                .next_instance()
                .or_else(|| self.after.next_instance())
        };
        if instance.is_some() {
            self.emitted += 1;
        }
        instance
    }

    fn remaining_hint(&self) -> Option<u64> {
        // Whichever concept a draw lands on, the exhausted side falls back to
        // the other, so the stream drains both completely.
        Some(self.before.remaining_hint()? + self.after.remaining_hint()?)
    }
}

fn check_compatible<A: DataStream, B: DataStream>(a: &A, b: &B) -> StreamSchema {
    let schema = a.schema().clone();
    assert_eq!(
        schema.num_features(),
        b.schema().num_features(),
        "drift-composed streams must share the feature count"
    );
    assert_eq!(
        schema.num_classes,
        b.schema().num_classes,
        "drift-composed streams must share the class count"
    );
    schema
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::stream::MaterializedStream;

    fn constant_stream(n: usize, label: usize) -> MaterializedStream {
        let schema = StreamSchema::numeric("const", 1, 2);
        let data = (0..n).map(|_| Instance::new(vec![0.0], label)).collect();
        MaterializedStream::new(schema, data)
    }

    #[test]
    fn abrupt_drift_switches_exactly_at_position() {
        let mut s = AbruptDriftStream::new(constant_stream(100, 0), constant_stream(100, 1), 10);
        let labels: Vec<usize> = (0..20).map(|_| s.next_instance().unwrap().y).collect();
        assert!(labels[..10].iter().all(|&y| y == 0));
        assert!(labels[10..].iter().all(|&y| y == 1));
        assert_eq!(s.position(), 10);
    }

    #[test]
    fn gradual_drift_probability_is_sigmoidal() {
        let s = GradualDriftStream::new(constant_stream(10, 0), constant_stream(10, 1), 100, 20, 1);
        assert!(s.probability_after(0) < 0.01);
        assert!((s.probability_after(100) - 0.5).abs() < 1e-9);
        assert!(s.probability_after(200) > 0.99);
        assert!(s.probability_after(90) < s.probability_after(110));
    }

    #[test]
    fn gradual_drift_mixes_concepts_in_the_transition_window() {
        let mut s = GradualDriftStream::new(
            constant_stream(20_000, 0),
            constant_stream(20_000, 1),
            1_000,
            400,
            7,
        );
        let mut before_window = 0;
        let mut in_window = 0;
        let mut after_window = 0;
        for t in 0..2_000u64 {
            let y = s.next_instance().unwrap().y;
            if t < 600 {
                before_window += y;
            } else if t < 1_400 {
                in_window += y;
            } else {
                after_window += y;
            }
        }
        assert!(
            before_window < 30,
            "early labels should be mostly old concept"
        );
        assert!(
            in_window > 200 && in_window < 600,
            "transition should mix: {in_window}"
        );
        assert!(
            after_window > 570,
            "late labels should be mostly new concept"
        );
    }

    #[test]
    fn abrupt_drift_reports_its_remaining_length() {
        let mut s = AbruptDriftStream::new(constant_stream(100, 0), constant_stream(50, 1), 10);
        assert_eq!(s.remaining_hint(), Some(60));
        for _ in 0..10 {
            let _ = s.next_instance();
        }
        assert_eq!(s.remaining_hint(), Some(50));
        // When `before` cannot reach the drift position the stream ends with
        // `before`, so the hint is bounded by it.
        let s = AbruptDriftStream::new(constant_stream(3, 0), constant_stream(50, 1), 10);
        assert_eq!(s.remaining_hint(), Some(3));
    }

    #[test]
    fn gradual_drift_reports_both_concepts_in_its_hint() {
        let mut s =
            GradualDriftStream::new(constant_stream(30, 0), constant_stream(20, 1), 25, 10, 3);
        assert_eq!(s.remaining_hint(), Some(50));
        let mut emitted = 0;
        while s.next_instance().is_some() {
            emitted += 1;
        }
        assert_eq!(emitted, 50, "gradual drift drains both concepts");
        assert_eq!(s.remaining_hint(), Some(0));
    }

    #[test]
    #[should_panic(expected = "share the class count")]
    fn incompatible_schemas_panic() {
        let a = constant_stream(5, 0);
        let schema = StreamSchema::numeric("other", 1, 3);
        let b = MaterializedStream::new(schema, vec![]);
        let _ = AbruptDriftStream::new(a, b, 1);
    }
}
