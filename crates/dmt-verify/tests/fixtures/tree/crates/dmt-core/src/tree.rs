//! Fixture: panic-capable calls in library code with no allowlist budget
//! → `panic-free`. The test-gated ones must NOT count.

pub fn brittle(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// A designated hot function that allocates nothing: must stay silent.
pub fn predict_batch_into(xs: &[f64], out: &mut [usize]) {
    for o in out.iter_mut() {
        *o = xs.len();
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt() {
        Some(1u32).unwrap();
    }
}
