//! Fixture: panic-capable calls in library code with no allowlist budget
//! → `panic-free`. The test-gated ones must NOT count.

pub fn brittle(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt() {
        Some(1u32).unwrap();
    }
}
