//! Fixture: `unsafe` outside the allowed file → `forbidden-unsafe`.

pub fn touch(p: *mut u8) -> u8 {
    // SAFETY: a comment does not make the location legal.
    unsafe { *p }
}

/// A designated hot function that allocates nothing: must stay silent.
pub fn leaf_for(x: &[f64]) -> usize {
    x.len()
}
