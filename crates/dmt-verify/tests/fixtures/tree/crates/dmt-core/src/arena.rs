//! Fixture: `unsafe` outside the allowed file → `forbidden-unsafe`.

pub fn touch(p: *mut u8) -> u8 {
    // SAFETY: a comment does not make the location legal.
    unsafe { *p }
}
