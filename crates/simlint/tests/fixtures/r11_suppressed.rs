pub fn entry() {}

/// The slow, obviously correct path.
// simlint::allow(unreached-from-roots): oracle; the tests compare the fast path against it
pub fn reference() {}
