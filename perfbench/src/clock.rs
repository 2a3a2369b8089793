//! The benchmark's one clock read. Timing is this crate's purpose, so
//! every measurement goes through here.

use std::time::Instant;

/// The current monotonic instant.
pub fn now() -> Instant {
    // tcpa-lint: allow(determinism-hazards) -- the benchmark measures wall time on purpose; nothing it times feeds the program's output
    Instant::now()
}
