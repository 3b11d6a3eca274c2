//! Helpers reached only through resolution the call graph must see: a
//! fn-local `use`, a path passed as a value, and a `Display` impl.

/// Imported inside `app::emit`'s body.
pub fn via_local_use() -> u32 {
    5
}

/// Passed to `.map(…)` by `app::emit`.
pub fn via_value(x: u32) -> u32 {
    x + 1
}

/// Called from `app::Label`'s `Display::fmt`.
pub fn via_display() -> u32 {
    6
}
