//! Test-only-pub fixture: which library `pub fn`s does a production root
//! reach? `emit` is the artifact root of the fixture config; the binary
//! `tool`, the example `demo` and the `Display` impl are roots by path
//! convention. Two `pub fn`s here are reached only by tests and must be
//! flagged; every other fn must not be.

use std::fmt;

/// Artifact root: reaches `util` through a fn-local import and through a
/// path passed as a value.
pub fn emit() -> Vec<u32> {
    use util::via_local_use;
    let seeds = vec![via_local_use()];
    seeds.into_iter().map(util::via_value).collect()
}

/// Called from `src/bin/tool.rs`.
pub fn from_bin() -> u32 {
    1
}

/// Called from `examples/demo.rs`.
pub fn from_example() -> u32 {
    2
}

/// Crate-visible only: not public API, never flagged.
pub(crate) fn restricted() -> u32 {
    3
}

/// Called only from this file's `#[cfg(test)]` module: flagged.
pub fn only_unit_tests() -> u32 {
    restricted()
}

/// Called only from `tests/it.rs`: flagged.
pub fn only_integration_tests() -> u32 {
    4
}

/// Formatted by std through `Display`, which no name resolves.
pub struct Label;

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", util::via_display())
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        assert_eq!(super::only_unit_tests(), 3);
    }
}
