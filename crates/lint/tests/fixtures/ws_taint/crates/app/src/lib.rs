//! Dirty fixture: the artifact root `emit` reaches a thread-identity read
//! two calls down. `island` reads thread identity too, but nothing roots
//! it, so the taint pass must stay silent about it.

/// Artifact root: the thread identity leaks into the "artifact" value.
pub fn emit() -> String {
    mid()
}

fn mid() -> String {
    leaf()
}

fn leaf() -> String {
    let t = std::thread::current();
    format!("{:?}", t.id())
}

/// Not a root and unreachable from `emit`.
pub fn island() -> String {
    let t = std::thread::current();
    format!("{:?}", t.id())
}
