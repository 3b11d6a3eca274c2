// Lint fixture: the API-discipline rules should fire on every site below.
use std::sync::atomic::{AtomicU64, Ordering};

fn relaxed(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed);
    counter.load(Ordering::Relaxed)
}
