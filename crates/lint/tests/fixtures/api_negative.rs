// Lint fixture: no API-discipline rule should fire on this file.
use std::sync::atomic::{AtomicU64, Ordering};

fn strongly_ordered(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::SeqCst);
    counter.load(Ordering::Acquire)
}
