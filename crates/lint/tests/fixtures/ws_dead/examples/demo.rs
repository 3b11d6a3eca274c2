//! Example: a graph-only input whose fns are production roots.

fn main() {
    println!("{}", app::from_example());
}
