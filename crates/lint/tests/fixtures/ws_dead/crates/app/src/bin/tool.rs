//! Binary target: every fn here is a production root.

fn main() {
    println!("{}", app::from_bin());
}
