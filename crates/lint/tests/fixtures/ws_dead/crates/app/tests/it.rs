//! Integration test: never read by the linter, so it roots nothing.

#[test]
fn integration() {
    assert_eq!(app::only_integration_tests(), 4);
}
