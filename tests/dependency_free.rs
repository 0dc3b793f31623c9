//! The workspace builds from this repository alone — std-only networking,
//! the in-repo JSON value type, the in-repo `sim-rand` — so every package
//! in the lock file is a path package: none records a `source` (a
//! registry or git origin).

#[test]
fn lock_file_lists_no_package_from_outside_the_repository() {
    let lock = include_str!("../Cargo.lock");
    let packages: Vec<&str> = lock.split("[[package]]").skip(1).collect();
    assert!(
        packages.len() >= 10,
        "the lock file should list every workspace crate, found {}",
        packages.len()
    );
    for package in packages {
        assert!(
            !package.lines().any(|l| l.starts_with("source")),
            "a package comes from outside the repository:{package}"
        );
    }
}
