//! `all_figures --csv` reports a CSV file it cannot write and exits
//! non-zero instead of panicking after the sweep.

use std::process::Command;

#[test]
fn unwritable_csv_dir_is_reported_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("all_figures_csv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // `out` is a plain file, so `out/figures/` cannot be created.
    std::fs::write(dir.join("out"), "").expect("plain file");
    let run = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args(["fig10", "--test-scale", "--csv", "--jobs", "2"])
        .current_dir(&dir)
        .output()
        .expect("all_figures starts");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("out/figures/fig10_"),
        "stderr names the file:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    // The table still renders.
    assert!(String::from_utf8_lossy(&run.stdout).contains("amr"));
}
