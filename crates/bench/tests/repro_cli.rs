//! The `repro` command line refuses a misspelt experiment before it
//! builds a world.

use std::process::Command;

#[test]
fn unknown_experiment_exits_2_before_building_a_world() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("nosuch")
        .output()
        .expect("repro starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    // Without --quick, building the world prints a `[setup]` line.
    assert!(!stdout.contains("[setup]"), "{stdout}");
    assert!(stderr.contains("unknown experiment \"nosuch\""), "{stderr}");
    assert!(
        stderr.contains("|scale-bench|"),
        "usage lists the experiments: {stderr}"
    );
}
