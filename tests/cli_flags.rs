//! A zero count on the command line is a usage error: `colper` prints an
//! `error:` line and exits 1 before it builds a scene or trains a
//! victim, never a panic. So is a tile extent a world cannot be built
//! with.

use std::process::Command;

fn assert_rejected(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_colper"))
        .args(args)
        .output()
        .expect("the colper binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "colper {args:?} must exit 1; stderr: {stderr}");
    assert!(stderr.contains("error:"), "colper {args:?} printed no error line: {stderr}");
    assert!(!stderr.contains("panicked"), "colper {args:?} panicked: {stderr}");
}

#[test]
fn zero_point_counts_are_usage_errors() {
    for command in ["scene", "train", "attack", "matrix"] {
        assert_rejected(&[command, "--points", "0"]);
    }
}

#[test]
fn zero_step_counts_are_usage_errors() {
    for command in ["attack", "stream", "matrix"] {
        assert_rejected(&[command, "--quick", "--steps", "0"]);
    }
}

#[test]
fn zero_room_and_epoch_counts_are_usage_errors() {
    assert_rejected(&["train", "--rooms", "0"]);
    assert_rejected(&["train", "--epochs", "0"]);
}

#[test]
fn unusable_tile_extents_are_errors() {
    for extent in ["0", "-3", "nan", "inf"] {
        assert_rejected(&[
            "stream",
            "--tiles",
            "1",
            "--points-per-tile",
            "64",
            "--steps",
            "1",
            "--extent",
            extent,
        ]);
    }
}
