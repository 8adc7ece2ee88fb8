//! The `figures` binary's command line: a mistyped invocation is a
//! usage error (the `ci.sh` figures stage trusts its exit code), and
//! `--json DIR` writes exactly the figures that ran.

use std::path::PathBuf;
use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run the figures binary")
}

/// Exit status 2, nothing on stdout, and the valid figures on stderr.
fn assert_usage_error(out: &Output, problem: &str) {
    assert_eq!(out.status.code(), Some(2), "{problem}: {out:?}");
    assert!(out.stdout.is_empty(), "{problem} must print no figure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(problem),
        "stderr names the problem: {stderr}"
    );
    let usage = stderr.lines().find(|l| l.starts_with("usage:"));
    let names: Vec<&str> = usage
        .expect("a usage line")
        .split(['[', ']', '|', ' '])
        .collect();
    for name in ["4", "6a", "8", "consistency", "timeline", "all"] {
        assert!(names.contains(&name), "usage lists {name}: {stderr}");
    }
}

#[test]
fn an_unknown_figure_is_a_usage_error_naming_the_valid_ones() {
    assert_usage_error(&figures(&["--fig", "bogus"]), "unknown figure: bogus");
}

#[test]
fn json_without_a_directory_is_a_usage_error() {
    let out = figures(&["--fig", "timeline", "--json"]);
    assert_usage_error(&out, "--json needs a directory");
}

#[test]
fn json_dir_receives_exactly_the_figure_that_ran() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mayflower-figures-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = figures(&["--fig", "timeline", "--json", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("Traced timelines"));
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("the json dir was created")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(written, ["timeline.json"]);
    let body = std::fs::read_to_string(dir.join("timeline.json")).unwrap();
    assert!(body.contains("\"completion_us\""));
    std::fs::remove_dir_all(&dir).ok();
}
