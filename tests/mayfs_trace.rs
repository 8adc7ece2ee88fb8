//! `mayfs trace` end to end: the built binary on a small `init`'d
//! cluster. A traced read prints its critical path down to the
//! dataserver's chunk read; a traced read that fails prints the same
//! capture's critical path, the failed root marked, and exits non-zero.

use std::path::Path;
use std::process::{Command, Output};

use mayflower_simcore::testutil::TempDir;

fn mayfs(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mayfs"))
        .arg(args[0])
        .arg(dir)
        .args(&args[1..])
        .output()
        .expect("run the mayfs binary")
}

fn ok(dir: &Path, args: &[&str]) -> String {
    let out = mayfs(dir, args);
    assert!(out.status.success(), "mayfs {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn cluster(tag: &str) -> TempDir {
    let dir = TempDir::new(&format!("mayfs-trace-{tag}"));
    ok(
        dir.path(),
        &["init", "--pods", "2", "--racks", "2", "--hosts", "2"],
    );
    dir
}

#[test]
fn traced_read_prints_the_critical_path_to_the_chunk_read() {
    let dir = cluster("ok");
    ok(dir.path(), &["create", "f", "--client", "0"]);
    ok(
        dir.path(),
        &["append", "f", "--data", "traced bytes", "--client", "0"],
    );

    let stdout = ok(dir.path(), &["trace", "read", "f", "--client", "3"]);
    let path: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.ends_with("critical path:"))
        .skip(1)
        .map(|l| l.trim_start().split(' ').next().unwrap_or(""))
        .collect();
    assert_eq!(path.first(), Some(&"client/read"), "{stdout}");
    assert_eq!(path.last(), Some(&"dataserver/chunk_read"), "{stdout}");
    assert!(!stdout.contains("[error]"), "{stdout}");
}

#[test]
fn traced_read_of_a_missing_file_reports_the_failed_capture() {
    let dir = cluster("missing");
    let out = mayfs(dir.path(), &["trace", "read", "nope", "--client", "0"]);
    assert!(!out.status.success(), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let root = stderr
        .lines()
        .find(|l| l.starts_with("client/read "))
        .unwrap_or_else(|| panic!("the captured root is printed: {stderr}"));
    assert!(root.contains("[error]"), "{stderr}");
    assert!(root.contains("file=nope"), "{stderr}");
    assert!(stderr.contains("traced read failed"), "{stderr}");
}
