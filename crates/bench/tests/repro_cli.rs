//! Command-line contract of the `repro` binary: unknown commands and
//! misplaced flags fail before any work starts, and `--help` succeeds.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = repro(&["fgi2"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown command `fgi2`"), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn help_succeeds_and_lists_commands_and_flags() {
    for flag in ["--help", "-h"] {
        let out = repro(&[flag]);
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        for word in [
            "table2",
            "fig4",
            "sweep",
            "lint",
            "exact",
            "--threads",
            "--warm-cache",
        ] {
            assert!(text.contains(word), "{word} missing from:\n{text}");
        }
    }
}

#[test]
fn command_specific_flags_are_rejected_elsewhere() {
    // One command outside each flag's set.
    let cases: &[(&str, &[&str])] = &[
        ("sweep", &["--suite-out", "suite.json"]),
        ("table3", &["--json", "out.json"]),
        ("tune", &["--schedulers", "MMKP-MDF"]),
        ("trace", &["--requests", "5"]),
        ("shard", &["--baseline", "b.json"]),
        ("profile", &["--sample", "2"]),
        ("exact", &["--out", "t.json"]),
        ("trace", &["--cache-out", "c.json"]),
        ("lint", &["--warm-cache", "c.json"]),
        ("table2", &["--root", "."]),
    ];
    for (command, flag) in cases {
        let mut args = vec![*command];
        args.extend_from_slice(flag);
        let out = repro(&args);
        assert!(!out.status.success(), "{args:?} was accepted");
        let err = stderr(&out);
        assert!(err.contains(flag[0]), "{args:?}: {err}");
        assert!(err.contains(&format!("not `{command}`")), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} started work");
    }
}

#[test]
fn zero_threads_is_rejected_when_parsed() {
    let out = repro(&["sweep", "--quick", "--threads", "0"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("--threads must be at least 1"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[cfg(target_os = "linux")]
#[test]
fn artifact_write_errors_fail_the_run() {
    let out = repro(&["profile", "--requests", "200", "--json", "/dev/full"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("cannot write /dev/full"), "{err}");
}
