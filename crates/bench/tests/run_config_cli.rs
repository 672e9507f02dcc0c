//! `run_config` rejects what it cannot run: a malformed command line exits
//! with status 2 and a usage line instead of being read as a spec path, and
//! an unreadable or invalid spec exits with status 1 instead of panicking.

use std::process::{Command, Output};

fn run_config(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_config")).args(args).output().unwrap()
}

#[test]
fn a_malformed_command_line_exits_2_with_usage() {
    for args in [
        ["spec.json", "--trial", "3"].as_slice(),
        &["spec.json", "--bogus"],
        &["spec.json", "second.json"],
        &["spec.json", "--trials"],
        &["spec.json", "--seed", "seven"],
        &["spec.json", "--scenario", "mars"],
    ] {
        let out = run_config(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: run_config"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}

#[test]
fn an_unreadable_or_invalid_spec_exits_1() {
    let missing = run_config(&["no-such-spec.json"]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&missing.stderr).contains("cannot read no-such-spec.json"));

    // A spec missing fields; complete specs whose dropper parameter,
    // approximate-computing factor or compaction policy breaks its
    // constructor's condition; a spec naming a dropper kind that no longer
    // exists; and the optimal search on queues too long to enumerate.
    let heuristic = r#"{"Heuristic": {"beta": 1.0, "eta": 2}}"#;
    let capped = r#"{"MaxImpulses": 64}"#;
    let complete = |dropper: &str, queue_size: usize, compaction: &str, approx: &str| {
        format!(
            r#"{{"level": {{"label": "tiny", "tasks": 20, "window": 500}}, "gamma": 1.0,
            "mapper": "Pam", "dropper": {dropper},
            "config": {{"queue_size": {queue_size}, "compaction": {compaction},
            "exclude_boundary": 0, "kill_running_at_deadline": true, "failures": null,
            "approx": {approx}}}}}"#
        )
    };
    for (spec, problem) in [
        ("{\"gamma\": 1.0}".to_string(), "invalid spec"),
        (
            complete(r#"{"Heuristic": {"beta": 0.5, "eta": 2}}"#, 6, capped, "null"),
            "invalid dropper: beta must be >= 1",
        ),
        (
            complete(heuristic, 6, capped, r#"{"time_factor": 0.0, "value": 0.6}"#),
            "invalid approximate computing: approx time factor must be in (0, 1)",
        ),
        (
            complete(heuristic, 6, r#"{"MaxImpulses": 1}"#, "null"),
            "invalid compaction: MaxImpulses requires max >= 2",
        ),
        (
            complete(heuristic, 6, r#"{"BinWidth": 0}"#, "null"),
            "invalid compaction: BinWidth requires width >= 1",
        ),
        (complete(r#"{"Approx": {"beta": 1.0, "eta": 2}}"#, 6, capped, "null"), "invalid spec"),
        (
            complete(r#""Optimal""#, 40, capped, "null"),
            "invalid dropper: queue_size must be at most 25 for Optimal's exhaustive search",
        ),
    ] {
        let path = std::env::temp_dir()
            .join(format!("taskdrop-run-config-invalid-{}.json", std::process::id()));
        std::fs::write(&path, spec).unwrap();
        let invalid = run_config(&[path.to_str().unwrap()]);
        std::fs::remove_file(&path).unwrap();
        let stderr = String::from_utf8_lossy(&invalid.stderr);
        assert_eq!(invalid.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(problem), "{stderr}");
    }
}
