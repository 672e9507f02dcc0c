//! Runs every `examples/*.rs` binary at `--quick` scale so the examples can
//! never silently rot: they are compiled by `cargo test` alongside this
//! suite, and this test executes each one and checks it exits cleanly with
//! non-empty output.

use std::path::PathBuf;
use std::process::Command;

/// Every example in `examples/`. Keep in sync with the directory — the test
/// fails loudly if a listed binary was not built, and
/// `no_example_is_missing_from_this_list` fails if one is added but not
/// listed here.
const EXAMPLES: &[&str] = &[
    "approximate_computing",
    "custom_policy",
    "dropping_anatomy",
    "failure_injection",
    "function_chains",
    "online_arrivals",
    "oversubscription_sweep",
    "parallel_fleet",
    "quickstart",
    "service_loop",
    "telemetry",
    "video_transcoding",
];

/// `target/<profile>/examples`, derived from this test binary's own path
/// (`target/<profile>/deps/examples_smoke-<hash>`).
fn examples_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    let profile_dir = exe
        .parent()
        .and_then(std::path::Path::parent)
        .expect("test binary lives in target/<profile>/deps");
    profile_dir.join("examples")
}

/// Runs example `name` at `--quick` scale and requires a clean exit with
/// output on stdout; returns that stdout.
fn run_quick(name: &str) -> String {
    let path = examples_dir().join(name);
    assert!(
        path.is_file(),
        "example `{name}` not found at {path:?}; run this suite via `cargo test` \
         so example binaries are built alongside it"
    );
    let output = Command::new(&path)
        .arg("--quick")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn example `{name}`: {e}"));
    assert!(
        output.status.success(),
        "example `{name}` exited with {:?}\n--- stderr ---\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(!output.stdout.is_empty(), "example `{name}` printed nothing on stdout");
    String::from_utf8(output.stdout).expect("example stdout is UTF-8")
}

#[test]
fn every_example_runs_at_quick_scale() {
    for name in EXAMPLES {
        run_quick(name);
    }
}

/// `approximate_computing` says total delivered utility rises at every
/// approximate-computing setting: each degrade row must beat the drop-only
/// row's utility and actually degrade tasks.
#[test]
fn approximate_computing_raises_utility_at_every_setting() {
    let stdout = run_quick("approximate_computing");
    // Each policy row ends with its utility % and its degraded count.
    let row = |prefix: &str| -> Vec<(f64, usize)> {
        stdout
            .lines()
            .filter(|line| line.starts_with(prefix))
            .map(|line| {
                let mut tail = line.split_whitespace().rev();
                let degraded = tail.next().and_then(|d| d.parse().ok());
                let utility = tail.next().and_then(|u| u.parse().ok());
                (utility.expect("utility column"), degraded.expect("degraded column"))
            })
            .collect()
    };
    let plain = row("PAM + drop-only");
    assert_eq!(plain.len(), 1, "{stdout}");
    let degrade = row("PAM + degrade");
    assert_eq!(degrade.len(), 3, "{stdout}");
    for (utility, degraded) in degrade {
        assert!(utility > plain[0].0, "utility {utility} not above drop-only:\n{stdout}");
        assert!(degraded > 0, "a degrade row degraded nothing:\n{stdout}");
    }
}

#[test]
fn no_example_is_missing_from_this_list() {
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut on_disk: Vec<String> = std::fs::read_dir(manifest_dir.join("examples"))
        .expect("examples/ directory")
        .filter_map(|entry| {
            let name = entry.expect("dir entry").file_name().into_string().ok()?;
            name.strip_suffix(".rs").map(str::to_string)
        })
        .collect();
    on_disk.sort();
    assert_eq!(on_disk, EXAMPLES, "EXAMPLES list out of sync with examples/");
}
