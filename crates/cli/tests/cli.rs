//! End-to-end tests of the `chameleon` binary: generate → check →
//! anonymize → re-check → attack → compare, via real process invocations.

use std::path::PathBuf;
use std::process::{Command, Output};

fn chameleon(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chameleon"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chameleon-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_pipeline_via_binary() {
    let dir = temp_dir("pipeline");
    let graph = dir.join("g.txt");
    let anon = dir.join("anon.txt");
    let graph_s = graph.to_str().unwrap();
    let anon_s = anon.to_str().unwrap();

    // generate
    let out = chameleon(&[
        "generate",
        graph_s,
        "--dataset",
        "brightkite",
        "--nodes",
        "200",
        "--seed",
        "3",
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(graph.exists());

    // stats
    let out = chameleon(&["stats", graph_s]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("n=200"));

    // anonymize (small budget for test speed)
    let out = chameleon(&[
        "anonymize",
        graph_s,
        anon_s,
        "--k",
        "15",
        "--epsilon",
        "0.05",
        "--worlds",
        "80",
        "--trials",
        "2",
        "--seed",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(anon.exists());

    // check against the original: must pass with exit code 0
    let out = chameleon(&[
        "check",
        anon_s,
        "--k",
        "15",
        "--epsilon",
        "0.05",
        "--original",
        graph_s,
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("SATISFIED"));

    // attack report runs
    let out = chameleon(&["attack", anon_s, "--original", graph_s]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("top-1"));

    // profile runs
    let out = chameleon(&["profile", graph_s, "--top", "2"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("max k at tolerance"));

    // compare runs
    let out = chameleon(&[
        "compare", graph_s, anon_s, "--worlds", "80", "--pairs", "200",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("avg reliability discrepancy"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_violation_exits_nonzero() {
    let dir = temp_dir("violation");
    let graph = dir.join("g.txt");
    let graph_s = graph.to_str().unwrap();
    chameleon(&[
        "generate",
        graph_s,
        "--dataset",
        "dblp",
        "--nodes",
        "150",
        "--seed",
        "5",
    ]);
    // k close to n cannot hold without tolerance.
    let out = chameleon(&["check", graph_s, "--k", "149", "--epsilon", "0"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).contains("VIOLATED"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = chameleon(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn missing_operand_reports_error() {
    let out = chameleon(&["stats"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("graph path"));
}

#[test]
fn invalid_inputs_error_instead_of_panicking() {
    let dir = temp_dir("invalid");
    let graph = dir.join("g.txt");
    let single = dir.join("single.txt");
    let edgeless = dir.join("edgeless.txt");
    let out = dir.join("out.txt");
    let (graph_s, single_s) = (graph.to_str().unwrap(), single.to_str().unwrap());
    let (edgeless_s, out_s) = (edgeless.to_str().unwrap(), out.to_str().unwrap());
    let gen = chameleon(&[
        "generate",
        graph_s,
        "--dataset",
        "brightkite",
        "--nodes",
        "300",
        "--seed",
        "7",
    ]);
    assert!(gen.status.success(), "{gen:?}");
    std::fs::write(&single, "nodes 1\n").unwrap();
    std::fs::write(&edgeless, "nodes 5\n").unwrap();
    let cases: [&[&str]; 7] = [
        &["check", graph_s, "--k", "0"],
        &["attack", graph_s, "--candidates", "0"],
        &["compare", single_s, single_s],
        &["synth", graph_s, out_s, "--nodes", "0"],
        &["synth", edgeless_s, out_s],
        &[
            "mine",
            graph_s,
            "--task",
            "clusters",
            "--threshold",
            "1.5",
            "--worlds",
            "20",
        ],
        &["generate", out_s, "--nodes", "0"],
    ];
    for args in cases {
        let run = chameleon(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn synth_twin_and_dp() {
    let dir = temp_dir("synth");
    let graph = dir.join("g.txt");
    let twin = dir.join("twin.txt");
    let dp = dir.join("dp.txt");
    chameleon(&[
        "generate",
        graph.to_str().unwrap(),
        "--dataset",
        "ppi",
        "--nodes",
        "120",
        "--seed",
        "2",
    ]);
    let out = chameleon(&[
        "synth",
        graph.to_str().unwrap(),
        twin.to_str().unwrap(),
        "--nodes",
        "80",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("n=80"));
    let out = chameleon(&[
        "synth",
        graph.to_str().unwrap(),
        dp.to_str().unwrap(),
        "--dp-epsilon",
        "1.0",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("1-DP"));
    // --nodes + --dp-epsilon is rejected.
    let out = chameleon(&[
        "synth",
        graph.to_str().unwrap(),
        dp.to_str().unwrap(),
        "--dp-epsilon",
        "1.0",
        "--nodes",
        "50",
    ]);
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mine_tasks_run() {
    let dir = temp_dir("mine");
    let graph = dir.join("g.txt");
    let g = graph.to_str().unwrap();
    chameleon(&[
        "generate",
        g,
        "--dataset",
        "brightkite",
        "--nodes",
        "150",
        "--seed",
        "8",
    ]);
    let out = chameleon(&[
        "mine", g, "--task", "knn", "--source", "0", "--top", "5", "--worlds", "100",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("reliability"));
    let out = chameleon(&["mine", g, "--task", "clusters", "--worlds", "100"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("reliable clusters"));
    let out = chameleon(&[
        "mine",
        g,
        "--task",
        "influence",
        "--seeds",
        "3",
        "--worlds",
        "100",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("pick"));
    let out = chameleon(&["mine", g, "--task", "bogus"]);
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repan_method_available() {
    let dir = temp_dir("repan");
    let graph = dir.join("g.txt");
    let anon = dir.join("anon.txt");
    chameleon(&[
        "generate",
        graph.to_str().unwrap(),
        "--dataset",
        "dblp",
        "--nodes",
        "150",
        "--seed",
        "7",
    ]);
    let out = chameleon(&[
        "anonymize",
        graph.to_str().unwrap(),
        anon.to_str().unwrap(),
        "--k",
        "5",
        "--epsilon",
        "0.08",
        "--method",
        "repan",
        "--worlds",
        "60",
        "--trials",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("repan"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--strip-worlds` only changes how the ERR ensemble is held, so it
/// composes with `--incremental` and leaves the release bytes unchanged.
#[test]
fn incremental_with_strip_worlds_is_byte_identical() {
    let dir = temp_dir("inc-strip");
    let graph = dir.join("g.txt");
    let graph_s = graph.to_str().unwrap();
    let out = chameleon(&[
        "generate",
        graph_s,
        "--dataset",
        "brightkite",
        "--nodes",
        "200",
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "{out:?}");
    let anonymize = |name: &str, extra: &[&str]| {
        let path = dir.join(name);
        let mut args = vec![
            "anonymize",
            graph_s,
            path.to_str().unwrap(),
            "--k",
            "15",
            "--epsilon",
            "0.05",
            "--worlds",
            "120",
            "--trials",
            "2",
            "--seed",
            "7",
            "--incremental",
        ];
        args.extend_from_slice(extra);
        let out = chameleon(&args);
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(&path).unwrap()
    };
    let dense = anonymize("dense.txt", &[]);
    let strip = anonymize("strip.txt", &["--strip-worlds", "64"]);
    assert!(!dense.is_empty());
    assert_eq!(dense, strip);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_and_gate_reject_unknown_flags_before_binding() {
    for args in [
        &["serve", "--port", "0", "--bogus", "1"][..],
        &["gate", "--backends", "127.0.0.1:1", "--replicas", "64"][..],
    ] {
        let out = chameleon(args);
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
    }
}
