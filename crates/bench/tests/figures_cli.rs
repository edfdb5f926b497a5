//! Drives the `figures` binary the way a user does: every id at
//! `--scale test`, the `--bandwidth` variants, and the mistakes that must
//! exit with status 2 instead of running something else quietly.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh working directory per test, so `results/` never collides.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("figures_cli_{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn figures(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).unwrap()
}

#[test]
fn every_id_runs_at_test_scale_and_writes_its_json() {
    let dir = scratch("every_id");
    let listed = figures(&dir, &["list"]);
    assert!(listed.status.success());
    assert_eq!(stdout(&listed), stdout(&figures(&dir, &[])));
    let ids = stdout(&listed);
    assert_eq!(ids.lines().count(), 15, "{ids}");

    for id in ids.lines() {
        let fixed = ["fig2", "fig3", "fig4"].contains(&id);
        let run = if fixed {
            figures(&dir, &[id])
        } else {
            figures(&dir, &[id, "--scale", "test"])
        };
        assert!(run.status.success(), "{id}: {run:?}");
        let out = stdout(&run);
        assert!(out.starts_with(&format!("# {id} ")), "{id}: {out}");
        let json = dir.join(format!("results/{id}.json"));
        if fixed || id == "table1" {
            assert!(!json.exists(), "{id} emits no JSON");
        } else {
            let json = std::fs::read_to_string(json).unwrap();
            assert!(json.contains(&format!("\"id\": \"{id}\"")), "{id}: {json}");
            assert!(out.contains(&format!("(wrote results/{id}.json)")));
            assert!(out.contains("\n(scale: Test"), "{id}: {out}");
        }
    }
}

/// `fig4` assembles its time-series configuration itself; the INRIA-like
/// path's row (seed 4) pins the parameters and the order of RNG draws.
#[test]
fn fig4_time_series_is_pinned() {
    let run = figures(&scratch("fig4"), &["fig4"]);
    assert!(run.status.success(), "{run:?}");
    let out = stdout(&run);
    let row = "  117 125 122 152 95 109 132 136 128 117 129 142 138 152 123 126 108 120 102 137";
    assert!(out.lines().any(|line| line == row), "{out}");
}

#[test]
fn bandwidth_variants_emit_under_a_suffixed_id() {
    let dir = scratch("bandwidth");
    for (args, id) in [
        (
            ["fig7", "--bandwidth", "ar1", "--scale", "test"],
            "fig7_ar1",
        ),
        (
            ["fig13", "--scale", "test", "--bandwidth", "iid"],
            "fig13_iid",
        ),
    ] {
        let run = figures(&dir, &args);
        assert!(run.status.success(), "{id}: {run:?}");
        assert!(stdout(&run).starts_with(&format!("# {id} ")));
        assert!(dir.join(format!("results/{id}.json")).exists());
    }
}

#[test]
fn mistakes_exit_2_and_list_what_is_accepted() {
    let dir = scratch("mistakes");
    let cases: [(&[&str], &[&str]); 7] = [
        (&["fig99"], &["`fig99`", "table1", "fig_faults"]),
        (
            &["fig5", "--frobnicate", "1"],
            &["`--frobnicate`", "--scale"],
        ),
        (&["fig5", "--scale"], &["needs a value", "paper, quick"]),
        (&["fig5", "--scale", "papr"], &["`papr`", "paper, quick"]),
        (&["fig7", "--bandwidth", "ar2"], &["`ar2`", "iid, ar1"]),
        // Options another figure takes, but not this one.
        (
            &["fig5", "--bandwidth", "ar1"],
            &["`--bandwidth`", "--scale"],
        ),
        (&["fig2", "--scale", "paper"], &["`--scale`", "no options"]),
    ];
    for (args, fragments) in cases {
        let run = figures(&dir, args);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {run:?}");
        assert!(run.stdout.is_empty(), "{args:?} ran something: {run:?}");
        let stderr = String::from_utf8(run.stderr).unwrap();
        for fragment in fragments {
            assert!(stderr.contains(fragment), "{args:?}: {stderr}");
        }
    }
    assert!(!dir.join("results").exists(), "a rejected run wrote output");
}
