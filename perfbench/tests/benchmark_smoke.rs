//! Runs every workload of `BENCHMARK.json` in `--quick` mode, untraced
//! and traced, and holds the binary's output to the file: every metric
//! the file lists for that kind of run is printed with its unit, and
//! nothing is printed that the file does not list.

use std::path::Path;
use std::process::Command;

/// The `"name"`/`"unit"` pairs of the objects in the array called
/// `key`. `BENCHMARK.json` is flat and hand-written, so a scan for the
/// two keys is all the JSON reading this needs.
fn entries(json: &str, key: &str) -> Vec<(String, Option<String>)> {
    let start = json.find(&format!("\"{key}\"")).expect(key);
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    let field = |object: &str, name: &str| -> Option<String> {
        let at = object.find(&format!("\"{name}\""))?;
        let rest = &object[at + name.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|object| (field(object, "name").expect("name"), field(object, "unit")))
        .collect()
}

/// The metrics object of the binary's last line, as `(name, unit)`.
fn printed(last_line: &str) -> Vec<(String, String)> {
    let metrics = &last_line[last_line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("\": {\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .map(|pair| {
            let name = pair[0].rsplit('"').next().unwrap().to_string();
            let unit = pair[1].split("\"unit\": \"").nth(1).unwrap();
            (name, unit[..unit.find('"').unwrap()].to_string())
        })
        .collect()
}

/// Run one workload `--quick` and compare what it prints with `listed`.
fn check_run(workload: &str, trace: &str, listed: &[(String, String)], out_dir: &Path) {
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--quick", "--seed", "7"])
        .args(["--trace", trace])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(
        run.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, "), "{last}");
    assert_eq!(printed(last), listed, "{workload} --trace {trace}");
    // The lines for people carry the same names and units.
    for (name, unit) in listed {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("{name} ")) && l.contains(&format!(" {unit}"))),
            "{workload} --trace {trace}: no line for {name} [{unit}]"
        );
    }
}

#[test]
fn quick_runs_print_exactly_what_benchmark_json_lists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let json = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
    let workloads = entries(&json, "workloads");
    assert_eq!(workloads.len(), 4);
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");

    // One thread per kind of run, so the two cores share the work.
    std::thread::scope(|scope| {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (json, workloads, out_dir) = (&json, &workloads, &out_dir);
            scope.spawn(move || {
                let listed: Vec<(String, String)> = entries(json, key)
                    .into_iter()
                    .map(|(name, unit)| (name, unit.expect("unit")))
                    .collect();
                for (workload, _) in workloads {
                    check_run(workload, trace, &listed, out_dir);
                }
            });
        }
    });
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--trace", "1"],
        &["--workload", "hybrid_retail", "--trace", "2"],
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
    }
}
