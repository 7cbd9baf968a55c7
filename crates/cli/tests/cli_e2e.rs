//! End-to-end test of the `sqlem` binary: CSV in, cluster table and
//! score file out.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_sqlem-cli")
}

fn demo_csv(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("demo.csv");
    let mut text = String::from("a,b\n");
    for i in 0..200 {
        let t = (i % 10) as f64 * 0.05;
        text.push_str(&format!("{:.3},{:.3}\n", t, -t));
        text.push_str(&format!("{:.3},{:.3}\n", 9.0 + t, 9.0 - t));
    }
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn clusters_a_csv_and_writes_scores() {
    let dir = std::env::temp_dir().join("sqlem_cli_test1");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let scores = dir.join("scores.csv");
    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "7",
            "--scores",
            scores.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cluster"), "{stdout}");
    assert!(stdout.contains("50.0%"), "{stdout}");
    let scores_text = std::fs::read_to_string(&scores).unwrap();
    assert_eq!(scores_text.lines().count(), 401); // header + 400 rows
    assert!(scores_text.starts_with("rid,cluster\n"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sql_mode_prints_statements_without_running() {
    let dir = std::env::temp_dir().join("sqlem_cli_test2");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let out = Command::new(bin())
        .args([input.to_str().unwrap(), "--k", "3", "--sql"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("INSERT INTO yd"), "{stdout}");
    assert!(stdout.contains("GROUP BY rid"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_metrics_prints_each_strategys_closed_form() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_trace_metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    // p = 2, k = 2: hybrid 2k+3, fused 2k+2, vertical 1 + 9 pn-scans,
    // horizontal 2k+4 and none.
    let cases: [(&[&str], usize, usize); 4] = [
        (&[], 7, 1),
        (&["--fused"], 6, 1),
        (&["--strategy", "vertical"], 1, 9),
        (&["--strategy", "horizontal"], 8, 0),
    ];
    for (flags, n_scans, pn_scans) in cases {
        let out = Command::new(bin())
            .args([input.to_str().unwrap(), "--k", "2", "--max-iterations", "2"])
            .args(flags)
            .arg("--trace-metrics")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{flags:?}: {stderr}");
        let predicted = format!("predicts {n_scans} n-scan(s) + {pn_scans} pn-scan(s)");
        assert!(stderr.contains(&predicted), "{flags:?}: {stderr}");
        let measured = format!("iter 2: {n_scans} n-scan(s), {pn_scans} pn-scan(s),");
        assert!(stderr.contains(&measured), "{flags:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_input_fails_cleanly() {
    let dir = std::env::temp_dir().join("sqlem_cli_test3");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("bad.csv");
    std::fs::write(&input, "a,b\n1,notanumber\n").unwrap();
    let out = Command::new(bin())
        .args([input.to_str().unwrap(), "--k", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not numeric"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn k_larger_than_n_rejected() {
    let dir = std::env::temp_dir().join("sqlem_cli_test4");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("tiny.csv");
    std::fs::write(&input, "a\n1\n2\n").unwrap();
    let out = Command::new(bin())
        .args([input.to_str().unwrap(), "--k", "5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shell_executes_piped_statements_and_meta_commands() {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_sqlengine_shell"))
        .env("SQLENGINE_SHELL_QUIET", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            b"CREATE TABLE t (a BIGINT PRIMARY KEY, x DOUBLE);\n\
              INSERT INTO t VALUES (1, 2.0), (2, 4.0);\n\
              SELECT sum(x) FROM t;\n\\d\n\\q\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("6.0"), "{stdout}");
    assert!(stdout.contains("t (2 rows)"), "{stdout}");
}

#[test]
fn shell_runs_script_files_from_args() {
    let dir = std::env::temp_dir().join("sqlem_shell_test");
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("setup.sql");
    std::fs::write(
        &script,
        "CREATE TABLE s (v DOUBLE); INSERT INTO s VALUES (1.5), (2.5);",
    )
    .unwrap();
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_sqlengine_shell"))
        .arg(script.to_str().unwrap())
        .env("SQLENGINE_SHELL_QUIET", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"SELECT avg(v) FROM s;\n\\q\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2.0"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_transient_fault_is_retried() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_fault");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "7",
            "--max-iterations",
            "3",
            "--inject-fault",
            "table=yd:transient",
            "--retries",
            "2",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("retried 1 transient statement failure(s)"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_permanent_fault_fails_with_typed_error() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_fault_perm");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "7",
            "--max-iterations",
            "3",
            "--inject-fault",
            "kind=insert:permanent",
            "--retries",
            "5",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("injected permanent fault"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn horizontal_over_the_parser_cap_falls_back_to_hybrid() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_fallback");
    std::fs::create_dir_all(&dir).unwrap();
    // p = 40, k = 25: horizontal's longest statement is over the
    // default 64 KiB cap, the hybrid's is not.
    let input = dir.join("wide40.csv");
    let header: Vec<String> = (0..40).map(|j| format!("c{j}")).collect();
    let mut text = header.join(",") + "\n";
    for i in 0..50 {
        let off = (i % 2) as f64 * 10.0;
        let row: Vec<String> = (0..40)
            .map(|j| format!("{:.4}", off + ((i * 31 + j * 17) % 100) as f64 / 100.0))
            .collect();
        text += &(row.join(",") + "\n");
    }
    std::fs::write(&input, text).unwrap();
    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "25",
            "--strategy",
            "horizontal",
        ])
        .args(["--max-iterations", "1"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("sqlem preflight: falling back from horizontal to hybrid: "),
        "{stderr}"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("cluster"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_budget_fails_typed_when_tight_and_changes_nothing_when_roomy() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_memory_budget");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let run = |budget: &[&str]| {
        Command::new(bin())
            .args([input.to_str().unwrap(), "--k", "2", "--seed", "7"])
            .args(budget)
            .output()
            .unwrap()
    };
    // Far below the run's peak: the first statement that does not fit
    // fails with the engine's typed error.
    let tight = run(&["--memory-budget", "1K"]);
    let stderr = String::from_utf8_lossy(&tight.stderr);
    assert!(!tight.status.success(), "{stderr}");
    assert!(stderr.contains("resource exhausted"), "{stderr}");
    // A roomy budget prints what the unbudgeted run prints.
    let roomy = run(&["--memory-budget", "1G"]);
    let free = run(&[]);
    assert!(roomy.status.success() && free.status.success());
    assert_eq!(roomy.stdout, free.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_run_persists_and_reruns_cleanly() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_durable");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let data_dir = dir.join("db");

    let base = [
        input.to_str().unwrap().to_string(),
        "--k".into(),
        "2".into(),
        "--seed".into(),
        "7".into(),
        "--data-dir".into(),
        data_dir.to_str().unwrap().to_string(),
    ];
    let out = Command::new(bin()).args(&base).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("durable database"), "{stderr}");
    assert!(data_dir.join("wal.log").exists(), "WAL file created");

    // The run completed, so the checkpoint was cleared: a second
    // invocation against the same directory starts fresh (no resume).
    let out = Command::new(bin()).args(&base).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(!stderr.contains("resumed from checkpoint"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_run_resumes_across_processes_after_iteration_cap() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_durable_resume");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let data_dir = dir.join("db");

    // Phase 1: the iteration cap stops the run before convergence; the
    // checkpoint stays inside the durable database.
    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "7",
            "--epsilon",
            "1e-12",
            "--max-iterations",
            "3",
            "--data-dir",
            data_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("iteration cap reached"), "{stderr}");

    // Phase 2: a fresh process reopens the database, finds the
    // checkpoint, and continues — no --resume file involved.
    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "7",
            "--epsilon",
            "1e-12",
            "--max-iterations",
            "8",
            "--data-dir",
            data_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("resumed from checkpoint: 3 iteration(s) already complete"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_failed_run_reports_resumability() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_durable_fail");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let data_dir = dir.join("db");

    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "7",
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--inject-fault",
            "table=yd:permanent",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(
        stderr.contains("rerun the same command to resume"),
        "{stderr}"
    );

    // The database directory survived; the same command without the
    // fault completes against it.
    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "7",
            "--data-dir",
            data_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_fault_spec_is_rejected() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_fault_bad");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--inject-fault",
            "wibble",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fault selector"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// --connect: the two-tier deployment through the CLI

/// An in-process wire server the CLI subprocess can dial.
fn spawn_server(
    config: sqlwire::ServerConfig,
) -> (
    String,
    sqlwire::ServerHandle,
    std::thread::JoinHandle<sqlengine::Result<()>>,
) {
    let server =
        sqlwire::Server::bind("127.0.0.1:0", sqlengine::SharedDatabase::default(), config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

#[test]
fn connect_unreachable_exits_with_code_4() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_conn_unreach");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    // Bind-then-drop yields a port with no listener behind it.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    let out = Command::new(bin())
        .args([input.to_str().unwrap(), "--k", "2", "--connect", &addr])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot establish a session"), "{stderr}");
    assert!(
        stderr.contains("is sqlem-server running there?"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn connect_auth_rejection_exits_with_code_4_and_hint() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_conn_auth");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let (addr, handle, join) = spawn_server(sqlwire::ServerConfig {
        auth_token: "sekrit".to_string(),
        ..sqlwire::ServerConfig::default()
    });
    let out = Command::new(bin())
        .args([input.to_str().unwrap(), "--k", "2", "--connect", &addr])
        .output()
        .unwrap();
    handle.shutdown();
    join.join().unwrap().unwrap();
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("auth token"), "{stderr}");
    assert!(
        stderr.contains("pass the server's secret with --auth-token"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn connect_conflicts_with_database_process_flags() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_conn_conflict");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--connect",
            "127.0.0.1:1",
            "--data-dir",
            dir.join("db").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("pass it to sqlem-server instead"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn connect_remote_run_matches_in_process_run() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_conn_match");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let local_scores = dir.join("local.csv");
    let remote_scores = dir.join("remote.csv");

    let local = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "7",
            "--scores",
            local_scores.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        local.status.success(),
        "{}",
        String::from_utf8_lossy(&local.stderr)
    );

    let (addr, handle, join) = spawn_server(sqlwire::ServerConfig::default());
    let remote = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "7",
            "--scores",
            remote_scores.to_str().unwrap(),
            "--connect",
            &addr,
            "--namespace",
            "e2e_",
        ])
        .output()
        .unwrap();
    handle.shutdown();
    join.join().unwrap().unwrap();
    let stderr = String::from_utf8_lossy(&remote.stderr);
    assert!(remote.status.success(), "{stderr}");
    assert!(stderr.contains("connected:"), "{stderr}");

    // The generated SQL ran on the server, yet every artifact the user
    // sees — summary and per-row assignments — is byte-identical.
    assert_eq!(
        String::from_utf8_lossy(&local.stdout),
        String::from_utf8_lossy(&remote.stdout)
    );
    assert_eq!(
        std::fs::read(&local_scores).unwrap(),
        std::fs::read(&remote_scores).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deadline_without_connect_is_a_usage_error() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_deadline_usage");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let out = Command::new(bin())
        .args([input.to_str().unwrap(), "--k", "2", "--deadline", "1.5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("requires --connect"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// --shards: the hash-partitioned cluster through the CLI

#[test]
fn shards_conflicts_with_connect() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_shards_conflict");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--connect",
            "127.0.0.1:1",
            "--shards",
            "127.0.0.1:1,127.0.0.1:2",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shards_conflicts_with_database_process_flags() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_shards_flags");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--shards",
            "127.0.0.1:1,127.0.0.1:2",
            "--memory-budget",
            "64M",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("with --shards, pass it to sqlem-server instead"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unreachable_shard_exits_with_code_5_and_names_it() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_shards_unreach");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    // One live shard plus one port with no listener: the cluster must
    // refuse to assemble and name the shard that broke it.
    let (addr, handle, join) = spawn_server(sqlwire::ServerConfig::default());
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        format!("127.0.0.1:{}", l.local_addr().unwrap().port())
    };
    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--shards",
            &format!("{addr},{dead}"),
        ])
        .output()
        .unwrap();
    handle.shutdown();
    join.join().unwrap().unwrap();
    assert_eq!(out.status.code(), Some(5), "distinct cluster bring-up code");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("cannot bring up shard {dead}")),
        "{stderr}"
    );
    assert!(
        stderr.contains("every address in --shards needs a live server"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_cluster_run_matches_in_process_run() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_shards_match");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let local_scores = dir.join("local.csv");
    let sharded_scores = dir.join("sharded.csv");

    let local = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "7",
            "--scores",
            local_scores.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        local.status.success(),
        "{}",
        String::from_utf8_lossy(&local.stderr)
    );

    let (a0, h0, j0) = spawn_server(sqlwire::ServerConfig::default());
    let (a1, h1, j1) = spawn_server(sqlwire::ServerConfig::default());
    let sharded = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--seed",
            "7",
            "--scores",
            sharded_scores.to_str().unwrap(),
            "--shards",
            &format!("{a0},{a1}"),
            "--namespace",
            "e2s_",
        ])
        .output()
        .unwrap();
    h0.shutdown();
    h1.shutdown();
    j0.join().unwrap().unwrap();
    j1.join().unwrap().unwrap();
    let stderr = String::from_utf8_lossy(&sharded.stderr);
    assert!(sharded.status.success(), "{stderr}");
    assert!(
        stderr.contains("cluster coordinator over 2 shard(s)"),
        "{stderr}"
    );

    // Partitioned execution across two real servers, yet every artifact
    // the user sees is byte-identical to the in-process run.
    assert_eq!(
        String::from_utf8_lossy(&local.stdout),
        String::from_utf8_lossy(&sharded.stdout)
    );
    assert_eq!(
        std::fs::read(&local_scores).unwrap(),
        std::fs::read(&sharded_scores).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A sharded run checkpoints in its servers' databases like a durable
/// one: stopped by the iteration cap, it is continued by the next
/// invocation over the same shards, to the bits an uninterrupted run
/// reaches.
#[test]
fn sharded_run_resumes_from_its_checkpoint_after_iteration_cap() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_shards_resume");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);
    let run = |cap: &str, shards: Option<&str>| {
        let mut cmd = Command::new(bin());
        cmd.args([input.to_str().unwrap(), "--k", "2", "--seed", "7"])
            .args(["--epsilon", "1e-12", "--max-iterations", cap]);
        if let Some(addrs) = shards {
            cmd.args(["--shards", addrs, "--namespace", "e2r_"]);
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
    };
    let (uninterrupted, _) = run("8", None);

    let (a0, h0, j0) = spawn_server(sqlwire::ServerConfig::default());
    let (a1, h1, j1) = spawn_server(sqlwire::ServerConfig::default());
    let shards = format!("{a0},{a1}");
    let (_, first) = run("3", Some(&shards));
    let (resumed, second) = run("8", Some(&shards));
    h0.shutdown();
    h1.shutdown();
    j0.join().unwrap().unwrap();
    j1.join().unwrap().unwrap();
    assert!(first.contains("iteration cap reached"), "{first}");
    assert!(
        second.contains("resumed from checkpoint: 3 iteration(s) already complete"),
        "{second}"
    );
    assert_eq!(resumed, uninterrupted);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exceeded_deadline_fails_with_actionable_hint() {
    let dir = std::env::temp_dir().join("sqlem_cli_test_deadline_hit");
    std::fs::create_dir_all(&dir).unwrap();
    let input = demo_csv(&dir);

    // A server whose database lock another "statement" seizes for far
    // longer than the client's budget — but only once the run's work
    // tables exist, so the hold lands mid-statement-stream (the CLI's
    // earlier metadata requests carry no deadline and would otherwise
    // absorb the hold with their 30 s lock patience). The blocker
    // checks and starts holding inside ONE lock acquisition, so there
    // is no window for the CLI to slip through in between.
    let db = sqlengine::SharedDatabase::default();
    let server =
        sqlwire::Server::bind("127.0.0.1:0", db.clone(), sqlwire::ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let blocker = std::thread::spawn(move || loop {
        let held = db.with(|d| {
            let started = d.execute("SELECT COUNT(*) FROM z").is_ok();
            if started {
                std::thread::sleep(std::time::Duration::from_secs(5));
            }
            started
        });
        if held {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    });

    let out = Command::new(bin())
        .args([
            input.to_str().unwrap(),
            "--k",
            "2",
            "--connect",
            &addr,
            "--deadline",
            "0.3",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("deadline"), "{stderr}");
    assert!(
        stderr.contains("raise --deadline"),
        "the failure must name the knob: {stderr}"
    );
    blocker.join().unwrap();
    handle.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The `lint` and `analyze` subcommands are two renderings of one
/// static analysis; neither needs data.
#[test]
fn lint_and_analyze_subcommands() {
    let run = |args: &[&str]| {
        let out = Command::new(bin()).args(args).output().unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    // kp = 1000 under a 16 KiB parser cap: horizontal overflows (§3.3),
    // hybrid fits, and lint reports both without failing.
    let (code, stdout, stderr) = run(&[
        "lint",
        "--p",
        "40",
        "--k",
        "25",
        "--max-statement-len",
        "16384",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let line = |strategy: &str| {
        stdout
            .lines()
            .find(|l| l.trim_start().starts_with(strategy))
            .unwrap_or_else(|| panic!("no {strategy} line in {stdout}"))
    };
    assert!(line("horizontal:").ends_with("1 finding(s)"), "{stdout}");
    assert!(line("horizontal:").contains("cap 16384"), "{stdout}");
    assert!(line("hybrid:").ends_with("ok"), "{stdout}");
    assert!(
        stdout.contains("would auto-fall back to hybrid"),
        "{stdout}"
    );

    // A small problem verifies the closed-form cost of all three.
    let (code, stdout, stderr) = run(&["analyze", "--p", "4", "--k", "3"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        stdout.matches("cost model: verified").count(),
        3,
        "{stdout}"
    );

    // analyze fails when an analyzed strategy does.
    let (code, stdout, stderr) = run(&[
        "analyze",
        "--strategy",
        "horizontal",
        "--p",
        "40",
        "--k",
        "25",
        "--max-statement-len",
        "16384",
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.starts_with("plan: horizontal p=40 k=25"), "{stdout}");
    assert!(
        stderr.contains("static analysis failed for: horizontal"),
        "{stderr}"
    );
}

/// `lint` and `analyze` take their flags from the one parser: a
/// malformed value, a missing required flag and a clustering-run flag
/// are usage errors (exit 2), like the clustering run's own.
#[test]
fn lint_and_analyze_usage_errors_exit_2() {
    for args in [
        &["lint", "--p", "x", "--k", "2"][..],
        &["analyze", "--k", "2"],
        &["lint", "--p", "2", "--k", "2", "--scores", "f"],
    ] {
        let out = Command::new(bin()).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: sqlem-cli"), "{args:?}: {stderr}");
    }
}
