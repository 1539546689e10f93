//! The harness binaries refuse a bad command line before any harness
//! work starts: exit 2 with the usage line.

use std::process::Command;

#[test]
fn a_zero_thread_count_exits_2_with_the_usage_line() {
    // Each command line is sized so that a binary which failed to refuse
    // it would still finish quickly, and its `--out` directory does not
    // exist, so nothing is written either way.
    let out = ["--out", "/nonexistent-dir/report.json"];
    let binaries: [(&str, &[&str]); 2] = [
        (env!("CARGO_BIN_EXE_planning"), &["--offers", "10", "--partitions", "1"]),
        (env!("CARGO_BIN_EXE_spatial"), &["--prosumers", "5", "--trace-prosumers", "5"]),
    ];
    for (binary, small) in binaries {
        for threads in ["0", "1,0"] {
            let run = Command::new(binary)
                .args(small)
                .args(["--threads", threads])
                .args(out)
                .output()
                .expect("the binary starts");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(2), "{binary} --threads {threads}: {stderr}");
            assert!(stderr.starts_with("usage: "), "{binary} --threads {threads}: {stderr}");
        }
    }
}
