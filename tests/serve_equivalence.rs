//! Serve-vs-batch equivalence: a query answered by the warm daemon must be
//! byte-identical to the same command run one-shot — at any worker count,
//! across repeated requests against the same warm engine, and for budgeted
//! partials. The daemon reuses the CLI's pure command functions over a
//! pooled planner, so these are `assert_eq!` checks on the full output
//! strings, not shape checks.

use riskroute::Parallelism;
use riskroute_cli::commands::ServeHandler;
use riskroute_cli::{parse_args, run, CliContext, CliError};
use riskroute_serve::{ServeConfig, Server, SpawnedServer};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// Run the one-shot CLI in-process (no argv[0]).
fn one_shot(argv: &str) -> Result<String, CliError> {
    let args: Vec<String> = argv.split_whitespace().map(String::from).collect();
    let cli = parse_args(&args).expect("parse");
    run(&cli)
}

/// Spawn an in-process daemon whose handler runs at `workers` threads,
/// default weights, no default deadline.
fn daemon(workers: Parallelism) -> (SpawnedServer, SocketAddr) {
    let mut ctx = CliContext::build(&[]).expect("context");
    ctx.parallelism = workers;
    let cli = parse_args(&["corpus".to_string()]).expect("parse");
    let handler = Arc::new(ServeHandler::new(ctx, cli.weights(), None));
    let server = Server::bind_tcp("127.0.0.1:0", handler, ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    (server.spawn(), addr)
}

/// One request line in, one parsed response document out.
fn query(addr: SocketAddr, line: &str) -> riskroute_json::Json {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write newline");
    let mut reader = BufReader::new(stream);
    let mut out = String::new();
    reader.read_line(&mut out).expect("read");
    riskroute_json::parse(out.trim_end()).expect("response parses")
}

fn field<'a>(doc: &'a riskroute_json::Json, name: &str) -> &'a str {
    doc.field(name)
        .and_then(|v| v.as_str())
        .unwrap_or_else(|e| panic!("field {name}: {e} in {doc:?}"))
}

/// The serve request for each one-shot command under test.
const CASES: &[(&str, &str)] = &[
    (
        "route Sprint 0 5",
        r#"{"op":"route","network":"Sprint","src":"0","dst":"5"}"#,
    ),
    ("ratio Telepak", r#"{"op":"ratio","network":"Telepak"}"#),
    (
        "provision Telepak -k 2",
        r#"{"op":"provision","network":"Telepak","k":2}"#,
    ),
    (
        "sweep Telepak --mode n1",
        r#"{"op":"sweep","network":"Telepak","mode":"n1"}"#,
    ),
    ("corpus", r#"{"op":"corpus"}"#),
];

#[test]
fn warm_daemon_answers_byte_identical_to_one_shot_at_any_worker_count() {
    let expected: Vec<String> = CASES
        .iter()
        .map(|(cmd, _)| one_shot(cmd).unwrap_or_else(|e| panic!("{cmd}: {e}")))
        .collect();
    for workers in [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Threads(8),
    ] {
        let (server, addr) = daemon(workers);
        for ((cmd, request), want) in CASES.iter().zip(&expected) {
            // Twice per case: the second answer comes from the warm pool
            // (and, for route-bearing ops, the warm route-tree cache).
            for round in 0..2 {
                let doc = query(addr, request);
                assert_eq!(field(&doc, "status"), "ok", "{cmd} @ {workers:?}");
                assert_eq!(
                    field(&doc, "output"),
                    want,
                    "{cmd} @ {workers:?} round {round}"
                );
            }
        }
        let report = server.drain_and_join();
        assert!(!report.forced, "{workers:?}");
    }
}

#[test]
fn budgeted_partials_match_the_one_shot_cli() {
    // --max-work cuts at a deterministic stage boundary, so the partial
    // report is byte-identical; --deadline-ms 0 exhausts at the first
    // boundary check, which is equally deterministic.
    let (server, addr) = daemon(Parallelism::Sequential);
    for (cmd, request) in [
        (
            "sweep Telepak --mode n1 --max-work 3",
            r#"{"op":"sweep","network":"Telepak","mode":"n1","max_work":3}"#,
        ),
        (
            "provision Telepak -k 2 --max-work 0",
            r#"{"op":"provision","network":"Telepak","k":2,"max_work":0}"#,
        ),
        (
            "replay Telepak katrina --stride 20 --deadline-ms 0",
            r#"{"op":"replay","network":"Telepak","storm":"katrina","stride":20,"deadline_ms":0}"#,
        ),
    ] {
        let args: Vec<String> = cmd.split_whitespace().map(String::from).collect();
        let err = run(&parse_args(&args).expect("parse")).expect_err(cmd);
        let CliError::Budget { report, stopped } = &err else {
            panic!("{cmd}: expected budget exhaustion, got {err:?}");
        };
        let doc = query(addr, request);
        assert_eq!(field(&doc, "status"), "partial", "{cmd}");
        assert_eq!(field(&doc, "stopped"), stopped.to_string(), "{cmd}");
        assert_eq!(field(&doc, "output"), report, "{cmd}");
    }
    // A nonzero deadline is wall-clock dependent, so only the response
    // shape is asserted: it must come back typed (partial or ok) in
    // bounded time, never hang.
    let doc = query(
        addr,
        r#"{"op":"sweep","network":"Telepak","mode":"n1","deadline_ms":1}"#,
    );
    let status = field(&doc, "status");
    assert!(
        status == "partial" || status == "ok",
        "tight deadline must answer typed, got {doc:?}"
    );
    if status == "partial" {
        assert_eq!(field(&doc, "stopped"), "wall-clock deadline exceeded");
        assert!(field(&doc, "output").contains("budget exhausted"));
    }
    let report = server.drain_and_join();
    assert!(!report.forced);
}

#[test]
fn per_request_lambda_overrides_match_weight_flags() {
    let want = one_shot("--lambda-h 1e6 --lambda-f 1e2 route Sprint 0 5").expect("one-shot");
    let (server, addr) = daemon(Parallelism::Sequential);
    let doc = query(
        addr,
        r#"{"op":"route","network":"Sprint","src":"0","dst":"5","lambda_h":1e6,"lambda_f":1e2}"#,
    );
    assert_eq!(field(&doc, "status"), "ok");
    assert_eq!(field(&doc, "output"), want);
    // Typed failures carry the CLI exit-code taxonomy.
    let doc = query(
        addr,
        r#"{"op":"route","network":"Nope","src":"0","dst":"5"}"#,
    );
    assert_eq!(field(&doc, "status"), "error");
    assert_eq!(field(&doc, "kind"), "unknown-name");
    assert_eq!(
        doc.field("exit_code")
            .and_then(|v| v.as_usize())
            .unwrap_or_else(|e| panic!("{e}")),
        3
    );
    let report = server.drain_and_join();
    assert!(!report.forced);
}
