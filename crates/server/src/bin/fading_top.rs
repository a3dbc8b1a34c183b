//! `fading-top` — a live terminal dashboard over a running fading-server.
//!
//! ```text
//! fading-top --addr 127.0.0.1:40123 [--interval-ms 500] [--frames N] [--plain]
//! fading-top --demo [--frames N]
//! ```
//!
//! Connects to the server's control socket, sends `{"cmd":"watch"}`, and
//! repaints a [`Dashboard`] from the streamed events: queue depths,
//! per-job progress bars, tier mix, rate sparklines, and recent SLO
//! alerts. `--frames N` exits after rendering N screens (for scripts and
//! tests); `--plain` skips the ANSI clear codes so output can be piped.
//! `--demo` renders a canned event sequence with no server at all.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

use fading_server::top::Dashboard;

struct Args {
    addr: Option<String>,
    interval_ms: u64,
    frames: Option<u64>,
    plain: bool,
    demo: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fading-top --addr HOST:PORT [--interval-ms MS] [--frames N] [--plain]\n\
         \x20      fading-top --demo [--frames N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        interval_ms: 500,
        frames: None,
        plain: false,
        demo: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                usage();
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")),
            "--interval-ms" => {
                args.interval_ms = value("--interval-ms").parse().unwrap_or_else(|_| usage());
            }
            "--frames" => args.frames = Some(value("--frames").parse().unwrap_or_else(|_| usage())),
            "--plain" => args.plain = true,
            "--demo" => args.demo = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    args
}

/// Canned stream: two jobs making progress, one frame, one alert — so the
/// dashboard can be eyeballed (and its transcript documented) offline.
fn demo_lines() -> Vec<String> {
    let mut lines = vec![
        "{\"event\":\"job_started\",\"job\":\"sweep-a\",\"t_ms\":10,\"trials\":6}".to_string(),
        "{\"event\":\"job_started\",\"job\":\"sweep-b\",\"t_ms\":12,\"trials\":4}".to_string(),
    ];
    for seed in 0..5u64 {
        lines.push(format!(
            "{{\"job\":\"sweep-a\",\"t_ms\":{},\"event\":\"trial_started\",\"seed\":{seed}}}",
            20 + seed * 10
        ));
        lines.push(format!(
            "{{\"job\":\"sweep-a\",\"t_ms\":{},\"event\":\"trial_finished\",\"seed\":{seed},\"rounds\":{},\"resolved\":true,\"retries\":0}}",
            25 + seed * 10,
            30 + seed * 7
        ));
    }
    lines.push(
        "{\"job\":\"sweep-b\",\"t_ms\":40,\"event\":\"trial_timed_out\",\"seed\":0,\"timeout_ms\":50,\"retries\":1}"
            .to_string(),
    );
    lines.push(
        "{\"event\":\"frame\",\"t_ms\":500,\"dt_ms\":250,\"d_trials\":5,\"d_trial_rounds\":180,\
         \"d_retried\":1,\"d_timed_out\":1,\"d_jobs_completed\":0,\"d_jobs_failed\":0,\
         \"d_engine_rounds\":180,\"d_farfield_rounds\":150,\"d_hierarchical_rounds\":0,\
         \"d_exact_rounds\":30,\"d_instrumented_rounds\":0,\
         \"d_jammed_rounds\":0,\"d_fallback_listeners\":4,\"d_resolved_listeners\":96,\
         \"queue_depth\":2,\"jobs_in_flight\":2}"
            .to_string(),
    );
    lines.push(
        "{\"event\":\"alert\",\"rule\":\"timed_out_spike\",\"value\":12.0,\"threshold\":5.0,\"t_ms\":500}"
            .to_string(),
    );
    lines
}

fn main() -> ExitCode {
    let args = parse_args();
    let width = 72;

    if args.demo {
        let mut dash = Dashboard::new();
        for line in demo_lines() {
            dash.apply_line(&line);
        }
        let frames = args.frames.unwrap_or(1);
        for _ in 0..frames {
            print!("{}", dash.render(width, !args.plain && frames > 1));
            if frames > 1 {
                std::thread::sleep(Duration::from_millis(args.interval_ms));
            }
        }
        return ExitCode::SUCCESS;
    }

    let Some(addr) = args.addr.as_deref() else {
        eprintln!("--addr is required (or --demo)");
        usage();
    };
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reader = match stream.try_clone() {
        Ok(r) => BufReader::new(r),
        Err(e) => {
            eprintln!("cannot clone socket: {e}");
            return ExitCode::FAILURE;
        }
    };
    if stream.write_all(b"{\"cmd\":\"watch\"}\n").is_err() {
        eprintln!("cannot send watch request to {addr}");
        return ExitCode::FAILURE;
    }

    // Reader thread: socket lines → channel; the main loop repaints on a
    // timer so a quiet stream still refreshes the uptime/queue header.
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
        // Closing the channel tells the render loop the server hung up.
    });

    let mut dash = Dashboard::new();
    let mut painted = 0u64;
    loop {
        let deadline = std::time::Instant::now() + Duration::from_millis(args.interval_ms);
        loop {
            let now = std::time::Instant::now();
            let Some(left) = deadline.checked_duration_since(now) else {
                break;
            };
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if !line.trim().is_empty() {
                        dash.apply_line(&line);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => break,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    print!("{}", dash.render(width, !args.plain));
                    println!("server closed the stream");
                    return ExitCode::SUCCESS;
                }
            }
        }
        print!("{}", dash.render(width, !args.plain));
        let _ = std::io::stdout().flush();
        painted += 1;
        if let Some(limit) = args.frames {
            if painted >= limit {
                return ExitCode::SUCCESS;
            }
        }
    }
}
