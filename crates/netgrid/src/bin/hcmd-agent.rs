//! The volunteer agent binary.
//!
//! ```text
//! hcmd-agent [--addr 127.0.0.1:7070] [--agent 1] [--threads 4]
//!            [--fault-profile none|flaky|reliable|saboteur] [--seed 0]
//!            [--campaigns NAME,...|*]
//! ```
//!
//! Connects to an `hcmd-server`, learns the campaign from `HelloAck`,
//! and docks until the server reports the campaign complete. With
//! `--fault-profile flaky` the agent misbehaves on purpose —
//! disconnects mid-workunit, stalls past deadlines, flips result bits —
//! to exercise the server's reissue and quorum machinery. There is no
//! wire format to pick: agent and server speak the one protocol.
//!
//! The agent keeps its connection while it works: from the assignment,
//! through the docking, to the report, and it asks again on it. Like a
//! periodic BOINC client, it holds no connection while it waits: told
//! `NoWork`, it says `Bye`, hangs up, and dials again when the wait is
//! over — the wait doubled for each `NoWork` in a row, up to 2 s. A
//! server that finished meanwhile stays up until such a rest has run
//! out, so the agent wakes to hear the campaign is complete. A server
//! that is gone refuses the dial; the agent then exits once its connect
//! attempts run out (about 3 s), with its report if it ever got work and
//! with the connect error if it did not.
//!
//! Against a multi-campaign server, `--campaigns a,b` volunteers only
//! for the named campaigns and `--campaigns '*'` for all of them;
//! without the flag the agent lands on the server's default (first)
//! campaign.

use netgrid::{run_agent, AgentConfig, FaultProfile};

fn usage() -> ! {
    eprintln!(
        "usage: hcmd-agent [--addr HOST:PORT] [--agent N] [--threads N] \
         [--fault-profile none|flaky|reliable|saboteur] [--seed N] \
         [--campaigns NAME,...|*]"
    );
    std::process::exit(2);
}

fn take(args: &[String], i: &mut usize) -> String {
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| usage())
}

fn main() {
    let mut config = AgentConfig::new("127.0.0.1:7070", 1);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => config.addr = take(&args, &mut i),
            "--agent" => config.agent = take(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--threads" => config.threads = take(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => config.seed = take(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--fault-profile" => {
                config.profile = FaultProfile::parse(&take(&args, &mut i)).unwrap_or_else(|e| {
                    eprintln!("hcmd-agent: {e}");
                    usage()
                })
            }
            "--campaigns" => {
                config.campaigns = take(&args, &mut i)
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }

    match run_agent(config) {
        Ok(report) => {
            println!(
                "agent done: {} assignments, {} reported, {} accepted (faults: {} disconnect, {} stall, {} corrupt)",
                report.assignments,
                report.reported,
                report.accepted,
                report.disconnect_faults,
                report.stall_faults,
                report.corrupt_faults
            );
            if report.saw_completion {
                println!("campaign complete — thanks for volunteering");
            }
        }
        Err(e) => {
            eprintln!("hcmd-agent: {e}");
            std::process::exit(1);
        }
    }
}
