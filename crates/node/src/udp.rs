//! UDP loopback transport: one OS process per node, real sockets,
//! real time.
//!
//! This is the only module in the runtime that touches a wall clock or
//! a socket — everything crossing into [`NodeCore`] is a decoded frame
//! or a timer fire, and everything entering the replicated state
//! machine (and thus the journal) is virtual-time. `Instant` here
//! drives socket read timeouts and timer deadlines only.
//!
//! Loss handling: UDP may drop datagrams, so this transport honors
//! [`TimerKind::Retransmit`] — the core's bounded-backoff re-announce
//! of its current idempotent state (`Hello` / `Ordered` / `Done`).
//! Abstract time units scale to wall time by [`UdpNodeOptions::tick_ms`].
//! Garbage datagrams are counted and dropped: the frame codec is
//! strict, but a malformed packet from outside must not kill the node.

#![cfg(feature = "wall-clock")]

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use lagover_core::Population;

use crate::core::{Command, Input, NodeCore, Output, TimerKind};
use crate::journal::{JournalEntry, NodeReport};
use crate::replica::ScenarioSpec;
use crate::wire::{decode, encode, MAX_FRAME, PREFIX};

/// Knobs for one UDP node process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UdpNodeOptions {
    /// This node's id.
    pub me: u32,
    /// Node `i` binds (and is reached at) `127.0.0.1:base_port + i`.
    pub base_port: u16,
    /// Wall milliseconds per abstract time unit.
    pub tick_ms: f64,
    /// After halting, keep answering retransmits this long so slower
    /// peers can still collect our final `Done`.
    pub linger_ms: u64,
    /// Abort the run (error) if the node has not halted by then.
    pub hard_timeout_ms: u64,
}

impl Default for UdpNodeOptions {
    fn default() -> Self {
        UdpNodeOptions {
            me: 0,
            base_port: 47000,
            tick_ms: 2.0,
            linger_ms: 500,
            hard_timeout_ms: 60_000,
        }
    }
}

/// The loopback port node `node` binds and is reached at,
/// `base_port + node`, or `None` if that is past 65535.
pub fn node_port(base_port: u16, node: u32) -> Option<u16> {
    u32::from(base_port)
        .checked_add(node)
        .and_then(|port| u16::try_from(port).ok())
}

/// Runs node `options.me` over UDP loopback until it halts (plus the
/// linger window), returning its [`NodeReport`].
///
/// # Errors
///
/// Returns a description of the failure if some node's port is past
/// 65535, the socket cannot be bound, or the node fails to halt within
/// `hard_timeout_ms`.
pub fn run_udp_node(
    population: &Population,
    spec: &ScenarioSpec,
    seed: u64,
    options: &UdpNodeOptions,
) -> Result<NodeReport, String> {
    let n = population.len() as u32;
    assert!(options.me < n, "node id out of range");
    let addrs: Vec<SocketAddr> = (0..n)
        .map(|q| {
            node_port(options.base_port, q).map(|port| SocketAddr::from(([127, 0, 0, 1], port)))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| {
            format!(
                "base port {} + node id {} is past port 65535",
                options.base_port,
                n - 1
            )
        })?;
    let addr = addrs[options.me as usize];
    let socket = UdpSocket::bind(addr)
        .map_err(|e| format!("node {} failed to bind {addr}: {e}", options.me))?;

    let mut node = NodeCore::new(population, spec, seed, options.me);
    let mut entries: Vec<JournalEntry> = Vec::new();
    let mut dropped_frames = 0u64;

    let start = Instant::now();
    let hard_deadline = start + Duration::from_millis(options.hard_timeout_ms);
    let tick = options.tick_ms.max(0.01);
    let mut action_due: Option<Instant> = None;
    let mut retransmit_due: Option<Instant> = None;
    let mut linger_until: Option<Instant> = None;

    // One output buffer for the whole run: `handle` appends to it and
    // `run_outputs` drains it.
    let mut out: Vec<Output> = Vec::new();
    let run_outputs = |out: &mut Vec<Output>,
                       now: Instant,
                       action_due: &mut Option<Instant>,
                       retransmit_due: &mut Option<Instant>,
                       linger_until: &mut Option<Instant>,
                       entries: &mut Vec<JournalEntry>| {
        for output in out.drain(..) {
            match output {
                Output::Send { to, message } => {
                    // Best-effort: a lost datagram is exactly what the
                    // retransmit machinery exists for.
                    let _ = socket.send_to(&encode(&message), addrs[to as usize]);
                }
                Output::SetTimer { kind, delay } => {
                    let due = now + Duration::from_secs_f64(delay * tick / 1_000.0);
                    match kind {
                        TimerKind::Action => *action_due = Some(due),
                        TimerKind::Retransmit => *retransmit_due = Some(due),
                    }
                }
                Output::Journal(entry) => entries.push(entry),
                Output::Halted => {
                    *action_due = None;
                    *linger_until = Some(Instant::now() + Duration::from_millis(options.linger_ms));
                }
            }
        }
    };

    node.handle(Input::Command(Command::Start), &mut out);
    run_outputs(
        &mut out,
        Instant::now(),
        &mut action_due,
        &mut retransmit_due,
        &mut linger_until,
        &mut entries,
    );

    let mut buf = [0u8; PREFIX + MAX_FRAME];
    loop {
        let now = Instant::now();
        if let Some(end) = linger_until {
            if now >= end {
                break;
            }
        }
        if now >= hard_deadline {
            if node.is_halted() {
                break;
            }
            return Err(format!(
                "node {} did not halt within {} ms (started={}, halted={})",
                options.me,
                options.hard_timeout_ms,
                node.is_started(),
                node.is_halted()
            ));
        }

        // Fire any expired timer before blocking on the socket.
        let mut fired = Vec::new();
        if action_due.is_some_and(|due| now >= due) {
            action_due = None;
            fired.push(TimerKind::Action);
        }
        if retransmit_due.is_some_and(|due| now >= due) {
            retransmit_due = None;
            fired.push(TimerKind::Retransmit);
        }
        if !fired.is_empty() {
            for kind in fired {
                node.handle(Input::Timer(kind), &mut out);
                run_outputs(
                    &mut out,
                    Instant::now(),
                    &mut action_due,
                    &mut retransmit_due,
                    &mut linger_until,
                    &mut entries,
                );
            }
            continue;
        }

        // Sleep on the socket until the nearest deadline (clamped so a
        // lost wakeup is never worse than 25 ms).
        let nearest = [
            action_due,
            retransmit_due,
            linger_until,
            Some(hard_deadline),
        ]
        .into_iter()
        .flatten()
        .min()
        .expect("hard deadline always present");
        let wait = nearest
            .saturating_duration_since(now)
            .clamp(Duration::from_millis(1), Duration::from_millis(25));
        socket
            .set_read_timeout(Some(wait))
            .map_err(|e| format!("set_read_timeout failed: {e}"))?;
        match socket.recv_from(&mut buf) {
            Ok((len, _)) => match decode(&buf[..len]) {
                Ok((message, _)) => {
                    node.handle(Input::Frame(message), &mut out);
                    run_outputs(
                        &mut out,
                        Instant::now(),
                        &mut action_due,
                        &mut retransmit_due,
                        &mut linger_until,
                        &mut entries,
                    );
                }
                Err(_) => dropped_frames += 1,
            },
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(format!("recv_from failed: {e}")),
        }
    }

    if dropped_frames > 0 {
        eprintln!(
            "node {}: dropped {dropped_frames} undecodable datagrams",
            options.me
        );
    }
    Ok(node.report("udp", entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::merge_reports;
    use crate::mesh::run_mesh;
    use crate::replica::Scenario;
    use lagover_core::{Algorithm, Constraints, ConstructionConfig, OracleKind};
    use std::thread;

    fn population(n: u32) -> Population {
        let constraints = (0..n).map(|i| Constraints::new(3, i / 4 + 1)).collect();
        Population::new(4, constraints)
    }

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            scenario: Scenario::Construction,
            config: ConstructionConfig::new(Algorithm::Greedy, OracleKind::RandomDelay)
                .with_max_rounds(10_000),
            max_time: 10_000.0,
            journal_capacity: 8_192,
        }
    }

    /// Ports are checked, not wrapped: node 536 of base 65 000 and node
    /// 65 536 of base 1 have none, and a node refuses to run (before
    /// binding) when the population's last port is past 65535.
    #[test]
    fn node_ports_stop_at_65535_instead_of_wrapping() {
        assert_eq!(node_port(47_000, 0), Some(47_000));
        assert_eq!(node_port(65_000, 535), Some(65_535));
        assert_eq!(node_port(65_000, 536), None);
        assert_eq!(node_port(1, 65_536), None);
        assert_eq!(node_port(u16::MAX, u32::MAX), None);
        let options = UdpNodeOptions {
            base_port: 65_530,
            ..UdpNodeOptions::default()
        };
        let err = run_udp_node(&population(8), &spec(), 1, &options).expect_err("port 65537");
        assert!(err.contains("past port 65535"), "{err}");
    }

    /// Eight UDP nodes on loopback (threads standing in for the
    /// multi-process harness) must converge and merge into the exact
    /// journal the in-process mesh produces.
    #[test]
    fn udp_loopback_octet_matches_the_mesh() {
        let pop = population(8);
        let s = spec();
        let seed = 5u64;
        let base_port = 47321u16;
        let handles: Vec<_> = (0..8u32)
            .map(|me| {
                let pop = pop.clone();
                let s = s.clone();
                thread::spawn(move || {
                    run_udp_node(
                        &pop,
                        &s,
                        seed,
                        &UdpNodeOptions {
                            me,
                            base_port,
                            tick_ms: 1.0,
                            linger_ms: 300,
                            hard_timeout_ms: 30_000,
                        },
                    )
                })
            })
            .collect();
        let mut reports: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("no panic").expect("node completes"))
            .collect();
        reports.sort_by_key(|r| r.peer);
        let merged = merge_reports(&reports).expect("reports merge");
        assert!(merged.finished(), "construction must converge");
        let mesh = run_mesh(&pop, &s, seed).expect("mesh twin");
        assert_eq!(
            lagover_jsonio::to_string(&merged.journal),
            lagover_jsonio::to_string(&mesh.merged.journal),
            "UDP and mesh runs must merge to the same journal"
        );
    }
}
