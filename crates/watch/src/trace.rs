//! Chrome-trace-event (Perfetto-compatible) export of a flight log.
//!
//! [`export_trace`] merges everything the flight ring knows about a
//! fleet run onto one cross-enclave timeline, in the Trace Event JSON
//! format `ui.perfetto.dev` and `chrome://tracing` load directly:
//!
//! * telemetry span closures become `"X"` complete events (per-member
//!   process rows, `tid` 1);
//! * kernel faults, injected faults, runtime decisions, verdicts,
//!   supervisor actions, and watch alerts become `"i"` instants;
//! * every correlation chain becomes an `"X"` slice on a dedicated
//!   `tid` 2 track spanning the chain's first to last record, so the
//!   fault→handler→decision round trips read as bars under the spans
//!   they explain.
//!
//! Timestamps are **simulated cycles, verbatim** (one `ts` unit = one
//! cycle; `otherData.ts_unit` says so). No wall time, no floats, no
//! host state: every event row is one line rendered by the workspace
//! JSON codec, so the artifact is byte-identical across reruns and
//! `--jobs` levels. [`parse_trace`] reads it back through the same
//! codec and checks each row's schema (the round-trip gate in CI).

use autarky_json::{object, Json};
use autarky_os_sim::kernel::Observation;
use autarky_os_sim::{FlightEvent, FlightRecord};
use autarky_sgx_sim::EnclaveId;
use std::collections::BTreeMap;

/// The enclave a flight event is about, when it names one.
fn event_eid(event: &FlightEvent) -> Option<EnclaveId> {
    match event {
        FlightEvent::Transition { eid, .. }
        | FlightEvent::HandlerEntry { eid, .. }
        | FlightEvent::Supervisor { eid, .. }
        | FlightEvent::WatchAlert { eid, .. } => Some(*eid),
        FlightEvent::Kernel(obs) => match obs {
            Observation::Fault { eid, .. }
            | Observation::FetchSyscall { eid, .. }
            | Observation::EvictSyscall { eid, .. }
            | Observation::AllocSyscall { eid, .. }
            | Observation::SetEnclaveManaged { eid, .. }
            | Observation::SetOsManaged { eid, .. }
            | Observation::DemandPaging { eid, .. }
            | Observation::AdBitObserved { eid, .. }
            | Observation::FaultInjected { eid, .. } => Some(*eid),
            Observation::UntrustedAccess { .. } => None,
        },
        _ => None,
    }
}

/// `(name, cat, global_scope)` of the instant a record renders as, or
/// `None` for record kinds the trace omits (raw transitions and the
/// per-page syscall chatter, which would drown the timeline).
fn instant_of(event: &FlightEvent) -> Option<(String, &'static str, bool)> {
    match event {
        FlightEvent::Kernel(Observation::Fault { .. }) => {
            Some(("page_fault".to_owned(), "fault", false))
        }
        FlightEvent::Kernel(Observation::FaultInjected { .. }) => {
            Some(("injected_fault".to_owned(), "injection", false))
        }
        FlightEvent::Misbehavior { .. } => Some(("misbehavior".to_owned(), "decision", false)),
        FlightEvent::Retry { .. } => Some(("retry".to_owned(), "decision", false)),
        FlightEvent::Degrade { .. } => Some(("degrade".to_owned(), "decision", false)),
        FlightEvent::AttackDetected { .. } => Some(("attack_detected".to_owned(), "verdict", true)),
        FlightEvent::RateLimitKill => Some(("rate_limit_kill".to_owned(), "verdict", true)),
        FlightEvent::SnapshotCapture { .. } => {
            Some(("snapshot_capture".to_owned(), "snapshot", false))
        }
        FlightEvent::SnapshotRestore { .. } => {
            Some(("snapshot_restore".to_owned(), "snapshot", false))
        }
        FlightEvent::Supervisor { action, .. } => {
            Some((format!("supervisor:{action}"), "supervisor", false))
        }
        FlightEvent::WatchAlert { detector, .. } => {
            Some((format!("alert:{detector}"), "alert", true))
        }
        _ => None,
    }
}

/// Export a flight log as Chrome-trace-event JSON. `members` maps each
/// fleet member's enclave id to its display name (pid = raw enclave
/// id; pid 0 is the untrusted host). Deterministic: the output is a
/// pure function of `records` and `members`.
pub fn export_trace(records: &[FlightRecord], members: &[(EnclaveId, String)]) -> String {
    // Chain attribution: a chain belongs to the first enclave named in
    // it, so eid-less records (span closures, decisions) inherit the
    // pid of the fault round trip they were recorded under.
    let mut chain_eid: BTreeMap<u64, EnclaveId> = BTreeMap::new();
    let mut chain_span: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new(); // corr -> (first, last, count)
    for r in records {
        if r.corr == 0 {
            continue;
        }
        if let Some(eid) = event_eid(&r.event) {
            chain_eid.entry(r.corr).or_insert(eid);
        }
        let span = chain_span.entry(r.corr).or_insert((r.cycles, r.cycles, 0));
        span.1 = span.1.max(r.cycles);
        span.2 += 1;
    }
    let pid_of = |r: &FlightRecord| -> u32 {
        event_eid(&r.event)
            .or_else(|| chain_eid.get(&r.corr).copied())
            .map(|eid| eid.0)
            .unwrap_or(0)
    };

    // One event per line, so the artifact diffs and greps by event.
    let row = |ph: &str, pid: u32, tid: u32, rest: Vec<(&str, Json)>| {
        let head = [("ph", ph.into()), ("pid", pid.into()), ("tid", tid.into())];
        object(head.into_iter().chain(rest)).line()
    };
    let meta = |pid: u32, tid: u32, kind: &str, name: String| {
        let args = object([("name", Json::Str(name))]);
        row("M", pid, tid, vec![("name", kind.into()), ("args", args)])
    };
    // A complete event spanning `first..=last` (at least one cycle).
    let slice = |pid: u32, tid: u32, first: u64, last: u64, name: String, cat: &str, args| {
        let rest = vec![
            ("ts", first.into()),
            ("dur", last.saturating_sub(first).max(1).into()),
            ("name", Json::Str(name)),
            ("cat", cat.into()),
            ("args", args),
        ];
        row("X", pid, tid, rest)
    };
    let mut lines: Vec<String> = Vec::new();
    // Process/thread metadata rows, members in registration order.
    lines.push(meta(0, 0, "process_name", "host".to_owned()));
    for (eid, name) in members {
        let label = format!("{name} (eid {})", eid.0);
        lines.push(meta(eid.0, 0, "process_name", label));
        lines.push(meta(eid.0, 1, "thread_name", "events".to_owned()));
        lines.push(meta(eid.0, 2, "thread_name", "chains".to_owned()));
    }

    // Event rows, in flight-log order.
    for r in records {
        let pid = pid_of(r);
        if let FlightEvent::SpanClose {
            kind,
            start_cycles,
            end_cycles,
        } = &r.event
        {
            let args = object([("seq", r.seq.into()), ("corr", r.corr.into())]);
            let (first, last) = (*start_cycles, *end_cycles);
            lines.push(slice(pid, 1, first, last, kind.clone(), "span", args));
        } else if let Some((name, cat, global)) = instant_of(&r.event) {
            let args = object([
                ("seq", r.seq.into()),
                ("corr", r.corr.into()),
                ("detail", Json::Str(r.event.describe())),
            ]);
            let rest = vec![
                ("ts", r.cycles.into()),
                ("s", if global { "g" } else { "t" }.into()),
                ("name", Json::Str(name)),
                ("cat", cat.into()),
                ("args", args),
            ];
            lines.push(row("i", pid, 1, rest));
        }
    }

    // Correlation chains as slices on each member's chain track.
    for (corr, (first, last, count)) in &chain_span {
        let pid = chain_eid.get(corr).map(|eid| eid.0).unwrap_or(0);
        let args = object([("corr", (*corr).into()), ("events", (*count).into())]);
        let name = format!("chain {corr}");
        lines.push(slice(pid, 2, *first, *last, name, "chain", args));
    }

    let other = object([
        ("generator", "autarky-watch".into()),
        ("ts_unit", "simulated-cycles".into()),
    ]);
    format!(
        "{{\n\"displayTimeUnit\": \"ns\",\n\"otherData\": {},\n\"traceEvents\": [\n{}\n]\n}}\n",
        other.line(),
        lines.join(",\n")
    )
}

/// One event row as read back by [`parse_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event phase (`M`, `X`, or `i`).
    pub ph: char,
    /// Process id (raw enclave id; 0 = host).
    pub pid: u32,
    /// Thread id (0 metadata, 1 events, 2 chains).
    pub tid: u32,
    /// Timestamp in simulated cycles (0 for metadata rows).
    pub ts: u64,
    /// Duration in simulated cycles (`X` rows only).
    pub dur: u64,
    /// Event name.
    pub name: String,
    /// Event category (empty for metadata rows).
    pub cat: String,
}

/// Parse [`export_trace`] output (or any JSON layout of it) back into
/// event rows. Beyond the reader's syntax check, every row needs `ph`,
/// `pid`, `tid` and `name`; `X` rows need `dur`, `i` rows need `s`, and
/// any other phase but `M` is rejected. Errors carry the reader's byte
/// offset or the offending row, so a CI schema break is diagnosable from
/// the log.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let doc = autarky_json::parse(text).map_err(|e| e.to_string())?;
    doc.get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("no traceEvents array")?
        .iter()
        .map(trace_event)
        .collect()
}

fn trace_event(row: &Json) -> Result<TraceEvent, String> {
    let missing = |what: &str| format!("{what}: {}", row.line());
    let text = |key: &str| row.get(key).and_then(Json::as_str);
    let id = |key: &str| {
        row.get(key)
            .and_then(Json::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| missing(&format!("missing {key}")))
    };
    let ph = text("ph")
        .and_then(|s| s.chars().next())
        .ok_or_else(|| missing("missing ph"))?;
    let dur = row.get("dur").and_then(Json::as_u64);
    match ph {
        'M' => {}
        'X' if dur.is_none() => return Err(missing("X event without dur")),
        'i' if text("s").is_none() => return Err(missing("instant without scope")),
        'X' | 'i' => {}
        other => return Err(missing(&format!("unknown phase {other:?}"))),
    }
    Ok(TraceEvent {
        ph,
        pid: id("pid")?,
        tid: id("tid")?,
        ts: row.get("ts").and_then(Json::as_u64).unwrap_or(0),
        dur: dur.unwrap_or(0),
        name: text("name")
            .ok_or_else(|| missing("missing name"))?
            .to_owned(),
        cat: text("cat").unwrap_or_default().to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autarky_os_sim::flight::FlightRecorder;
    use autarky_sgx_sim::{AccessKind, Va, Vpn};

    fn sample_records() -> Vec<FlightRecord> {
        let mut rec = FlightRecorder::new(64);
        rec.begin_chain();
        rec.record(
            100,
            FlightEvent::Kernel(Observation::Fault {
                eid: EnclaveId(1),
                va: Va(0x5000),
                kind: AccessKind::Read,
            }),
        );
        rec.record(
            150,
            FlightEvent::SpanClose {
                kind: "fault_handler".to_owned(),
                start_cycles: 100,
                end_cycles: 150,
            },
        );
        rec.end_chain();
        rec.record(
            200,
            FlightEvent::Supervisor {
                eid: EnclaveId(2),
                action: "restart".to_owned(),
                why: "watchdog \"budget\"".to_owned(),
            },
        );
        rec.record(
            250,
            FlightEvent::WatchAlert {
                eid: EnclaveId(1),
                detector: "fault_cusum".to_owned(),
                window: 3,
                score_milli: 5000,
                vpn: Some(Vpn(5)),
                why: "rate shift".to_owned(),
            },
        );
        rec.snapshot()
    }

    fn members() -> Vec<(EnclaveId, String)> {
        vec![
            (EnclaveId(1), "kv-a".to_owned()),
            (EnclaveId(2), "kv-b".to_owned()),
        ]
    }

    #[test]
    fn export_is_deterministic() {
        let records = sample_records();
        let a = export_trace(&records, &members());
        let b = export_trace(&records, &members());
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_preserves_every_event() {
        let records = sample_records();
        let json = export_trace(&records, &members());
        let events = parse_trace(&json).expect("parse");
        // 1 host metadata + 3 per member, then the data rows.
        let meta = events.iter().filter(|e| e.ph == 'M').count();
        assert_eq!(meta, 1 + 3 * 2);
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.ph == 'X' && e.cat == "span")
            .collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "fault_handler");
        assert_eq!(spans[0].pid, 1, "span inherits its chain's enclave");
        assert_eq!(spans[0].ts, 100);
        assert_eq!(spans[0].dur, 50);
        let instants: Vec<_> = events.iter().filter(|e| e.ph == 'i').collect();
        assert_eq!(instants.len(), 3, "fault, supervisor, alert");
        assert!(instants.iter().any(|e| e.name == "alert:fault_cusum"));
        assert!(instants.iter().any(|e| e.name == "supervisor:restart"));
        let chains: Vec<_> = events
            .iter()
            .filter(|e| e.ph == 'X' && e.cat == "chain")
            .collect();
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].pid, 1);
        assert_eq!(chains[0].ts, 100);
    }

    #[test]
    fn escaping_survives_quotes_in_reasons() {
        let records = sample_records();
        let json = export_trace(&records, &members());
        let events = parse_trace(&json).expect("parse despite embedded quotes");
        assert!(events.iter().any(|e| e.name == "supervisor:restart"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_trace("{\n\"traceEvents\": [\nnot json\n]\n}\n").is_err());
        let missing_close = "{\n\"traceEvents\": [\n";
        assert!(parse_trace(missing_close).is_err());
        let bad_phase =
            "{\n\"traceEvents\": [\n{\"ph\":\"Q\",\"pid\":0,\"tid\":0,\"name\":\"x\"}\n]\n}\n";
        assert!(parse_trace(bad_phase).is_err());
    }

    #[test]
    fn empty_log_still_renders_valid_trace() {
        let json = export_trace(&[], &members());
        let events = parse_trace(&json).expect("parse");
        assert!(events.iter().all(|e| e.ph == 'M'));
        assert_eq!(events.len(), 7);
    }
}
