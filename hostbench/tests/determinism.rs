//! Same seed, same simulated work: the per-layer counts of a traced window
//! repeat exactly, and the seed alone picks the op stream.

use autarky::workloads::kvstore::KvStore;
use autarky_hostbench::counters::names;
use autarky_hostbench::run::{setup, traced_window};
use autarky_hostbench::trace::Tracer;
use autarky_hostbench::workload::{Op, OpGen, Output, Workload, KV_VALUE};
use autarky_hostbench::HELD_OUT_SEED;

/// Ops per workload: enough to fault, evict and touch the ORAM tree.
fn ops(w: Workload) -> u64 {
    match w {
        Workload::SpellSgx1 => 150,
        Workload::KvOram => 60,
        Workload::KvSgx2Writes => 1_500,
        Workload::FontPinned => 200,
    }
}

/// Simulated counts of a traced window: every layer's counter delta plus
/// the resident frames at its end.
fn counts(w: Workload, seed: u64) -> Vec<(String, u64)> {
    let mut s = setup(w, seed, 1, 0.0, None).expect("system sets up");
    let mut gen = OpGen::new(w, seed);
    let mut tr = Tracer::new();
    let root = tr.open("test", None, None);
    let mut failed = 0;
    let win = traced_window(&mut s.sys, &mut gen, ops(w), &mut tr, root, &mut failed);
    assert_eq!(failed, 0, "{}: every op output checks", w.name());
    let delta = win.end.since(&win.start);
    let mut out: Vec<(String, u64)> = names().into_iter().zip(delta.0).collect();
    out.push((
        "os-sim.resident_frames.end".into(),
        win.end
            .get(autarky_hostbench::counters::idx("os-sim.resident_frames")),
    ));
    out
}

#[test]
fn same_seed_gives_identical_simulated_counts() {
    for w in Workload::ALL {
        let a = counts(w, 7);
        let b = counts(w, 7);
        assert_eq!(a, b, "{}", w.name());
        let ops_done = |c: &[(String, u64)]| {
            c.iter()
                .find(|(n, _)| n == "sgx-sim.sim_cycles")
                .map_or(0, |(_, v)| *v)
        };
        assert!(
            ops_done(&a) > 0,
            "{}: the window did simulated work",
            w.name()
        );
    }
}

#[test]
fn each_workload_reaches_its_layer() {
    let get =
        |c: &[(String, u64)], name: &str| c.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
    let spell = counts(Workload::SpellSgx1, 3);
    assert!(get(&spell, "sgx-sim.ewbs") > 0 && get(&spell, "sgx-sim.eldus") > 0);
    let oram = counts(Workload::KvOram, 3);
    assert!(get(&oram, "oram.accesses") > 0);
    assert_eq!(
        get(&oram, "sgx-sim.faults"),
        0,
        "kv-oram bypasses the fault path"
    );
    let sgx2 = counts(Workload::KvSgx2Writes, 3);
    assert!(get(&sgx2, "sgx-sim.eaugs") > 0 && get(&sgx2, "runtime.pages_evicted") > 0);
    assert_eq!(
        get(&sgx2, "sgx-sim.ewbs"),
        0,
        "SGXv2 seals pages in software"
    );
    let font = counts(Workload::FontPinned, 3);
    assert_eq!(get(&font, "sgx-sim.faults"), 0);
    assert_eq!(get(&font, "oram.accesses"), 0);
}

#[test]
fn seed_picks_the_op_stream() {
    for w in Workload::ALL {
        let stream = |seed| {
            let mut g = OpGen::new(w, seed);
            (0..50).map(|_| g.next_op()).collect::<Vec<Op>>()
        };
        assert_eq!(stream(1), stream(1), "{}", w.name());
        assert_ne!(stream(1), stream(2), "{}", w.name());
        assert_ne!(stream(1), stream(HELD_OUT_SEED), "{}", w.name());
    }
}

#[test]
fn checks_reject_wrong_outputs() {
    let mut s = setup(Workload::KvSgx2Writes, 5, 1, 0.0, None).expect("set-up");
    let sys = &mut s.sys;
    let key = 3;
    let loaded = KvStore::value_for(key, KV_VALUE);
    assert!(sys.check(&Op::Get { key }, Output::Value(Some(loaded.clone()))));
    assert!(!sys.check(&Op::Get { key }, Output::Value(None)));
    let value = vec![0xEE; KV_VALUE];
    let set = Op::Set {
        key,
        value: value.clone(),
    };
    let out = sys.call(&set).expect("set");
    assert!(sys.check(&set, out));
    assert!(
        !sys.check(&Op::Get { key }, Output::Value(Some(loaded))),
        "a stale read after a SET is wrong"
    );
    let out = sys.call(&Op::Get { key }).expect("get");
    assert!(sys.check(&Op::Get { key }, out), "read-your-writes");

    let mut gen = OpGen::new(Workload::SpellSgx1, 5);
    for _ in 0..200 {
        if let Op::Check { word, expect } = gen.next_op() {
            assert_eq!(
                expect,
                !word.bytes().any(|b| b.is_ascii_digit()),
                "misses, and only misses, carry a digit"
            );
        }
    }

    let mut f = setup(Workload::FontPinned, 5, 1, 0.0, None).expect("set-up");
    let line = Op::Render {
        line: "ab".repeat(32),
    };
    let out = f.sys.call(&line).expect("render");
    assert!(f.sys.check(&line, out));
    let other = Op::Render {
        line: "ba".repeat(32),
    };
    assert!(
        !f.sys.check(&other, Output::Done),
        "bitmaps of a line not rendered do not match"
    );
}
