//! A snapshot document is input from outside the process: whatever its
//! bytes, `EngineSnapshot::from_json_str` answers with a snapshot an
//! engine can run on, or with an error — never a panic, neither while
//! parsing nor in the rounds after the restore.

use std::sync::OnceLock;

use proptest::prelude::*;

use lagover_core::node::{Constraints, Population};
use lagover_core::{Algorithm, ConstructionConfig, Engine, EngineSnapshot, OracleKind, Overlay};
use lagover_jsonio::Json;
use lagover_sim::FaultPlan;

/// Two valid 6-peer snapshots: two rounds into a Greedy construction,
/// with referrals in flight; and a converged Hybrid overlay one round
/// after a crash inside it, with message loss and a blackout.
fn snapshots() -> &'static [String; 2] {
    static SNAPSHOTS: OnceLock<[String; 2]> = OnceLock::new();
    SNAPSHOTS.get_or_init(|| {
        let population = Population::new(
            2,
            vec![
                Constraints::new(2, 1),
                Constraints::new(2, 2),
                Constraints::new(1, 2),
                Constraints::new(0, 3),
                Constraints::new(1, 3),
                Constraints::new(0, 4),
            ],
        );
        let config = |algorithm| ConstructionConfig::new(algorithm, OracleKind::RandomDelay);

        let mut early = Engine::new(&population, &config(Algorithm::Greedy), 7);
        early.step();
        early.step();

        let mut crashed = Engine::new(&population, &config(Algorithm::Hybrid), 7);
        crashed.run_to_convergence().expect("converges");
        let round = crashed.round().get();
        crashed.set_faults(
            FaultPlan::none()
                .with_message_loss(0.1)
                .with_blackout(round + 2, 2),
        );
        let interior = population
            .peer_ids()
            .find(|&p| !crashed.overlay().children(p).is_empty())
            .expect("a converged overlay has an interior");
        crashed.inject_crash(interior);
        crashed.step();

        [early, crashed].map(|engine| engine.snapshot().to_json_string())
    })
}

/// Parses `text` and, if it parses, restores it, steps five rounds and
/// reads every probe.
fn restores_and_runs(text: &str) {
    if let Ok(snapshot) = EngineSnapshot::from_json_str(text) {
        let mut engine = Engine::restore(snapshot);
        for _ in 0..5 {
            engine.step();
        }
        engine.health_sample();
    }
}

/// Every entry of every container in `doc` — array element or object
/// key: the path of child indices down to its container, and its index
/// there — split into `(elements, keys)`.
fn entries(doc: &Json, path: &mut Vec<usize>, out: &mut Entries) {
    let children: Vec<&Json> = match doc {
        Json::Array(items) => {
            out.0.extend((0..items.len()).map(|i| (path.clone(), i)));
            items.iter().collect()
        }
        Json::Object(fields) => {
            out.1.extend((0..fields.len()).map(|i| (path.clone(), i)));
            fields.iter().map(|(_, v)| v).collect()
        }
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        entries(child, path, out);
        path.pop();
    }
}

/// Array elements and object keys, as [`entries`] lists them.
type Entries = (Vec<(Vec<usize>, usize)>, Vec<(Vec<usize>, usize)>);

/// `doc` without entry `i` of the container at `path`.
fn without(doc: &Json, path: &[usize], i: usize) -> Json {
    let mut doc = doc.clone();
    let mut cur = &mut doc;
    for &step in path {
        cur = match cur {
            Json::Array(items) => &mut items[step],
            Json::Object(fields) => &mut fields[step].1,
            _ => unreachable!("paths lead through containers"),
        };
    }
    match cur {
        Json::Array(items) => drop(items.remove(i)),
        Json::Object(fields) => drop(fields.remove(i)),
        _ => unreachable!("paths end at containers"),
    }
    doc
}

/// The key names down to entry `i` of the container at `path`, for
/// messages: `overlay.horizon`, `proto.3.referral`.
fn key_path(doc: &Json, path: &[usize], i: usize) -> String {
    let mut names = Vec::new();
    let mut cur = doc;
    for &step in path.iter().chain([&i]) {
        match cur {
            Json::Array(items) => {
                names.push(step.to_string());
                cur = &items[step];
            }
            Json::Object(fields) => {
                names.push(fields[step].0.clone());
                cur = &fields[step].1;
            }
            _ => unreachable!("paths lead through containers"),
        }
    }
    names.join(".")
}

/// `text` without element `i` of its top-level field `field`.
fn dropping(text: &str, field: &[&str], i: usize) -> String {
    let doc = lagover_jsonio::parse(text).expect("a valid snapshot parses");
    let mut path = Vec::new();
    let mut cur = &doc;
    for name in field {
        let Json::Object(fields) = cur else {
            unreachable!("snapshots are objects")
        };
        let at = fields.iter().position(|(k, _)| k == name).expect("field");
        path.push(at);
        cur = &fields[at].1;
    }
    without(&doc, &path, i).to_string_compact()
}

#[test]
fn a_short_per_peer_array_is_an_error() {
    let text = &snapshots()[1];
    for field in [
        &["overlay", "root"][..],
        &["overlay", "parent"],
        &["overlay", "hops"],
        &["overlay", "fanout"],
        &["online"],
        &["crash_silent"],
    ] {
        let err = EngineSnapshot::from_json_str(&dropping(text, field, 5));
        assert!(err.is_err(), "{field:?} one short parsed");
    }
}

#[test]
fn a_crashed_peer_marked_online_is_an_error() {
    let mut doc = lagover_jsonio::parse(&snapshots()[1]).expect("a valid snapshot parses");
    let Json::Object(fields) = &mut doc else {
        unreachable!("snapshots are objects")
    };
    let field = |fields: &[(String, Json)], name: &str| {
        fields.iter().position(|(k, _)| k == name).expect("field")
    };
    let crashed = fields[field(fields, "crashed")]
        .1
        .as_array()
        .expect("flags");
    let victim = crashed
        .iter()
        .position(|flag| flag.as_bool() == Ok(true))
        .expect("a victim");
    let online = field(fields, "online");
    let Json::Array(online) = &mut fields[online].1 else {
        unreachable!("flags are arrays")
    };
    online[victim] = Json::Bool(true);
    assert!(EngineSnapshot::from_json_str(&doc.to_string_compact()).is_err());
}

#[test]
fn dropping_any_one_array_element_parses_to_an_error_or_runs() {
    for text in snapshots() {
        let doc = lagover_jsonio::parse(text).expect("a valid snapshot parses");
        let mut all = Entries::default();
        entries(&doc, &mut Vec::new(), &mut all);
        for (path, i) in all.0 {
            restores_and_runs(&without(&doc, &path, i).to_string_compact());
        }
    }
}

/// `from_json` reads exactly what `to_json` writes: a snapshot taken
/// after a crash restores byte-equal, and without any one of its keys —
/// at the top level, in the config, the overlay, a peer's protocol
/// state, the counters or anywhere else — it is an error, not a
/// document read with a default.
#[test]
fn a_snapshot_document_has_one_shape() {
    let text = &snapshots()[1];
    let snapshot = EngineSnapshot::from_json_str(text).expect("a valid snapshot parses");
    assert_eq!(&Engine::restore(snapshot).snapshot().to_json_string(), text);
    let doc = lagover_jsonio::parse(text).expect("a valid snapshot parses");
    let mut all = Entries::default();
    entries(&doc, &mut Vec::new(), &mut all);
    assert!(all.1.len() > 50, "{} keys", all.1.len());
    for (path, i) in all.1 {
        let missing = without(&doc, &path, i).to_string_compact();
        assert!(
            EngineSnapshot::from_json_str(&missing).is_err(),
            "parsed without {}",
            key_path(&doc, &path, i)
        );
    }
}

/// The value at `keys` below `doc`'s top-level object.
fn at<'a>(doc: &'a mut Json, keys: &[&str]) -> &'a mut Json {
    keys.iter().fold(doc, |cur, key| match cur {
        Json::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect("field").1,
        _ => unreachable!("snapshots are objects"),
    })
}

/// A child list that names a child twice holds a ghost entry: both
/// carry the child's backlink, so only a duplicate check can see it, and
/// it pins a slot the sufficiency bound counts on. A document is input
/// from outside, so the ghost is an error there — in a peer's list or
/// the source's, in a snapshot or in an overlay document alone — while
/// the same document with only the room for it parses.
#[test]
fn a_child_listed_twice_is_an_error() {
    let mut roomy = lagover_jsonio::parse(&snapshots()[1]).expect("a valid snapshot parses");
    let Json::Array(fanouts) = at(&mut roomy, &["overlay", "fanout"]) else {
        unreachable!("fanouts are an array")
    };
    for f in fanouts.iter_mut() {
        *f = Json::U64(f.as_u64().expect("a fanout") + 1);
    }
    let source_fanout = at(&mut roomy, &["overlay", "source_fanout"]);
    *source_fanout = Json::U64(source_fanout.as_u64().expect("a fanout") + 1);
    let text = roomy.to_string_compact();
    assert!(
        EngineSnapshot::from_json_str(&text).is_ok(),
        "one more slot each"
    );

    let peers = at(&mut roomy, &["overlay", "children"])
        .as_array()
        .unwrap()
        .len();
    let mut ghosts = 0;
    for owner in std::iter::once(None).chain((0..peers).map(Some)) {
        let mut doc = roomy.clone();
        let list = match owner {
            None => at(&mut doc, &["overlay", "source_children"]),
            Some(i) => match at(&mut doc, &["overlay", "children"]) {
                Json::Array(lists) => &mut lists[i],
                _ => unreachable!("lists are arrays"),
            },
        };
        let Json::Array(list) = list else {
            unreachable!("lists are arrays")
        };
        let Some(first) = list.first().cloned() else {
            continue;
        };
        list.push(first);
        ghosts += 1;
        let err = EngineSnapshot::from_json_str(&doc.to_string_compact())
            .expect_err("a snapshot with a ghost entry");
        assert!(err.to_string().contains("twice"), "{owner:?}: {err}");
        let overlay = at(&mut doc, &["overlay"]).to_string_compact();
        let err = lagover_jsonio::from_str::<Overlay>(&overlay)
            .expect_err("an overlay document with a ghost entry");
        assert!(err.to_string().contains("twice"), "{owner:?}: {err}");
    }
    assert!(
        ghosts >= 2,
        "the source and at least one peer list children"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn a_snapshot_with_one_byte_flipped_parses_to_an_error_or_runs(
        which in 0usize..2,
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = snapshots()[which].clone().into_bytes();
        let i = at % bytes.len();
        bytes[i] ^= flip;
        if let Ok(text) = String::from_utf8(bytes) {
            restores_and_runs(&text);
        }
    }
}
