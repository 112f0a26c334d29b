//! The wire format is one rule per type: `#[derive(Deserialize)]` is the
//! exact inverse of `#[derive(Serialize)]`. Every value round-trips, and
//! every value of another shape (a missing, unknown or repeated key, an
//! out-of-range or mistyped number, an unknown variant, a tuple of the
//! wrong length) decodes to `None` without panicking.

use doxing_repro::core::monitor::{AccountHistory, Schedule};
use doxing_repro::core::study::{Study, StudyConfig};
use doxing_repro::engine::checkpoint::SessionCheckpoint;
use doxing_repro::engine::dedup::DuplicateKind;
use doxing_repro::engine::Engine;
use doxing_repro::fault::{FaultDomain, StoreKillPoint};
use doxing_repro::obs::Registry;
use doxing_repro::osn::account::{AccountId, AccountStatus};
use doxing_repro::osn::clock::SimTime;
use doxing_repro::osn::network::Network;
use doxing_repro::osn::scraper::Observation;
use doxing_repro::sites::collect::CollectedDoc;
use proptest::collection::vec;
use proptest::prelude::*;
use serde::value::{Number, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::net::Ipv4Addr;
use std::ops::ControlFlow;
use std::sync::OnceLock;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtype(u32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(u8, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Plain,
    Wrapped(Newtype),
    Both(u16, String),
    Fields { x: u32, y: Option<bool> },
}

/// One field of every type the derive has to decode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Everything {
    small: u8,
    mid: u16,
    wide: u32,
    big: u64,
    size: usize,
    signed: i64,
    real: f64,
    flag: bool,
    name: String,
    maybe: Option<u16>,
    list: Vec<u8>,
    boxed: Box<Newtype>,
    set: BTreeSet<u64>,
    map: BTreeMap<String, u32>,
    pair_array: [u64; 2],
    ip: Ipv4Addr,
    tuple: (u8, String, bool, u64),
    unit: Unit,
    pair: Pair,
    shapes: Vec<Shape>,
}

fn everything(ints: (u8, u16, u32, u64), signed: i64, real: f64, name: String) -> Everything {
    let (small, mid, wide, big) = ints;
    Everything {
        small,
        mid,
        wide,
        big,
        size: usize::from(mid),
        signed,
        real,
        flag: big % 2 == 0,
        maybe: (small % 3 != 0).then_some(mid),
        list: name.bytes().collect(),
        boxed: Box::new(Newtype(wide)),
        set: [big, u64::from(wide), 7].into_iter().collect(),
        map: [(name.clone(), wide), ("k".to_string(), 0)]
            .into_iter()
            .collect(),
        pair_array: [big, u64::from(small)],
        ip: Ipv4Addr::from(wide),
        tuple: (small, name.clone(), big % 3 == 0, big),
        unit: Unit,
        pair: Pair(small, name.clone()),
        shapes: vec![
            Shape::Plain,
            Shape::Wrapped(Newtype(wide)),
            Shape::Both(mid, name.clone()),
            Shape::Fields {
                x: wide,
                y: (small % 2 == 0).then_some(true),
            },
        ],
        name,
    }
}

fn round_trips<T: Serialize + Deserialize + PartialEq + Debug>(x: &T) {
    assert_eq!(T::from_value(&x.to_value()).as_ref(), Some(x), "{x:?}");
}

fn refused<T: Deserialize + Debug>(value: &Value, what: &str) {
    let decoded = T::from_value(value);
    assert!(decoded.is_none(), "{what} must not decode, got {decoded:?}");
}

fn entries(value: &mut Value) -> &mut Vec<(String, Value)> {
    match value {
        Value::Object(entries) => entries,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn set(value: &mut Value, key: &str, to: Value) {
    for (k, v) in entries(value).iter_mut() {
        if k == key {
            *v = to.clone();
        }
    }
}

fn int(v: u64) -> Value {
    Value::Number(Number::U64(v))
}

/// Every object node in `value`, as a path of child indices.
fn object_paths(value: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&Value> = match value {
        Value::Object(entries) => {
            out.push(path.clone());
            entries.iter().map(|(_, v)| v).collect()
        }
        Value::Array(items) => items.iter().collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        object_paths(child, path, out);
        path.pop();
    }
}

fn node_at<'a>(value: &'a mut Value, path: &[usize]) -> &'a mut Value {
    path.iter().fold(value, |node, &i| match node {
        Value::Object(entries) => &mut entries[i].1,
        Value::Array(items) => &mut items[i],
        other => panic!("path leads through a leaf {other:?}"),
    })
}

/// The documents of a tiny synthetic stream, shared by the properties
/// below.
fn stream() -> &'static [CollectedDoc] {
    static DOCS: OnceLock<Vec<CollectedDoc>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let config = StudyConfig::builder().seed(11).scale(0.002).build();
        let mut docs = Vec::new();
        Study::with_registry(config, Registry::new())
            .synthetic_stream(&mut |_, doc| {
                docs.push(doc);
                ControlFlow::Continue(())
            })
            .expect("stream replays");
        docs
    })
}

/// A session checkpoint taken from a real session: the trained detector
/// over the tiny stream, cut half way.
fn real_checkpoint() -> &'static SessionCheckpoint {
    static CHECKPOINT: OnceLock<SessionCheckpoint> = OnceLock::new();
    CHECKPOINT.get_or_init(|| {
        let config = StudyConfig::builder().seed(11).scale(0.002).build();
        let study = Study::with_registry(config, Registry::new());
        let detector = study.train_detector().expect("detector trains");
        let engine = Engine::builder().shards(3).build().expect("valid config");
        let registry = Registry::new();
        let mut session = engine
            .session_builder()
            .detector(detector)
            .registry(&registry)
            .start()
            .expect("detector set");
        let mut sent = 0;
        study
            .synthetic_stream(&mut |period, doc| {
                session.ingest(period, doc).expect("valid period");
                sent += 1;
                if sent < stream().len() / 2 {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(())
                }
            })
            .expect("stream replays");
        session.checkpoint().expect("folds")
    })
}

#[test]
fn every_collected_doc_of_the_stream_round_trips() {
    let docs = stream();
    assert!(
        docs.iter().any(|d| d.doc.truth.is_dox()),
        "stream has doxes"
    );
    assert!(docs.iter().any(|d| d.doc.deleted_after.is_some()));
    for doc in docs {
        round_trips(doc);
    }
}

#[test]
fn a_real_session_checkpoint_round_trips_byte_identically() {
    let checkpoint = real_checkpoint();
    assert!(checkpoint.detected.iter().any(|d| d.truth.is_some()));
    assert!(checkpoint.detected.iter().any(|d| d.duplicate.is_some()));
    round_trips(checkpoint);
    let json = serde_json::to_string(checkpoint).expect("serializes");
    let parsed: SessionCheckpoint = serde_json::from_str(&json).expect("parses");
    assert_eq!(serde_json::to_string(&parsed).expect("serializes"), json);
    for detected in &checkpoint.detected {
        round_trips(detected);
        round_trips(&detected.extracted);
    }
    for dedup in &checkpoint.dedups {
        round_trips(dedup);
    }
    round_trips(&checkpoint.counters);
}

#[test]
fn a_session_checkpoint_is_refused_on_any_other_shape() {
    let good = real_checkpoint().to_value();
    let mut extra = good.clone();
    entries(&mut extra).push(("spare".to_string(), Value::Null));
    refused::<SessionCheckpoint>(&extra, "an unknown key");
    let mut repeated = good.clone();
    let first = entries(&mut repeated)[1].clone();
    entries(&mut repeated).push(first);
    refused::<SessionCheckpoint>(&repeated, "a repeated key");
    let mut dropped = good;
    entries(&mut dropped).remove(4);
    refused::<SessionCheckpoint>(&dropped, "a missing key");
}

#[test]
fn unit_variants_round_trip() {
    for kind in [
        DuplicateKind::ExactBody,
        DuplicateKind::AccountSet,
        DuplicateKind::Fuzzy,
    ] {
        round_trips(&kind);
    }
    for domain in [
        FaultDomain::Collect,
        FaultDomain::Probe,
        FaultDomain::Comments,
        FaultDomain::Stage,
    ] {
        round_trips(&domain);
    }
    for point in [
        StoreKillPoint::BeforeSegmentWrite,
        StoreKillPoint::BetweenWriteAndSwap,
        StoreKillPoint::AfterManifestSwap,
    ] {
        round_trips(&point);
    }
    round_trips(&Schedule::paper());
    round_trips(&Unit);
    refused::<Unit>(&int(0), "a unit struct from a number");
}

proptest! {
    #[test]
    fn derived_shapes_round_trip(
        ints in (any::<u8>(), any::<u16>(), any::<u32>(), any::<u64>()),
        signed in any::<i64>(),
        real in any::<f64>(),
        name in "[a-z_]{0,12}",
    ) {
        let x = everything(ints, signed, real, name);
        prop_assert_eq!(Everything::from_value(&x.to_value()), Some(x.clone()));
        let json = serde_json::to_string(&x).expect("serializes");
        let parsed: Everything = serde_json::from_str(&json).expect("parses");
        prop_assert_eq!(serde_json::to_string(&parsed).expect("serializes"), json);
    }

    #[test]
    fn other_shapes_decode_to_none(
        ints in (any::<u8>(), any::<u16>(), any::<u32>(), any::<u64>()),
        key in 0usize..20,
        name in "[a-z]{1,8}",
    ) {
        let good = everything(ints, -3, 0.5, name.clone()).to_value();
        let mut dropped = good.clone();
        entries(&mut dropped).remove(key);
        refused::<Everything>(&dropped, "a dropped key");
        let mut added = good.clone();
        entries(&mut added).push((format!("extra_{name}"), Value::Null));
        refused::<Everything>(&added, "an added key");
        let mut repeated = good.clone();
        let copy = entries(&mut repeated)[key].clone();
        entries(&mut repeated).push(copy);
        refused::<Everything>(&repeated, "a repeated key");
        for (field, max) in [("small", u64::from(u8::MAX)), ("mid", u64::from(u16::MAX)), ("wide", u64::from(u32::MAX))] {
            let mut overflow = good.clone();
            set(&mut overflow, field, int(max + 1));
            refused::<Everything>(&overflow, "an overflowing integer");
            let mut negative = good.clone();
            set(&mut negative, field, Value::Number(Number::I64(-1)));
            refused::<Everything>(&negative, "a negative unsigned");
            let mut float = good.clone();
            set(&mut float, field, Value::Number(Number::F64(1.5)));
            refused::<Everything>(&float, "a float in an unsigned field");
        }
        let mut renamed = good.clone();
        set(&mut renamed, "shapes", Value::Array(vec![Value::String("Plane".to_string())]));
        refused::<Everything>(&renamed, "a renamed unit variant");
        let mut renamed = good.clone();
        set(&mut renamed, "unit", Value::Object(vec![("Unit".to_string(), Value::Null)]));
        refused::<Everything>(&renamed, "a unit struct as an object");
        for tuple in ["tuple", "pair", "pair_array"] {
            let mut longer = good.clone();
            let mut shorter = good.clone();
            for (k, v) in entries(&mut longer).iter_mut() {
                if k == tuple {
                    let Value::Array(items) = v else { panic!("{tuple} is an array") };
                    items.push(int(0));
                }
            }
            for (k, v) in entries(&mut shorter).iter_mut() {
                if k == tuple {
                    let Value::Array(items) = v else { panic!("{tuple} is an array") };
                    items.pop();
                }
            }
            refused::<Everything>(&longer, "a longer tuple");
            refused::<Everything>(&shorter, "a shorter tuple");
        }
        let mut two_keys = Shape::Wrapped(Newtype(1)).to_value();
        entries(&mut two_keys).push(("Plain".to_string(), Value::Null));
        refused::<Shape>(&two_keys, "a data variant with two keys");
        refused::<Shape>(&Value::String("Wrapped".to_string()), "a data variant as a string");
        refused::<Shape>(&Value::Object(vec![("Plain".to_string(), Value::Null)]), "a unit variant as an object");
    }

    #[test]
    fn any_object_of_a_collected_doc_refuses_a_repeated_or_unknown_key(
        pick in any::<u64>(),
        node in any::<u64>(),
        entry in any::<u64>(),
    ) {
        let docs = stream();
        let doc = docs[(pick % docs.len() as u64) as usize].to_value();
        let mut paths = Vec::new();
        object_paths(&doc, &mut Vec::new(), &mut paths);
        let path = &paths[(node % paths.len() as u64) as usize];

        let mut repeated = doc.clone();
        let object = entries(node_at(&mut repeated, path));
        let copy = object[(entry % object.len() as u64) as usize].clone();
        object.push(copy);
        refused::<CollectedDoc>(&repeated, "a repeated key");

        let mut added = doc.clone();
        entries(node_at(&mut added, path)).push(("unexpected".to_string(), Value::Bool(true)));
        refused::<CollectedDoc>(&added, "an unknown key");

        let mut dropped = doc.clone();
        let object = entries(node_at(&mut dropped, path));
        object.remove((entry % object.len() as u64) as usize);
        refused::<CollectedDoc>(&dropped, "a missing key");
    }

    #[test]
    fn monitor_histories_round_trip(
        uid in any::<u64>(),
        first in 0u64..1_000_000,
        steps in vec((0u64..20_000, 0u8..3), 0..12),
        network in 0usize..7,
    ) {
        let account = AccountId { network: Network::ALL[network], uid };
        let status = [AccountStatus::Public, AccountStatus::Private, AccountStatus::Inactive];
        let mut at = first;
        let observations: Vec<Observation> = steps
            .iter()
            .map(|&(gap, s)| {
                at += gap;
                Observation { account, at: SimTime(at), status: status[usize::from(s)] }
            })
            .collect();
        let history = AccountHistory { account, first_observed: SimTime(first), observations };
        prop_assert_eq!(AccountHistory::from_value(&history.to_value()), Some(history.clone()));
        let schedule = Schedule { early_days: steps.iter().map(|s| s.0).collect(), repeat_days: uid % 9, horizon_days: first, jitter_minutes: 0 };
        prop_assert_eq!(Schedule::from_value(&schedule.to_value()), Some(schedule.clone()));
    }
}
