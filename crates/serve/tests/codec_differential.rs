//! Differential test of the typed v3 plan-reply reader against the tree
//! codec, which is its oracle and the only writer: the wire must not be
//! able to tell which reader read it. Arbitrary plan replies written by
//! the tree read back through both, and for valid bodies mutated in every
//! way a peer built from another commit (or a hostile one) could produce —
//! fields reordered, dropped, unknown, duplicated, numbers re-tagged,
//! values swapped for junk, bytes flipped or cut — the two decoders
//! return the same value or both refuse. CI also runs this file with
//! `--release`, where the allocation pattern the typed path changes
//! differs from the debug build's.
//!
//! The second half does the same for the JSON framing (v1/v2). There the
//! oracle is the tree path written out below — `serde_json::parse`, the
//! envelope check, then `from_value` — and the typed side is
//! `parse_response_frame`, on bare and tagged lines alike.
//!
//! The last part holds the plan cache's spill records to the same rule:
//! a `PortfolioOutcome` record, written by the tree, read by the typed
//! reader against the tree codec's `CacheValue` default, on real outcomes
//! of zoo networks.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use qsdnn::engine::{AnalyticalPlatform, Mode, Profiler};
use qsdnn::nn::zoo;
use qsdnn::{EpisodeRecord, MemberSummary, Portfolio, PortfolioOutcome, SearchReport};
use qsdnn_serve::protocol::{
    decode_body, decode_response, decode_value, encode_body, parse_response_frame, PlanResponse,
    Response, ResponseFrame, StageTiming, TaggedResponse, TraceInfo, WarmStartInfo,
};
use qsdnn_serve::{CacheValue, ServeError};

const STRINGS: [&str; 7] = [
    "",
    "lenet5",
    "möbilenet",
    "ネット",
    "net🔥v2",
    "qs-dnn(seed=0x1)",
    "a \"quoted\"\n\u{7}line",
];

/// Floats whose bits a lossy codec would not survive: both zeros,
/// subnormals, the extremes, infinities. No NaN — replies are compared
/// with `==` as well as by their bytes.
const FLOATS: [f64; 10] = [
    0.0,
    -0.0,
    5e-324,
    f64::MIN_POSITIVE / 2.0,
    1.25,
    -17.5,
    1e300,
    f64::MAX,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

const COUNTS: [usize; 6] = [
    0,
    1,
    2000,
    u32::MAX as usize,
    i64::MAX as usize + 1,
    usize::MAX,
];

fn string(rng: &mut SmallRng) -> String {
    STRINGS[rng.gen_range(0..STRINGS.len())].to_string()
}

fn float(rng: &mut SmallRng) -> f64 {
    if rng.gen_bool(0.5) {
        FLOATS[rng.gen_range(0..FLOATS.len())]
    } else {
        rng.gen_range(-1e6..1e6)
    }
}

fn count(rng: &mut SmallRng) -> usize {
    if rng.gen_bool(0.5) {
        COUNTS[rng.gen_range(0..COUNTS.len())]
    } else {
        rng.gen_range(0..100_000)
    }
}

fn random_plan(rng: &mut SmallRng, curve_len: usize) -> PlanResponse {
    PlanResponse {
        network: string(rng),
        plan_key: string(rng),
        cache_hit: rng.gen_bool(0.5),
        best: SearchReport {
            method: string(rng),
            network: string(rng),
            best_assignment: (0..rng.gen_range(0..12)).map(|_| count(rng)).collect(),
            best_cost_ms: float(rng),
            episodes: count(rng),
            curve: (0..curve_len)
                .map(|_| EpisodeRecord {
                    episode: count(rng),
                    epsilon: float(rng),
                    cost_ms: float(rng),
                    best_so_far_ms: float(rng),
                })
                .collect(),
            wall_time_ms: float(rng),
        },
        winner: string(rng),
        members: (0..rng.gen_range(0..4))
            .map(|_| MemberSummary {
                label: string(rng),
                best_cost_ms: rng.gen_bool(0.7).then(|| float(rng)),
                episodes: count(rng),
                wall_time_ms: float(rng),
            })
            .collect(),
        vanilla_cost_ms: float(rng),
        warm_start: rng.gen_bool(0.5).then(|| WarmStartInfo {
            donor_key: string(rng),
            donor_network: string(rng),
            donor_distance: float(rng),
            transferred_states: count(rng),
            episodes: count(rng),
        }),
        trace: rng.gen_bool(0.5).then(|| TraceInfo {
            stages: (0..rng.gen_range(0..4))
                .map(|_| StageTiming {
                    stage: string(rng),
                    ms: float(rng),
                })
                .collect(),
            total_ms: float(rng),
        }),
    }
}

/// Both decoders on one body. `Ok` carries the decoded reply re-encoded
/// by the tree codec: equal bytes are equal values down to the sign of a
/// zero and the payload of a NaN, which `==` cannot see.
fn both(body: &[u8]) -> (Result<Vec<u8>, ServeError>, Result<Vec<u8>, ServeError>) {
    let bits = |resp: Response| encode_body(&resp).expect("a decoded reply encodes");
    (
        decode_response(body).map(bits),
        decode_body::<Response>(body).map(bits),
    )
}

/// Asserts the decoders agree on `body`; returns whether they accepted it.
#[track_caller]
fn assert_agree(body: &[u8], what: &str) -> bool {
    match both(body) {
        (Ok(typed), Ok(tree)) => {
            assert!(
                typed == tree,
                "{what}: the decoders accept different values"
            );
            true
        }
        (Err(ServeError::Protocol(m)), Err(_)) => {
            assert!(
                !matches!(decode_response_variant(body), Some(true))
                    || m.starts_with("binary codec error at byte "),
                "{what}: a plan reply's error must name the byte: {m}"
            );
            false
        }
        (typed, tree) => panic!(
            "{what}: typed decode gave {:?}, the tree {:?}",
            typed.map(|b| b.len()),
            tree.map(|b| b.len())
        ),
    }
}

/// Whether `body` opens as `{"Plan": ..}` (the typed decoder's route),
/// if it is long enough to tell.
fn decode_response_variant(body: &[u8]) -> Option<bool> {
    let head = body.get(..13)?;
    Some(head == b"\x08\x01\0\0\0\x04\0\0\0Plan")
}

fn junk(rng: &mut SmallRng, depth: usize) -> Value {
    match rng.gen_range(0..if depth < 3 { 9 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(-rng.gen_range(1..1_000_000i64)),
        3 => Value::UInt(count(rng) as u64),
        4 => Value::Float(float(rng)),
        5 => Value::Float(rng.gen_range(0..50u32) as f64),
        6 => Value::String(string(rng)),
        7 => Value::Array(
            (0..rng.gen_range(0..4))
                .map(|_| junk(rng, depth + 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0..4))
                .map(|_| (string(rng), junk(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// The same number under another tag, where one exists: what a peer
/// whose serializer picks tags differently would send.
fn retag(v: &Value, rng: &mut SmallRng) -> Value {
    match *v {
        Value::UInt(u) if rng.gen_bool(0.5) => Value::Float(u as f64),
        Value::UInt(u) => i64::try_from(u).map_or(Value::UInt(u), Value::Int),
        Value::Float(f) if f.fract() == 0.0 && f.abs() < 1e15 => {
            if f >= 0.0 && rng.gen_bool(0.5) {
                Value::UInt(f as u64)
            } else {
                Value::Int(f as i64)
            }
        }
        Value::Float(f) => Value::Float(f),
        ref other => other.clone(),
    }
}

/// Walks the tree, applying each kind of mutation with probability `rate`
/// per node it could apply to.
fn mutate(v: &mut Value, rng: &mut SmallRng, rate: f64) {
    if rng.gen_bool(rate / 4.0) {
        *v = junk(rng, 0);
        return;
    }
    match v {
        Value::UInt(_) | Value::Float(_) if rng.gen_bool(rate) => *v = retag(v, rng),
        Value::Array(items) => {
            if !items.is_empty() && rng.gen_bool(rate / 2.0) {
                items.remove(rng.gen_range(0..items.len()));
            }
            items.iter_mut().for_each(|item| mutate(item, rng, rate));
        }
        Value::Object(fields) => {
            fields
                .iter_mut()
                .for_each(|(_, value)| mutate(value, rng, rate));
            if rng.gen_bool(rate) {
                // Permute: a Fisher-Yates shuffle.
                for i in (1..fields.len()).rev() {
                    fields.swap(i, rng.gen_range(0..i + 1));
                }
            }
            if !fields.is_empty() && rng.gen_bool(rate) {
                fields.remove(rng.gen_range(0..fields.len()));
            }
            if rng.gen_bool(rate) {
                let at = rng.gen_range(0..fields.len() + 1);
                fields.insert(at, (format!("x-{}", string(rng)), junk(rng, 0)));
            }
            if !fields.is_empty() && rng.gen_bool(rate) {
                // Duplicate a key, before or after the original, with
                // the same value or one of another shape.
                let (key, value) = fields[rng.gen_range(0..fields.len())].clone();
                let value = if rng.gen_bool(0.5) {
                    value
                } else {
                    junk(rng, 0)
                };
                let at = rng.gen_range(0..fields.len() + 1);
                fields.insert(at, (key, value));
            }
        }
        _ => {}
    }
}

/// Adds unknown fields (which the typed decoder skips rather than
/// builds) to about one object in three, leaving the reply's value alone.
fn add_unknown_fields(v: &mut Value, rng: &mut SmallRng) {
    match v {
        Value::Array(items) => items.iter_mut().for_each(|i| add_unknown_fields(i, rng)),
        Value::Object(fields) => {
            fields
                .iter_mut()
                .for_each(|(_, value)| add_unknown_fields(value, rng));
            if rng.gen_bool(0.3) {
                let at = rng.gen_range(0..fields.len() + 1);
                fields.insert(at, (format!("x-{}", string(rng)), junk(rng, 0)));
            }
        }
        _ => {}
    }
}

/// A plan as the `Value` object the derive serializes it to.
fn plan_tree(plan: &PlanResponse) -> Value {
    plan.serialize()
}

/// The body of `{"Plan": plan}`, through the tree encoder.
fn wrap(plan: Value) -> Vec<u8> {
    encode_body(&Value::Object(vec![("Plan".to_string(), plan)])).expect("encode")
}

/// The value at `path` under `v`: object keys, and indices into arrays.
fn at<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(v, |v, step| match v {
        Value::Object(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == step)
            .map_or_else(|| panic!("no field {step}"), |(_, v)| v),
        Value::Array(items) => &mut items[step.parse::<usize>().expect("array index")],
        other => panic!("cannot step to {step} in {other:?}"),
    })
}

/// The fields of the object at `path`.
fn fields_at<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Vec<(String, Value)> {
    match at(v, path) {
        Value::Object(fields) => fields,
        other => panic!("{path:?} is {other:?}, not an object"),
    }
}

/// One plan with every optional part present, so each targeted mutation
/// below has a site.
fn full_plan() -> PlanResponse {
    let mut rng = SmallRng::seed_from_u64(23);
    let mut plan = random_plan(&mut rng, 3);
    plan.members = vec![MemberSummary {
        label: "pbqp".into(),
        best_cost_ms: Some(1.5),
        episodes: 7,
        wall_time_ms: 0.25,
    }];
    plan.warm_start = Some(WarmStartInfo {
        donor_key: "00aa".into(),
        donor_network: "lenet5".into(),
        donor_distance: 0.5,
        transferred_states: 42,
        episodes: 250,
    });
    plan.trace = Some(TraceInfo {
        stages: vec![StageTiming {
            stage: "search".into(),
            ms: 12.0,
        }],
        total_ms: 13.0,
    });
    plan
}

/// Every object in [`full_plan`]'s tree, one of each kind.
const OBJECTS: [&[&str]; 7] = [
    &[],
    &["best"],
    &["best", "curve", "2"],
    &["members", "0"],
    &["warm_start"],
    &["trace"],
    &["trace", "stages", "0"],
];

fn decoded(body: &[u8]) -> PlanResponse {
    assert!(assert_agree(body, "targeted mutation"), "both must accept");
    match decode_response(body).expect("accepted") {
        Response::Plan(plan) => plan,
        other => panic!("decoded as {other:?}"),
    }
}

#[test]
fn empty_and_5000_point_curves_are_byte_identical_and_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(5000);
    for curve_len in [0, 1, 5000] {
        let resp = Response::Plan(random_plan(&mut rng, curve_len));
        let body = encode_body(&resp).expect("tree encode");
        let typed = decode_response(&body).expect("typed decode");
        assert!(encode_body(&typed).expect("re-encode") == body);
        assert_eq!(typed, resp);
        assert_eq!(decode_body::<Response>(&body).expect("tree decode"), resp);
    }
}

#[test]
fn every_other_variant_still_rides_the_tree() {
    for resp in [
        Response::Pong { version: 3 },
        Response::Error {
            message: "nope".into(),
        },
    ] {
        let body = encode_body(&resp).expect("encode");
        assert_eq!(decode_response(&body).expect("decode"), resp);
    }
}

#[test]
fn fields_in_any_order_decode_to_the_same_reply() {
    let plan = full_plan();
    let mut tree = plan_tree(&plan);
    for path in OBJECTS {
        fields_at(&mut tree, path).reverse();
    }
    assert_eq!(decoded(&wrap(tree)), plan);
}

#[test]
fn a_dropped_default_field_defaults_and_a_dropped_mandatory_one_refuses() {
    let plan = full_plan();
    // Per object, in `OBJECTS` order: its fields and whether the derive
    // defaults each.
    let fields: [&[(&str, bool)]; 7] = [
        &[
            ("network", true),
            ("plan_key", true),
            ("cache_hit", true),
            ("best", false),
            ("winner", true),
            ("members", true),
            ("vanilla_cost_ms", true),
            ("warm_start", true),
            ("trace", true),
        ],
        &[
            ("method", false),
            ("network", false),
            ("best_assignment", false),
            ("best_cost_ms", false),
            ("episodes", false),
            ("curve", false),
            ("wall_time_ms", false),
        ],
        &[
            ("episode", false),
            ("epsilon", false),
            ("cost_ms", false),
            ("best_so_far_ms", false),
        ],
        &[
            ("label", false),
            ("best_cost_ms", false),
            ("episodes", true),
            ("wall_time_ms", false),
        ],
        &[
            ("donor_key", true),
            ("donor_network", true),
            ("donor_distance", true),
            ("transferred_states", true),
            ("episodes", true),
        ],
        &[("stages", true), ("total_ms", true)],
        &[("stage", true), ("ms", true)],
    ];
    for (path, fields) in OBJECTS.into_iter().zip(fields) {
        assert_eq!(
            fields_at(&mut plan_tree(&plan), path).len(),
            fields.len(),
            "{path:?}: this table is missing a field"
        );
        for (field, defaulted) in fields {
            let mut tree = plan_tree(&plan);
            fields_at(&mut tree, path).retain(|(k, _)| k != field);
            let accepted = assert_agree(&wrap(tree), &format!("{path:?}.{field} dropped"));
            assert_eq!(accepted, *defaulted, "{path:?}.{field} dropped");
        }
    }
}

/// `plan`'s tree with an unknown field of every tag added to each kind of
/// object in it.
fn with_unknown_fields_of_every_tag(plan: &PlanResponse) -> Value {
    let unknown = [
        Value::Null,
        Value::Bool(false),
        Value::Bool(true),
        Value::Int(-5),
        Value::UInt(u64::MAX),
        Value::Float(-0.0),
        Value::String("ネット".into()),
        Value::Array(vec![Value::Array(vec![]), Value::Int(1)]),
        Value::Object(vec![("k".into(), Value::Object(vec![]))]),
    ];
    let mut tree = plan_tree(plan);
    for path in OBJECTS {
        let fields = fields_at(&mut tree, path);
        for (i, value) in unknown.iter().enumerate() {
            // Interleaved with the known fields, first and last included.
            let at = (2 * i).min(fields.len());
            fields.insert(at, (format!("future_{i}"), value.clone()));
        }
    }
    tree
}

#[test]
fn unknown_fields_of_every_tag_are_skipped() {
    let plan = full_plan();
    assert_eq!(
        decoded(&wrap(with_unknown_fields_of_every_tag(&plan))),
        plan
    );
}

/// Exhaustive where the properties below are random: every byte of a
/// small reply — known fields and skipped unknown ones alike — replaced
/// by every tag value, a count-sized value, and two bytes that break
/// UTF-8, and the body cut at every length.
#[test]
fn no_single_byte_corruption_or_cut_separates_the_decoders() {
    let body = wrap(with_unknown_fields_of_every_tag(&full_plan()));
    let (mut accepted, mut refused) = (0u32, 0u32);
    let mut tally = |ok: bool| if ok { accepted += 1 } else { refused += 1 };
    for at in 0..body.len() {
        tally(assert_agree(&body[..at], &format!("cut at {at}")));
        for byte in (0x00..=0x09).chain([0x40, 0x80, 0xff]) {
            if body[at] != byte {
                let mut damaged = body.clone();
                damaged[at] = byte;
                tally(assert_agree(&damaged, &format!("byte {at} = {byte:#04x}")));
            }
        }
    }
    assert!(accepted > 1000 && refused > 1000, "{accepted} / {refused}");
}

#[test]
fn the_first_of_a_duplicated_key_wins() {
    let plan = full_plan();
    let with = |at_front: bool, key: &str, value: Value| {
        let mut tree = plan_tree(&plan);
        let fields = fields_at(&mut tree, &[]);
        let at = if at_front { 0 } else { fields.len() };
        fields.insert(at, (key.to_string(), value));
        wrap(tree)
    };
    let impostor = || Value::String("impostor".into());
    // A second, different value after the first is ignored, whatever its
    // shape ...
    assert_eq!(decoded(&with(false, "winner", impostor())), plan);
    assert_eq!(decoded(&with(false, "best", Value::Null)), plan);
    // ... and one before it is the one that counts.
    assert_eq!(
        decoded(&with(true, "winner", impostor())).winner,
        "impostor"
    );
    assert_eq!(
        decoded(&with(true, "warm_start", Value::Null)).warm_start,
        None
    );
    // A first `best` of the wrong shape refuses the reply even though a
    // well-formed one follows.
    assert!(!assert_agree(
        &with(true, "best", Value::Null),
        "null best first"
    ));
}

#[test]
fn integral_numbers_decode_under_any_numeric_tag() {
    let plan = full_plan();
    let mut tree = plan_tree(&plan);
    // usize fields as Int and as integral Float, f64 fields as Int/UInt.
    *at(&mut tree, &["best", "curve", "0", "episode"]) = Value::Int(12);
    *at(&mut tree, &["members", "0", "episodes"]) = Value::Float(7.0);
    *at(&mut tree, &["trace", "total_ms"]) = Value::Int(-13);
    *at(&mut tree, &["vanilla_cost_ms"]) = Value::UInt(u64::MAX);
    *at(&mut tree, &["members", "0", "best_cost_ms"]) = Value::UInt(2);
    let got = decoded(&wrap(tree));
    assert_eq!(got.best.curve[0].episode, 12);
    assert_eq!(got.members[0].episodes, 7);
    assert_eq!(got.members[0].best_cost_ms, Some(2.0));
    assert_eq!(got.trace.as_ref().map(|t| t.total_ms), Some(-13.0));
    assert_eq!(got.vanilla_cost_ms, u64::MAX as f64);

    // A count that is negative, fractional, or not a number refuses.
    for bad in [
        Value::Int(-1),
        Value::Float(0.5),
        Value::Float(-1.0),
        Value::Float(f64::NAN),
        Value::Float(1e300),
        Value::String("7".into()),
        Value::Null,
    ] {
        let mut tree = plan_tree(&plan);
        *at(&mut tree, &["best", "episodes"]) = bad.clone();
        assert!(!assert_agree(&wrap(tree), &format!("episodes = {bad:?}")));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both decoders give the tree's reply back, and the typed decoder's
    /// value re-encodes to the same bytes.
    #[test]
    fn arbitrary_plan_replies_are_byte_identical_and_roundtrip(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let curve_len = rng.gen_range(0..40);
        let resp = Response::Plan(random_plan(&mut rng, curve_len));
        let body = encode_body(&resp).expect("tree encode");
        let typed = decode_response(&body).expect("typed decode");
        prop_assert!(encode_body(&typed).expect("re-encode") == body, "seed {}", seed);
        prop_assert_eq!(&typed, &resp);
        prop_assert_eq!(&decode_body::<Response>(&body).expect("tree decode"), &resp);
    }

    /// Valid replies mutated at the tree level — permuted, dropped,
    /// unknown and duplicated fields, re-tagged numbers, junk values —
    /// never separate the decoders.
    #[test]
    fn mutated_plan_replies_never_separate_the_decoders(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7EED_0000);
        let curve_len = rng.gen_range(0..5);
        let mut tree = plan_tree(&random_plan(&mut rng, curve_len));
        let rate = [0.01, 0.03, 0.1][rng.gen_range(0..3usize)];
        mutate(&mut tree, &mut rng, rate);
        assert_agree(&wrap(tree), &format!("seed {seed}"));
    }

    /// ... nor do bodies damaged at the byte level: flipped bytes (tags,
    /// counts, lengths, UTF-8 — in fields the typed decoder builds and
    /// in unknown ones it skips), cuts, and trailing garbage.
    #[test]
    fn damaged_plan_bodies_never_separate_the_decoders(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xDA3A_6ED0);
        let curve_len = rng.gen_range(0..5);
        let mut tree = plan_tree(&random_plan(&mut rng, curve_len));
        add_unknown_fields(&mut tree, &mut rng);
        let mut body = wrap(tree);
        prop_assert!(assert_agree(&body, "undamaged"), "unknown fields are skipped");
        match rng.gen_range(0..4) {
            0 => body.truncate(rng.gen_range(0..body.len())),
            1 => body.extend((0..rng.gen_range(1..9)).map(|_| rng.gen_range(0..9u8))),
            _ => {
                for _ in 0..rng.gen_range(1..6) {
                    let at = rng.gen_range(0..body.len());
                    // Small values land on tags and counts; high ones
                    // break UTF-8.
                    body[at] = match rng.gen_range(0..3) {
                        0 => rng.gen_range(0..10u8),
                        1 => rng.gen_range(0x80..0x100u32) as u8,
                        _ => rng.gen_range(0..0x100u32) as u8,
                    };
                }
            }
        }
        assert_agree(&body, &format!("seed {seed}"));
    }
}

/// The mutation property above means little if every mutant is refused:
/// over the same generator, a fair share must be accepted too.
#[test]
fn the_mutation_generator_produces_both_verdicts() {
    let (mut accepted, mut refused) = (0, 0);
    for seed in 0..400u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tree = plan_tree(&random_plan(&mut rng, 3));
        mutate(&mut tree, &mut rng, 0.03);
        if assert_agree(&wrap(tree), &format!("seed {seed}")) {
            accepted += 1;
        } else {
            refused += 1;
        }
    }
    assert!(accepted >= 40 && refused >= 40, "{accepted} / {refused}");
}

// ---------------------------------------------------------------------------
// The JSON framing
// ---------------------------------------------------------------------------

/// The tree path over one line: parse, the envelope check, `from_value`.
fn tree_frame(line: &str) -> Result<ResponseFrame, String> {
    let v = serde_json::parse(line.trim()).map_err(|e| e.to_string())?;
    let envelope = v
        .as_object()
        .is_some_and(|fields| Value::get_field(fields, "id").is_some());
    if envelope {
        serde_json::from_value::<TaggedResponse>(&v).map(ResponseFrame::Tagged)
    } else {
        serde_json::from_value::<Response>(&v).map(ResponseFrame::Untagged)
    }
    .map_err(|e| e.to_string())
}

/// A decoded line as text: equal text is equal values down to the sign of
/// a zero, which `==` cannot see.
fn frame_text(frame: ResponseFrame) -> String {
    match frame {
        ResponseFrame::Untagged(resp) => serde_json::to_string(&resp),
        ResponseFrame::Tagged(tagged) => serde_json::to_string(&tagged),
    }
    .expect("a decoded reply renders")
}

/// Whether the typed reader takes `line`: it opens as a plan reply.
fn opens_as_plan(line: &str) -> bool {
    let line = line.trim();
    line.starts_with("{\"Plan\":") || line.starts_with("{\"id\":7,\"resp\":{\"Plan\":")
}

/// Asserts the typed reader and the tree agree on `line`; returns whether
/// they accepted it.
#[track_caller]
fn assert_json_agree(line: &str, what: &str) -> bool {
    match (parse_response_frame(line), tree_frame(line)) {
        (Ok(typed), Ok(tree)) => {
            assert!(
                frame_text(typed) == frame_text(tree),
                "{what}: the readers accept different values"
            );
            true
        }
        (Err(ServeError::Protocol(m)), Err(_)) => {
            assert!(
                !opens_as_plan(line) || m.starts_with("JSON codec error at byte "),
                "{what}: a plan line's error must name the byte: {m}"
            );
            false
        }
        (typed, tree) => panic!(
            "{what}: the typed reader gave {:?}, the tree {:?}",
            typed.map(frame_text),
            tree.map(frame_text)
        ),
    }
}

/// The bare and the tagged line of `{"Plan": plan}`, rendered by the
/// tree writer.
fn json_lines(plan: Value) -> [String; 2] {
    let bare =
        serde_json::to_string(&Value::Object(vec![("Plan".to_string(), plan)])).expect("render");
    let tagged = format!("{{\"id\":7,\"resp\":{bare}}}");
    [bare, tagged]
}

/// `v` with every non-finite float replaced: JSON writes those as `null`,
/// so only a finite reply can round-trip.
fn finite(v: &mut Value) {
    match v {
        Value::Float(f) if !f.is_finite() => *f = f.signum() * 1e300,
        Value::Array(items) => items.iter_mut().for_each(finite),
        Value::Object(fields) => fields.iter_mut().for_each(|(_, v)| finite(v)),
        _ => {}
    }
}

/// Rewrites the numbers and whitespace of a JSON text, leaving strings
/// alone: integers gain a fraction or an exponent (`7` → `7.0`, `7e0`,
/// `7E+0`), zeros a sign, and whitespace the parser skips lands between
/// tokens. Every rewrite is one a different but conforming writer could
/// emit.
fn respell(text: &str, rng: &mut SmallRng) -> String {
    const WS: [&str; 5] = [" ", "\t", "\n", "\r", "  \r\n\t"];
    let mut out = String::with_capacity(text.len() * 2);
    let mut chars = text.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            match c {
                '\\' => out.extend(chars.next()),
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        if c.is_ascii_digit() || c == '-' {
            let mut number = String::from(c);
            while let Some(&d) = chars.peek() {
                if !(d.is_ascii_digit() || "+-.eE".contains(d)) {
                    break;
                }
                number.push(d);
                chars.next();
            }
            let integral = number.bytes().all(|b| b.is_ascii_digit() || b == b'-');
            out.push_str(&number);
            if integral && rng.gen_bool(0.3) {
                out.push_str([".0", "e0", "E+0", ".00e-0"][rng.gen_range(0..4usize)]);
            }
            continue;
        }
        if c == '0' && rng.gen_bool(0.2) {
            out.push('-');
        }
        let structural = "{}[],:".contains(c);
        if structural && rng.gen_bool(0.2) {
            out.push_str(WS[rng.gen_range(0..WS.len())]);
        }
        out.push(c);
        if c == '"' {
            in_string = true;
        }
        if structural && rng.gen_bool(0.2) {
            out.push_str(WS[rng.gen_range(0..WS.len())]);
        }
    }
    out
}

/// Escapes characters of a JSON text's strings and keys: ASCII letters
/// as `\u00XX`, a non-BMP character as its surrogate pair, `/` as `\/`.
/// The parser reads every one back to the same string.
fn escape_strings(text: &str, rng: &mut SmallRng) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    let mut chars = text.chars();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if !in_string {
            in_string = c == '"';
            out.push(c);
            continue;
        }
        match c {
            '\\' => {
                out.push(c);
                out.extend(chars.next());
            }
            '"' => {
                in_string = false;
                out.push(c);
            }
            c if c.is_ascii_alphabetic() && rng.gen_bool(0.3) => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c if c as u32 > 0xFFFF => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
            '/' => out.push_str("\\/"),
            c => out.push(c),
        }
    }
    out
}

/// [`full_plan`] made finite, so that JSON carries it whole.
fn full_json_plan() -> PlanResponse {
    let mut tree = plan_tree(&full_plan());
    finite(&mut tree);
    serde_json::from_value(&tree).expect("a finite plan")
}

#[test]
fn empty_and_5000_point_curves_are_json_identical_and_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(5000);
    for curve_len in [0, 1, 5000] {
        let mut tree = plan_tree(&random_plan(&mut rng, curve_len));
        finite(&mut tree);
        let resp = Response::Plan(serde_json::from_value(&tree).expect("a finite plan"));
        let text = serde_json::to_string(&resp).expect("tree encode");
        match parse_response_frame(&text).expect("typed decode") {
            ResponseFrame::Untagged(back) => {
                assert!(serde_json::to_string(&back).expect("re-encode") == text);
                assert_eq!(back, resp);
            }
            other => panic!("a bare reply read as {other:?}"),
        }
    }
}

#[test]
fn every_other_variant_still_rides_the_json_tree() {
    for resp in [
        Response::Pong { version: 3 },
        Response::Error {
            message: "nope \"Plan\"".into(),
        },
    ] {
        let text = serde_json::to_string(&resp).expect("encode");
        for line in [text.clone(), format!("{{\"id\":3,\"resp\":{text}}}")] {
            assert!(assert_json_agree(&line, "control reply"));
        }
    }
}

/// Every targeted mutation of the v3 half, over both JSON lines.
#[test]
fn targeted_json_mutations_agree_with_the_tree() {
    let plan = full_json_plan();
    let mut cases: Vec<(String, Value)> = vec![("as is".into(), plan_tree(&plan))];
    let mut reversed = plan_tree(&plan);
    for path in OBJECTS {
        fields_at(&mut reversed, path).reverse();
    }
    cases.push(("reversed".into(), reversed));
    cases.push(("unknown".into(), with_unknown_fields_of_every_tag(&plan)));
    for path in OBJECTS {
        let count = fields_at(&mut plan_tree(&plan), path).len();
        for i in 0..count {
            let mut dropped = plan_tree(&plan);
            let field = fields_at(&mut dropped, path).remove(i).0;
            cases.push((format!("{path:?}.{field} dropped"), dropped));
            let mut doubled = plan_tree(&plan);
            let fields = fields_at(&mut doubled, path);
            let (key, _) = fields[i].clone();
            fields.insert(0, (key.clone(), Value::String("impostor".into())));
            cases.push((format!("{path:?}.{key} shadowed"), doubled.clone()));
            fields_at(&mut doubled, path).remove(0);
            let fields = fields_at(&mut doubled, path);
            fields.push((key.clone(), Value::Null));
            cases.push((format!("{path:?}.{key} repeated"), doubled));
        }
    }
    for (path, value) in [
        (&["best", "curve", "0", "episode"][..], Value::Float(7.0)),
        (&["best", "episodes"], Value::Int(-1)),
        (&["best", "episodes"], Value::Float(0.5)),
        (&["best", "episodes"], Value::String("7".into())),
        (&["vanilla_cost_ms"], Value::UInt(u64::MAX)),
        (&["members", "0", "best_cost_ms"], Value::Null),
        (&["warm_start"], Value::Null),
        (&["warm_start"], Value::Object(vec![])),
        (&["trace", "stages"], Value::Object(vec![])),
    ] {
        let mut tree = plan_tree(&plan);
        *at(&mut tree, path) = value.clone();
        cases.push((format!("{path:?} = {value:?}"), tree));
    }
    let (mut accepted, mut refused) = (0, 0);
    for (what, tree) in cases {
        for line in json_lines(tree) {
            if assert_json_agree(&line, &what) {
                accepted += 1;
            } else {
                refused += 1;
            }
        }
    }
    assert!(accepted > 60 && refused > 20, "{accepted} / {refused}");
    // The canonical line is accepted, and to the plan itself.
    let [bare, tagged] = json_lines(plan_tree(&plan));
    match parse_response_frame(&bare).expect("bare") {
        ResponseFrame::Untagged(Response::Plan(back)) => assert_eq!(back, plan),
        other => panic!("read as {other:?}"),
    }
    match parse_response_frame(&tagged).expect("tagged") {
        ResponseFrame::Tagged(TaggedResponse {
            id: 7,
            resp: Response::Plan(back),
        }) => assert_eq!(back, plan),
        other => panic!("read as {other:?}"),
    }
}

/// Envelopes the typed reader must hand back to the tree, or read the way
/// the tree reads them: keys in another order or spelling, a plan in an
/// ignored field, ids of every numeric spelling, stray trailing text.
#[test]
fn json_envelopes_agree_with_the_tree() {
    let plan = full_json_plan();
    let [bare, _] = json_lines(plan_tree(&plan));
    let body = &bare;
    let lines = [
        format!("{{\"resp\":{body},\"id\":7}}"),
        format!("{{\"id\":7.0,\"resp\":{body}}}"),
        format!("{{\"id\":7e0,\"resp\":{body}}}"),
        format!("{{\"id\":-7,\"resp\":{body}}}"),
        format!("{{\"id\":\"7\",\"resp\":{body}}}"),
        r#"{"id":7}"#.to_string(),
        format!("{{\"id\":7,\"resp\":{body},\"resp\":null}}"),
        format!("{{\"id\":7,\"resp\":{body},\"extra\":[1,{{}}]}}"),
        r#"{"id":7,"resp":{"Plan":{},"x":1}}"#.to_string(),
        format!("{{\"\\u0069d\":7,\"r\\u0065sp\":{body}}}"),
        r#"{"Plan":{"best":5},"id":7,"resp":{"Pong":{"version":3}}}"#.to_string(),
        format!("{{\"Plan\":{{\"best\":5}},\"id\":7,\"resp\":{body}}}"),
        r#"{"Plan":{},"Plan":{}}"#.to_string(),
        format!("{{\"\\u0050lan\":{}}}", &body[8..body.len() - 1]),
        format!("{body} "),
        format!("\u{a0}{body}\u{85}"),
        format!("{body}}}"),
        format!("{body}x"),
        format!("[{body}]"),
        format!("{{\"id\":7,\"resp\":{body}}}\u{b}"),
        format!("{{\"id\":18446744073709551615,\"resp\":{body}}}"),
        format!("{{\"id\":18446744073709551616,\"resp\":{body}}}"),
    ];
    let accepted = lines
        .iter()
        .filter(|line| assert_json_agree(line, line))
        .count();
    assert!((6..lines.len() - 6).contains(&accepted), "{accepted}");
}

/// An unknown field nested to either side of the parser's depth guard,
/// at the top of a reply and deep inside its curve: skipped the same way
/// the tree skips it, refused where the tree refuses it.
#[test]
fn json_nesting_is_held_to_the_parsers_depth_guard() {
    let plan = full_json_plan();
    let mut verdicts = Vec::new();
    for depth in 118..134 {
        let bomb = "[".repeat(depth) + "null" + &"]".repeat(depth);
        for site in ["\"network\":", "\"episode\":"] {
            for line in json_lines(plan_tree(&plan)) {
                let line = line.replacen(site, &format!("\"future\":{bomb},{site}"), 1);
                verdicts.push(assert_json_agree(&line, &format!("{depth} deep at {site}")));
            }
        }
    }
    assert!(verdicts.contains(&true) && verdicts.contains(&false));
}

/// Exhaustive where the properties below are random: every byte of a
/// small reply's bare line replaced by each of a set of JSON-significant
/// characters, a separator or closer inserted before it, and the line
/// cut at every length.
#[test]
fn no_single_character_corruption_or_cut_separates_the_json_readers() {
    let [line, _] = json_lines(with_unknown_fields_of_every_tag(&full_json_plan()));
    let (mut accepted, mut refused) = (0u32, 0u32);
    let mut tally = |ok: bool| if ok { accepted += 1 } else { refused += 1 };
    for at in 0..=line.len() {
        if let Some(cut) = line.get(..at) {
            tally(assert_json_agree(cut, &format!("cut at {at}")));
        }
        for sub in [
            "\"", "\\", "{", "}", "[", "]", ",", ":", "0", "-", ".", "e", "n", " ", "\u{1}",
        ] {
            let mut damaged = line.as_bytes().to_vec();
            if at == line.len() || damaged[at] == sub.as_bytes()[0] {
                continue;
            }
            damaged[at] = sub.as_bytes()[0];
            if let Ok(damaged) = String::from_utf8(damaged) {
                tally(assert_json_agree(&damaged, &format!("byte {at} = {sub:?}")));
            }
        }
        for extra in [",", "}", "]", "\"", " "] {
            if line.is_char_boundary(at) {
                let mut grown = line.clone();
                grown.insert_str(at, extra);
                tally(assert_json_agree(
                    &grown,
                    &format!("{extra:?} before byte {at}"),
                ));
            }
        }
    }
    assert!(accepted > 200 && refused > 1000, "{accepted} / {refused}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The typed reader agrees with the tree on the tree's text and gives
    /// the reply back, bare and tagged.
    #[test]
    fn arbitrary_plan_replies_are_json_identical_and_roundtrip(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x150A_0000);
        let curve_len = rng.gen_range(0..40);
        let resp = Response::Plan(random_plan(&mut rng, curve_len));
        let text = serde_json::to_string(&resp).expect("tree encode");
        let tagged = format!("{{\"id\":{seed},\"resp\":{text}}}");
        prop_assert_eq!(
            tagged.as_bytes(),
            serde_json::to_vec(&TaggedResponse { id: seed, resp: resp.clone() }).expect("tree")
        );
        for line in [&text, &tagged] {
            assert_json_agree(line, &format!("seed {seed}"));
        }
        let mut tree = plan_tree(match &resp {
            Response::Plan(plan) => plan,
            _ => unreachable!("built as a plan"),
        });
        finite(&mut tree);
        let finite: PlanResponse = serde_json::from_value(&tree).expect("a finite plan");
        let [bare, tagged] = json_lines(tree);
        prop_assert_eq!(
            parse_response_frame(&bare).expect("bare"),
            ResponseFrame::Untagged(Response::Plan(finite.clone()))
        );
        prop_assert_eq!(
            parse_response_frame(&tagged).expect("tagged"),
            ResponseFrame::Tagged(TaggedResponse { id: 7, resp: Response::Plan(finite) })
        );
    }

    /// Replies mutated at the tree level — permuted, dropped, unknown and
    /// duplicated fields, re-tagged numbers, junk values — then respelled
    /// (numbers as `7.0`/`7e0`/`-0`, whitespace between tokens) and with
    /// escaped keys and strings never separate the readers.
    #[test]
    fn mutated_json_replies_never_separate_the_readers(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7EED_150A);
        let curve_len = rng.gen_range(0..5);
        let mut tree = plan_tree(&random_plan(&mut rng, curve_len));
        let rate = [0.0, 0.01, 0.03, 0.1][rng.gen_range(0..4usize)];
        mutate(&mut tree, &mut rng, rate);
        for line in json_lines(tree) {
            let line = if rng.gen_bool(0.5) { respell(&line, &mut rng) } else { line };
            let line = if rng.gen_bool(0.5) { escape_strings(&line, &mut rng) } else { line };
            assert_json_agree(&line, &format!("seed {seed}: {line}"));
        }
    }

    /// ... nor do lines damaged at the character level: replaced
    /// characters, cuts, and trailing garbage.
    #[test]
    fn damaged_json_replies_never_separate_the_readers(seed in 0u64..1_000_000) {
        const JUNK: [char; 14] = ['"', '\\', '{', '}', '[', ']', ',', ':', '0', '-', 'e', ' ', '\u{1}', 'é'];
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xDA3A_150A);
        let curve_len = rng.gen_range(0..5);
        let mut tree = plan_tree(&random_plan(&mut rng, curve_len));
        add_unknown_fields(&mut tree, &mut rng);
        let [bare, tagged] = json_lines(tree);
        let mut line: Vec<char> = if rng.gen_bool(0.5) { bare } else { tagged }.chars().collect();
        match rng.gen_range(0..5) {
            0 => line.truncate(rng.gen_range(0..line.len())),
            1 => line.extend((0..rng.gen_range(1..9)).map(|_| JUNK[rng.gen_range(0..JUNK.len())])),
            2 => {
                for _ in 0..rng.gen_range(1..4) {
                    let at = rng.gen_range(0..line.len() + 1);
                    line.insert(at, JUNK[rng.gen_range(0..JUNK.len())]);
                }
            }
            _ => {
                for _ in 0..rng.gen_range(1..6) {
                    let at = rng.gen_range(0..line.len());
                    line[at] = JUNK[rng.gen_range(0..JUNK.len())];
                }
            }
        }
        let line: String = line.into_iter().collect();
        assert_json_agree(&line, &format!("seed {seed}: {line}"));
    }
}

/// The JSON mutation property above means little if every mutant is
/// refused: over the same generator, a fair share must be accepted too.
#[test]
fn the_json_mutation_generator_produces_both_verdicts() {
    let (mut accepted, mut refused) = (0, 0);
    for seed in 0..400u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tree = plan_tree(&random_plan(&mut rng, 3));
        mutate(&mut tree, &mut rng, 0.03);
        let [line, _] = json_lines(tree);
        let line = escape_strings(&respell(&line, &mut rng), &mut rng);
        if assert_json_agree(&line, &format!("seed {seed}")) {
            accepted += 1;
        } else {
            refused += 1;
        }
    }
    assert!(accepted >= 40 && refused >= 40, "{accepted} / {refused}");
}

// ---------------------------------------------------------------------------
// Spill records
// ---------------------------------------------------------------------------

/// The spill tier through the tree codec: a newtype serializes as the
/// outcome it wraps and keeps `CacheValue`'s default (tree) reader.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ViaTree(PortfolioOutcome);

impl CacheValue for ViaTree {}

/// Real outcomes of three zoo networks, one of them branchy. tiny_cnn at
/// 400 episodes is won by a QS-DNN member, so its outcome carries a
/// 400-record curve; the other two are won by an exact solver.
fn zoo_outcomes() -> Vec<PortfolioOutcome> {
    [("tiny_cnn", 400), ("lenet5", 200), ("toy_branchy", 200)]
        .into_iter()
        .map(|(network, episodes)| {
            let net = zoo::by_name(network, 1).expect("zoo network");
            let lut =
                Profiler::with_repeats(AnalyticalPlatform::tx2(), 2).profile(&net, Mode::Gpgpu);
            Portfolio::paper_default(episodes, &[1, 2])
                .run_sequential(&lut)
                .expect("applicable")
        })
        .collect()
}

/// A spill record around `body`, its layout written out by hand: the
/// checksum is FNV-1a-64 over little-endian `u64` words, then over the
/// tail bytes.
fn seal(body: &[u8]) -> Vec<u8> {
    let mut checksum: u64 = 0xcbf2_9ce4_8422_2325;
    let mut at = 0;
    while at < body.len() {
        let unit = if body.len() - at >= 8 {
            let word = u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
            at += 8;
            word
        } else {
            at += 1;
            u64::from(body[at - 1])
        };
        checksum = (checksum ^ unit).wrapping_mul(0x100_0000_01b3);
    }
    let mut record = b"QSPL".to_vec();
    record.extend_from_slice(&2u32.to_le_bytes());
    record.extend_from_slice(&(body.len() as u64).to_le_bytes());
    record.extend_from_slice(&checksum.to_le_bytes());
    record.extend_from_slice(body);
    record
}

/// Both spill decoders on one record, each decoded outcome re-encoded by
/// the tree codec so that equal means equal down to the bits.
fn both_spill(record: &[u8]) -> (Option<Vec<u8>>, Option<Vec<u8>>) {
    let bits = |o: PortfolioOutcome| encode_body(&o).expect("a decoded outcome encodes");
    (
        PortfolioOutcome::from_spill(record).map(bits),
        ViaTree::from_spill(record).map(|t| bits(t.0)),
    )
}

#[test]
fn typed_spill_records_are_the_trees_and_decode_to_its_outcome() {
    let outcomes = zoo_outcomes();
    assert!(
        outcomes.iter().any(|o| o.best.curve.len() == 400),
        "one outcome carries its whole curve"
    );
    for outcome in outcomes {
        let what = outcome.best.network.clone();
        let record = outcome.to_spill().expect("tree encode");
        assert_eq!(record, seal(&encode_body(&outcome).unwrap()), "{what}");
        let back = PortfolioOutcome::from_spill(&record).expect("typed decode");
        let tree = ViaTree::from_spill(&record).expect("tree decode").0;
        assert_eq!(back, tree, "{what}");
        assert_eq!(back, outcome, "{what}");
    }
}

/// Past the checksum the typed reader is held to the tree: bodies whose
/// fields come in another order, or that are cut or have a byte replaced
/// and are then sealed again, decode to the same outcome or are refused
/// by both. Every position of the two curve-less bodies, and every 577th
/// of the long one (a prime stride, so the positions land on every field
/// of a curve record).
#[test]
fn resealed_spill_bodies_never_separate_the_decoders() {
    let (mut accepted, mut refused) = (0u32, 0u32);
    for outcome in zoo_outcomes() {
        let body = encode_body(&outcome).unwrap();
        let Value::Object(mut fields) = decode_value(&body).unwrap() else {
            panic!("an outcome is an object");
        };
        fields.reverse();
        let reordered = seal(&encode_body(&Value::Object(fields)).unwrap());
        let (typed, tree) = both_spill(&reordered);
        assert!(typed.is_some() && typed == tree, "fields reversed");

        let stride = if body.len() > 4096 { 577 } else { 1 };
        for at in (0..body.len()).step_by(stride) {
            let mut check = |damaged: &[u8], what: &str| {
                let (typed, tree) = both_spill(&seal(damaged));
                assert!(typed == tree, "{}: {what}", outcome.best.network);
                if typed.is_some() {
                    accepted += 1;
                } else {
                    refused += 1;
                }
            };
            check(&body[..at], &format!("cut at {at}"));
            for byte in (0x00..=0x09).chain([0x40, 0xff]) {
                if body[at] != byte {
                    let mut damaged = body.clone();
                    damaged[at] = byte;
                    check(&damaged, &format!("byte {at} = {byte:#04x}"));
                }
            }
        }
    }
    assert!(accepted > 500 && refused > 500, "{accepted} / {refused}");
}
