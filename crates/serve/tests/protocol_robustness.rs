//! Protocol-robustness properties: nothing a client can put on the wire
//! panics the engine or wedges the connection — the DESIGN.md §12 panic
//! policy extended to the transport. Every malformed input yields a
//! structured `ErrorReply`, and the stream keeps serving wherever it can
//! resynchronize.

use macgame_core::queries::Query;
use macgame_dcf::AccessMode;
use macgame_serve::frame::{write_frame, MAX_FRAME_LEN};
use macgame_serve::{ErrorKind, Reply, ServeHarness};
use proptest::prelude::*;

fn harness() -> ServeHarness {
    ServeHarness::new().unwrap()
}

fn valid_queries() -> Vec<Query> {
    vec![
        Query::WcStar { players: 3, mode: AccessMode::Basic, w_max: 256 },
        Query::NeInterval { players: 4, mode: AccessMode::RtsCts, w_max: 256 },
    ]
}

/// Every reply on the wire must parse back as a `Reply` — the engine
/// never emits partial or corrupt frames, whatever it was fed.
fn assert_all_replies_parse(wire: &[u8]) -> Vec<Reply> {
    ServeHarness::decode_replies(wire).expect("engine output must always be well-formed frames")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_bytes_never_panic_the_engine(
        garbage in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let h = harness();
        let out = h.roundtrip_raw(&garbage).unwrap();
        // Whatever came back is a sequence of well-formed reply frames.
        let replies = assert_all_replies_parse(&out);
        for reply in &replies {
            prop_assert!(!reply.is_ok(), "garbage input cannot produce an Ok reply");
        }
    }

    #[test]
    fn arbitrary_bytes_then_valid_frame_still_get_served(
        garbage in prop::collection::vec(0u8..=255, 1..64),
    ) {
        // Frame the garbage properly so only the *payload* is malformed:
        // the stream stays frame-aligned and must recover.
        let h = harness();
        let mut wire = Vec::new();
        write_frame(&mut wire, &garbage).unwrap();
        wire.extend_from_slice(&ServeHarness::encode_batch(&valid_queries()).unwrap());
        let replies = assert_all_replies_parse(&h.roundtrip_raw(&wire).unwrap());
        prop_assert_eq!(replies.len(), 1 + valid_queries().len());
        prop_assert!(!replies[0].is_ok(), "garbage payload must yield an error reply");
        for reply in &replies[1..] {
            prop_assert!(reply.is_ok(), "connection must stay usable after a bad frame");
        }
    }

    #[test]
    fn truncated_frames_yield_a_structured_error(
        declared in 1u32..1024,
        keep in 0usize..512,
    ) {
        let h = harness();
        let mut wire = Vec::new();
        wire.extend_from_slice(&declared.to_be_bytes());
        // Strictly fewer payload bytes than declared: a truncated stream.
        let keep = keep.min(declared as usize - 1);
        wire.extend_from_slice(&vec![0x7B; keep]);
        let replies = assert_all_replies_parse(&h.roundtrip_raw(&wire).unwrap());
        prop_assert_eq!(replies.len(), 1);
        let Reply::Error { id, error } = &replies[0] else {
            panic!("expected an error reply");
        };
        prop_assert_eq!(*id, None);
        prop_assert_eq!(error.kind, ErrorKind::TruncatedFrame);
    }

    #[test]
    fn oversized_prefixes_are_skipped_and_the_stream_resyncs(
        excess in 1usize..4096,
    ) {
        let h = harness();
        let declared = MAX_FRAME_LEN + excess;
        let mut wire = Vec::new();
        wire.extend_from_slice(&(declared as u32).to_be_bytes());
        wire.extend_from_slice(&vec![0xAB; declared]);
        wire.extend_from_slice(&ServeHarness::encode_batch(&valid_queries()).unwrap());
        let replies = assert_all_replies_parse(&h.roundtrip_raw(&wire).unwrap());
        prop_assert_eq!(replies.len(), 1 + valid_queries().len());
        let Reply::Error { error, .. } = &replies[0] else {
            panic!("expected an error reply");
        };
        prop_assert_eq!(error.kind, ErrorKind::FrameTooLarge);
        for reply in &replies[1..] {
            prop_assert!(reply.is_ok(), "stream must resynchronize after the skipped payload");
        }
    }

    #[test]
    fn malformed_json_payloads_get_a_null_id_error(
        text in prop::collection::vec(32u8..127, 1..64),
    ) {
        // Printable ASCII that is (almost) never a valid batch; if the
        // draw happens to be valid JSON for the schema, the property
        // trivially holds via the is_ok branch.
        let h = harness();
        let mut wire = Vec::new();
        write_frame(&mut wire, &text).unwrap();
        let replies = assert_all_replies_parse(&h.roundtrip_raw(&wire).unwrap());
        prop_assert_eq!(replies.len(), 1);
        match &replies[0] {
            Reply::Error { id, error } => {
                prop_assert_eq!(*id, None);
                prop_assert_eq!(error.kind, ErrorKind::MalformedJson);
            }
            Reply::Ok { .. } => {} // astronomically unlikely valid draw
        }
    }
}

#[test]
fn error_replies_carry_nonempty_messages() {
    let h = harness();
    let mut wire = Vec::new();
    write_frame(&mut wire, b"{]").unwrap();
    let replies = assert_all_replies_parse(&h.roundtrip_raw(&wire).unwrap());
    let Reply::Error { error, .. } = &replies[0] else { panic!("expected error") };
    assert!(!error.message.is_empty());
}

#[test]
fn bad_queries_inside_a_valid_batch_do_not_poison_neighbors() {
    let h = harness();
    let queries = vec![
        Query::WcStar { players: 0, mode: AccessMode::Basic, w_max: 256 }, // invalid
        Query::WcStar { players: 3, mode: AccessMode::Basic, w_max: 256 }, // valid
    ];
    let replies = h.query_batch(&queries).unwrap();
    assert_eq!(replies.len(), 2);
    let Reply::Error { id, error } = &replies[0] else { panic!("expected error") };
    assert_eq!(*id, Some(1));
    assert_eq!(error.kind, ErrorKind::Evaluation);
    assert!(replies[1].is_ok());
}

#[test]
fn invalid_surrogate_pairs_are_malformed_json() {
    // The escape sits in a key the schema ignores, so only the string
    // decoder can reject the frame; the next frame is still served.
    let h = harness();
    let mut wire = Vec::new();
    write_frame(&mut wire, br#"{"requests":[],"\udbff\u0041":0}"#).unwrap();
    wire.extend_from_slice(&ServeHarness::encode_batch(&valid_queries()).unwrap());
    let replies = assert_all_replies_parse(&h.roundtrip_raw(&wire).unwrap());
    assert_eq!(replies.len(), 1 + valid_queries().len());
    let Reply::Error { id, error } = &replies[0] else { panic!("expected an error reply") };
    assert_eq!(*id, None);
    assert_eq!(error.kind, ErrorKind::MalformedJson);
    assert_eq!(error.message, "invalid surrogate pair");
    assert!(replies[1..].iter().all(Reply::is_ok));
}

#[test]
fn reaction_lags_past_the_i32_exponent_are_evaluation_errors() {
    // `δ^m` takes an `i32` exponent: a lag of 2^31 stages used to wrap to
    // a negative power (`0^−2^31 = ∞`) and come back as null payoffs.
    let h = harness();
    let lags = [1u32 << 31, 3_000_000_000, u32::MAX];
    let queries: Vec<Query> = lags
        .iter()
        .flat_map(|&reaction_stages| {
            [
                Query::DeviationPayoff {
                    players: 5,
                    mode: AccessMode::Basic,
                    w_star: 76,
                    w_dev: 20,
                    reaction_stages,
                    delta_s: 0.0,
                },
                Query::RobustnessCell {
                    players: 5,
                    mode: AccessMode::Basic,
                    window: 76,
                    reaction_stages,
                    epsilon: 1e-3,
                },
            ]
        })
        .collect();
    let mut wire = ServeHarness::encode_batch(&queries).unwrap();
    wire.extend_from_slice(&ServeHarness::encode_batch(&valid_queries()).unwrap());
    let replies = assert_all_replies_parse(&h.roundtrip_raw(&wire).unwrap());
    assert_eq!(replies.len(), queries.len() + valid_queries().len());
    for reply in &replies[..queries.len()] {
        let Reply::Error { error, .. } = reply else { panic!("expected an error, got {reply:?}") };
        assert_eq!(error.kind, ErrorKind::Evaluation);
        assert!(error.message.contains("reaction lag"), "{}", error.message);
    }
    assert!(replies[queries.len()..].iter().all(Reply::is_ok), "the next frame is served");
}

#[test]
fn populations_past_the_i32_exponent_are_evaluation_errors() {
    let h = harness();
    let players = i32::MAX as usize + 1;
    let queries = vec![
        Query::WcStar { players, mode: AccessMode::Basic, w_max: 256 },
        Query::NeInterval { players, mode: AccessMode::Basic, w_max: 256 },
    ];
    let replies = h.query_batch(&queries).unwrap();
    for reply in &replies {
        let Reply::Error { error, .. } = reply else { panic!("expected an error, got {reply:?}") };
        assert_eq!(error.kind, ErrorKind::Evaluation);
    }
}

/// One framed batch of `RobustnessCell`s at 5 players, basic access,
/// window 40 and lag 1, with the given ε texts, ids from 1.
fn epsilon_frame(epsilons: &[&str]) -> Vec<u8> {
    let requests: Vec<String> = epsilons
        .iter()
        .enumerate()
        .map(|(i, epsilon)| {
            format!(
                r#"{{"id":{},"query":{{"RobustnessCell":{{"players":5,"mode":"Basic","window":40,"reaction_stages":1,"epsilon":{epsilon}}}}}}}"#,
                i + 1
            )
        })
        .collect();
    let mut wire = Vec::new();
    write_frame(&mut wire, format!(r#"{{"requests":[{}]}}"#, requests.join(",")).as_bytes())
        .unwrap();
    wire
}

#[test]
fn infinite_epsilons_of_opposite_sign_get_their_own_replies() {
    // `1e400` and `-1e400` decode to +∞ and −∞, which the writer prints
    // alike (`null`); a key built from the printed query once gave −∞
    // the +∞ cell's answer whenever +∞ came first, in the batch or in
    // the reply cache. −∞ is rejected alone, after +∞ in one batch, and
    // after +∞ was cached.
    let h = harness();
    let negative_rejected = |reply: &Reply| {
        matches!(reply, Reply::Error { error, .. }
            if error.kind == ErrorKind::Evaluation
                && error.message.contains("epsilon must be non-negative"))
    };
    let alone = assert_all_replies_parse(&h.roundtrip_raw(&epsilon_frame(&["-1e400"])).unwrap());
    assert!(negative_rejected(&alone[0]), "{alone:?}");
    let both =
        assert_all_replies_parse(&h.roundtrip_raw(&epsilon_frame(&["1e400", "-1e400"])).unwrap());
    assert!(both[0].is_ok(), "{both:?}");
    assert!(negative_rejected(&both[1]), "{both:?}");
    let later = assert_all_replies_parse(&h.roundtrip_raw(&epsilon_frame(&["-1e400"])).unwrap());
    assert!(negative_rejected(&later[0]), "{later:?}");
}

#[test]
fn nesting_past_the_reader_limit_is_malformed_json() {
    // At 128 levels (the object and 127 arrays) the reader runs out of
    // input; one more level, or a million, fail at the limit without
    // recursing, and the connection serves on.
    let reply_to = |levels: usize| {
        let payload = format!(r#"{{"requests":{}"#, "[".repeat(levels));
        let mut wire = Vec::new();
        write_frame(&mut wire, payload.as_bytes()).unwrap();
        wire.extend_from_slice(&ServeHarness::encode_batch(&valid_queries()).unwrap());
        let replies = assert_all_replies_parse(&harness().roundtrip_raw(&wire).unwrap());
        assert!(replies[1..].iter().all(Reply::is_ok), "the next frame is served");
        let Reply::Error { id: None, error } = &replies[0] else {
            panic!("expected a null-id error, got {:?}", replies[0]);
        };
        assert_eq!(error.kind, ErrorKind::MalformedJson);
        error.message.clone()
    };
    let too_deep = "nesting deeper than 128 levels at byte 139";
    assert_eq!(reply_to(127), "unexpected end of input at byte 139");
    assert_eq!(reply_to(128), too_deep);
    assert_eq!(reply_to(1_000_000), too_deep);
}

#[test]
fn a_window_cap_optimum_is_an_error_and_the_stream_keeps_serving() {
    // At n = 7·10⁴ the utility still rises at MAX_CW = 2²⁰: every query
    // whose bound reaches the cap answers with a structured error naming
    // n and the cap, and the next frame is served as usual.
    let h = harness();
    let n = 70_000;
    let capped = vec![
        Query::WcStar { players: n, mode: AccessMode::Basic, w_max: 1 << 20 },
        Query::NeInterval { players: n, mode: AccessMode::Basic, w_max: 1 << 21 },
        Query::EdcaWcStar { players: n, mode: AccessMode::Basic, txop: 2, w_max: 1 << 21 },
    ];
    let mut wire = ServeHarness::encode_batch(&capped).unwrap();
    wire.extend_from_slice(&ServeHarness::encode_batch(&valid_queries()).unwrap());
    let replies = assert_all_replies_parse(&h.roundtrip_raw(&wire).unwrap());
    assert_eq!(replies.len(), capped.len() + valid_queries().len());
    for reply in &replies[..capped.len()] {
        let Reply::Error { error, .. } = reply else {
            panic!("expected an error reply: {reply:?}");
        };
        assert_eq!(error.kind, ErrorKind::Evaluation);
        assert!(
            error.message.contains("n = 70000") && error.message.contains("1048576"),
            "{}",
            error.message
        );
    }
    for reply in &replies[capped.len()..] {
        assert!(reply.is_ok(), "the next frame must be served: {reply:?}");
    }
}
