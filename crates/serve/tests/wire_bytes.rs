//! Wire bytes pinned literally: the compact JSON of one request of each
//! query kind, their replies, and every frame-level error reply. The
//! reply cache, coalescing and client keying all compare these bytes, so
//! a serializer change that moves one byte (field order, float or
//! integer formatting, `null` for `None`, string escapes) breaks here
//! first, whatever the typed round trips say.

use std::io::Cursor;

use macgame_core::queries::Query;
use macgame_dcf::AccessMode;
use macgame_serve::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use macgame_serve::{BatchRequest, ServeHarness};

/// One query of each of the five kinds, then one the engine rejects.
fn queries() -> Vec<Query> {
    vec![
        Query::WcStar { players: 3, mode: AccessMode::Basic, w_max: 256 },
        Query::EdcaWcStar { players: 3, mode: AccessMode::RtsCts, txop: 2, w_max: 256 },
        Query::NeInterval { players: 3, mode: AccessMode::Basic, w_max: 256 },
        Query::DeviationPayoff {
            players: 3,
            mode: AccessMode::Basic,
            w_star: 43,
            w_dev: 43,
            reaction_stages: 1,
            delta_s: 0.5,
        },
        // Window 1 is below W_c⁰ at n = 100, so no deviation is priced.
        Query::RobustnessCell {
            players: 100,
            mode: AccessMode::Basic,
            window: 1,
            reaction_stages: 1,
            epsilon: 0.001,
        },
        Query::WcStar { players: 0, mode: AccessMode::Basic, w_max: 256 },
    ]
}

const BATCH: &str = concat!(
    r#"{"requests":["#,
    r#"{"id":1,"query":{"WcStar":{"players":3,"mode":"Basic","w_max":256}}},"#,
    r#"{"id":2,"query":{"EdcaWcStar":{"players":3,"mode":"RtsCts","txop":2,"w_max":256}}},"#,
    r#"{"id":3,"query":{"NeInterval":{"players":3,"mode":"Basic","w_max":256}}},"#,
    r#"{"id":4,"query":{"DeviationPayoff":{"players":3,"mode":"Basic","w_star":43,"w_dev":43,"#,
    r#""reaction_stages":1,"delta_s":0.5}}},"#,
    r#"{"id":5,"query":{"RobustnessCell":{"players":100,"mode":"Basic","window":1,"#,
    r#""reaction_stages":1,"epsilon":0.001}}},"#,
    r#"{"id":6,"query":{"WcStar":{"players":0,"mode":"Basic","w_max":256}}}"#,
    r#"]}"#,
);

const REPLIES: [&str; 6] = [
    r#"{"Ok":{"id":1,"result":{"WcStar":{"window":43,"utility":0.00003383952174964314}}}}"#,
    concat!(
        r#"{"Ok":{"id":2,"result":{"EdcaWcStar":{"window":9,"#,
        r#""utility":0.00003561979863635293,"txop":2}}}}"#,
    ),
    r#"{"Ok":{"id":3,"result":{"NeInterval":{"lower":1,"upper":43,"count":43}}}}"#,
    concat!(
        r#"{"Ok":{"id":4,"result":{"DeviationPayoff":{"w_s":43,"#,
        r#""deviant_payoff":676.7904349928629,"compliant_payoff":676.7904349928629,"#,
        r#""victim_payoff":676.7904349928629,"gain":0.0,"profitable":false}}}}"#,
    ),
    concat!(
        r#"{"Ok":{"id":5,"result":{"RobustnessCell":{"window":1,"is_ne":false,"#,
        r#""best_deviation_window":null,"best_deviation_gain":null,"#,
        r#""welfare_fraction":-0.0573161611813285}}}}"#,
    ),
    concat!(
        r#"{"Error":{"id":6,"error":{"kind":"Evaluation","#,
        r#""message":"invalid game config: need at least one player"}}}"#,
    ),
];

const MALFORMED: &str =
    r#"{"Error":{"id":null,"error":{"kind":"MalformedJson","message":"expected `\"` at byte 1"}}}"#;

const TOO_LARGE: &str = concat!(
    r#"{"Error":{"id":null,"error":{"kind":"FrameTooLarge","#,
    r#""message":"frame declares 1048577 bytes, limit is 1048576"}}}"#,
);

/// The payloads of every frame on `wire`, as text.
fn payloads(wire: &[u8]) -> Vec<String> {
    let mut reader = Cursor::new(wire);
    let mut out = Vec::new();
    while let Some(payload) = read_frame(&mut reader).unwrap() {
        out.push(String::from_utf8(payload).unwrap());
    }
    out
}

#[test]
fn batch_request_bytes_are_pinned() {
    let wire = ServeHarness::encode_batch(&queries()).unwrap();
    assert_eq!(payloads(&wire), [BATCH]);
    let back: BatchRequest = serde_json::from_str(BATCH).unwrap();
    let sent: Vec<Query> = back.requests.into_iter().map(|r| r.query).collect();
    assert_eq!(sent, queries());
}

#[test]
fn reply_bytes_are_pinned() {
    let h = ServeHarness::new().unwrap();
    let wire = h.reply_bytes(&queries()).unwrap();
    assert_eq!(payloads(&wire), REPLIES);
}

#[test]
fn frame_level_error_bytes_are_pinned() {
    let h = ServeHarness::new().unwrap();
    let mut malformed = Vec::new();
    write_frame(&mut malformed, b"{]").unwrap();
    assert_eq!(payloads(&h.roundtrip_raw(&malformed).unwrap()), [MALFORMED]);

    let declared = MAX_FRAME_LEN + 1;
    let mut oversized = (declared as u32).to_be_bytes().to_vec();
    oversized.resize(4 + declared, 0);
    assert_eq!(payloads(&h.roundtrip_raw(&oversized).unwrap()), [TOO_LARGE]);
}
