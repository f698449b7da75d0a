//! Never-panic fuzzing of the service's two network parsers, in the
//! style of `tests/machine_config.rs::config_parse_never_panics`:
//!
//! 1. `http::read_request` over random and byte-mutated request bytes:
//!    it never panics, and every request it accepts respects
//!    `MAX_HEAD_BYTES` and `MAX_BODY_BYTES`;
//! 2. `GridSpec::parse` (the `POST /sweep` body) over random and
//!    character-mutated specs: it never panics, `cell_count` never
//!    panics on an accepted spec, and a spec within the service's
//!    `MAX_SWEEP_CELLS` budget enumerates to `Ok` or `Err` without
//!    panicking.

use std::io::Cursor;

use mt_dse::grid::SERIALIZED_ISSUE_AXIS;
use mt_dse::GridSpec;
use mt_serve::http::{read_head, read_request, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use mt_serve::server::MAX_SWEEP_CELLS;
use mt_sim::KNOB_NAMES;
use proptest::prelude::*;

/// A request line: a method, a target and a version, each sometimes
/// malformed.
fn arb_request_line() -> impl Strategy<Value = String> {
    let method = prop_oneof![
        4 => Just("GET".to_string()),
        4 => Just("POST".to_string()),
        1 => Just("PUT".to_string()),
        1 => Just(String::new()),
        1 => "\\PC{0,8}",
    ];
    let target = prop_oneof![
        3 => Just("/run".to_string()),
        3 => Just("/run?profile=1&trace=1&deadline-ms=5".to_string()),
        2 => Just("/sweep?loops=1,2%2C3&x".to_string()),
        2 => Just("/metrics?format=%zz%4".to_string()),
        1 => "\\PC{0,40}",
    ];
    let version = prop_oneof![
        6 => Just("HTTP/1.1".to_string()),
        2 => Just("HTTP/1.0".to_string()),
        1 => Just("HTTP/2".to_string()),
        1 => Just(String::new()),
    ];
    (method, target, version).prop_map(|(m, t, v)| format!("{m} {t} {v}"))
}

/// One header line, `Content-Length` in its interesting shapes included.
fn arb_header() -> impl Strategy<Value = String> {
    prop_oneof![
        2 => any::<u64>().prop_map(|n| format!("Content-Length: {n}")),
        2 => (0usize..64).prop_map(|n| format!("Content-Length: {n}")),
        1 => Just(format!("Content-Length: {MAX_BODY_BYTES}")),
        1 => Just(format!("Content-Length: {}", MAX_BODY_BYTES + 1)),
        1 => Just("Content-Length: -1".to_string()),
        1 => Just("content-length:".to_string()),
        1 => Just("X-Client-Id: c1".to_string()),
        1 => Just("no colon here".to_string()),
        2 => "\\PC{0,30}",
        // Padding that lands the head just under, at, or just over its
        // byte limit.
        1 => ((MAX_HEAD_BYTES - 200)..(MAX_HEAD_BYTES + 50))
            .prop_map(|n| format!("X-Pad: {}", "p".repeat(n))),
    ]
}

/// A byte-level edit: `(position, kind, byte)` where kind 0 inserts,
/// 1 replaces, 2 deletes.
fn arb_byte_mutation() -> impl Strategy<Value = (usize, u8, u8)> {
    (
        any::<usize>(),
        0u8..3,
        prop_oneof![
            Just(b'\r'),
            Just(b'\n'),
            Just(b':'),
            Just(b' '),
            Just(b'0'),
            Just(b'9'),
            Just(b'?'),
            Just(b'%'),
            Just(0x00),
            Just(0xff),
            any::<u8>(),
        ],
    )
}

fn mutate<T>(mut seq: Vec<T>, mutations: Vec<(usize, u8, T)>) -> Vec<T> {
    for (pos, kind, item) in mutations {
        let at = pos % (seq.len() + 1);
        match kind {
            0 => seq.insert(at, item),
            1 if at < seq.len() => seq[at] = item,
            _ if at < seq.len() => {
                seq.remove(at);
            }
            _ => {}
        }
    }
    seq
}

/// One spec line: an axis (a real knob, the ablation axis, or noise)
/// with a value list (small, huge, or malformed), a `mode` line, a
/// comment, or noise.
fn arb_grid_line() -> impl Strategy<Value = String> {
    let name = prop_oneof![
        8 => (0usize..KNOB_NAMES.len()).prop_map(|k| KNOB_NAMES[k].to_string()),
        1 => Just(SERIALIZED_ISSUE_AXIS.to_string()),
        1 => "\\PC{0,12}",
    ];
    let value = prop_oneof![
        12 => (0u64..=8).prop_map(|v| v.to_string()),
        1 => any::<u64>().prop_map(|v| v.to_string()),
        1 => (0u32..=64).prop_map(|e| (1u128 << e).to_string()),
        1 => "\\PC{0,6}",
    ];
    let values = prop::collection::vec(value, 0..4).prop_map(|v| v.join(","));
    let mode = prop_oneof![
        Just("cartesian".to_string()),
        Just("paired".to_string()),
        "\\PC{0,6}",
    ];
    prop_oneof![
        8 => (name, values).prop_map(|(n, v)| format!("{n}={v}")),
        1 => mode.prop_map(|m| format!("mode={m}")),
        1 => Just("# comment".to_string()),
        1 => "\\PC{0,24}",
    ]
}

fn arb_char_mutation() -> impl Strategy<Value = (usize, u8, char)> {
    (
        any::<usize>(),
        0u8..3,
        prop_oneof![
            Just(','),
            Just('='),
            Just('\n'),
            Just('#'),
            Just('0'),
            Just('9'),
            Just(' '),
            Just('é'),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn read_request_never_panics(
        line in arb_request_line(),
        headers in prop::collection::vec(arb_header(), 0..6),
        body in prop::collection::vec(any::<u8>(), 0..80),
        mutations in prop::collection::vec(arb_byte_mutation(), 0..3),
        bare in prop::collection::vec(any::<u8>(), 0..64),
        use_bare in 0u8..8,
    ) {
        let bytes = if use_bare == 0 {
            // Pure noise, no request structure at all.
            bare
        } else {
            let mut text = line;
            for h in &headers {
                text.push_str("\r\n");
                text.push_str(h);
            }
            text.push_str("\r\n\r\n");
            let mut bytes = text.into_bytes();
            bytes.extend_from_slice(&body);
            mutate(bytes, mutations)
        };
        if let Ok(request) = read_request(&mut Cursor::new(&bytes)) {
            prop_assert!(request.body.len() <= MAX_BODY_BYTES);
            let mut cursor = Cursor::new(&bytes);
            let head = read_head(&mut cursor).expect("an accepted request has a head");
            prop_assert!(cursor.position() as usize <= MAX_HEAD_BYTES);
            prop_assert_eq!(head.content_length, request.body.len());
        }
    }

    #[test]
    fn grid_spec_parse_never_panics(
        lines in prop::collection::vec(arb_grid_line(), 1..5),
        mutations in prop::collection::vec(arb_char_mutation(), 0..3),
    ) {
        let spec = mutate(lines.join("\n").chars().collect(), mutations);
        let spec: String = spec.into_iter().collect();
        if let Ok(grid) = GridSpec::parse(&spec) {
            let count = grid.cell_count();
            if count <= MAX_SWEEP_CELLS {
                if let Ok(cells) = grid.enumerate() {
                    prop_assert_eq!(cells.len(), count);
                }
            }
        }
    }
}
