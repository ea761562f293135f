//! Byte-mutation properties of the decoders that take untrusted input:
//! `Objective::parse`, `DefensePipeline::parse`, the service intake (the
//! HTTP head through `read_request`, then `Json::parse` and
//! `JobSpec::from_json` or `StreamSpec::from_json`), the tiled-world shard
//! header (`ShardHeader::decode`) and model checkpoints (`load_params`).
//!
//! Each case takes a valid input, applies a few seeded byte edits
//! (overwrite, insert, delete; half of them splice in a token from the
//! grammars' own punctuation, signs and out-of-range numbers), and feeds
//! the result to the decoder. Every input must decode to `Ok` or `Err`,
//! never a panic, and every `Ok` must describe itself faithfully: a spec
//! re-parses from its own id to an equal value, a stream spec stays
//! within the service's caps, a header re-encodes to itself, and a
//! checkpoint re-saves to the bytes it was read from, and a request
//! re-reads from its own rendering. The suite also runs in release
//! builds, where integer overflow wraps instead of panicking, so the
//! shard header also gets record counts chosen to overflow: random edits
//! never craft one whose byte length wraps onto the file size.

use colper_repro::attack::Objective;
use colper_repro::defense::{Defense, DefensePipeline};
use colper_repro::nn::{load_params, save_params, ParamSet};
use colper_repro::scene::tiled::shard::HEADER_LEN;
use colper_repro::scene::tiled::{Column, ShardHeader};
use colper_repro::serve::http::{read_request, Request, MAX_BODY};
use colper_repro::serve::json::Json;
use colper_repro::serve::stream_job::{MAX_STREAM_POINTS, MAX_TILES};
use colper_repro::serve::{JobSpec, StreamSpec};
use colper_repro::tensor::Matrix;
use proptest::prelude::*;
use std::path::Path;

/// Tokens the grammars give meaning to, plus numbers at and past the
/// edges of `u32`, `u64`, `f32` and the integers an `f64` holds exactly
/// (2^53 + 1), and one whose square-times-four wraps a `u64` (2^62).
const TOKENS: &[&str] = &[
    "-",
    "-1",
    "0",
    "9",
    ".",
    "e",
    "(",
    ")",
    ",",
    "|",
    "\"",
    ":",
    "{",
    "}",
    "[",
    "]",
    " ",
    "nan",
    "inf",
    "1e39",
    "4294967297",
    "18446744073709551616",
    "9007199254740993",
    "4611686018427387904",
];

/// One edit: `(position, choice, op, splice_token)`; `op` 0 overwrites,
/// 1 inserts, 2 deletes.
type Edit = (usize, u8, u8, bool);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((0usize..512, 0u8..=255, 0u8..3, proptest::bool::ANY), 1..4)
}

/// Applies `edits` to `seed`; invalid UTF-8 decodes lossily, as any text
/// front door would see it.
fn mutate(seed: &str, edits: &[Edit]) -> String {
    String::from_utf8_lossy(&mutate_bytes(seed.as_bytes(), edits)).into_owned()
}

/// Applies `edits` to the bytes of `seed`.
fn mutate_bytes(seed: &[u8], edits: &[Edit]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for &(pos, choice, op, splice_token) in edits {
        let at = pos % (bytes.len() + 1);
        let insert: Vec<u8> = if splice_token {
            TOKENS[choice as usize % TOKENS.len()].as_bytes().to_vec()
        } else {
            vec![choice]
        };
        match op {
            0 if at < bytes.len() => {
                bytes.splice(at..at + 1, insert);
            }
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {
                bytes.splice(at..at, insert);
            }
        }
    }
    bytes
}

const OBJECTIVES: &[&str] = &[
    "non_targeted",
    "targeted(3)",
    "noise(4)",
    "noise(0.125)",
    "transfer(0.5)",
    "boundary(4)",
    " targeted( 12 ) ",
];

const DEFENSES: &[&str] = &[
    "identity",
    "quantize(3)",
    "smooth(8)",
    "jitter(0.08)",
    "grayscale",
    "gauss(0.05)",
    "sor(8,1.5)",
    "drop(0.25)",
    "sor(8,1.5)|quantize(3)",
    "smooth(4)|jitter(0.1)|grayscale",
];

const JOBS: &[&str] = &[
    "{}",
    r#"{"model":"resgcn","points":128,"seed":9,"steps":20,"objective":"targeted(3)","priority":"batch","threads":4,"stream":true}"#,
    r#"{"points":64,"steps":2,"seed":3,"objective":"transfer(0.5)"}"#,
    r#"{"objective":"noise(4)","points":16,"cloud":{"xyz":[[0,0,0],[1,0,0],[2,0,0],[3,0,0],[4,0,0],[5,0,0],[6,0,0],[7,0,0],[8,0,0],[9,0,0],[10,0,0],[11,0,0],[12,0,0],[13,0,0],[14,0,0],[15,1e-3,-2.5]],"colors":[[0,0.5,1],[0,0.5,1],[0,0.5,1],[0,0.5,1],[0,0.5,1],[0,0.5,1],[0,0.5,1],[0,0.5,1],[0,0.5,1],[0,0.5,1],[0,0.5,1],[0,0.5,1],[0,0.5,1],[0,0.5,1],[0,0.5,1],[1,1,1]],"labels":[0,1,2,3,4,5,6,7,8,9,10,11,12,0,1,2]}}"#,
];

const STREAMS: &[&str] = &[
    "{}",
    r#"{"model":"resgcn","tiles":3,"points_per_tile":128,"steps":9,"window":64,"windows_per_tile":2,"budget_tiles":4,"threads":2,"seed":11}"#,
    r#"{"tiles":8,"points_per_tile":1024,"budget_tiles":64,"seed":9007199254740991}"#,
];

/// Valid request heads: a bodiless `GET`, a job post with a body and
/// extra headers, and an HTTP/1.0 post with a lowercase header name.
const REQUESTS: &[&str] = &[
    "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1:7461\r\n\r\n",
    "POST /attack HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 32\r\n\r\n{\"points\":64,\"steps\":3,\"seed\":1}",
    "POST /stream HTTP/1.0\r\ncontent-length: 2\r\n\r\n{}",
];

/// Renders `request` as the head `read_request` accepts.
fn render(request: &Request) -> Vec<u8> {
    let head = format!(
        "{} {} HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        request.method,
        request.path,
        request.body.len()
    );
    [head.as_bytes(), &request.body].concat()
}

/// The length of a shard whose header claims `count` records of `width`
/// bytes, as a decoder without checked arithmetic computes it: it wraps
/// past `u64::MAX`.
fn wrapped_len(count: u64, width: u64) -> u64 {
    count.wrapping_mul(width).wrapping_add(HEADER_LEN as u64)
}

/// Valid shard headers: every column, an empty tile and a large one.
fn shard_seeds() -> Vec<(ShardHeader, u64)> {
    Column::ALL
        .iter()
        .zip([0u64, 1, 4096, 1 << 20, 77])
        .map(|(&column, record_count)| {
            let header = ShardHeader {
                column,
                record_count,
                tile_x: 3,
                tile_y: 1,
                world_seed: 0x5eed,
                num_classes: 13,
            };
            (header, HEADER_LEN as u64 + record_count * column.record_width() as u64)
        })
        .collect()
}

/// Valid checkpoints: empty, parameters only, and parameters plus buffers.
fn checkpoint_seeds() -> Vec<Vec<u8>> {
    let mut small = ParamSet::new();
    small.add_param("w", Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32 - 2.5));
    let mut full = small.clone();
    full.add_param("layer.bias", Matrix::filled(1, 3, -1.25));
    full.add_buffer("bn.running_mean", Matrix::filled(1, 3, 0.1));
    [ParamSet::new(), small, full]
        .iter()
        .map(|ps| {
            let mut bytes = Vec::new();
            save_params(ps, &mut bytes).unwrap();
            bytes
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16384))]

    #[test]
    fn mutated_objective_ids_parse_or_fail_cleanly(seed in 0..OBJECTIVES.len(), edits in edits()) {
        let input = mutate(OBJECTIVES[seed], &edits);
        if let Ok(objective) = Objective::parse(&input) {
            prop_assert_eq!(Objective::parse(&objective.id()), Ok(objective.clone()), "{:?}", input);
        }
    }

    #[test]
    fn mutated_defense_specs_parse_or_fail_cleanly(seed in 0..DEFENSES.len(), edits in edits()) {
        let input = mutate(DEFENSES[seed], &edits);
        if let Ok(pipeline) = DefensePipeline::parse(&input) {
            let reparsed = DefensePipeline::parse(&pipeline.id());
            prop_assert!(reparsed.is_ok(), "{:?} -> {}", input, pipeline.id());
            let reparsed = reparsed.unwrap();
            prop_assert_eq!(reparsed.id(), pipeline.id(), "{:?}", input);
            prop_assert_eq!(reparsed.len(), pipeline.len(), "{:?}", input);
            prop_assert_eq!(reparsed.is_randomized(), pipeline.is_randomized(), "{:?}", input);
        }
    }

    #[test]
    fn mutated_job_specs_parse_or_fail_cleanly(seed in 0..JOBS.len(), edits in edits()) {
        let input = mutate(JOBS[seed], &edits);
        if let Ok(value) = Json::parse(&input) {
            if let Ok(spec) = JobSpec::from_json(&value) {
                prop_assert_eq!(
                    Objective::parse(&spec.objective.id()),
                    Ok(spec.objective.clone()),
                    "{:?}",
                    input
                );
                prop_assert_eq!(spec.attack_config().objective, spec.objective.clone());
            }
        }
    }

    #[test]
    fn mutated_stream_specs_parse_or_fail_cleanly(seed in 0..STREAMS.len(), edits in edits()) {
        let input = mutate(STREAMS[seed], &edits);
        if let Ok(value) = Json::parse(&input) {
            if let Ok(spec) = StreamSpec::from_json(&value) {
                prop_assert!((1..=MAX_TILES).contains(&spec.tiles), "{:?}", input);
                prop_assert!(spec.total_points() <= MAX_STREAM_POINTS, "{:?}", input);
                prop_assert!(spec.steps > 0 && spec.window > 0, "{:?}", input);
                prop_assert!(
                    (1..=spec.tiles * spec.tiles).contains(&spec.budget_tiles),
                    "{:?}",
                    input
                );
            }
        }
    }

    #[test]
    fn mutated_shard_headers_decode_or_fail_cleanly(
        seed in 0usize..5,
        edits in edits(),
        keep_len in proptest::bool::ANY,
        other_len in 0u64..(1 << 24),
    ) {
        let (header, seed_len) = shard_seeds()[seed];
        let bytes = mutate_bytes(&header.encode(), &edits);
        let len = if keep_len { seed_len } else { other_len };
        let path = Path::new("mutant.shard");
        if let Ok(decoded) = ShardHeader::decode(path, &bytes, len) {
            let width = decoded.column.record_width() as u128;
            prop_assert_eq!(len as u128, HEADER_LEN as u128 + decoded.record_count as u128 * width);
            prop_assert_eq!(ShardHeader::decode(path, &decoded.encode(), len).ok(), Some(decoded));
        }
    }

    /// Record counts around `u64::MAX / width`, where the payload length
    /// overflows, against the file length that length wraps onto (or a
    /// neighbour of it): only a decoder that checks its arithmetic
    /// rejects them in a release build.
    #[test]
    fn overflowing_shard_record_counts_fail_cleanly(
        seed in 0usize..5,
        offset in 0u64..64,
        nudge in 0u64..3,
    ) {
        let (mut header, _) = shard_seeds()[seed];
        let width = header.column.record_width() as u64;
        header.record_count = (u64::MAX / width).wrapping_sub(8).wrapping_add(offset);
        let len = wrapped_len(header.record_count, width).wrapping_add(nudge).wrapping_sub(1);
        let path = Path::new("overflow.shard");
        if let Ok(decoded) = ShardHeader::decode(path, &header.encode(), len) {
            prop_assert_eq!(decoded, header);
            prop_assert_eq!(
                len as u128,
                HEADER_LEN as u128 + decoded.record_count as u128 * width as u128,
                "accepted a record count whose length wraps"
            );
        }
    }

    #[test]
    fn mutated_http_heads_read_or_fail_cleanly(seed in 0..REQUESTS.len(), edits in edits()) {
        let bytes = mutate_bytes(REQUESTS[seed].as_bytes(), &edits);
        if let Ok(request) = read_request(&mut bytes.as_slice()) {
            for part in [&request.method, &request.path] {
                prop_assert!(!part.is_empty() && !part.contains(char::is_whitespace), "{:?}", bytes);
            }
            prop_assert!(request.body.len() <= MAX_BODY, "{:?}", bytes);
            let reread = read_request(&mut render(&request).as_slice());
            prop_assert!(reread.is_ok(), "{:?} -> {:?}", bytes, request);
            let reread = reread.unwrap();
            prop_assert_eq!(
                (&reread.method, &reread.path, &reread.body),
                (&request.method, &request.path, &request.body),
                "{:?}",
                bytes
            );
        }
    }

    #[test]
    fn mutated_checkpoints_load_or_fail_cleanly(seed in 0usize..3, edits in edits()) {
        let bytes = mutate_bytes(&checkpoint_seeds()[seed], &edits);
        if let Ok(params) = load_params(bytes.as_slice()) {
            let mut saved = Vec::new();
            save_params(&params, &mut saved).unwrap();
            prop_assert!(bytes.starts_with(&saved), "a loaded checkpoint must re-save to the bytes it read");
        }
    }
}

#[test]
fn the_seed_specs_are_valid() {
    for s in OBJECTIVES {
        assert!(Objective::parse(s).is_ok(), "{s}");
    }
    for s in DEFENSES {
        assert!(DefensePipeline::parse(s).is_ok(), "{s}");
    }
    for s in JOBS {
        assert!(JobSpec::from_json(&Json::parse(s).unwrap()).is_ok(), "{s}");
    }
    for s in STREAMS {
        assert!(StreamSpec::from_json(&Json::parse(s).unwrap()).is_ok(), "{s}");
    }
    for (header, len) in shard_seeds() {
        assert_eq!(
            ShardHeader::decode(Path::new("seed"), &header.encode(), len).ok(),
            Some(header)
        );
    }
    for bytes in checkpoint_seeds() {
        assert!(load_params(bytes.as_slice()).is_ok());
    }
    for s in REQUESTS {
        let request = read_request(&mut s.as_bytes()).expect(s);
        assert!(s.ends_with(std::str::from_utf8(&request.body).unwrap()), "{s}");
    }
}
