//! Byte-mutation properties of the text decoders that take untrusted
//! input: `Objective::parse`, `DefensePipeline::parse` and the service
//! intake (`Json::parse` then `JobSpec::from_json`).
//!
//! Each case takes a valid spec, applies a few seeded byte edits
//! (overwrite, insert, delete; half of them splice in a token from the
//! grammars' own punctuation, signs and out-of-range numbers), and feeds
//! the result to the decoder. Every input must decode to `Ok` or `Err`,
//! never a panic, and every `Ok` must re-parse from its own id to an
//! equal value. The suite also runs in release builds, where integer
//! overflow wraps instead of panicking.

use colper_repro::attack::Objective;
use colper_repro::defense::{Defense, DefensePipeline};
use colper_repro::serve::json::Json;
use colper_repro::serve::JobSpec;
use proptest::prelude::*;

/// Tokens the three grammars give meaning to, plus numbers at and past
/// the edges of `u32`, `u64` and `f32`.
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
    let mut bytes = seed.as_bytes().to_vec();
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
    String::from_utf8_lossy(&bytes).into_owned()
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
}
