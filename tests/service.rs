//! End-to-end contracts of `colperd`: intake status codes, backpressure,
//! warm-seat accounting, and the streamed `colper-trace-v1` JSONL.
//! Each test boots an in-process [`Server`] on an ephemeral port and
//! speaks plain HTTP over a [`std::net::TcpStream`].

use colper_repro::serve::client::http_request;
use colper_repro::serve::json::Json;
use colper_repro::serve::{ServeConfig, Server};

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        threads: 1,
        queue_capacity: 4,
        seat_cap: 2,
    }
}

#[test]
fn healthz_stats_and_unknown_endpoints() {
    let server = Server::start(&config()).unwrap();
    let addr = server.local_addr().to_string();

    let (status, body) = http_request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(Json::parse(&body).unwrap().get("status").and_then(Json::as_str), Some("ok"));

    let (status, body) = http_request(&addr, "GET", "/stats", "").unwrap();
    assert_eq!(status, 200);
    let stats = Json::parse(&body).unwrap();
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(0));

    let (status, _) = http_request(&addr, "GET", "/nope", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_request(&addr, "GET", "/attack", "").unwrap();
    assert_eq!(status, 405);

    server.stop();
}

#[test]
fn attack_runs_jobs_and_reports_warm_starts() {
    let server = Server::start(&config()).unwrap();
    let addr = server.local_addr().to_string();
    let body = r#"{"points":64,"steps":2,"seed":3}"#;

    // Two identical jobs: the second lands on the first one's donated
    // seat and must still produce the identical result.
    let mut results = Vec::new();
    for round in 0..2u64 {
        let (status, payload) = http_request(&addr, "POST", "/attack", body).unwrap();
        assert_eq!(status, 200, "round {round}: {payload}");
        let result = Json::parse(&payload).unwrap();
        assert_eq!(result.get("model").and_then(Json::as_str), Some("pointnet"));
        assert_eq!(result.get("points").and_then(Json::as_u64), Some(64));
        assert_eq!(
            result.get("warm_start").and_then(Json::as_bool),
            Some(round == 1),
            "round {round} warmth"
        );
        results.push((
            result.get("steps_run").and_then(Json::as_u64),
            result.get("success_metric").map(|v| format!("{v:?}")),
            result.get("l2_sq").map(|v| format!("{v:?}")),
        ));
    }
    assert_eq!(results[0], results[1], "a warm seat must not change the attack's outcome");

    let (_, stats) = http_request(&addr, "GET", "/stats", "").unwrap();
    let stats = Json::parse(&stats).unwrap();
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("warm_starts").and_then(Json::as_u64), Some(1));

    server.stop();
}

#[test]
fn malformed_and_invalid_requests_get_400_and_422() {
    let server = Server::start(&config()).unwrap();
    let addr = server.local_addr().to_string();

    let (status, _) = http_request(&addr, "POST", "/attack", "not json {").unwrap();
    assert_eq!(status, 400);

    let (status, body) = http_request(&addr, "POST", "/attack", r#"{"model":"bert"}"#).unwrap();
    assert_eq!(status, 422);
    assert!(body.contains("unknown model"));

    // An inline cloud that is shape-valid but value-invalid: the JSON
    // layer cannot express NaN, so out-of-range colors exercise the
    // intake's `validate_clouds` pass.
    let xyz: Vec<String> = (0..16).map(|i| format!("[{i}.0,0.0,0.0]")).collect();
    let mut colors: Vec<String> = (0..16).map(|_| "[0.5,0.5,0.5]".to_string()).collect();
    colors[4] = "[2.5,0.5,0.5]".into();
    let labels: Vec<String> = (0..16).map(|i| format!("{}", i % 13)).collect();
    let body = format!(
        r#"{{"cloud":{{"xyz":[{}],"colors":[{}],"labels":[{}]}}}}"#,
        xyz.join(","),
        colors.join(","),
        labels.join(",")
    );
    let (status, payload) = http_request(&addr, "POST", "/attack", &body).unwrap();
    assert_eq!(status, 422, "{payload}");
    assert!(payload.contains("outside"), "{payload}");

    let (_, stats) = http_request(&addr, "GET", "/stats", "").unwrap();
    let stats = Json::parse(&stats).unwrap();
    assert_eq!(stats.get("rejected_malformed").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("rejected_invalid").and_then(Json::as_u64), Some(2));

    server.stop();
}

#[test]
fn objective_ids_run_and_unknown_ones_get_422() {
    let server = Server::start(&config()).unwrap();
    let addr = server.local_addr().to_string();

    // The transfer objective optimizes on the requested model and folds
    // the other zoo architecture in as the penalty network.
    let body = r#"{"points":64,"steps":2,"seed":3,"objective":"transfer(0.5)"}"#;
    let (status, payload) = http_request(&addr, "POST", "/attack", body).unwrap();
    assert_eq!(status, 200, "{payload}");
    let result = Json::parse(&payload).unwrap();
    assert_eq!(result.get("objective").and_then(Json::as_str), Some("transfer(0.5)"));
    assert_eq!(result.get("steps_run").and_then(Json::as_u64), Some(2));

    // The noise baseline short-circuits the optimizer but satisfies the
    // same response contract.
    let body = r#"{"points":64,"steps":2,"seed":3,"objective":"noise(4)"}"#;
    let (status, payload) = http_request(&addr, "POST", "/attack", body).unwrap();
    assert_eq!(status, 200, "{payload}");
    let result = Json::parse(&payload).unwrap();
    assert_eq!(result.get("objective").and_then(Json::as_str), Some("noise(4)"));

    let (status, payload) =
        http_request(&addr, "POST", "/attack", r#"{"objective":"warp(2)"}"#).unwrap();
    assert_eq!(status, 422, "{payload}");
    assert!(payload.contains("warp"));

    // The removed "goal"/"target" fields are refused, never run as a
    // non-targeted job; the reason names the field to use instead.
    for body in [r#"{"goal":"targeted","target":3}"#, r#"{"objective":"non_targeted","goal":"x"}"#]
    {
        let (status, payload) = http_request(&addr, "POST", "/attack", body).unwrap();
        assert_eq!(status, 422, "{payload}");
        assert!(payload.contains("goal") && payload.contains("objective"), "{payload}");
    }

    server.stop();
}

#[test]
fn full_queue_answers_429_deterministically() {
    // workers: 0 → nothing drains; capacity 2 → the third job bounces.
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 0,
        threads: 1,
        queue_capacity: 2,
        seat_cap: 1,
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let body = r#"{"points":64,"steps":1}"#;

    // Accepted jobs get no response until a worker runs them; send them
    // from throwaway threads and only check the rejected one.
    let accepted: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                // The connection just queues; reading would block forever.
                let _ = http_request(&addr, "POST", "/attack", r#"{"points":64,"steps":1}"#);
            })
        })
        .collect();
    // Wait until both jobs are queued.
    for _ in 0..200 {
        let (_, stats) = http_request(&addr, "GET", "/stats", "").unwrap();
        if Json::parse(&stats).unwrap().get("accepted").and_then(Json::as_u64) == Some(2) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let (status, payload) = http_request(&addr, "POST", "/attack", body).unwrap();
    assert_eq!(status, 429, "{payload}");
    assert!(payload.contains("queue full"));

    let (_, stats) = http_request(&addr, "GET", "/stats", "").unwrap();
    let stats = Json::parse(&stats).unwrap();
    assert_eq!(stats.get("accepted").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("rejected_full").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("queue_interactive").and_then(Json::as_u64), Some(2));

    server.stop();
    for handle in accepted {
        let _ = handle.join();
    }
}

#[test]
fn stream_endpoint_attacks_a_sharded_world_within_budget() {
    let server = Server::start(&config()).unwrap();
    let addr = server.local_addr().to_string();

    // Bad specs get the same intake discipline as /attack.
    let (status, payload) = http_request(&addr, "POST", "/stream", r#"{"tiles":99}"#).unwrap();
    assert_eq!(status, 422, "{payload}");
    assert!(payload.contains("tiles"));
    let (status, _) = http_request(&addr, "POST", "/stream", "not json {").unwrap();
    assert_eq!(status, 400);
    let (status, _) = http_request(&addr, "GET", "/stream", "").unwrap();
    assert_eq!(status, 405);

    let body = r#"{"tiles":2,"points_per_tile":64,"steps":2,"window":64,
                   "windows_per_tile":1,"budget_tiles":2,"seed":9}"#;
    let (status, payload) = http_request(&addr, "POST", "/stream", body).unwrap();
    assert_eq!(status, 200, "{payload}");
    let result = Json::parse(&payload).unwrap();
    assert_eq!(result.get("model").and_then(Json::as_str), Some("pointnet"));
    assert_eq!(result.get("priority").and_then(Json::as_str), Some("batch"));
    assert_eq!(result.get("tiles").and_then(Json::as_u64), Some(4));
    assert_eq!(result.get("windows").and_then(Json::as_u64), Some(4));
    assert_eq!(result.get("points_attacked").and_then(Json::as_u64), Some(256));
    let peak = result.get("peak_resident_bytes").and_then(Json::as_u64).unwrap();
    let budget = result.get("budget_bytes").and_then(Json::as_u64).unwrap();
    assert!(peak > 0 && peak <= budget, "peak {peak} must fit budget {budget}");
    for field in ["clean_accuracy", "adversarial_accuracy", "attack_success", "l2_sq"] {
        assert!(result.get(field).is_some(), "summary missing {field:?}");
    }

    let (_, stats) = http_request(&addr, "GET", "/stats", "").unwrap();
    let stats = Json::parse(&stats).unwrap();
    assert_eq!(stats.get("stream_completed").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(1));

    server.stop();
}

#[test]
fn streamed_jobs_emit_colper_trace_v1_jsonl() {
    let server = Server::start(&config()).unwrap();
    let addr = server.local_addr().to_string();
    let body = r#"{"points":64,"steps":3,"stream":true}"#;

    let (status, payload) = http_request(&addr, "POST", "/attack", body).unwrap();
    assert_eq!(status, 200);
    let lines: Vec<&str> = payload.lines().filter(|l| !l.is_empty()).collect();
    assert!(lines.len() >= 3, "expected meta + steps + result, got {lines:?}");

    let meta = Json::parse(lines[0]).unwrap();
    assert_eq!(meta.get("type").and_then(Json::as_str), Some("meta"));
    assert_eq!(meta.get("schema").and_then(Json::as_str), Some("colper-trace-v1"));
    assert_eq!(meta.get("model").and_then(Json::as_str), Some("pointnet"));

    let steps: Vec<Json> =
        lines[1..lines.len() - 1].iter().map(|l| Json::parse(l).unwrap()).collect();
    assert!(!steps.is_empty(), "at least one step line must stream");
    for (i, step) in steps.iter().enumerate() {
        assert_eq!(step.get("type").and_then(Json::as_str), Some("step"));
        assert_eq!(step.get("cloud").and_then(Json::as_u64), Some(0));
        assert_eq!(step.get("step").and_then(Json::as_usize), Some(i));
        for field in
            ["gain", "dist", "cw_hinge", "weighted_hinge", "weighted_smooth", "grad_inf_norm"]
        {
            assert!(step.get(field).is_some(), "step line {i} missing {field:?}");
        }
        assert!(step.get("flipped_points").and_then(Json::as_u64).is_some());
        assert!(step.get("restarted").and_then(Json::as_bool).is_some());
    }

    let result = Json::parse(lines[lines.len() - 1]).unwrap();
    assert_eq!(result.get("type").and_then(Json::as_str), Some("result"));
    assert_eq!(
        result.get("steps_run").and_then(Json::as_usize),
        Some(steps.len()),
        "one streamed line per executed step"
    );

    server.stop();
}
