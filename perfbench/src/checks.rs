//! Output checks. Each returns `Err(reason)` for a wrong result; the
//! caller counts the operation as failed.

use colper_repro::serve::json::Json;
use colper_repro::tensor::Matrix;

/// Adversarial colors must be finite and inside the unit cube.
pub fn colors_in_unit_cube(colors: &Matrix) -> Result<(), String> {
    match colors.as_slice().iter().position(|c| !(0.0..=1.0).contains(c)) {
        None => Ok(()),
        Some(i) => Err(format!(
            "adversarial color {} at index {i} is outside [0, 1]",
            colors.as_slice()[i]
        )),
    }
}

/// The checks on one attack_4096 operation.
pub fn attack_op(
    colors: &Matrix,
    clean_accuracy: f64,
    adv_accuracy: f64,
    steps_run: usize,
    steps: usize,
) -> Result<(), String> {
    colors_in_unit_cube(colors)?;
    if adv_accuracy > clean_accuracy {
        return Err(format!(
            "adversarial accuracy {adv_accuracy:.4} exceeds clean accuracy {clean_accuracy:.4}"
        ));
    }
    if steps_run > steps {
        return Err(format!("ran {steps_run} steps on a budget of {steps}"));
    }
    Ok(())
}

/// What a colperd job asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct JobAsk {
    pub model: &'static str,
    pub points: usize,
    pub steps: usize,
    pub objective: &'static str,
    pub stream: bool,
}

/// What the benchmark keeps from a checked colperd answer.
#[derive(Debug, Clone, PartialEq)]
pub struct JobAnswer {
    pub success_metric: f64,
    pub warm_start: bool,
    pub queue_ms: f64,
    pub run_ms: f64,
}

/// Checks a colperd answer against the job that produced it. A streamed
/// answer is JSONL whose last line must be the result object.
pub fn job_answer(status: u16, body: &str, ask: &JobAsk) -> Result<JobAnswer, String> {
    if status != 200 {
        return Err(format!("status {status}: {}", body.trim()));
    }
    let result_text = if ask.stream {
        let last = body.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
        if !last.starts_with("{\"type\":\"result\"") {
            return Err("streamed answer does not end with its result line".to_string());
        }
        last
    } else {
        body.trim()
    };
    let json =
        Json::parse(result_text).map_err(|e| format!("unparseable answer: {}", e.message))?;
    let text = |key: &str| json.get(key).and_then(Json::as_str).map(str::to_string);
    let number = |key: &str| json.get(key).and_then(Json::as_f64);
    if text("model").as_deref() != Some(ask.model) {
        return Err(format!("answer model {:?} is not {}", text("model"), ask.model));
    }
    if text("objective").as_deref() != Some(ask.objective) {
        return Err(format!("answer objective {:?} is not {}", text("objective"), ask.objective));
    }
    if number("points") != Some(ask.points as f64) {
        return Err(format!("answer points {:?} is not {}", number("points"), ask.points));
    }
    match number("steps_run") {
        Some(s) if s >= 0.0 && s <= ask.steps as f64 => {}
        other => return Err(format!("steps_run {other:?} is outside the budget {}", ask.steps)),
    }
    if number("attacked_points") != Some(ask.points as f64) {
        return Err(format!(
            "attacked_points {:?} is not {}",
            number("attacked_points"),
            ask.points
        ));
    }
    let field = |key: &str| number(key).ok_or_else(|| format!("answer lacks {key}"));
    let success_metric = field("success_metric")?;
    if !success_metric.is_finite() {
        return Err("success_metric is not finite".to_string());
    }
    Ok(JobAnswer {
        success_metric,
        warm_start: json.get("warm_start").and_then(Json::as_bool).unwrap_or(false),
        queue_ms: field("queue_ms")?,
        run_ms: field("run_ms")?,
    })
}

/// The checks on one stream_world pass.
pub fn stream_pass(
    points_attacked: usize,
    world_points: u64,
    peak_bytes: usize,
    budget_bytes: usize,
) -> Result<(), String> {
    if points_attacked as u64 != world_points {
        return Err(format!("attacked {points_attacked} of {world_points} points"));
    }
    if peak_bytes > budget_bytes {
        return Err(format!("peak residency {peak_bytes} B exceeds the budget {budget_bytes} B"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn colors(values: &[f32]) -> Matrix {
        Matrix::from_vec(values.len() / 3, 3, values.to_vec()).unwrap()
    }

    #[test]
    fn nan_and_out_of_range_colors_are_rejected() {
        assert!(colors_in_unit_cube(&colors(&[0.0, 0.5, 1.0])).is_ok());
        assert!(colors_in_unit_cube(&colors(&[0.0, f32::NAN, 1.0])).is_err());
        assert!(colors_in_unit_cube(&colors(&[0.0, 0.5, 1.01])).is_err());
        assert!(colors_in_unit_cube(&colors(&[-0.1, 0.5, 0.2])).is_err());
        assert!(colors_in_unit_cube(&colors(&[f32::INFINITY, 0.5, 0.2])).is_err());
    }

    #[test]
    fn attack_op_checks_accuracy_and_budget() {
        let ok = colors(&[0.1, 0.2, 0.3]);
        assert!(attack_op(&ok, 0.8, 0.6, 20, 20).is_ok());
        assert!(attack_op(&ok, 0.6, 0.8, 20, 20).is_err());
        assert!(attack_op(&ok, 0.8, 0.6, 21, 20).is_err());
        assert!(attack_op(&colors(&[f32::NAN, 0.2, 0.3]), 0.8, 0.6, 20, 20).is_err());
    }

    const ASK: JobAsk = JobAsk {
        model: "pointnet",
        points: 256,
        steps: 10,
        objective: "non_targeted",
        stream: false,
    };

    fn body(points: usize, steps_run: usize) -> String {
        format!(
            "{{\"model\":\"pointnet\",\"objective\":\"non_targeted\",\"points\":{points},\
             \"steps_run\":{steps_run},\"converged\":false,\"success_metric\":0.25,\"l2_sq\":1.5,\
             \"attacked_points\":{points},\"restarts\":0,\"warm_start\":true,\
             \"queue_ms\":0.5,\"run_ms\":12.25}}"
        )
    }

    #[test]
    fn a_good_answer_passes_and_is_read() {
        let answer = job_answer(200, &body(256, 10), &ASK).unwrap();
        assert_eq!(
            answer,
            JobAnswer { success_metric: 0.25, warm_start: true, queue_ms: 0.5, run_ms: 12.25 }
        );
    }

    #[test]
    fn a_422_answer_is_rejected() {
        let err = job_answer(422, "{\"error\":\"points must be at least 16\"}", &ASK).unwrap_err();
        assert!(err.contains("422"), "{err}");
    }

    #[test]
    fn mismatched_or_broken_answers_are_rejected() {
        assert!(job_answer(200, &body(512, 10), &ASK).is_err());
        assert!(job_answer(200, &body(256, 11), &ASK).is_err());
        assert!(job_answer(200, "{\"model\":", &ASK).is_err());
        let other_model = body(256, 3).replace("pointnet", "resgcn");
        assert!(job_answer(200, &other_model, &ASK).is_err());
    }

    #[test]
    fn a_streamed_answer_must_end_with_its_result_line() {
        let ask = JobAsk { stream: true, ..ASK };
        let meta = "{\"type\":\"meta\",\"schema\":\"colper-trace-v1\"}";
        let result = format!("{{\"type\":\"result\",{}", &body(256, 10)[1..]);
        assert!(job_answer(200, &format!("{meta}\n{result}\n"), &ask).is_ok());
        assert!(job_answer(200, &format!("{meta}\n"), &ask).is_err());
    }

    #[test]
    fn stream_pass_checks_coverage_and_budget() {
        assert!(stream_pass(1024, 1024, 100, 100).is_ok());
        assert!(stream_pass(1000, 1024, 100, 100).is_err());
        assert!(stream_pass(1024, 1024, 101, 100).is_err());
    }
}
