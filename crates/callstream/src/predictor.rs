//! Predictors: where optimistic guesses come from.
//!
//! Call Streaming is only as good as its predictions. The paper's page
//! printer predicts from domain knowledge ("reports rarely end exactly at
//! the page boundary"); general clients predict from history. This module
//! provides the trait and the two workhorse strategies, both usable
//! directly with [`stream_call_predicted`].

use std::collections::HashMap;

use hope_core::ProcessId;
use hope_runtime::{Ctx, Hope, Value};

use crate::client::stream_call;

/// A source of predicted responses for optimistic calls.
///
/// Implementations must be deterministic functions of the observations
/// fed to [`Predictor::observe`] — they live inside process bodies, so
/// journal replay will re-run them.
pub trait Predictor {
    /// Predict the server's response to `request`.
    fn predict(&mut self, request: &Value) -> Value;

    /// Learn from an actual `(request, response)` pair.
    fn observe(&mut self, request: &Value, response: &Value);
}

/// Predicts that a request maps to whatever it mapped to last time, with
/// a configurable default for unseen requests.
///
/// The right strategy for read-mostly services (caches, directories,
/// replicated reads): after one observation per key it is exact until the
/// value changes.
#[derive(Debug, Clone, Default)]
pub struct MemoPredictor {
    memory: HashMap<Value, Value>,
    default: Value,
}

impl MemoPredictor {
    /// A memoizing predictor that predicts `default` for unseen requests.
    pub fn new(default: Value) -> Self {
        MemoPredictor {
            memory: HashMap::new(),
            default,
        }
    }

    /// Number of request keys memorized.
    pub fn len(&self) -> usize {
        self.memory.len()
    }

    /// `true` if nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.memory.is_empty()
    }
}

impl Predictor for MemoPredictor {
    fn predict(&mut self, request: &Value) -> Value {
        self.memory
            .get(request)
            .cloned()
            .unwrap_or_else(|| self.default.clone())
    }

    fn observe(&mut self, request: &Value, response: &Value) {
        self.memory.insert(request.clone(), response.clone());
    }
}

/// Predicts the last response seen, regardless of the request — the right
/// strategy for slowly varying streams (sensor reads, sequence numbers
/// advancing by a known stride when combined with [`LastValuePredictor::with_stride`]).
#[derive(Debug, Clone, Default)]
pub struct LastValuePredictor {
    last: Option<Value>,
    stride: i64,
}

impl LastValuePredictor {
    /// Predict exactly the previous response.
    pub fn new() -> Self {
        LastValuePredictor::default()
    }

    /// Predict the previous integer response plus `stride` (for counters
    /// and sequence numbers).
    pub fn with_stride(stride: i64) -> Self {
        LastValuePredictor { last: None, stride }
    }
}

impl Predictor for LastValuePredictor {
    fn predict(&mut self, _request: &Value) -> Value {
        match &self.last {
            Some(Value::Int(v)) => Value::Int(v + self.stride),
            Some(v) => v.clone(),
            // Cold start: predict the stride itself. Note this is an
            // `Int` even though nothing was observed — speculative code
            // runs with the *predicted* value, so a prediction must be
            // type-correct even when it is numerically wrong.
            None => Value::Int(self.stride),
        }
    }

    fn observe(&mut self, _request: &Value, response: &Value) {
        self.last = Some(response.clone());
    }
}

/// [`stream_call`] with the prediction supplied (and trained) by a
/// [`Predictor`].
///
/// The actual response — whether it came back optimistically confirmed or
/// via rollback — is fed to [`Predictor::observe`], so mispredictions are
/// self-correcting.
///
/// # Errors
///
/// Propagates runtime [`Signal`](hope_runtime::Signal)s.
pub fn stream_call_predicted(
    ctx: &mut Ctx,
    server: ProcessId,
    request: impl Into<Value>,
    predictor: &mut impl Predictor,
) -> Hope<Value> {
    let request = request.into();
    let predicted = predictor.predict(&request);
    let response = stream_call(ctx, server, request.clone(), predicted)?;
    predictor.observe(&request, &response);
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve_verified;
    use hope_runtime::{SimConfig, Simulation};
    use hope_sim::{LatencyModel, Topology, VirtualDuration};

    #[test]
    fn memo_predictor_learns_keys() {
        let mut p = MemoPredictor::new(Value::Int(0));
        assert!(p.is_empty());
        assert_eq!(p.predict(&Value::Int(1)), Value::Int(0));
        p.observe(&Value::Int(1), &Value::Int(42));
        assert_eq!(p.predict(&Value::Int(1)), Value::Int(42));
        assert_eq!(p.predict(&Value::Int(2)), Value::Int(0));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn last_value_predictor_strides() {
        let mut p = LastValuePredictor::with_stride(10);
        assert_eq!(p.predict(&Value::Unit), Value::Int(10), "typed cold start");
        p.observe(&Value::Unit, &Value::Int(5));
        assert_eq!(p.predict(&Value::Unit), Value::Int(15));
        let mut plain = LastValuePredictor::new();
        plain.observe(&Value::Unit, &Value::Str("x".into()));
        assert_eq!(plain.predict(&Value::Unit), Value::Str("x".into()));
    }

    #[test]
    fn predicted_calls_self_correct_across_rollbacks() {
        // A counter service with a mid-stream regime change: the stride
        // predictor hits until the jump, rolls back exactly once there,
        // learns the new level, and hits again.
        let topo = Topology::uniform(LatencyModel::Fixed(VirtualDuration::from_millis(5)));
        let server = hope_runtime::ProcessId(1);
        let mut sim = Simulation::new(SimConfig::with_seed(2).with_topology(topo));
        sim.spawn("client", move |ctx| {
            let mut predictor = LastValuePredictor::with_stride(1);
            let mut seen = Vec::new();
            for _ in 0..6 {
                let v = stream_call_predicted(ctx, server, Value::Unit, &mut predictor)?;
                seen.push(v.expect_int());
            }
            ctx.output(format!("seen={seen:?}"))?;
            Ok(())
        });
        sim.spawn("server", |ctx| {
            let mut counter = 0i64;
            let mut calls = 0u32;
            serve_verified(
                ctx,
                VirtualDuration::from_micros(50),
                move |_| {
                    calls += 1;
                    counter += if calls == 4 { 7 } else { 1 };
                    Value::Int(counter)
                },
                |_| {},
            )
        });
        let report = sim.run();
        assert!(report.errors().is_empty(), "{report}");
        assert_eq!(report.output_lines(), vec!["seen=[1, 2, 3, 10, 11, 12]"]);
        // Exactly one misprediction: the regime change.
        assert_eq!(report.stats().rollback_events, 1, "{report}");
    }
}
