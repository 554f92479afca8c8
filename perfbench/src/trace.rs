//! Seeded request traces.
//!
//! A trace is fixed by its workload's mix and the seed alone: the same
//! seed gives the same operations, payload seeds, arrival times and
//! verification sample, so every input a run sends can be rebuilt.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// What one request asks of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Decompose a fresh `n × n` matrix.
    Decompose {
        /// Matrix size.
        n: usize,
        /// Tagged `SloClass::Interactive` (otherwise `Batch`).
        interactive: bool,
    },
    /// Publish a new version of an existing model.
    Publish {
        /// Model index.
        model: u64,
    },
    /// Apply a published model to a vector.
    Apply {
        /// Model index.
        model: u64,
    },
    /// Incremental update of a client's drifting matrix.
    Update {
        /// Client index.
        client: u64,
    },
}

impl Op {
    /// The request's kind: operation and, for a decompose, its size.
    fn kind(self) -> (u8, usize) {
        match self {
            Op::Decompose { n, .. } => (0, n),
            Op::Publish { .. } => (1, 0),
            Op::Apply { .. } => (2, 0),
            Op::Update { .. } => (3, 0),
        }
    }

    /// Whether the request writes state (publish or update).
    pub fn is_write(self) -> bool {
        matches!(self, Op::Publish { .. } | Op::Update { .. })
    }
}

/// How a trace picks its operations.
#[derive(Debug, Clone, PartialEq)]
pub enum Mix {
    /// Decomposes of `n × n` matrices: `(n, weight, interactive)`.
    Decompose(Vec<(usize, f64, bool)>),
    /// Applies over Zipf-popular models, uniform republishes and
    /// drifting-client updates.
    State {
        /// Published models.
        models: u64,
        /// Zipf exponent of apply popularity.
        zipf_s: f64,
        /// Updating clients.
        clients: u64,
        /// Share of republishes.
        publish: f64,
        /// Share of updates.
        update: f64,
    },
}

/// One request of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// When the request is due, from the start of its phase (zero in a
    /// closed loop).
    pub due: Duration,
    /// The operation.
    pub op: Op,
    /// Seed of the request's payload.
    pub seed: u64,
    /// Whether the request belongs to the verification sample.
    pub sampled: bool,
}

/// A seed for item `index` of `stream`, well mixed from the run's seed
/// so that neighbouring seeds share no inputs.
pub fn mix_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ index.wrapping_mul(0x94D0_49BB_1331_11EB),
    );
    rng.gen()
}

/// Share of requests drawn into the verification sample.
const SAMPLE_SHARE: f64 = 0.2;
/// Most requests of one kind drawn into the sample, so the kept inputs
/// and responses do not grow with the run.
pub const SAMPLE_CAP: usize = 32;

/// Endless seeded operation source.
#[derive(Debug, Clone)]
pub struct Source {
    mix: Mix,
    zipf_cdf: Vec<f64>,
    rng: StdRng,
    /// Requests sampled so far, per kind.
    sampled: Vec<((u8, usize), usize)>,
}

impl Source {
    /// A source for `mix` seeded by `seed`. Each phase of a run takes its
    /// own `stream` so phases never share random draws.
    pub fn new(mix: Mix, seed: u64, stream: u64) -> Self {
        let zipf_cdf = match &mix {
            Mix::State { models, zipf_s, .. } => {
                let weights: Vec<f64> = (1..=*models).map(|k| (k as f64).powf(-zipf_s)).collect();
                let total: f64 = weights.iter().sum();
                weights
                    .iter()
                    .scan(0.0, |acc, w| {
                        *acc += w / total;
                        Some(*acc)
                    })
                    .collect()
            }
            Mix::Decompose(_) => Vec::new(),
        };
        Source {
            mix,
            zipf_cdf,
            rng: StdRng::seed_from_u64(mix_seed(seed, stream, 0)),
            sampled: Vec::new(),
        }
    }

    /// The next request, due at `due`.
    pub fn next_event(&mut self, due: Duration) -> Event {
        let pick: f64 = self.rng.gen();
        let op = match &self.mix {
            Mix::Decompose(shapes) => {
                let total: f64 = shapes.iter().map(|s| s.1).sum();
                let mut left = pick * total;
                let mut chosen = shapes[shapes.len() - 1];
                for &shape in shapes {
                    if left < shape.1 {
                        chosen = shape;
                        break;
                    }
                    left -= shape.1;
                }
                Op::Decompose {
                    n: chosen.0,
                    interactive: chosen.2,
                }
            }
            Mix::State {
                models,
                clients,
                publish,
                update,
                ..
            } => {
                if pick < *publish {
                    Op::Publish {
                        model: self.rng.gen_range(0..*models),
                    }
                } else if pick < publish + update {
                    Op::Update {
                        client: self.rng.gen_range(0..*clients),
                    }
                } else {
                    let u: f64 = self.rng.gen();
                    let model = self.zipf_cdf.partition_point(|&c| c < u);
                    Op::Apply {
                        model: model.min(self.zipf_cdf.len() - 1) as u64,
                    }
                }
            }
        };
        let seed = self.rng.gen();
        let drawn = self.rng.gen_bool(SAMPLE_SHARE);
        let sampled = drawn && {
            let kind = op.kind();
            let at = match self.sampled.iter().position(|(k, _)| *k == kind) {
                Some(at) => at,
                None => {
                    self.sampled.push((kind, 0));
                    self.sampled.len() - 1
                }
            };
            let count = &mut self.sampled[at].1;
            *count += 1;
            *count <= SAMPLE_CAP
        };
        Event {
            due,
            op,
            seed,
            sampled,
        }
    }

    /// An open-loop phase: Poisson arrivals at `rate` per second for
    /// `length`.
    pub fn open_loop(&mut self, rate: f64, length: Duration) -> Vec<Event> {
        let mut events = Vec::new();
        let mut at = 0.0f64;
        loop {
            let u: f64 = self.rng.gen();
            at += -(1.0 - u).ln() / rate;
            if at >= length.as_secs_f64() {
                return events;
            }
            events.push(self.next_event(Duration::from_secs_f64(at)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_mix() -> Mix {
        Mix::State {
            models: 256,
            zipf_s: 1.0,
            clients: 8,
            publish: 0.05,
            update: 0.10,
        }
    }

    fn trace(mix: Mix, seed: u64) -> Vec<Event> {
        Source::new(mix, seed, 0).open_loop(400.0, Duration::from_secs(2))
    }

    #[test]
    fn same_seed_gives_the_same_trace() {
        let decompose = Mix::Decompose(vec![(64, 0.9, false), (128, 0.1, true)]);
        assert_eq!(trace(decompose.clone(), 7), trace(decompose, 7));
        assert_eq!(trace(state_mix(), 7), trace(state_mix(), 7));
    }

    #[test]
    fn different_seeds_give_different_traces() {
        assert_ne!(trace(state_mix(), 7), trace(state_mix(), 8));
        let a = Source::new(state_mix(), 7, 0).next_event(Duration::ZERO);
        let b = Source::new(state_mix(), 7, 1).next_event(Duration::ZERO);
        assert_ne!(a, b, "phases must not share draws");
    }

    #[test]
    fn neighbouring_seeds_share_no_inputs() {
        let seeds = |seed| -> Vec<u64> { (0..64).map(|i| mix_seed(seed, 0, i)).collect() };
        let (a, b) = (seeds(12), seeds(13));
        assert!(a.iter().all(|s| !b.contains(s)));
    }

    #[test]
    fn open_loop_rate_and_mix_are_as_asked() {
        let events = Source::new(state_mix(), 3, 0).open_loop(450.0, Duration::from_secs(20));
        let n = events.len() as f64;
        assert!((n / 20.0 - 450.0).abs() < 20.0, "rate {}", n / 20.0);
        let share = |f: fn(&Op) -> bool| events.iter().filter(|e| f(&e.op)).count() as f64 / n;
        assert!((share(|op| matches!(op, Op::Apply { .. })) - 0.85).abs() < 0.02);
        assert!((share(|op| matches!(op, Op::Publish { .. })) - 0.05).abs() < 0.01);
        assert!((share(|op| matches!(op, Op::Update { .. })) - 0.10).abs() < 0.015);
        // Zipf: model 0 is the most popular by far.
        let hot = events
            .iter()
            .filter(|e| e.op == Op::Apply { model: 0 })
            .count() as f64;
        assert!(hot / n > 0.1);
        assert!(events.windows(2).all(|w| w[0].due <= w[1].due));
        let sampled = |f: fn(&Op) -> bool| events.iter().filter(|e| e.sampled && f(&e.op)).count();
        assert_eq!(sampled(|op| matches!(op, Op::Apply { .. })), SAMPLE_CAP);
        assert_eq!(sampled(|op| matches!(op, Op::Publish { .. })), SAMPLE_CAP);
    }
}
