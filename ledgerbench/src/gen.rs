//! Seeded inputs: the op stream and the Poisson arrival schedule.
//!
//! The seed draws the ops (user, state, kind, write target) and their
//! arrival times. The relation, the profiles, which users are popular
//! and each user's hot set are the workload's and never depend on it.

use std::time::Duration;

use ctxpref_context::{ContextEnvironment, ContextState};
use ctxpref_profile::Profile;
use ctxpref_workload::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Spec, DATA_SEED};

/// Independent sub-streams of one seed, one per phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The untimed warm-up.
    Warmup,
    /// The traced run's open loop.
    Open,
    /// Closed-loop connection `i` (counted across rounds).
    Closed(u64),
    /// The serial routed phase of round `r`.
    Serial(u64),
    /// The trailing write probe of read-only workloads.
    Probe,
    /// The traced replay sample.
    Trace,
}

impl Stream {
    fn id(self) -> u64 {
        match self {
            Self::Warmup => 1,
            Self::Probe => 2,
            Self::Trace => 3,
            Self::Open => 4,
            Self::Closed(i) => (2 << 8) + i,
            Self::Serial(r) => (3 << 8) + r,
        }
    }
}

/// SplitMix64 finaliser: decorrelates `seed` and a stream tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every detailed context state of an environment (240 for the POI
/// environment), as wire names and as parsed states.
#[derive(Debug, Clone)]
pub struct Universe {
    /// Value names per state, one per hierarchy in environment order.
    pub names: Vec<Vec<String>>,
    /// The parsed states, index-aligned with `names`.
    pub states: Vec<ContextState>,
}

impl Universe {
    /// The cross product of every hierarchy's detailed level.
    pub fn new(env: &ContextEnvironment) -> Self {
        let mut names: Vec<Vec<String>> = vec![Vec::new()];
        for (_, h) in env.iter() {
            let level: Vec<String> = h
                .domain(h.detailed_level())
                .iter()
                .map(|&v| h.value_name(v).to_string())
                .collect();
            names = names
                .into_iter()
                .flat_map(|prefix| {
                    level.iter().map(move |v| {
                        let mut next = prefix.clone();
                        next.push(v.clone());
                        next
                    })
                })
                .collect();
        }
        let states = names
            .iter()
            .map(|n| {
                let refs: Vec<&str> = n.iter().map(String::as_str).collect();
                ContextState::parse(env, &refs).expect("a detailed state parses")
            })
            .collect();
        Self { names, states }
    }

    /// The names of state `i` as `&str`s, for the client APIs.
    pub fn refs(&self, i: usize) -> Vec<&str> {
        self.names[i].iter().map(String::as_str).collect()
    }
}

/// What one op does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `topk` read with k = `TOPK_K`.
    TopK,
    /// Full-ranking `query` read with k = `QUERY_K`.
    Query,
    /// Rescore preference `index` to `score`.
    Rescore {
        /// Position in the user's profile.
        index: u16,
        /// The new score.
        score: f64,
    },
}

/// One operation of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// User number (`user{n}`).
    pub user: u32,
    /// Index into [`Universe`] (reads only).
    pub state: u16,
    /// Read or write.
    pub kind: Kind,
}

impl Op {
    /// Whether the op is a read.
    pub fn is_read(&self) -> bool {
        !matches!(self.kind, Kind::Rescore { .. })
    }
}

/// The name of user `n`.
pub fn user_name(n: u32) -> String {
    format!("user{n}")
}

/// Preferences of `profile` that can be rescored without conflicting
/// with another preference (Definition 6: same clause, overlapping
/// context, different score), with their base scores. Zero scores are
/// left out so that every rescore changes the profile.
pub fn rescore_targets(env: &ContextEnvironment, profile: &Profile) -> Vec<(u16, f64)> {
    let prefs = profile.preferences();
    prefs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.score() > 0.0)
        .filter(|(i, p)| {
            [0.97, 0.91].iter().all(|f| {
                let moved = p
                    .with_score(p.score() * f)
                    .expect("a lowered score is valid");
                prefs.iter().enumerate().all(|(j, other)| {
                    j == *i
                        || !other
                            .conflicts_with(&moved, env)
                            .expect("profile descriptors are well-formed")
                })
            })
        })
        .map(|(i, p)| (u16::try_from(i).expect("profiles stay small"), p.score()))
        .collect()
}

/// The seeded op generator of one phase.
#[derive(Debug, Clone)]
pub struct OpGen {
    spec: Spec,
    rng: StdRng,
    zipf: Zipf,
    /// Popularity rank → user number.
    by_rank: Vec<u32>,
    /// Per-user hot set (empty when the workload roams).
    hot: Vec<Vec<u16>>,
    targets: Vec<Vec<(u16, f64)>>,
    states: usize,
}

impl OpGen {
    /// The generator of `stream` under `seed`. `targets[u]` are user
    /// `u`'s rescorable preferences; `states` is the universe size.
    pub fn new(
        spec: &Spec,
        seed: u64,
        stream: Stream,
        targets: &[Vec<(u16, f64)>],
        states: usize,
    ) -> Self {
        // Which users are popular and each user's hot set are part of
        // the workload, fixed by the data seed; the run seed draws the
        // ops from that shape. Seeds then differ by sampling only, not
        // by landing the traffic on differently sized answers.
        let mut shape = StdRng::seed_from_u64(mix(DATA_SEED, 0));
        let mut by_rank: Vec<u32> = (0..spec.users as u32).collect();
        for i in (1..by_rank.len()).rev() {
            let j = shape.random_range(0..=i);
            by_rank.swap(i, j);
        }
        let hot = match spec.hot_states {
            None => Vec::new(),
            Some(n) => (0..spec.users)
                .map(|_| {
                    let mut set: Vec<u16> = Vec::with_capacity(n);
                    while set.len() < n.min(states) {
                        let s = shape.random_range(0..states) as u16;
                        if !set.contains(&s) {
                            set.push(s);
                        }
                    }
                    set
                })
                .collect(),
        };
        Self {
            spec: *spec,
            rng: StdRng::seed_from_u64(mix(seed, stream.id())),
            zipf: Zipf::new(spec.users, spec.user_skew),
            by_rank,
            hot,
            targets: targets.to_vec(),
            states,
        }
    }

    fn user(&mut self) -> u32 {
        self.by_rank[self.zipf.sample(&mut self.rng)]
    }

    fn state_of(&mut self, user: u32) -> u16 {
        if self.hot.is_empty() {
            self.rng.random_range(0..self.states) as u16
        } else {
            let set = &self.hot[user as usize];
            set[self.rng.random_range(0..set.len())]
        }
    }

    /// The next op of the workload's mix.
    pub fn next_op(&mut self) -> Op {
        let roll: f64 = self.rng.random();
        if roll < self.spec.write_share {
            return self.next_write();
        }
        let user = self.user();
        let state = self.state_of(user);
        let kind = if roll < self.spec.write_share + self.spec.topk_share {
            Kind::TopK
        } else {
            Kind::Query
        };
        Op { user, state, kind }
    }

    /// The next rescore of a conflict-free preference, moved 1–9%
    /// below its base score: of a popular user, or of a probe user
    /// when the workload has them.
    pub fn next_write(&mut self) -> Op {
        let user = if self.spec.probe_users > 0 {
            (self.spec.users + self.rng.random_range(0..self.spec.probe_users)) as u32
        } else {
            self.user()
        };
        let targets = &self.targets[user as usize];
        let (index, base) = targets[self.rng.random_range(0..targets.len())];
        let step = f64::from(self.rng.random_range(1u32..10));
        Op {
            user,
            state: 0,
            kind: Kind::Rescore {
                index,
                score: base * (1.0 - 0.01 * step),
            },
        }
    }

    /// Every (user, hot state) pair, for the warm-up (empty when the
    /// workload roams).
    pub fn hot_pairs(&self) -> Vec<(u32, u16)> {
        self.hot
            .iter()
            .enumerate()
            .flat_map(|(u, set)| set.iter().map(move |&s| (u as u32, s)))
            .collect()
    }
}

/// Poisson arrival offsets at `rate` per second, covering `window`.
pub fn arrivals(seed: u64, rate: f64, window: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 99));
    let end = window.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize);
    loop {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}
