//! Correctness checks: sampled answers against a fresh-resolution
//! oracle, and acknowledged rescores against the final profiles.

use std::collections::HashMap;

use ctxpref_core::ShardedMultiUserDb;
use ctxpref_profile::Profile;

use crate::gen::{user_name, Kind, Op, Universe};
use crate::load::{digest, Ack, Digest, Sample, ATTR};
use crate::spec::{QUERY_K, TOPK_K};

/// Answers of a fresh-resolution oracle, memoised per (profile, state,
/// kind): users sharing a profile share answers.
pub struct Oracle<'a> {
    db: ShardedMultiUserDb,
    universe: &'a Universe,
    profile_of: Vec<usize>,
    memo: HashMap<(usize, u16, bool), Digest>,
}

impl<'a> Oracle<'a> {
    /// An oracle over `db` (built without a qcache) whose users' profiles are
    /// `profiles`.
    pub fn new(db: ShardedMultiUserDb, profiles: &[Profile], universe: &'a Universe) -> Self {
        // Users with identical profiles share one memo slot.
        let mut seen: HashMap<String, usize> = HashMap::new();
        let profile_of = profiles
            .iter()
            .map(|p| {
                let n = seen.len();
                *seen.entry(format!("{p:?}")).or_insert(n)
            })
            .collect();
        Self {
            db,
            universe,
            profile_of,
            memo: HashMap::new(),
        }
    }

    /// The digest of the rows `op` must answer: fresh `Rank_CS`, cut
    /// to k with ties.
    pub fn rows(&mut self, op: &Op) -> Digest {
        let topk = matches!(op.kind, Kind::TopK);
        let key = (self.profile_of[op.user as usize], op.state, topk);
        let (db, universe) = (&self.db, self.universe);
        *self.memo.entry(key).or_insert_with(|| {
            let rows = fresh_rows(db, universe, op);
            digest(rows.iter().map(|(n, s)| (n.as_str(), *s)))
        })
    }

    /// Check every sample; returns how many differ, with the first.
    pub fn check(&mut self, samples: &[Sample]) -> (u64, Option<String>) {
        let mut wrong = 0;
        let mut first = None;
        for (op, got) in samples {
            let want = self.rows(op);
            if want != *got {
                wrong += 1;
                first.get_or_insert_with(|| {
                    format!(
                        "{op:?}: {} rows served, {} expected, or their names or scores differ",
                        got.0, want.0
                    )
                });
            }
        }
        (wrong, first)
    }
}

/// The rows of a fresh resolution of read `op` on `db` (which must
/// have no qcache), cut to the op's k with ties.
pub fn fresh_rows(db: &ShardedMultiUserDb, universe: &Universe, op: &Op) -> Vec<(String, f64)> {
    let state = &universe.states[op.state as usize];
    let answer = db
        .query_state(&user_name(op.user), state)
        .expect("oracle users exist");
    let k = if matches!(op.kind, Kind::TopK) {
        TOPK_K
    } else {
        QUERY_K
    };
    let rel = db.relation();
    let attr = rel
        .schema()
        .require_attr(ATTR)
        .expect("POI tuples have names");
    answer
        .results
        .top_k_with_ties(k)
        .iter()
        .map(|e| (rel.tuple(e.tuple_index).value(attr).to_string(), e.score))
        .collect()
}

/// Scores of every user's preferences.
pub fn scores(profiles: &[Profile]) -> Vec<Vec<f64>> {
    profiles
        .iter()
        .map(|p| p.preferences().iter().map(|q| q.score()).collect())
        .collect()
}

/// The register check: after all writes settled, each preference must
/// hold its base score if no rescore of it was acknowledged, and
/// otherwise the score of an acknowledged rescore that no other
/// acknowledged rescore of it started after. Returns the violations.
pub fn check_acks(base: &[Vec<f64>], acks: &[Ack], fin: &[Vec<f64>]) -> Vec<String> {
    let mut by_slot: HashMap<(u32, u16), Vec<&Ack>> = HashMap::new();
    for a in acks {
        by_slot.entry((a.user, a.index)).or_default().push(a);
    }
    let mut bad = Vec::new();
    for (u, (want, got)) in base.iter().zip(fin).enumerate() {
        if want.len() != got.len() {
            bad.push(format!(
                "user{u}: {} preferences, expected {}",
                got.len(),
                want.len()
            ));
            continue;
        }
        for (i, (&b, &g)) in want.iter().zip(got).enumerate() {
            let ok = match by_slot.get(&(u as u32, i as u16)) {
                None => g == b,
                Some(slot) => slot
                    .iter()
                    .any(|w| w.score == g && !slot.iter().any(|later| later.sent > w.acked)),
            };
            if !ok {
                bad.push(format!("user{u} preference {i} holds {g}"));
            }
        }
    }
    bad
}
