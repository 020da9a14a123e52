//! The seed fixes the op stream and the arrival schedule.

use std::time::Duration;

use ledgerbench::gen::{arrivals, Op, OpGen, Stream};
use ledgerbench::setup::Data;
use ledgerbench::spec::WORKLOADS;

fn stream(seed: u64, spec_ix: usize, n: usize) -> (Vec<Op>, Vec<Duration>) {
    let spec = WORKLOADS[spec_ix];
    let data = Data::new(&spec);
    let mut g = OpGen::new(
        &spec,
        seed,
        Stream::Open,
        &data.targets,
        data.universe.states.len(),
    );
    let ops = (0..n).map(|_| g.next_op()).collect();
    (ops, arrivals(seed, spec.rate, Duration::from_millis(500)))
}

#[test]
fn same_seed_same_ops_and_schedule() {
    for (ix, spec) in WORKLOADS.iter().enumerate() {
        assert_eq!(stream(7, ix, 2000), stream(7, ix, 2000), "{}", spec.name);
    }
}

#[test]
fn different_seed_different_ops_and_schedule() {
    for (ix, spec) in WORKLOADS.iter().enumerate() {
        let (a_ops, a_at) = stream(7, ix, 2000);
        let (b_ops, b_at) = stream(8, ix, 2000);
        assert_ne!(a_ops, b_ops, "{}", spec.name);
        assert_ne!(a_at, b_at, "{}", spec.name);
    }
}

#[test]
fn op_mix_follows_the_spec() {
    for (ix, spec) in WORKLOADS.iter().enumerate() {
        let (ops, at) = stream(3, ix, 20_000);
        let writes = ops.iter().filter(|o| !o.is_read()).count() as f64 / ops.len() as f64;
        assert!(
            (writes - spec.write_share).abs() < 0.02,
            "{}: {writes}",
            spec.name
        );
        assert!(
            ops.iter().all(|o| (o.user as usize) < spec.users),
            "{}",
            spec.name
        );
        // Poisson arrivals at the nominal rate over half a second.
        let expected = spec.rate * 0.5;
        let n = at.len() as f64;
        assert!(
            (n - expected).abs() < 5.0 * expected.sqrt(),
            "{}: {n} arrivals",
            spec.name
        );
    }
}

#[test]
fn probe_writes_touch_only_probe_users() {
    for spec in WORKLOADS.iter().filter(|s| !s.has_writes()) {
        let data = Data::new(spec);
        let mut g = OpGen::new(
            spec,
            5,
            Stream::Probe,
            &data.targets,
            data.universe.states.len(),
        );
        for _ in 0..1000 {
            let op = g.next_write();
            assert!((op.user as usize) >= spec.users && (op.user as usize) < spec.population());
        }
    }
}
