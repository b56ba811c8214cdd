//! Seeded inputs: trips from the repository's `Simulator` and the
//! order requests send them in. Every random draw derives from the
//! benchmark's `--seed`, split into named streams so that one input
//! family never shifts another.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rntrajrec::wire::RecoverRequest;
use rntrajrec_roadnet::RoadNetwork;
use rntrajrec_synth::{SimConfig, Simulator, TrajSample};

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A 64-bit seed for the named stream of a run seed.
pub fn stream_seed(seed: u64, stream: &str) -> u64 {
    let fnv = stream.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    });
    splitmix64(seed ^ fnv)
}

pub fn rng(seed: u64, stream: &str) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, stream))
}

/// `count` trips of `target_len` ground-truth steps, observed at every
/// `downsample`-th step.
pub fn trips(
    net: &RoadNetwork,
    seed: u64,
    stream: &str,
    target_len: usize,
    count: usize,
    downsample: usize,
) -> Vec<TrajSample> {
    let mut sim = Simulator::new(
        net,
        SimConfig {
            target_len,
            ..SimConfig::default()
        },
    );
    let mut rng = rng(seed, stream);
    (0..count)
        .map(|_| sim.sample(&mut rng, downsample))
        .collect()
}

/// The `POST /v1/recover` body for a trip.
pub fn request_body(trip: &TrajSample) -> String {
    let req = RecoverRequest::from_raw(&trip.raw, trip.target.len(), trip.depart_epoch_s);
    serde_json::to_string(&req).expect("request serializes")
}

/// A closed-loop client's requests: which of `pool` bodies each sends,
/// and a uniform 0..`think_ms` pause before it.
pub fn think_order(seed: u64, n: usize, pool: usize, think_ms: f64) -> Vec<(usize, Duration)> {
    let mut rng = rng(seed, "order");
    (0..n)
        .map(|_| {
            let i = rng.gen_range(0..pool);
            (
                i,
                Duration::from_secs_f64(rng.gen_range(0.0..think_ms) / 1e3),
            )
        })
        .collect()
}

/// Which of `pool` inputs each of `n` requests sends.
pub fn pick_order(seed: u64, n: usize, pool: usize) -> Vec<usize> {
    let mut rng = rng(seed, "order");
    (0..n).map(|_| rng.gen_range(0..pool)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rntrajrec_roadnet::{CityConfig, SyntheticCity};

    fn bodies(net: &RoadNetwork, seed: u64) -> Vec<String> {
        trips(net, seed, "t", 33, 4, 8)
            .iter()
            .map(request_body)
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let city = SyntheticCity::generate(CityConfig::tiny());
        assert_eq!(bodies(&city.net, 5), bodies(&city.net, 5));
        assert_ne!(bodies(&city.net, 5), bodies(&city.net, 6));
        // Streams of one seed are independent of each other.
        let a = trips(&city.net, 5, "a", 33, 1, 8);
        let b = trips(&city.net, 5, "b", 33, 1, 8);
        assert_ne!(request_body(&a[0]), request_body(&b[0]));
    }

    #[test]
    fn same_seed_same_order_other_seed_other_order() {
        assert_eq!(think_order(3, 20, 8, 10.0), think_order(3, 20, 8, 10.0));
        assert_ne!(think_order(3, 20, 8, 10.0), think_order(4, 20, 8, 10.0));
        let order = pick_order(1, 40, 16);
        assert_eq!(order, pick_order(1, 40, 16));
        assert_ne!(order, pick_order(2, 40, 16));
        assert!(order.iter().all(|&i| i < 16));
    }
}
