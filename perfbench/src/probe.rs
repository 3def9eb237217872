//! The reference kernel: a fixed amount of host work that shares no
//! code with the simulator. The harness times it between study
//! executions, so a host that runs slower for a while (other guests on
//! the machine, a preempted vCPU) shows in the kernel's time as well as
//! in the study's, and the ratio of the two does not move with it.
//!
//! Its two parts are the ones whose time tracked the studies' best
//! under host contention: hash-map churn (the simulator's own
//! bookkeeping pattern) and an unstable sort of pseudo-random keys.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Fixed-key SipHash, so the map's layout is the same in every process.
type Map = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

const SORT_KEYS: u64 = 1_000_000;
const MAP_KEYS: u64 = 200_000;
const MAP_OPS: u64 = 1_500_000;

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sorts `n` pseudo-random keys and returns the middle one.
fn sort(n: u64) -> u64 {
    let mut v: Vec<u64> = (0..n).map(mix).collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// Inserts, lookups and removals over `keys` keys.
fn map(keys: u64, n: u64) -> u64 {
    let mut m = Map::default();
    let (mut s, mut acc) = (3u64, 0u64);
    for _ in 0..n {
        s = mix(s);
        let k = s % keys;
        match s >> 62 {
            0 => {
                m.remove(&k);
            }
            1 => {
                m.insert(k, s);
            }
            _ => acc ^= m.get(&k).copied().unwrap_or(k),
        }
    }
    acc
}

/// Host seconds one pass of the kernel takes.
pub fn run() -> f64 {
    let t0 = Instant::now();
    black_box(map(black_box(MAP_KEYS), MAP_OPS));
    black_box(sort(black_box(SORT_KEYS)));
    t0.elapsed().as_secs_f64()
}
