//! Input generation. Every workload derives its inputs from `--seed`
//! alone, before any job exists and before any clock starts; payloads
//! handed to the program are zero-copy windows of these buffers.
//!
//! Each payload gets a buffer of its own: converting one large vector
//! into shared bytes would briefly hold two copies, and that transient
//! peak would hide the job's own memory from `rss_mib`.

use univistor_sim::payload::splitmix64;
use univistor_sim::rng::DetRng;
use univistor_sim::Bytes;

/// `len` pseudo-random bytes drawn from `seed`'s stream `stream`.
pub fn random_bytes(seed: u64, stream: u64, len: usize) -> Bytes {
    let base = splitmix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut v = Vec::with_capacity(len + 8);
    let mut i = 0u64;
    while v.len() < len {
        v.extend_from_slice(&splitmix64(base ^ i).to_le_bytes());
        i += 1;
    }
    v.truncate(len);
    Bytes::from(v)
}

/// The workload's deterministic RNG for stream `stream`.
pub fn rng(seed: u64, stream: u64) -> DetRng {
    DetRng::seed(splitmix64(
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    ))
}
