//! The one hash mixer behind every report digest in the workspace
//! (fault schedules, training, serving, search and fleet reports), so a
//! digest pinned in one crate means the same thing in another.

/// SplitMix64-style mixing step: folds `v` into the running hash `h`.
pub fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds a string into `h`: its length, then its bytes in little-endian
/// 8-byte chunks (the last zero-padded).
pub fn mix_str(h: u64, s: &str) -> u64 {
    let mut h = mix(h, s.len() as u64);
    for chunk in s.as_bytes().chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(buf));
    }
    h
}
