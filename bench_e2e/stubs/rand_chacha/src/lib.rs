//! Offline stand-in for `rand_chacha` 0.3: a ChaCha8 block generator with
//! the real crate's buffering (four 64-byte blocks per refill, 64-bit
//! block counter, zero stream id) so `next_u64`/`fill_bytes` consume the
//! key stream exactly as `rand_chacha::ChaCha8Rng` does.

use rand::{RngCore, SeedableRng};

const BUF_WORDS: usize = 64;

#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    counter: u64,
    results: [u32; BUF_WORDS],
    index: usize,
}

#[inline(always)]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn block(&self, counter: u64, out: &mut [u32]) {
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(&self.key);
        init[12] = counter as u32;
        init[13] = (counter >> 32) as u32;
        let mut s = init;
        for _ in 0..4 {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (o, (x, i)) in out.iter_mut().zip(s.iter().zip(init.iter())) {
            *o = x.wrapping_add(*i);
        }
    }

    fn generate_and_set(&mut self, index: usize) {
        let mut results = [0u32; BUF_WORDS];
        for (b, out) in results.chunks_mut(16).enumerate() {
            self.block(self.counter.wrapping_add(b as u64), out);
        }
        self.counter = self.counter.wrapping_add(4);
        self.results = results;
        self.index = index;
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, c) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        ChaCha8Rng {
            key,
            counter: 0,
            results: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.generate_and_set(0);
        }
        let v = self.results[self.index];
        self.index += 1;
        v
    }

    fn next_u64(&mut self) -> u64 {
        let read = |r: &[u32; BUF_WORDS], i: usize| (u64::from(r[i + 1]) << 32) | u64::from(r[i]);
        let index = self.index;
        if index < BUF_WORDS - 1 {
            self.index += 2;
            read(&self.results, index)
        } else if index >= BUF_WORDS {
            self.generate_and_set(2);
            read(&self.results, 0)
        } else {
            let x = u64::from(self.results[BUF_WORDS - 1]);
            self.generate_and_set(1);
            (u64::from(self.results[0]) << 32) | x
        }
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut filled = 0;
        while filled < dest.len() {
            if self.index >= BUF_WORDS {
                self.generate_and_set(0);
            }
            let rest = &mut dest[filled..];
            let words = &self.results[self.index..];
            let take = rest.len().min(words.len() * 4);
            for (chunk, w) in rest[..take].chunks_mut(4).zip(words) {
                chunk.copy_from_slice(&w.to_le_bytes()[..chunk.len()]);
            }
            self.index += take.div_ceil(4);
            filled += take;
        }
    }
}
