//! Offline stand-in for `rand` 0.8: only the surface `ef-simcore::DetRng`
//! touches (`RngCore`, `SeedableRng::seed_from_u64`, `Rng::gen::<f64>` and
//! `Rng::gen_range` over `u64`/`usize`/`f64` half-open ranges). The
//! sampling rules follow rand 0.8.5 (53-bit floats, widening-multiply
//! rejection for integers, PCG32 seed expansion), so streams are the ones
//! the real crate would draw.

use std::ops::Range;

pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

pub trait SeedableRng: Sized {
    type Seed: Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// PCG32 expansion of a 64-bit seed, as in rand_core 0.6.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&x[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types `Rng::gen` can produce (the `Standard` distribution).
pub trait Standard: Sized {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

fn uniform_u64<R: RngCore + ?Sized>(low: u64, high: u64, rng: &mut R) -> u64 {
    assert!(low < high, "cannot sample empty range");
    let range = (high - 1).wrapping_sub(low).wrapping_add(1);
    if range == 0 {
        return rng.next_u64();
    }
    let zone = (range << range.leading_zeros()).wrapping_sub(1);
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(range);
        if (wide as u64) <= zone {
            return low.wrapping_add((wide >> 64) as u64);
        }
    }
}

impl SampleRange<u64> for Range<u64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> u64 {
        uniform_u64(self.start, self.end, rng)
    }
}

impl SampleRange<usize> for Range<usize> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        uniform_u64(self.start as u64, self.end as u64, rng) as usize
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let scale = self.end - self.start;
        loop {
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
            let res = (value1_2 - 1.0) * scale + self.start;
            if res < self.end {
                return res;
            }
        }
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
