//! Seeded input generation: plaintext values, operand choices, request
//! mixes and arrival schedules. Everything here is a pure function of the
//! seed; the program under test only ever sees the generated inputs.

/// SplitMix64: small, fast, and owned by the harness so the inputs of a
/// seed cannot change when the repository's own RNG shim does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `stream` so that a workload's
    /// values, mix and arrivals do not share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-amp, amp)`.
    pub fn signed(&mut self, amp: f64) -> f64 {
        (self.unit() * 2.0 - 1.0) * amp
    }

    /// Exponential with the given mean (inter-arrival gaps of a Poisson
    /// process).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// `count` plaintext vectors of `slots` values each, in `[-amp, amp)`.
pub fn plain_vectors(seed: u64, count: usize, slots: usize, amp: f64) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed, 1);
    (0..count)
        .map(|_| (0..slots).map(|_| rng.signed(amp)).collect())
        .collect()
}

/// The operation kinds a workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Mult,
    Rotate,
    Add,
    Sub,
}

/// One generated request: what to do on which operands of the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Call {
    pub kind: Kind,
    pub a: usize,
    pub b: usize,
}

/// A request sequence over a pool of `pool` operands with the mix's exact
/// proportions (`weights` in percent, summing to 100) in every block: the
/// smallest block that holds the proportions (four requests for 50/25/25)
/// is shuffled by the seed, block after block. The seed so decides order
/// and operands but not how much work a second of the sequence holds.
pub fn call_sequence(seed: u64, len: usize, mix: &[(Kind, u32)], pool: usize) -> Vec<Call> {
    debug_assert_eq!(mix.iter().map(|m| m.1).sum::<u32>(), 100);
    let unit = mix.iter().fold(100, |g, m| gcd(g, m.1));
    let block: Vec<Kind> = (mix.iter())
        .flat_map(|&(kind, weight)| std::iter::repeat_n(kind, (weight / unit) as usize))
        .collect();
    let mut rng = Rng::new(seed, 2);
    let mut out = Vec::with_capacity(len + block.len());
    while out.len() < len {
        let mut kinds = block.clone();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.below(i + 1));
        }
        out.extend(kinds.into_iter().map(|kind| Call {
            kind,
            a: rng.below(pool),
            b: rng.below(pool),
        }));
    }
    out.truncate(len);
    out
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Due times in seconds from phase start for Poisson arrivals at `rate`
/// requests per second, up to `seconds`.
pub fn arrival_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 3);
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        t += rng.exp(1.0 / rate);
        if t >= seconds {
            return due;
        }
        due.push(t);
    }
}

/// FNV-1a over 64-bit words: the digest the determinism tests pin.
#[cfg(test)]
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Digest of everything a seed generates for a serving workload: the call
/// sequence, the arrival schedule and the plaintext values.
#[cfg(test)]
pub fn workload_digest(calls: &[Call], due: &[f64], plain: &[Vec<f64>]) -> u64 {
    digest(
        calls
            .iter()
            .flat_map(|c| [c.kind as u64, c.a as u64, c.b as u64])
            .chain(due.iter().map(|d| d.to_bits()))
            .chain(plain.iter().flatten().map(|v| v.to_bits())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: [(Kind, u32); 3] = [(Kind::Mult, 50), (Kind::Rotate, 25), (Kind::Add, 25)];

    fn digest_of(seed: u64) -> u64 {
        workload_digest(
            &call_sequence(seed, 500, &MIX, 4),
            &arrival_schedule(seed, 40.0, 10.0),
            &plain_vectors(seed, 2, 64, 1.0),
        )
    }

    #[test]
    fn one_seed_gives_one_workload() {
        assert_eq!(digest_of(20260929), digest_of(20260929));
        // Pinned: a change to the generator changes every recorded baseline.
        assert_eq!(digest_of(20260929), 0x278B_C29E_6951_5CD2);
    }

    #[test]
    fn two_seeds_differ() {
        assert_ne!(digest_of(20260929), digest_of(77001));
        assert_ne!(call_sequence(1, 50, &MIX, 4), call_sequence(2, 50, &MIX, 4));
    }

    #[test]
    fn every_block_holds_the_mix_exactly() {
        let calls = call_sequence(5, 4_000, &MIX, 4);
        for block in calls.chunks(4) {
            let count = |k: Kind| block.iter().filter(|c| c.kind == k).count();
            assert_eq!(
                (count(Kind::Mult), count(Kind::Rotate), count(Kind::Add)),
                (2, 1, 1)
            );
        }
        assert!(calls.iter().all(|c| c.a < 4 && c.b < 4));
        // The order inside a block is the seed's.
        let first: Vec<Kind> = calls.chunks(4).map(|b| b[0].kind).collect();
        assert!(first.contains(&Kind::Mult) && first.contains(&Kind::Add));
        assert_eq!(
            call_sequence(5, 7, &[(Kind::Add, 50), (Kind::Sub, 50)], 4).len(),
            7
        );
    }

    #[test]
    fn arrivals_are_sorted_and_near_the_rate() {
        let due = arrival_schedule(9, 40.0, 100.0);
        assert!(due.windows(2).all(|w| w[0] < w[1]));
        assert!(due.last().copied().unwrap_or(0.0) < 100.0);
        let rate = due.len() as f64 / 100.0;
        assert!((rate - 40.0).abs() < 2.0, "rate {rate}");
    }

    #[test]
    fn values_stay_in_range() {
        let v = plain_vectors(3, 2, 1000, 0.5);
        assert!(v.iter().flatten().all(|x| (-0.5..0.5).contains(x)));
    }
}
