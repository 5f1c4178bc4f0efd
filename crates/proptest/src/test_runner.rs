//! Deterministic case runner: configuration, RNG, and failure reporting.

/// Per-test configuration (a subset of upstream's fields).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A splitmix64 generator seeded from the test function's name, so every
/// run of a given property draws the same case sequence.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from `name` (FNV-1a over the bytes).
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { state: h }
    }

    /// The next 64 uniform bits (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Unbiased uniform draw from `0..span` (Lemire rejection).
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero.
    pub fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "below(0)");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (span as u128);
            if (m as u64) >= span.wrapping_neg() % span {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Prints the failing case's inputs if dropped while panicking.
pub struct PanicGuard {
    test: &'static str,
    case: u32,
    values: String,
    armed: bool,
}

impl PanicGuard {
    /// Arms the guard with this case's formatted inputs.
    pub fn arm(test: &'static str, case: u32, values: String) -> Self {
        PanicGuard {
            test,
            case,
            values,
            armed: true,
        }
    }

    /// Declares the case passed; the guard prints nothing.
    pub fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for PanicGuard {
    #[allow(
        clippy::disallowed_macros,
        reason = "test-harness report of a failing case, never on a simulated path"
    )]
    fn drop(&mut self) {
        if self.armed && std::thread::panicking() {
            eprintln!(
                "proptest: {} failed at case {} with inputs: {}",
                self.test, self.case, self.values
            );
        }
    }
}
