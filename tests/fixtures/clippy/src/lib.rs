//! One planted call per banned family of the workspace `clippy.toml`.
//! `tests/clippy_bans.rs` asserts the exact lines clippy flags.

pub trait Process {
    fn step(&mut self) -> u32;
}

pub struct DeepStage {
    pub backoff_ms: u64,
}

impl Process for DeepStage {
    fn step(&mut self) -> u32 {
        self.descend();
        0
    }
}

impl DeepStage {
    fn descend(&self) {
        self.settle();
    }

    fn settle(&self) {
        self.snooze();
    }

    // Three calls below `step`: the ban holds at the call site, whatever
    // the depth.
    fn snooze(&self) {
        std::thread::sleep(std::time::Duration::from_millis(self.backoff_ms));
    }
}

pub fn wall_clock_ns() -> u64 {
    std::time::Instant::now().elapsed().as_nanos() as u64
}

pub fn distinct(xs: &[u64]) -> usize {
    xs.iter().collect::<std::collections::HashSet<_>>().len()
}

pub static MEMO: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());

pub fn report(n: u64) {
    println!("{n}");
}

pub fn count_hit(reg: &mut utps_sim::MetricsRegistry) {
    reg.counter_inc("cr.hit");
}

#[allow(
    clippy::disallowed_types,
    reason = "fixture: a justified allow suppresses the ban"
)]
pub fn allowed_stamp() -> u64 {
    std::time::Instant::now().elapsed().as_nanos() as u64
}
