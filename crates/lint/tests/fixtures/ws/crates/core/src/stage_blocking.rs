// R1 fixture: a stage whose `step` reaches a blocking call one level
// down the call graph (`step` -> `nap` -> `thread::sleep`).

use std::thread;

pub struct BadStage {
    pub backoff_ms: u64,
}

pub trait Process<W> {
    fn step(&mut self, world: &mut W) -> u32;
}

impl Process<u32> for BadStage {
    fn step(&mut self, world: &mut u32) -> u32 {
        *world += 1;
        self.nap();
        0
    }
}

impl BadStage {
    fn nap(&self) {
        thread::sleep(std::time::Duration::from_millis(self.backoff_ms));
    }
}
