// R1 transitive fixture: the blocking call sits three levels below
// `Process::step` — only the transitive call graph can see it
// (`step` -> `descend` -> `settle` -> `snooze` -> `thread::sleep`).

use std::thread;

use crate::stage_blocking::Process;

pub struct DeepStage {
    pub backoff_ms: u64,
}

impl Process<u32> for DeepStage {
    fn step(&mut self, world: &mut u32) -> u32 {
        *world += 1;
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

    fn snooze(&self) {
        thread::sleep(std::time::Duration::from_millis(self.backoff_ms));
    }
}
