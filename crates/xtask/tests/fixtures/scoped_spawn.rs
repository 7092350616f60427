//! Known-bad fixture: thread fan-out outside the executor, in path and
//! use-tree form.

use std::thread::{self, spawn}; // line 4: flagged (spawn)

pub fn fan_out(n: usize) {
    std::thread::scope(|s| { // line 7: flagged (scope)
        for _ in 0..n {
            s.spawn(|| ()); // a scope handle's spawn is covered by line 7
        }
    });
    let _ = thread::Builder::new(); // line 12: flagged (Builder)
    spawn(|| ()); // bare call after the import is not re-flagged
}

// Non-spawning std::thread items are allowed:
pub fn cores() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_spawn() {
        std::thread::spawn(|| ()).join().unwrap();
    }
}
