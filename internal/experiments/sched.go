package experiments

import (
	schedpkg "repro/internal/sched"
)

// The single process-wide concurrency bound for experiment work lives
// in internal/sched (it is shared with the fleet subsystem; see that
// package's doc comment for the acquire/try-acquire contract that keeps
// nested fan-out deadlock-free). Before it existed the engine ran two
// independent worker pools — RunAll started GOMAXPROCS experiment
// workers and every sweep inside an experiment started GOMAXPROCS more
// — so nested fan-out could put GOMAXPROCS² goroutines on GOMAXPROCS
// cores. Now both levels (and fleet runs in the same process) draw from
// one semaphore:
//
//   - RunAll workers block in Acquire before running an experiment and
//     hold the slot for its duration (sweeps inside it run under that
//     slot).
//   - sweep helper goroutines are spawned only for slots obtained with
//     the non-blocking TryAcquire, and the sweeping caller always works
//     inline under the slot it already holds.

// sched is this package's reference to the process-wide scheduler.
// Tests swap it to control parallelism independently of the machine's
// core count.
var sched = schedpkg.Global
