// Model check for the net server's drain ordering (net::drain_gate +
// kv_store::drain), DESIGN.md §14.
//
// kv_store::drain() severs bucket chains with reset_chain — exclusive
// walks, direct deletes, no grace period. Its contract is "writers must be
// quiesced first", and drain_gate IS the server's proof of that: workers
// wrap request batches in begin_op/end_op, the drain side flips draining
// and waits for in-flight batches before touching the store. Here fibers
// stand in for the epoll workers and drive REAL store operations (ebr
// policy: its reset_chain frees immediately, so an ordering bug is a
// genuine use-after-free, not a masked refcount save) through the real
// gate, under exhaustive-ish schedule exploration.
//
// The mutant leg arms drain_gate's seeded drain-ordering bug
// (mutant::skip_await: proceed to the teardown without waiting) and proves
// the sim harness catches it at preemption_bound=1 — per the validation
// discipline for sim regression tests, the clean test is only trusted
// because this leg demonstrates the harness would have seen the bug.
#include <gtest/gtest.h>

#include <memory>

#include "net/drain_gate.hpp"
#include "sim_test_support.hpp"
#include "smr/smr.hpp"
#include "store/store.hpp"
#include "util/mutation.hpp"

namespace {

using namespace sim_tests;
using lfrc::net::drain_gate;

using ebr_store = lfrc::store::kv_store<lfrc::smr::ebr<>, int, int>;

// One shard, one bucket: every operation collides with the drain walk.
std::shared_ptr<ebr_store> tiny_store() {
    return std::make_shared<ebr_store>(ebr_store::config{1, 1});
}

/// The server's shutdown choreography, miniaturized. Two worker fibers run
/// gated put/erase batches; the drain fiber requests quiescence and then
/// tears the store down. `schedules` at `bound` preemptions.
sim::result run_drain_race(std::uint64_t seed, int schedules, int bound) {
    auto o = opts(seed, schedules);
    o.preemption_bound = bound;
    return sim::explore(o, [](sim::env& e) {
        auto s = tiny_store();
        auto gate = std::make_shared<drain_gate>();
        s->put(1, 10);
        s->put(2, 20);

        const auto worker = [s, gate](int base) {
            for (int i = 0; i < 2; ++i) {
                if (!gate->begin_op()) return;  // drain mode: stop touching
                s->put(base, base + i);         // the store, head for exit
                s->erase(base + 1);
                gate->end_op();
            }
        };
        e.spawn("worker-a", [worker] { worker(1); });
        e.spawn("worker-b", [worker] { worker(2); });
        e.spawn("drain", [s, gate] {
            gate->await_quiescent();
            if (s->drain() != 0) {
                sim::fail_here("residual-pending",
                               "quiesced store drain left deferred frees");
            }
        });
        e.on_quiesce([gate] {
            if (!gate->draining()) {
                sim::fail_here("net-drain", "drain fiber finished without draining");
            }
            expect_quiesced_drain();
        });
    });
}

// The real protocol: no schedule may corrupt memory or leave a residual.
TEST(SimNetDrain, GatedDrainIsExclusive) {
    EXPECT_CLEAN(run_drain_race(8001, 400, /*bound=*/-1));
}

// Low-preemption leg: the two-context-switch window (worker admitted,
// drainer runs to completion, worker resumes) is reachable at bound 1 —
// the cheap cell every CI run can afford.
TEST(SimNetDrain, GatedDrainIsExclusiveBounded) {
    EXPECT_CLEAN(run_drain_race(8002, 400, /*bound=*/1));
}

// Mutant validation: skip the await and the same workload must blow up —
// a worker parked inside put/erase resumes onto entries reset_chain has
// already freed. If the harness stops catching this, the clean tests
// above are vacuous.
TEST(SimNetDrain, SkipAwaitMutantCaughtAtBoundOne) {
    lfrc::mutation::arm armed(lfrc::mutation::mutant::skip_await);
    const auto res = run_drain_race(8003, 400, /*bound=*/1);
    EXPECT_TRUE(res.failed)
        << "drain-ordering mutant survived " << res.schedules_run
        << " schedules at preemption_bound=1 — the sim harness lost its "
           "ability to see the race this gate exists to prevent";
}

}  // namespace
