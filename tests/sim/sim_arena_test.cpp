// Model check for the arena's remote-free vs. local-pop race (DESIGN.md
// §15). The owner's single-block remote pop REUSES ITS PRE-CAS-READ `next`
// link, which is only sound because every successful head CAS advances the
// 32-bit ABA tag: a thief can steal the owner's whole chain, recycle a
// block, and push it back so the head shows the SAME index again — only the
// tag distinguishes the reborn head from the one the owner read.
//
// The fibers drive a REAL lfrc::alloc::arena (fresh instance per schedule,
// so freelists and tags are deterministic) through the narrowest version of
// that interleaving. A shared outstanding-set turns any double-allocation
// into an immediate sim failure.
//
// The mutant leg arms the arena's seeded strip-the-tag bug
// (mutant::strip_arena_tag: head CASes stop advancing the tag) and proves
// this harness catches it at preemption_bound=1 — per the validation
// discipline, the clean tests are only trusted because this leg shows the
// harness would have seen the classic recycled-freelist ABA.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>

#include "alloc/arena.hpp"
#include "sim_test_support.hpp"
#include "util/mutation.hpp"
#include "util/sim_hook.hpp"
#include "util/thread_registry.hpp"

namespace {

using namespace sim_tests;
using lfrc::alloc::arena;

/// The owner's shard starts with a remote list [y -> x] (seeded through
/// unscheduled accesses so the preconditions cost no scheduler steps), then
/// two fibers collide on it:
///
///   owner  pops its own remote list twice — each pop pre-reads `next`
///          before the head CAS, the window under test;
///   thief  steals the whole chain (ABA-safe by construction), frees y
///          back home so the head shows index y AGAIN, and KEEPS x.
///
/// If the owner parks between its head read and its head CAS while all of
/// that interference lands, only the advanced tag makes the owner's CAS
/// fail; with the tag stripped the CAS succeeds against the reborn head,
/// installs the stale pre-read x as the new head, and the owner's second
/// pop re-issues the block the thief is holding — caught by the shared
/// outstanding-set. The whole interference fits in ONE charged preemption:
/// once the bound is spent, the scheduler must run the thief to completion
/// before the parked owner resumes.
sim::result run_arena_race(std::uint64_t seed, int schedules, int bound) {
    auto o = opts(seed, schedules);
    o.preemption_bound = bound;
    return sim::explore(o, [](sim::env& e) {
        auto a = std::make_shared<arena>();
        auto outstanding = std::make_shared<std::set<void*>>();
        const auto track = [outstanding](void* p) {
            if (!outstanding->insert(p).second) {
                sim::fail_here("arena-double-alloc",
                               "arena handed one block to two owners — the "
                               "remote head recurred and a stale pre-read "
                               "next survived the pop CAS");
            }
        };
        const auto untrack = [outstanding](void* p) { outstanding->erase(p); };

        auto seeded = std::make_shared<std::atomic<bool>>(false);
        constexpr std::size_t sz = 48;
        const std::size_t k =
            static_cast<std::size_t>(lfrc::alloc::arena_testing::klass_of(sz));

        e.spawn("owner", [=] {
            // Build this shard's remote list as [y -> x] with zero
            // scheduler steps; home is this fiber's registry slot.
            const std::size_t s = lfrc::util::thread_registry::instance().slot();
            lfrc::alloc::arena_testing::seed_remote_block(*a, k, s);  // x
            lfrc::alloc::arena_testing::seed_remote_block(*a, k, s);  // y
            seeded->store(true, std::memory_order_relaxed);
            // The racy window: each allocate pops our own remote list with
            // a pre-read `next`; the scheduler may park us between the
            // head read and the CAS while the thief interferes.
            void* p = a->allocate(sz);
            track(p);
            void* q = a->allocate(sz);
            track(q);
            untrack(q);
            a->deallocate(q, sz);
            untrack(p);
            a->deallocate(p, sz);
        });

        e.spawn("thief", [=] {
            // Plain-atomic spin + voluntary yields: waiting costs no
            // preemption budget.
            while (!seeded->load(std::memory_order_relaxed)) {
                lfrc::util::cooperative_yield();
            }
            // Interfere: steal the owner's whole chain, which magazines x
            // and returns y; push y back home (the head index recurs);
            // then take x out of the magazine and HOLD it.
            void* s1 = a->allocate(sz);
            track(s1);
            untrack(s1);
            a->deallocate(s1, sz);
            void* s2 = a->allocate(sz);
            track(s2);
            // s2 stays allocated: if the owner's stale CAS wins, the owner
            // re-issues this exact block and the set flags it.
        });

        e.on_quiesce([outstanding] {
            if (outstanding->size() != 1) {  // only the thief's held block
                sim::fail_here("arena-lost-block",
                               "churn finished with an unexpected number of "
                               "outstanding blocks");
            }
        });
    });
}

// The real protocol: no schedule may double-issue or lose a block.
TEST(SimArena, RemotePopSurvivesChainRecycling) {
    EXPECT_CLEAN(run_arena_race(9101, 400, /*bound=*/-1));
}

// Low-preemption leg: the whole interference fits inside one charged
// preemption (owner parked between head read and head CAS) — the cheap
// cell every CI run can afford.
TEST(SimArena, RemotePopSurvivesChainRecyclingBounded) {
    EXPECT_CLEAN(run_arena_race(9102, 400, /*bound=*/1));
}

// Mutant validation: freeze the tag and the same workload must blow up —
// the owner's parked pop CAS succeeds against the reborn head and installs
// its stale `next`, handing the thief's held block out a second time. If
// the harness stops catching this, the clean tests above are vacuous.
TEST(SimArena, StripTagMutantCaughtAtBoundOne) {
    lfrc::mutation::arm armed(lfrc::mutation::mutant::strip_arena_tag);
    const auto res = run_arena_race(9103, 400, /*bound=*/1);
    EXPECT_TRUE(res.failed)
        << "strip-the-tag mutant survived " << res.schedules_run
        << " schedules at preemption_bound=1 — the sim harness lost its "
           "ability to see the freelist ABA the tag exists to prevent";
}

}  // namespace
