// Descriptor-reuse regression tests for the sequence-tagged MCAS engine
// (dcas/mcas_engine.hpp, "Reuse, don't Recycle").
//
// This is the DYNAMIC TWIN of lint rule R7 (tools/lfrc_lint, descriptor-
// sequence discipline; DESIGN.md §16): R7 statically requires every
// snapshot-field read of a pooled descriptor to be re-validated against
// its sequence and every decision CAS to carry that sequence. The seeded
// mutant below is exactly the code shape R7 flags — a decision path with
// the revalidation stripped — and this test proves that shape is a real
// torn-MCAS bug, not lint pedantry. Static rule and sim test must be
// kept in sync: weakening one without the other re-opens the hole.
//
// The bug class these tests exist for: a helper that read a descriptor's
// tagged word, walked phase 1, and was then descheduled across an OWNER-SIDE
// REUSE of that descriptor must not be able to impose its stale phase-1
// verdict on the descriptor's NEW operation. The engine excludes it by
// embedding the help ticket's sequence in the decision CAS; the seeded
// mutant (mutation::mutant::strip_seq_validation) re-reads the status word
// and trusts whatever sequence it carries — exactly the validation the
// design says is load-bearing.
//
// Black-box workloads are NOT evidence against this bug (see the PR-3
// post-mortem pattern): the window is a handful of instrumented steps wide
// and requires the helper to stall across a complete + 4-op reuse distance,
// which random scheduling essentially never produces. The test is therefore
// WHITE-BOX: the owner fiber stages a mid-help descriptor via
// testing::begin_op, hands the helper its window with one voluntary yield,
// then completes and recycles the descriptor; preemption_bound = 1 makes
// the post-park owner run deterministic (pick_next runs the last fiber on
// once the bound is exhausted), so the only randomness is WHERE the single
// preemption lands.
//
// Reproduction budget (measured, and why it is seed-stable): the exploit
// needs the scheduler to (a) keep the owner running through its 4
// pre-publish instrumented steps, (b) hand the voluntary yield to the
// helper, (c) keep the helper running through its 4 pre-decision steps, and
// (d) spend the one preemption parking the helper right before the decision
// CAS — about 10 fair coin flips, i.e. ~1/1024 per schedule. Measured
// first-catch indices across base seeds {1,2,3,4,5,6161,11}: 1381, 2, 2736,
// 11, 1127, 546, 274 — consistent with that estimate. Exploration is
// deterministic in the base seed, so the schedule index of the first catch
// is a build-stable constant; the pinned base seed 4 catches at schedule 11
// (asserted <= k_budget, and comfortably inside the CI quick cell's
// LFRC_SIM_SCHEDULES=500 cap). The clean control runs the identical harness
// for the full budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>

#include "dcas/mcas_engine.hpp"
#include "sim_test_support.hpp"
#include "smr/counted.hpp"
#include "store/store.hpp"
#include "util/backoff.hpp"
#include "util/mutation.hpp"

namespace {

using namespace sim_tests;
using engine = lfrc::dcas::mcas_engine;
using lfrc::mutation::mutant;

constexpr int k_budget = 3000;  // schedules the mutant must be caught within

// Clean (tag 00) cell values. op1 swings A and B; op5 — the REUSE of op1's
// descriptor — wants B:B1->BX and C:C9->CY, but C actually holds C0, so a
// correct engine can only ever decide op5 FAILED. A torn op5 (B updated, C
// neither checked nor written) is precisely what a stale helper's decision
// produces under the mutant.
constexpr std::uint64_t A0 = 0x100, A1 = 0x104;
constexpr std::uint64_t B0 = 0x200, B1 = 0x204, BX = 0x208;
constexpr std::uint64_t C0 = 0x300, C9 = 0x304, CY = 0x308;
constexpr std::uint64_t D0 = 0x400, E0 = 0x500;

struct cells_t {
    lfrc::dcas::cell a{A0}, b{B0}, c{C0}, d{D0}, e{E0};
    // Publication channel for op1's tagged word: a PLAIN atomic, so reading
    // it is not a model step (fibers are co-routines; no race to model).
    std::atomic<std::uint64_t> md1{0};
};

std::function<void(sim::env&)> reuse_race_build() {
    return [](sim::env& e) {
        auto s = std::make_shared<cells_t>();
        e.spawn("owner", [s] {
            // Stage op1 mid-help: descriptor filled and installed in both
            // cells, not yet decided.
            engine::casn_op op1[2] = {{&s->a, A0, A1}, {&s->b, B0, B1}};
            const std::uint64_t md1 = engine::testing::begin_op(op1, 2);
            s->md1.store(md1, std::memory_order_relaxed);
            // One voluntary yield: the helper gets its window without
            // costing the schedule its single preemption.
            lfrc::util::backoff bo;
            bo();
            // Complete op1 and walk the round-robin cursor all the way
            // around the pool so the next acquire recycles op1's descriptor.
            engine::testing::complete_op(md1);
            for (std::uint64_t k = 0; k < engine::testing::pool_entries - 1; ++k) {
                engine::casn_op fill[2] = {{&s->d, D0 + 4 * k, D0 + 4 * (k + 1)},
                                           {&s->e, E0 + 4 * k, E0 + 4 * (k + 1)}};
                const bool ok = engine::casn(fill, 2);
                if (!ok) sim::fail_here("test-bug", "uncontended filler casn failed");
            }
            // The reuse: same descriptor object, bumped sequence. Installed
            // in B only (C holds C0 != C9), left UNDECIDED — in a correct
            // engine only a fresh helper (the quiesce read below) may decide
            // it, and only as FAILED.
            engine::casn_op op5[2] = {{&s->b, B1, BX}, {&s->c, C9, CY}};
            (void)engine::testing::begin_op(op5, 2);
        });
        e.spawn("helper", [s] {
            lfrc::util::backoff bo;
            std::uint64_t md1;
            while ((md1 = s->md1.load(std::memory_order_relaxed)) == 0) bo();
            // Real helper path (mcas_help), same code production readers
            // run when they hit op1's word in a cell.
            (void)engine::testing::help(md1);
        });
        e.on_quiesce([s] {
            // read(b) helps whatever occupies B — in a correct engine that
            // decides op5 FAILED and restores B1.
            const std::uint64_t a = engine::read(s->a);
            const std::uint64_t b = engine::read(s->b);
            const std::uint64_t c = engine::read(s->c);
            if (a != A1 || b != B1 || c != C0) {
                sim::fail_here("stale-reuse-completion",
                               "a stale helper committed a recycled descriptor's "
                               "operation (torn casn)");
            }
            expect_quiesced_drain();
        });
    };
}

template <bool Mutated>
sim::result run_reuse_race(std::uint64_t seed, int schedules) {
    lfrc::mutation::arm armed(mutant::strip_seq_validation, Mutated);
    auto o = opts(seed, schedules);
    o.preemption_bound = 1;
    return sim::explore(o, reuse_race_build());
}

TEST(SimKcasReuse, StaleHelperDecisionMutantIsCaughtWithinBudget) {
    const auto res = run_reuse_race</*Mutated=*/true>(4, k_budget);
    ASSERT_TRUE(res.failed)
        << "the stripped-sequence-validation mutant survived " << k_budget
        << " schedules at preemption_bound=1 — the decision CAS's sequence "
        << "check is not what the harness is actually exercising";
    EXPECT_EQ(res.kind, "stale-reuse-completion") << res.report;
    EXPECT_LE(res.schedules_run, k_budget);
}

TEST(SimKcasReuse, ValidatedDecisionPassesTheSameHarness) {
    const auto res = run_reuse_race</*Mutated=*/false>(4, k_budget);
    EXPECT_CLEAN(res);
    // The clean run must exhaust the budget actually in force — the CI
    // quick cell shrinks it via LFRC_SIM_SCHEDULES (sim::explore docs).
    int expected = k_budget;
    if (const char* cap = std::getenv("LFRC_SIM_SCHEDULES")) {
        const long v = std::atol(cap);
        if (v > 0 && v < expected) expected = static_cast<int>(v);
    }
    EXPECT_EQ(res.schedules_run, expected);
}

TEST(SimKcasReuse, FailingSeedReplaysDeterministically) {
    const auto found = run_reuse_race</*Mutated=*/true>(4, k_budget);
    ASSERT_TRUE(found.failed);
    lfrc::mutation::arm armed(mutant::strip_seq_validation);
    auto o = opts(4, 1);
    o.preemption_bound = 1;
    const auto replayed = sim::replay(found.failing_seed, o, reuse_race_build());
    EXPECT_TRUE(replayed.failed)
        << "failing seed " << found.failing_seed << " did not reproduce";
    EXPECT_EQ(replayed.kind, found.kind);
}

// ---------------------------------------------------------------------------
// The store's put-vs-erase lost-update invariant, re-armed against the
// flag_blind_install mutant: counted::vinstall_if_live downgraded from the
// 3-word CASN (pointer, version, dead-flag) to the flag-blind 2-word
// store_conditional — the pre-PR-3 bug — proving the detector still has
// teeth with the sequence-tagged engine underneath.
//
// Why this is staged at the POLICY seam and not through kv_store: the
// version word already arbitrates most put/erase orderings (the claim bumps
// it), so the flag is load-bearing only in the gap between put's dead-check
// and its version witness — a 1-2 step window that the eraser's ENTIRE
// find+claim must fit inside. A black-box kv_store put-vs-erase race was
// measured at 0 catches in 360,000 schedules (seeds 1-5 and 6262 at
// preemption bounds 1, 2 and 3, 20,000 schedules each) — black-box
// workloads are NOT evidence against this mutant. The staged run below
// replays the store's exact put idiom (flag_load -> vprotect ->
// vinstall_if_live) with the eraser's claim wedged into that gap via plain
// signals and voluntary yields, so the mutant is caught on the FIRST
// schedule and the catch is deterministic (no seed shopping, immune to the
// CI LFRC_SIM_SCHEDULES cap).

template <class P>
struct box_node : P::template node_base<box_node<P>> {
    int payload;
    explicit box_node(int v) : payload(v) {}
    static constexpr std::size_t smr_link_count = 0;
    template <typename F>
    void smr_children(F&&) {}
};

template <class P>
struct entry_state {
    P policy{};
    typename P::template vslot<box_node<P>> val;  // the entry's value slot
    typename P::flag dead;                        // the entry's dead flag
    std::atomic<int> stage{0};  // plain: staging, not a model step
};

template <bool Mutated>
sim::result run_staged_put_vs_erase(std::uint64_t seed, int schedules) {
    using P = lfrc::smr::counted<mcas_dom>;
    lfrc::mutation::arm armed(mutant::flag_blind_install, Mutated);
    return sim::explore(opts(seed, schedules), [](sim::env& e) {
        auto s = std::make_shared<entry_state<P>>();
        e.spawn("put", [s] {
            using box_t = box_node<P>;
            auto box = s->policy.template make_owner<box_t>(42);
            typename P::guard g(s->policy);
            lfrc::util::backoff bo;
            // The store's put inner loop (store.hpp put), with the eraser's
            // whole claim staged into the dead-check -> vprotect gap.
            while (!s->policy.flag_load(s->dead)) {
                if (s->stage.load(std::memory_order_relaxed) == 0) {
                    s->stage.store(1, std::memory_order_relaxed);
                    while (s->stage.load(std::memory_order_relaxed) != 2) bo();
                }
                std::uint64_t version = 0;
                box_t* cur = g.template vprotect<box_t>(3, s->val, version);
                if (s->policy.vinstall_if_live(s->val, version, cur, box.get(),
                                               s->dead)) {
                    s->policy.publish_ok(box);
                    return;  // the store would consider the put done here
                }
            }
            // Entry died under us: the real put re-searches the bucket; the
            // value never lands in the claimed entry.
        });
        e.spawn("erase", [s] {
            using box_t = box_node<P>;
            lfrc::util::backoff bo;
            while (s->stage.load(std::memory_order_relaxed) != 1) bo();
            {
                typename P::guard g(s->policy);
                std::uint64_t version = 0;
                box_t* cur = g.template vprotect<box_t>(3, s->val, version);
                // Claims an EMPTY slot (cur == nullptr): the store's erase
                // would report "nothing removed" — not user-visible.
                if (!s->policy.vclaim_mark_dead(s->val, version, cur, s->dead)) {
                    sim::fail_here("test-bug", "staged claim unexpectedly failed");
                }
            }
            s->stage.store(2, std::memory_order_relaxed);
        });
        e.on_quiesce([s] {
            using box_t = box_node<P>;
            // Lost-update invariant: the eraser claimed an EMPTY entry, so
            // no value may ever be visible in it afterwards. A box in the
            // dead entry is the put that vanished without a user-visible
            // erase.
            box_t* leftover = s->val.exclusive_get();
            const bool entry_dead = s->policy.flag_load(s->dead);
            mcas_dom::ll_store(s->val, static_cast<box_t*>(nullptr));  // cleanup
            if (leftover != nullptr && entry_dead) {
                sim::fail_here("store-invariant",
                               "put vanished without a user-visible erase "
                               "(value landed in a claimed entry)");
            }
            expect_quiesced_drain();
        });
    });
}

TEST(SimKcasReuse, FlagBlindInstallMutantStillTripsStoreDetector) {
    const auto res = run_staged_put_vs_erase</*Mutated=*/true>(6262, 200);
    ASSERT_TRUE(res.failed)
        << "the flag-blind vinstall mutant survived the staged put-vs-erase "
        << "window — the dead-flag word is not actually part of the install";
    EXPECT_EQ(res.kind, "store-invariant") << res.report;
    EXPECT_EQ(res.schedules_run, 1) << "the staged catch should be deterministic";
}

TEST(SimKcasReuse, FlagCheckedInstallPassesTheSameHarness) {
    const auto res = run_staged_put_vs_erase</*Mutated=*/false>(6262, 200);
    EXPECT_CLEAN(res);
}

// Black-box conformance ride-along: the real kv_store put/erase/get race
// from sim_store_test, run against the reuse engine through the counted
// policy spelling — the detector harness itself stays green on correct code.
TEST(SimKcasReuse, StorePutVsEraseStaysCleanOnReuseEngine) {
    using store_t = lfrc::store::kv_store<lfrc::smr::counted<mcas_dom>, int, int>;
    auto o = opts(6363, 300);
    o.preemption_bound = 3;
    const auto res = sim::explore(o, [](sim::env& e) {
        auto s = std::make_shared<store_t>(typename store_t::config{1, 1});
        auto erased = std::make_shared<bool>(false);
        e.spawn("put", [s] { s->put(1, 42); });
        e.spawn("erase", [s, erased] { *erased = s->erase(1); });
        e.on_quiesce([s, erased] {
            const bool present = s->get(1).has_value();
            if (!present && !*erased) {
                sim::fail_here("store-invariant",
                               "put vanished without a user-visible erase");
            }
            if (s->drain() != 0) {
                sim::fail_here("residual-pending", "store drain left deferred frees");
            }
            expect_quiesced_drain();
        });
    });
    EXPECT_CLEAN(res);
}

}  // namespace
