// Mutation self-test: the harness is only trustworthy if it actually FINDS
// the bug class it exists for. This suite arms the plain_cas_load mutant
// (util/mutation.hpp: LFRCLoad raises the count with a plain CAS on the
// count word instead of the Figure-2 DCAS — the Valois-style flaw §2 of the
// paper uses to motivate DCAS) and requires the explorer to catch it within
// a bounded schedule budget, while the correct operation sails through the
// identical harness and budget.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "containers/stack_core.hpp"
#include "lfrc_test_helpers.hpp"
#include "sim_test_support.hpp"
#include "smr/counted.hpp"
#include "smr/manual.hpp"
#include "util/mutation.hpp"

namespace {

using namespace sim_tests;
using lfrc::mutation::mutant;

using D = mcas_dom;
using node = lfrc_tests::test_node<D>;

struct shared_t {
    typename D::template ptr_field<node> field;
};

constexpr int k_budget = 3000;  // schedules the mutant must be caught within

// The §2 scenario: one loader racing the final release of the only shared
// reference. With the mutant, the loader can read *A, get descheduled while
// the releaser drops the count to zero and retires the object, then CAS the
// count 0 -> 1 — resurrecting a dead object. The loader's later release
// retires it a second time: the shadow heap reports the double free (or a
// use-after-free if the resurrected object's cells are touched after the
// first deferred free runs).
void load_race_build(sim::env& e) {
    auto s = std::make_shared<shared_t>();
    D::store_alloc(s->field, D::make<node>(7));
    e.spawn("loader", [s] {
        typename D::local_ptr<node> got;
        D::load(s->field, got);
        // `got` (if any) is released here — the mutant's double retire.
    });
    e.spawn("releaser", [s] {
        D::store(s->field, static_cast<node*>(nullptr));
    });
    e.on_quiesce([] { expect_quiesced_drain(); });
}

template <bool Mutated>
sim::result run_load_race(std::uint64_t seed, int schedules) {
    lfrc::mutation::arm armed(mutant::plain_cas_load, Mutated);
    return sim::explore(opts(seed, schedules), load_race_build);
}

TEST(SimMutation, PlainCasLoadMutantIsCaughtWithinBudget) {
    const auto res = run_load_race</*Mutated=*/true>(4242, k_budget);
    ASSERT_TRUE(res.failed)
        << "the seeded LFRCLoad bug survived " << k_budget
        << " schedules — the explorer lost its teeth";
    EXPECT_TRUE(res.kind == "double-free" || res.kind == "use-after-free")
        << "unexpected violation kind '" << res.kind << "'\n"
        << res.report;
    EXPECT_LE(res.schedules_run, k_budget);
}

TEST(SimMutation, FailingSeedReplaysDeterministically) {
    const auto found = run_load_race</*Mutated=*/true>(4242, k_budget);
    ASSERT_TRUE(found.failed);
    // Replaying the reported seed must reproduce the same violation kind on
    // the first and only schedule — the README recipe, in test form.
    lfrc::mutation::arm armed(mutant::plain_cas_load);
    const auto replayed = sim::replay(found.failing_seed, opts(4242, 1), load_race_build);
    EXPECT_TRUE(replayed.failed) << "failing seed " << found.failing_seed
                                 << " did not reproduce";
    EXPECT_EQ(replayed.kind, found.kind);
}

// The same flaw, but hunted through the smr policy layer and the GENERIC
// stack core: the counted guard's protect() runs the armed plain-CAS load,
// so two poppers racing on the last node reproduce §2's resurrection
// (count 0 -> 1 on a retired object) and its double retire — proving the
// unified core did not dilute the explorer's reach into the policy's load
// discipline.
//
// Full container ops walk far more instrumented steps than the minimal
// load race above, so unbounded random scheduling dilutes the window;
// a CHESS-style preemption bound (sim::options docs) recovers it — the
// mutant falls within single-digit schedules at bound 3.
template <bool Mutated>
sim::result run_core_pop_race(std::uint64_t seed, int schedules) {
    using P = lfrc::smr::counted<D>;
    lfrc::mutation::arm armed(mutant::plain_cas_load, Mutated);
    auto o = opts(seed, schedules);
    o.preemption_bound = 3;
    return sim::explore(o, [](sim::env& e) {
        auto st = std::make_shared<lfrc::containers::stack_core<int, P>>();
        st->push(7);
        e.spawn("popper-a", [st] { st->pop(); });
        e.spawn("popper-b", [st] { st->pop(); });
        e.on_quiesce([] { expect_quiesced_drain(); });
    });
}

TEST(SimMutation, PlainCasMutantCaughtThroughGenericCore) {
    const auto res = run_core_pop_race</*Mutated=*/true>(9090, k_budget);
    ASSERT_TRUE(res.failed)
        << "the plain-CAS guard mutant survived " << k_budget
        << " schedules through stack_core — the policy layer hid the bug";
    EXPECT_TRUE(res.kind == "double-free" || res.kind == "use-after-free")
        << "unexpected violation kind '" << res.kind << "'\n"
        << res.report;
}

TEST(SimMutation, CountedPolicyPassesTheSameCoreHarness) {
    const auto res = run_core_pop_race</*Mutated=*/false>(9090, k_budget);
    EXPECT_CLEAN(res);
}

// ---------------------------------------------------------------------------
// Dynamic twins of the lfrc_lint fixture mutants (tools/lfrc_lint/fixtures).
// The linter proves each discipline violation is caught STATICALLY; these
// runs prove the same mutants are dynamically fatal under the explorer —
// the rule set is the memory-safety boundary, not style. Each twin mirrors
// its fixture (r2_bad / r3_bad / r5_bad) and has a clean control that runs
// the identical harness without the mutation.

namespace smr = lfrc::smr;

template <typename P>
struct mut_node : P::template node_base<mut_node<P>> {
    typename P::template link<mut_node> next;
    int value = 0;

    mut_node() = default;
    explicit mut_node(int v) : value(v) {}

    static constexpr std::size_t smr_link_count = 1;
    template <typename F>
    void smr_children(F&& f) {
        f(next);
    }
};

template <typename P>
void mut_push(P& policy, typename P::template link<mut_node<P>>& head, int v) {
    auto nd = policy.template make_owner<mut_node<P>>(v);
    typename P::guard g(policy);
    for (;;) {
        g.step();
        mut_node<P>* h = g.protect(0, head);
        policy.init_link(nd->next, h);
        if (policy.cas_link(head, h, nd.get())) {
            policy.publish_ok(nd);
            return;
        }
    }
}

template <bool RetireOnLoss, typename P>
bool mut_pop(P& policy, typename P::template link<mut_node<P>>& head) {
    typename P::guard g(policy);
    for (;;) {
        g.step();
        mut_node<P>* h = g.protect(0, head);
        if (h == nullptr) return false;
        mut_node<P>* n = g.protect(1, h->next);
        if (!policy.cas_link(head, h, n)) {
            // The r3_bad mutation: the CAS LOSER also hands the node to the
            // reclaimer. Another popper unlinked it and retires it too.
            if constexpr (RetireOnLoss) policy.retire_unlinked(h);
            continue;
        }
        policy.retire_unlinked(h);
        return true;
    }
}

// R3 twin — fixtures/r3_bad.hpp pop_retire_loser, executed: two poppers
// race on one node; whichever loses the unlink CAS retires the winner's
// node a second time, and the shadow heap reports the double free when the
// epoch domain drains.
template <bool Mutated>
sim::result run_retire_loser_race(std::uint64_t seed, int schedules) {
    using P = smr::ebr<>;
    auto o = opts(seed, schedules);
    o.preemption_bound = 3;
    return sim::explore(o, [](sim::env& e) {
        struct state {
            P policy{};
            typename P::template link<mut_node<P>> head;
            ~state() { policy.reset_chain(head); }
        };
        auto s = std::make_shared<state>();
        mut_push(s->policy, s->head, 7);
        e.spawn("popper-a", [s] { mut_pop<Mutated>(s->policy, s->head); });
        e.spawn("popper-b", [s] { mut_pop<Mutated>(s->policy, s->head); });
        e.on_quiesce([s] {
            s->policy.drain(64);
            expect_quiesced_drain();
        });
    });
}

TEST(SimMutation, RetireOnLoserMutantIsCaughtWithinBudget) {
    const auto res = run_retire_loser_race</*Mutated=*/true>(1313, k_budget);
    ASSERT_TRUE(res.failed)
        << "the R3 retire-on-loser mutant survived " << k_budget
        << " schedules — retire-once discipline is not being enforced";
    EXPECT_TRUE(res.kind == "double-free" || res.kind == "use-after-free")
        << "unexpected violation kind '" << res.kind << "'\n"
        << res.report;
}

TEST(SimMutation, WinnerOnlyRetirePassesTheSameHarness) {
    const auto res = run_retire_loser_race</*Mutated=*/false>(1313, k_budget);
    EXPECT_CLEAN(res);
}

// R2 twin — fixtures/r2_bad.hpp remember_top, executed: a reader stores a
// guard-protected pointer into state that outlives the guard, then touches
// the node's link cell after the guard died. A racing popper retires and
// drains; the late touch is the use-after-free.
template <bool Mutated>
sim::result run_guard_escape_race(std::uint64_t seed, int schedules) {
    using P = smr::ebr<>;
    auto o = opts(seed, schedules);
    o.preemption_bound = 3;
    return sim::explore(o, [](sim::env& e) {
        struct state {
            P policy{};
            typename P::template link<mut_node<P>> head;
            mut_node<P>* escaped = nullptr;
            ~state() { policy.reset_chain(head); }
        };
        auto s = std::make_shared<state>();
        mut_push(s->policy, s->head, 7);
        e.spawn("reader", [s] {
            if constexpr (Mutated) {
                {
                    typename P::guard g(s->policy);
                    s->escaped = g.protect(0, s->head);  // the R2 escape
                }
                if (s->escaped != nullptr) {
                    (void)s->policy.peek(s->escaped->next);  // after the guard
                }
            } else {
                typename P::guard g(s->policy);
                mut_node<P>* h = g.protect(0, s->head);
                if (h != nullptr) (void)s->policy.peek(h->next);  // in scope
            }
        });
        e.spawn("popper", [s] {
            mut_pop</*RetireOnLoss=*/false>(s->policy, s->head);
            s->policy.drain(64);
        });
        e.on_quiesce([s] {
            s->policy.drain(64);
            expect_quiesced_drain();
        });
    });
}

TEST(SimMutation, GuardEscapeMutantIsCaughtWithinBudget) {
    const auto res = run_guard_escape_race</*Mutated=*/true>(2727, k_budget);
    ASSERT_TRUE(res.failed)
        << "the R2 guard-escape mutant survived " << k_budget
        << " schedules — protection is outliving its guard unnoticed";
    EXPECT_EQ(res.kind, "use-after-free") << res.report;
}

TEST(SimMutation, InScopeReadPassesTheSameHarness) {
    const auto res = run_guard_escape_race</*Mutated=*/false>(2727, k_budget);
    EXPECT_CLEAN(res);
}

// R5 twin — fixtures/r5_bad.hpp r5_paper_missing, executed: a node whose
// child enumeration omits one link. The counted unravel never visits the
// missing child, so its count never reaches zero: a structural leak the
// shadow heap reports at quiescence. Deterministic — one fiber, one
// schedule; no race is needed to lose memory this way.
template <bool Mutated>
struct pair_node : D::object {
    typename D::template ptr_field<pair_node> left;
    typename D::template ptr_field<pair_node> right;

    void lfrc_visit_children(typename D::child_visitor& v) noexcept override {
        v.on_child(left.exclusive_get());
        if constexpr (!Mutated) v.on_child(right.exclusive_get());
    }
};

template <bool Mutated>
sim::result run_missing_child(std::uint64_t seed) {
    auto o = opts(seed, 1);
    o.check_leaks = true;
    return sim::explore(o, [](sim::env& e) {
        e.spawn("owner", [] {
            using node_t = pair_node<Mutated>;
            auto parent = D::make<node_t>();
            D::store_alloc(parent->right, D::make<node_t>());
            // Both local_ptrs die here; the child is reachable only through
            // `right`, which the mutated enumeration never reports.
        });
        e.on_quiesce([] { expect_quiesced_drain(); });
    });
}

TEST(SimMutation, MissingChildMutantLeaksDeterministically) {
    const auto res = run_missing_child</*Mutated=*/true>(5151);
    ASSERT_TRUE(res.failed)
        << "the R5 missing-child mutant leaked nothing — child enumeration "
        << "is not what reclamation actually walks";
    EXPECT_EQ(res.kind, "leak") << res.report;
}

TEST(SimMutation, CompleteEnumerationPassesTheSameHarness) {
    const auto res = run_missing_child</*Mutated=*/false>(5151);
    EXPECT_CLEAN(res);
}

TEST(SimMutation, CorrectLoadPassesTheSameHarness) {
    const auto res = run_load_race</*Mutated=*/false>(4242, k_budget);
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

}  // namespace
