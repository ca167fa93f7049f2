// Edge-case tests for the LFRC core operations: aliasing, self-assignment,
// idempotent-looking transitions, null-heavy paths, and count behaviour at
// the boundaries — the inputs most likely to expose bookkeeping slips.
#include <gtest/gtest.h>

#include "lfrc_test_helpers.hpp"

namespace {

using namespace lfrc;
using lfrc_tests::drain_epochs;
using lfrc_tests::test_node;

template <typename D>
class LfrcEdgeTest : public ::testing::Test {
  protected:
    using node_t = test_node<D>;
};

using Domains = ::testing::Types<domain, locked_domain>;
TYPED_TEST_SUITE(LfrcEdgeTest, Domains);

TYPED_TEST(LfrcEdgeTest, CopySelfAssignmentKeepsCount) {
    using D = TypeParam;
    auto a = D::template make<typename TestFixture::node_t>(1);
    typename D::template local_ptr<typename TestFixture::node_t> x = a;
    EXPECT_EQ(a->ref_count(), 2u);
    // LFRCCopy(x, x's own value): increments then decrements — net zero.
    D::copy(x, x.get());
    EXPECT_EQ(a->ref_count(), 2u);
    EXPECT_EQ(x.get(), a.get());
    // Smart-pointer self-assignment path.
    x = x;  // NOLINT(misc-redundant-expression)
    EXPECT_EQ(a->ref_count(), 2u);
}

TYPED_TEST(LfrcEdgeTest, StoreSameValueIsANoopForCounts) {
    using D = TypeParam;
    using node = typename TestFixture::node_t;
    typename D::template ptr_field<node> A;
    auto a = D::template make<node>(1);
    D::store(A, a.get());
    EXPECT_EQ(a->ref_count(), 2u);
    D::store(A, a.get());  // same value again: +1 then destroy(old=same) = net 0
    EXPECT_EQ(a->ref_count(), 2u);
    D::store(A, static_cast<node*>(nullptr));
    EXPECT_EQ(a->ref_count(), 1u);
}

TYPED_TEST(LfrcEdgeTest, StoreNullOverNullIsSafe) {
    using D = TypeParam;
    using node = typename TestFixture::node_t;
    typename D::template ptr_field<node> A;
    D::store(A, static_cast<node*>(nullptr));
    D::store(A, static_cast<node*>(nullptr));
    auto got = D::load_get(A);
    EXPECT_FALSE(got);
}

TYPED_TEST(LfrcEdgeTest, CasIdentityTransition) {
    using D = TypeParam;
    using node = typename TestFixture::node_t;
    typename D::template ptr_field<node> A;
    auto a = D::template make<node>(1);
    D::store(A, a.get());
    // CAS a -> a: destroys old (a) but counted new (a) first — net zero.
    EXPECT_TRUE(D::cas(A, a.get(), a.get()));
    EXPECT_EQ(a->ref_count(), 2u);
    D::store(A, static_cast<node*>(nullptr));
}

TYPED_TEST(LfrcEdgeTest, DcasSwappingSameObjectBetweenFields) {
    using D = TypeParam;
    using node = typename TestFixture::node_t;
    typename D::template ptr_field<node> f0, f1;
    auto a = D::template make<node>(1);
    D::store(f0, a.get());
    D::store(f1, a.get());
    EXPECT_EQ(a->ref_count(), 3u);
    // Both fields hold `a`; DCAS rotating a->a is a quadruple inc/dec on
    // one object — any imbalance shows immediately.
    EXPECT_TRUE(D::dcas(f0, f1, a.get(), a.get(), a.get(), a.get()));
    EXPECT_EQ(a->ref_count(), 3u);
    D::store(f0, static_cast<node*>(nullptr));
    D::store(f1, static_cast<node*>(nullptr));
    EXPECT_EQ(a->ref_count(), 1u);
}

TYPED_TEST(LfrcEdgeTest, LoadIntoAliasedDestination) {
    using D = TypeParam;
    using node = typename TestFixture::node_t;
    typename D::template ptr_field<node> A;
    auto a = D::template make<node>(1);
    D::store(A, a.get());
    typename D::template local_ptr<node> dest = a;  // dest already holds a
    EXPECT_EQ(a->ref_count(), 3u);
    D::load(A, dest);  // loads a over a: +1 (load) then -1 (old dest) = net 0
    EXPECT_EQ(dest.get(), a.get());
    EXPECT_EQ(a->ref_count(), 3u);
    D::store(A, static_cast<node*>(nullptr));
}

TYPED_TEST(LfrcEdgeTest, SelfLinkedNodeNeedsNoSpecialCase) {
    using D = TypeParam;
    using node = typename TestFixture::node_t;
    // A node pointing at itself is a 1-cycle: LFRC alone cannot reclaim it
    // (documented); verify the counts behave and nothing crashes, then break
    // the cycle manually.
    auto a = D::template make<node>(1);
    D::store(a->next, a.get());
    EXPECT_EQ(a->ref_count(), 2u);
    node* raw = a.get();
    a.reset();  // count drops to 1 (the self-edge); object lives on
    EXPECT_EQ(raw->ref_count(), 1u);
    D::store(raw->next, static_cast<node*>(nullptr));  // break the cycle: frees it
    drain_epochs();
}

TYPED_TEST(LfrcEdgeTest, MoveIntoOccupiedLocalDestroysOld) {
    using D = TypeParam;
    using node = typename TestFixture::node_t;
    auto a = D::template make<node>(1);
    auto b = D::template make<node>(2);
    node* a_raw = a.get();
    D::add_to_rc(a_raw, 1);  // keep a observable after the move clobbers it
    a = std::move(b);        // must destroy a's old referent's count
    EXPECT_EQ(a_raw->ref_count(), 1u);
    EXPECT_EQ(a->value, 2);
    D::destroy(a_raw);
}

TYPED_TEST(LfrcEdgeTest, ReleaseThenManualDestroyBalances) {
    using D = TypeParam;
    using node = typename TestFixture::node_t;
    drain_epochs();
    const auto live_before = node::live().load();
    auto a = D::template make<node>(1);
    node* raw = a.release();
    EXPECT_FALSE(a);
    EXPECT_EQ(raw->ref_count(), 1u);
    D::destroy(raw);
    drain_epochs();
    EXPECT_EQ(node::live().load(), live_before);
}

TYPED_TEST(LfrcEdgeTest, DestroyNullIsANoop) {
    using D = TypeParam;
    D::destroy(nullptr);
    D::destroy_all(static_cast<typename TestFixture::node_t*>(nullptr),
                   static_cast<typename TestFixture::node_t*>(nullptr));
    SUCCEED();
}

TYPED_TEST(LfrcEdgeTest, LoadGetChainsThroughStructure) {
    using D = TypeParam;
    using node = typename TestFixture::node_t;
    // load_get temporaries must each hold their own count; walking a chain
    // through temporaries is safe.
    auto head = D::template make<node>(0);
    auto mid = D::template make<node>(1);
    auto tail = D::template make<node>(2);
    D::store(head->next, mid.get());
    D::store(mid->next, tail.get());
    const auto walked = D::load_get(D::load_get(head->next)->next);
    EXPECT_EQ(walked.get(), tail.get());
    EXPECT_EQ(tail->ref_count(), 3u);  // tail local + mid.next + walked
}

TYPED_TEST(LfrcEdgeTest, FlagFieldBasics) {
    using D = TypeParam;
    typename D::flag_field f;
    EXPECT_FALSE(f.load());
    EXPECT_TRUE(f.cas(false, true));
    EXPECT_TRUE(f.load());
    EXPECT_FALSE(f.cas(false, true)) << "CAS must fail on wrong expected";
    EXPECT_TRUE(f.cas(true, false));
    typename D::flag_field g{true};
    EXPECT_TRUE(g.load());
}

TYPED_TEST(LfrcEdgeTest, DcasPtrFlagBookkeeping) {
    using D = TypeParam;
    using node = typename TestFixture::node_t;
    typename D::template ptr_field<node> A;
    typename D::flag_field F;
    auto a = D::template make<node>(1);
    auto b = D::template make<node>(2);
    D::store(A, a.get());

    // Failure on flag mismatch: counts restored.
    EXPECT_FALSE(D::dcas_ptr_flag(A, F, a.get(), true, b.get(), true));
    EXPECT_EQ(a->ref_count(), 2u);
    EXPECT_EQ(b->ref_count(), 1u);

    // Success: pointer swapped, flag set, counts moved.
    EXPECT_TRUE(D::dcas_ptr_flag(A, F, a.get(), false, b.get(), true));
    EXPECT_TRUE(F.load());
    EXPECT_EQ(a->ref_count(), 1u);
    EXPECT_EQ(b->ref_count(), 2u);
    D::store(A, static_cast<node*>(nullptr));
}

// ---- flush_deferred_frees drain-loop bounds --------------------------------
//
// The flush loop is doubly bounded: `rounds` caps iterations, and a stall
// detector exits once several consecutive rounds make no progress. These
// tests pin down both behaviours — convergence when nothing is pinned, and
// prompt bounded return (not a spin) when a pin blocks the drain.

TYPED_TEST(LfrcEdgeTest, RepeatedFlushConvergesToZeroAndStaysThere) {
    using D = TypeParam;
    using node = typename TestFixture::node_t;
    // Retire a batch: every store-null drops the last counted reference.
    for (int i = 0; i < 64; ++i) {
        typename D::template ptr_field<node> A;
        D::store_alloc(A, D::template make<node>(i));
        D::store(A, static_cast<node*>(nullptr));
    }
    const std::uint64_t first = flush_deferred_frees(64);
    EXPECT_EQ(first, 0u) << "unpinned retirees must all drain";
    // Convergence is stable: repeated flushes at any budget stay at zero
    // (each is a handful of pending() reads, not a rounds-long spin).
    for (int budget : {1, 4, 16, 1 << 20}) {
        EXPECT_EQ(flush_deferred_frees(budget), 0u);
    }
}

TYPED_TEST(LfrcEdgeTest, FlushIsBoundedWhileAPinBlocksTheDrain) {
    using D = TypeParam;
    using node = typename TestFixture::node_t;
    const auto live_before = node::live().load();
    typename D::template ptr_field<node> A;
    D::store_alloc(A, D::template make<node>(7));
    {
        auto pin = D::load_borrowed(A);  // epoch pin: blocks physical frees
        D::store(A, static_cast<node*>(nullptr));  // logical death, free deferred
        // An absurd budget must still return promptly: the stall detector
        // sees no progress past the grace period and gives up instead of
        // walking the pending list ~10^9 times.
        const std::uint64_t residual = flush_deferred_frees(1 << 30);
        EXPECT_GT(residual, 0u) << "flush must report what the pin blocked";
        EXPECT_EQ(node::live().load(), live_before + 1);
        // Successive stalled flushes are stable, not decreasing.
        EXPECT_EQ(flush_deferred_frees(1 << 30), residual);
    }
    // Pin released: the same loop now converges to zero.
    EXPECT_EQ(flush_deferred_frees(64), 0u);
    EXPECT_EQ(node::live().load(), live_before);
}

TYPED_TEST(LfrcEdgeTest, FlushDrainsOnlyAfterTheLastPinReleases) {
    using D = TypeParam;
    using node = typename TestFixture::node_t;
    // Overlapping pins from the same epoch neighbourhood: releasing one pin
    // must not unblock the drain (the other still holds the epoch back);
    // releasing the last one must let repeated flushes reach zero. Residuals
    // are monotone non-decreasing while any pin is held.
    typename D::template ptr_field<node> A;
    typename D::template ptr_field<node> B;
    D::store_alloc(A, D::template make<node>(1));
    D::store_alloc(B, D::template make<node>(2));
    auto pin_a = D::load_borrowed(A);
    D::store(A, static_cast<node*>(nullptr));
    const std::uint64_t with_one_pin = flush_deferred_frees(64);
    EXPECT_GT(with_one_pin, 0u);
    auto pin_b = D::load_borrowed(B);
    D::store(B, static_cast<node*>(nullptr));
    const std::uint64_t with_two_pins = flush_deferred_frees(64);
    EXPECT_GE(with_two_pins, with_one_pin);
    pin_a.reset();
    const std::uint64_t after_partial_release = flush_deferred_frees(64);
    EXPECT_GT(after_partial_release, 0u)
        << "a remaining pin must keep blocking the drain";
    pin_b.reset();
    EXPECT_EQ(flush_deferred_frees(64), 0u)
        << "full release must let the flush converge";
}

// exclusive_get's "no descriptor in an exclusively held field" check stays
// on in release builds: a descriptor word reaching the decoder must name
// itself and abort, not fault later at the descriptor's address.
TEST(LfrcExclusiveGet, DescriptorWordAbortsWithReport) {
    EXPECT_EQ(domain_detail::require_clean(0x1000), 0x1000u);
    EXPECT_DEATH(domain_detail::require_clean(0x1000 | dcas::tag_mcas),
                 "exclusive_get observed an in-flight engine descriptor");
    EXPECT_DEATH(domain_detail::require_clean(0x1000 | dcas::tag_rdcss),
                 "exclusive_get observed an in-flight engine descriptor");
}

}  // namespace
