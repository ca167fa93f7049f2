// lfrc_lint fixture — R7 violations: helper-side code acting on a pooled
// descriptor's per-use fields with no sequence re-validation, and a
// decision CAS on the status word that does not carry the captured
// sequence. Both are exactly the Arbel-Raviv & Brown bug class the reuse
// engine's sim mutant (mutant::strip_seq_validation) demonstrates.
// lfrc-lint-scope: descriptor-engine
#pragma once

#include <atomic>
#include <cstdint>

namespace fixture {

inline std::uint64_t make_done(std::uint64_t seen) noexcept {
    return (seen << 2) | 3;
}

struct r7b_descriptor {
    struct entry {
        std::uint64_t addr = 0;
        std::uint64_t expected = 0;
        std::uint64_t desired = 0;
    };
    std::atomic<std::uint64_t> status_word{0};
    std::uint32_t count = 0;
    entry ops[4];
};

/// (a) snapshot reads with no later sequence check: the descriptor can be
/// recycled for generation n+1 while this helper still walks generation
/// n's entries.
inline std::uint64_t sum_addrs(r7b_descriptor* d) {
    std::uint64_t total = 0;
    const std::uint32_t n = d->count;  // lint-expect: R7
    for (std::uint32_t i = 0; i < n; ++i) {
        total += d->ops[i].addr;  // lint-expect: R7
    }
    return total;
}

/// (b) the conclusion CAS omits the captured sequence: a stale helper of
/// generation n can conclude generation n+1's operation.
inline bool conclude(r7b_descriptor* d, std::uint64_t seen) {
    std::uint64_t expected = seen;
    return d->status_word.compare_exchange_strong(
        expected, make_done(seen));  // lint-expect: R7
}

}  // namespace fixture
