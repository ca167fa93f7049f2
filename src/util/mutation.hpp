// Seeded-mutant registry: the one switch behind every deliberately broken
// code path the test suites use to prove their checkers have teeth.
//
// Each mutant is an enumerator. A seam in production code is one plain
//     if (mutation::on(mutation::mutant::X)) { /* the bug */ }
// and a test arms it with an RAII `mutation::arm` for the span it needs.
//
// Without LFRC_ENABLE_MUTATIONS (every library, benchmark and tier-1 test
// build) on() is a constexpr false, so every seam folds away at compile
// time. Test targets that hunt a mutant define the macro (tests/
// CMakeLists.txt, tests/sim/CMakeLists.txt); then on() is one relaxed
// load of a plain std::atomic — deliberately not a sim-instrumented one,
// so arming a mutant adds no schedule points and a pinned seed explores
// the same interleavings with the mutant on or off. This header is the
// only place in src/ that names the macro.
//
// The seams are header-only (templates and inline members), so a mutant
// target compiles them itself; no lfrc_core translation unit includes a
// seam, which keeps one definition per link.
#pragma once

#include <cstdint>

#if defined(LFRC_ENABLE_MUTATIONS)
#include <atomic>
#endif

namespace lfrc::mutation {

enum class mutant {
    /// lfrc/domain.hpp load: raise the count with a plain CAS on the count
    /// word instead of the Figure-2 DCAS — the Valois flaw of the paper's §2.
    plain_cas_load,
    /// smr/counted.hpp vinstall_if_live: the 2-word store_conditional that
    /// ignores the entry's dead flag (put-vs-erase lost update).
    flag_blind_install,
    /// dcas/mcas_engine.hpp decision CAS: trust the status word's current
    /// sequence instead of the help ticket's (stale-helper reuse bug).
    strip_seq_validation,
    /// alloc/arena.hpp next_tag: head CASes stop advancing the tag, so a
    /// recycled freelist head recurs exactly (freelist ABA).
    strip_arena_tag,
    /// alloc/arena.hpp pop orders: the owner's remote pop runs relaxed at
    /// both ends, severing the `remote-head` release/acquire pairing.
    weaken_pop_acquire,
    /// net/drain_gate.hpp await_quiescent: return without waiting for
    /// in-flight batches.
    skip_await,
};

#if defined(LFRC_ENABLE_MUTATIONS)

namespace detail {
inline std::atomic<std::uint64_t> armed{0};  // bit i: mutant i is on
constexpr std::uint64_t bit(mutant m) noexcept {
    return std::uint64_t{1} << static_cast<unsigned>(m);
}
}  // namespace detail

inline bool on(mutant m) noexcept {
    return (detail::armed.load(std::memory_order_relaxed) & detail::bit(m)) != 0;
}

/// Switches one mutant on (or, with enabled=false, pins it off) for its
/// lifetime and restores the previous state on destruction.
class arm {
  public:
    explicit arm(mutant m, bool enabled = true) noexcept : m_(m), was_(on(m)) { set(enabled); }
    ~arm() { set(was_); }
    arm(const arm&) = delete;
    arm& operator=(const arm&) = delete;

  private:
    void set(bool enabled) noexcept {
        if (enabled) {
            detail::armed.fetch_or(detail::bit(m_));
        } else {
            detail::armed.fetch_and(~detail::bit(m_));
        }
    }
    mutant m_;
    bool was_;
};

#else

constexpr bool on(mutant) noexcept { return false; }

#endif

}  // namespace lfrc::mutation
