// Negative probe for R6's dynamic twin (scripts/ci.sh tsan cell).
//
// The static rule (R6, tools/lfrc_lint) makes every non-seq_cst atomic op
// name its pairing; this probe demonstrates WHY for one load-bearing
// pairing, `remote-head` (docs/fence_pairings.md): a cross-slot free
// release-publishes the freed block's last payload writes via the tagged
// remote-head push, and the owner's single-block pop acquire-reads them.
// The seeded mutation (mutation::mutant::weaken_pop_acquire; the probe is
// compiled with LFRC_ENABLE_MUTATIONS) weakens BOTH ends of the pop — the head pre-read
// and the claiming CAS — to relaxed. That is invisible to every value
// assertion and to the seq_cst sim model (sim atomics run seq_cst), but
// the recycled payload now reaches its next owner with no happens-before
// edge from the freer's writes: a data race only ThreadSanitizer can see.
//
//   ./order_race_probe            clean orders: the same choreography must
//                                 run race-free (exit 0, TSan silent)
//   ./order_race_probe --mutant   weakened orders: under LFRC_SANITIZE=
//                                 thread TSan MUST report the race (the CI
//                                 cell inverts the exit status)
//
// Without TSan the mutant leg exits 2 (inconclusive), mirroring
// arena_uaf_probe's contract, so it can never masquerade as a passing
// test in an unsanitized tree.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "alloc/arena.hpp"
#include "util/mutation.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PROBE_TSAN 1
#endif
#endif
#if !defined(PROBE_TSAN) && defined(__SANITIZE_THREAD__)
#define PROBE_TSAN 1
#endif

namespace {

constexpr std::size_t payload_bytes = 64;

// The conflicting payload accesses, kept out of line ON PURPOSE: a literal
// std::memset(p, v, 64) gets expanded by the compiler into raw vector
// stores that carry no TSan instrumentation (no interceptor call, no
// __tsan_write*), making the racing accesses invisible to the tool this
// probe exists to arm. A noinline word-store loop always instruments.
__attribute__((noinline)) void scribble(char* p, unsigned long v) {
    auto* w = reinterpret_cast<unsigned long*>(p);
    for (std::size_t i = 0; i < payload_bytes / sizeof(unsigned long); ++i) {
        w[i] = v;
    }
}

// B -> A pointer handoff (seq_cst: A's use of the pointer is ordered).
std::atomic<char*> g_handoff{nullptr};
// A -> B "free landed" signal. Relaxed ON PURPOSE: the only happens-before
// edge back to the owner must be the remote-head pop under test.
std::atomic<bool> g_freed{false};

}  // namespace

int main(int argc, char** argv) {
    const bool mutant = argc > 1 && std::strcmp(argv[1], "--mutant") == 0;
#if !defined(PROBE_TSAN)
    if (mutant) {
        std::fprintf(stderr,
                     "order_race_probe: --mutant without ThreadSanitizer — "
                     "inconclusive\n");
        return 2;
    }
#endif
    lfrc::mutation::arm armed(lfrc::mutation::mutant::weaken_pop_acquire, mutant);
    auto& a = lfrc::alloc::arena::instance();

    // B, the owner: carves the block (home = B's registry slot), hands it
    // to A, then re-allocates until the remote pop recycles it back.
    std::thread owner([&a] {
        char* p = static_cast<char*>(a.allocate(payload_bytes));
        g_handoff.store(p);
        while (!g_freed.load(std::memory_order_relaxed)) {
        }
        char* q = nullptr;
        for (int i = 0; i < 4096 && q == nullptr; ++i) {
            char* c = static_cast<char*>(a.allocate(payload_bytes));
            if (c == p) q = c;
            // Non-matching blocks are freshly carved; park them (freeing
            // would feed the magazine and starve the remote pop).
        }
        if (q == nullptr) {
            std::fprintf(stderr,
                         "order_race_probe: recycled block never came back "
                         "through the remote pop — choreography broke\n");
            std::_Exit(3);
        }
        // The conflicting access: without the pop's acquire edge this
        // write races with the freer's last payload writes.
        scribble(q, 0x2b2b2b2b2b2b2b2bUL);
    });

    // A, the freer: writes the payload, then frees cross-slot — a tagged
    // release push onto B's remote head.
    std::thread freer([&a] {
        // Register this thread's arena slot FIRST: registration
        // release-publishes the registry's slot table, and the owner's
        // peer-steal scan acquire-reads it (high_water) every allocate.
        // Registering lazily inside deallocate would put that incidental
        // happens-before edge AFTER the payload writes and mask the
        // seeded race this probe exists to surface.
        (void)lfrc::util::thread_registry::instance().slot();
        char* p = nullptr;
        while ((p = g_handoff.load()) == nullptr) {
        }
        scribble(p, 0x5a5a5a5a5a5a5a5aUL);  // the freer's last writes
        a.deallocate(p, payload_bytes);
        g_freed.store(true, std::memory_order_relaxed);
    });

    freer.join();
    owner.join();

    if (mutant) {
        // TSan reports the race above; with halt_on_error it never gets
        // here, and without it the TSan runtime forces a failing exit code.
        std::fprintf(stderr,
                     "order_race_probe: weakened remote-pop orders survived "
                     "TSan — the remote-head pairing is not being "
                     "exercised\n");
        return 1;
    }
    std::puts("order_race_probe: clean orders, no race");
    return 0;
}
