// lfrc::alloc::arena — type-stable, slot-sharded size-class slab arenas.
//
// The physical allocator behind alloc::counted_base, i.e. behind every
// smr::owner make_owner (manual.hpp, deferred.hpp, counted.hpp),
// lfrc::domain::make, and every reclaimer deleter — one seam, every layer.
// E9/E11 showed the global allocator becoming the contended resource at
// server scale (~190k retires / 0.4 s at 8 threads); pairing reclamation
// with a pooled, never-unmapped allocator (Brown; Arbel-Raviv & Brown,
// "Reuse, don't Recycle") turns the free half of every retire path into an
// O(1) pointer push and the allocate half into a thread-local array pop.
//
// Design (DESIGN.md §15):
//
//   size classes   12 payload classes, 48..2048 bytes; each class owns a
//                  slab_directory (alloc/slab.hpp — 1024-slot chunks behind
//                  atomic chunk pointers, never unmapped: type-stable).
//                  Payloads above 2048 fall through to the system heap,
//                  routed consistently by size on both ends.
//   block header   16 bytes ahead of each payload: {index, class, home,
//                  next}. `home` is the registry slot that carved the block
//                  and never changes — every free of this block routes back
//                  to its home shard, so blocks do not migrate and each
//                  shard's freelist stays hot in its owner's cache.
//   magazine       per (class × registry slot): a plain array of slot
//                  indices only its owner touches. Same-slot frees push
//                  here; allocation pops here first. No atomics at all on
//                  the hit path.
//   remote list    per (class × registry slot): a Treiber stack of blocks
//                  freed by OTHER slots, head = the tagged_head 64-bit
//                  word (32-bit ABA tag | 32-bit index — block_pool's
//                  idiom, shared via slab.hpp). The owner pops one block at
//                  a time and REUSES ITS PRE-READ `next`, so the tag is
//                  load-bearing: a thief can steal the whole chain, recycle
//                  a block, and push it back with the same head index; only
//                  the advanced tag turns that recurrence into a CAS
//                  failure. The remote-free vs local-pop race is
//                  model-checked (tests/sim/sim_arena_test.cpp) against the
//                  seeded strip-the-tag mutant below.
//   steal          a slot whose magazine and remote list are both empty
//                  grabs a peer's whole remote chain with one CAS (chain
//                  grabs never reuse pre-read data, so they are ABA-safe by
//                  construction), keeps the first block, and stashes the
//                  rest in its magazine.
//   ASan interop   recycling defeats the heap sanitizer's use-after-free
//                  detection unless we teach it: payloads are manually
//                  poisoned on free and unpoisoned on allocate, so a stale
//                  read of a recycled *node* still dies under
//                  LFRC_SANITIZE=address (scripts/ci.sh asan cell probes
//                  this with tests/arena_uaf_probe). Headers stay
//                  unpoisoned — the freelist itself must write them.
//                  (valois_stack's typed_pool is NOT poisoned: stale reads
//                  of recycled comparator nodes are that design's point.)
//   sim interop    under -DLFRC_SIM, counted_base keeps routing through the
//                  shadow heap (sim::managed_alloc/managed_free), so every
//                  schedule retains quarantine-based UAF/double-free/leak
//                  checking — recycling never masks a model-level UAF. The
//                  arena's remote heads are instrumented atomics, so the
//                  arena's own protocol is schedule-explorable.
//
// Environment gates (latched at first use):
//   LFRC_ARENA=0            bypass — route straight to the system heap
//   LFRC_ARENA_HUGEPAGES=1  back chunks with MADV_HUGEPAGE mmap (Linux)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>

#include "alloc/slab.hpp"
#include "sim/instrumented.hpp"
#include "util/mutation.hpp"
#include "util/thread_registry.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define LFRC_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LFRC_ARENA_ASAN 1
#endif
#endif

#if defined(LFRC_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace lfrc::alloc {

namespace arena_detail {

inline void poison_payload(void* p, std::size_t n) noexcept {
#if defined(LFRC_ARENA_ASAN)
    __asan_poison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
}

inline void unpoison_payload(void* p, std::size_t n) noexcept {
#if defined(LFRC_ARENA_ASAN)
    __asan_unpoison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
}

}  // namespace arena_detail

class arena {
  public:
    static constexpr std::size_t num_classes = 12;
    /// Payload bytes per class; multiples of 16 so payloads stay 16-aligned
    /// behind the 16-byte header.
    static constexpr std::size_t class_sizes[num_classes] = {
        48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048};
    static constexpr std::size_t max_payload = class_sizes[num_classes - 1];
    static constexpr std::size_t magazine_cap = 64;

    arena() {
        const bool huge = hugepages_requested();
        for (std::size_t k = 0; k < num_classes; ++k) {
            classes_[k].emplace(class_sizes[k], huge);
        }
    }
    arena(const arena&) = delete;
    arena& operator=(const arena&) = delete;

    /// The process-wide arena behind counted_base. Leaked (like the epoch
    /// domain): node frees can run during static destruction.
    static arena& instance() {
        static auto* a = new arena;
        return *a;
    }

    /// True unless LFRC_ARENA=0 — one latched read; allocate/deallocate
    /// must route identically for the whole process lifetime.
    static bool enabled() noexcept {
        static const bool on = [] {
            const char* e = std::getenv("LFRC_ARENA");
            return !(e != nullptr && e[0] == '0' && e[1] == '\0');
        }();
        return on;
    }

    void* allocate(std::size_t sz) {
        const int k = klass_of(sz);
        if (k < 0 || !enabled()) {
            fallback_allocs_.fetch_add(1, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
            return ::operator new(sz);
        }
        class_state& cs = *classes_[static_cast<std::size_t>(k)];
        const std::size_t s = util::thread_registry::instance().slot();
        shard& sh = cs.shards[s];

        // 1) magazine: owner-only array pop, no atomics on the hit path.
        const std::uint32_t n = sh.mag_count.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-magazine)
        if (n != 0) {
            const std::uint32_t idx = sh.magazine[n - 1];
            sh.mag_count.store(n - 1, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-magazine)
            tick(sh.magazine_hits);
            return payload_of(cs, idx);
        }

        // 2) own remote list: single-block tagged pop. `next` is read
        // BEFORE the CAS — the advanced tag is what makes that sound.
        // Orders come from pop_load_order/pop_cas_order (acquire/acq_rel;
        // both ends of the `remote-head` pairing are annotated there) so
        // the R6 mutation can sever the edge for the TSan twin.
        std::uint64_t head = sh.remote_head.load(pop_load_order());
        while (tagged_head::index_of(head) != tagged_head::null_index) {
            const std::uint32_t idx = tagged_head::index_of(head);
            const std::uint32_t next = load_next(cs.dir.slot_at(idx));
            const std::uint64_t desired =
                tagged_head::pack(next_tag(tagged_head::tag_of(head)), next);
            if (sh.remote_head.compare_exchange_weak(head, desired,
                                                     pop_cas_order())) {
                tick(sh.remote_pops);
                return payload_of(cs, idx);
            }
        }

        // 3) steal a peer's whole remote chain (chain grabs use no pre-read
        // data, so they are ABA-safe; the tag still advances so the owner's
        // in-flight single pop fails cleanly).
        const std::size_t high = util::thread_registry::instance().high_water();
        for (std::size_t t = 0; t < high; ++t) {
            if (t == s) continue;
            shard& peer = cs.shards[t];
            std::uint64_t ph = peer.remote_head.load(std::memory_order_acquire);  // lfrc-lint: order(remote-head)
            while (tagged_head::index_of(ph) != tagged_head::null_index) {
                const std::uint64_t empty = tagged_head::pack(
                    next_tag(tagged_head::tag_of(ph)), tagged_head::null_index);
                if (peer.remote_head.compare_exchange_weak(ph, empty,  // lfrc-lint: order(remote-head)
                                                           std::memory_order_acq_rel)) {
                    tick(sh.chain_steals);
                    return adopt_chain(cs, sh, tagged_head::index_of(ph));
                }
            }
        }

        // 4) carve fresh; `home` is stamped once and never changes.
        std::uint32_t idx;
        std::byte* slot = cs.dir.carve(idx);
        block_header h;
        h.index = idx;
        h.klass = static_cast<std::uint16_t>(k);
        h.home = static_cast<std::uint16_t>(s);
        h.next = tagged_head::null_index;
        std::memcpy(slot, &h, sizeof(h));
        return slot + header_bytes;
    }

    void deallocate(void* p, std::size_t sz) noexcept {
        const int k = klass_of(sz);
        if (k < 0 || !enabled()) {
            ::operator delete(p);
            return;
        }
        class_state& cs = *classes_[static_cast<std::size_t>(k)];
        std::byte* slot = static_cast<std::byte*>(p) - header_bytes;
        block_header h;
        std::memcpy(&h, slot, sizeof(h));
        // Freed payload becomes poison until its next allocation: a stale
        // read of a recycled node dies under ASan instead of silently
        // reading the next tenant's bytes.
        arena_detail::poison_payload(p, class_sizes[static_cast<std::size_t>(k)]);
        const std::size_t s = util::thread_registry::instance().slot();
        shard& sh = cs.shards[s];
        if (h.home == s) {
            const std::uint32_t n = sh.mag_count.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-magazine)
            if (n < magazine_cap) {
                sh.magazine[n] = h.index;
                sh.mag_count.store(n + 1, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-magazine)
                tick(sh.local_frees);
                return;
            }
        }
        // Cross-slot (or magazine-overflow) free: tagged push onto the
        // block's HOME shard, so storage stays with its carving slot.
        tick(sh.remote_frees);
        push_remote(cs, cs.shards[h.home], h.index);
    }

    // ---- stats -----------------------------------------------------------

    struct stats {
        std::size_t footprint_bytes = 0;  ///< slab bytes held from the system
        std::uint64_t carved = 0;         ///< fresh blocks ever carved
        std::uint64_t magazine_hits = 0;  ///< allocations served by magazines
        std::uint64_t remote_pops = 0;    ///< single-block remote-list pops
        std::uint64_t chain_steals = 0;   ///< whole-chain grabs from peers
        std::uint64_t local_frees = 0;    ///< frees into the owner magazine
        std::uint64_t remote_frees = 0;   ///< cross-slot tagged pushes
        std::uint64_t fallback_allocs = 0;  ///< >2048B or LFRC_ARENA=0 routes
    };

    stats snapshot() const noexcept {
        stats out;
        const std::size_t high = util::thread_registry::instance().high_water();
        for (std::size_t k = 0; k < num_classes; ++k) {
            const class_state& cs = *classes_[k];
            out.footprint_bytes += cs.dir.footprint_bytes();
            out.carved += cs.dir.slots_carved();
            for (std::size_t s = 0; s < high; ++s) {
                const shard& sh = cs.shards[s];
                out.magazine_hits += sh.magazine_hits.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
                out.remote_pops += sh.remote_pops.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
                out.chain_steals += sh.chain_steals.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
                out.local_frees += sh.local_frees.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
                out.remote_frees += sh.remote_frees.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
            }
        }
        out.fallback_allocs = fallback_allocs_.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
        return out;
    }

  private:
    friend struct arena_testing;

    struct block_header {
        std::uint32_t index;  ///< slot index within the class directory
        std::uint16_t klass;  ///< size-class ordinal (consistency checks)
        std::uint16_t home;   ///< carving registry slot; immutable
        std::uint32_t next;   ///< freelist link while on a remote list
        std::uint32_t reserved = 0;
    };
    static constexpr std::size_t header_bytes = 16;
    static_assert(sizeof(block_header) == header_bytes);
    static constexpr std::size_t next_offset = offsetof(block_header, next);
    static_assert(next_offset % alignof(std::uint32_t) == 0);

    /// The `next` link is the one header field read/written while a block
    /// is visible to other threads: a popping owner pre-reads the head's
    /// `next` BEFORE its CAS, so a thief that already took the block may be
    /// rewriting that field concurrently (the stale read is harmless — the
    /// advanced tag fails the reader's CAS). Relaxed atomic_ref makes those
    /// bytes well-defined to race on (plain loads/stores on x86) without
    /// making the whole header atomic.
    static std::uint32_t load_next(std::byte* slot) noexcept {
        return std::atomic_ref<std::uint32_t>(
                   *reinterpret_cast<std::uint32_t*>(slot + next_offset))
            .load(std::memory_order_relaxed);  // lfrc-lint: order(next-link)
    }
    static void store_next(std::byte* slot, std::uint32_t v) noexcept {
        std::atomic_ref<std::uint32_t>(
            *reinterpret_cast<std::uint32_t*>(slot + next_offset))
            .store(v, std::memory_order_relaxed);  // lfrc-lint: order(next-link)
    }

    /// Per (class × registry slot) free storage. The magazine half is
    /// owner-only (mag_count is atomic solely so stats reads are defined);
    /// the remote head is the only cross-thread word.
    struct alignas(64) shard {
        sim::instrumented_atomic<std::uint64_t> remote_head{
            tagged_head::pack(0, tagged_head::null_index)};
        std::uint32_t magazine[magazine_cap] = {};
        std::atomic<std::uint32_t> mag_count{0};
        std::atomic<std::uint64_t> magazine_hits{0};
        std::atomic<std::uint64_t> remote_pops{0};
        std::atomic<std::uint64_t> chain_steals{0};
        std::atomic<std::uint64_t> local_frees{0};
        std::atomic<std::uint64_t> remote_frees{0};
    };

    struct class_state {
        class_state(std::size_t payload, bool hugepages)
            : dir(payload + header_bytes, /*track_stats=*/false, hugepages) {}
        slab_directory dir;
        shard shards[util::thread_registry::max_threads];
    };

    /// Class ordinal for a payload size, or -1 for the system-heap route.
    static int klass_of(std::size_t sz) noexcept {
        if (sz > max_payload) return -1;
        for (std::size_t k = 0; k < num_classes; ++k) {
            if (sz <= class_sizes[k]) return static_cast<int>(k);
        }
        return -1;  // unreachable
    }

    /// Tag successor for every head CAS; the mutation strips the advance.
    static std::uint32_t next_tag(std::uint32_t tag) noexcept {
        if (mutation::on(mutation::mutant::strip_arena_tag)) return tag;
        return tag + 1;  // 32-bit wraparound is benign: equality is all that matters
    }

    /// Memory orders for the owner's single-block remote pop (allocate
    /// step 2). Funneled through one place so the weaken_pop_acquire mutant
    /// can weaken both ends at once (either end alone still carries the
    /// happens-before edge from the remote freer); these ARE the pop side
    /// of the `remote-head` pairing — see docs/fence_pairings.md.
    static std::memory_order pop_load_order() noexcept {
        if (mutation::on(mutation::mutant::weaken_pop_acquire)) {
            return std::memory_order_relaxed;  // lfrc-lint: order(remote-head)
        }
        return std::memory_order_acquire;  // lfrc-lint: order(remote-head)
    }
    static std::memory_order pop_cas_order() noexcept {
        if (mutation::on(mutation::mutant::weaken_pop_acquire)) {
            return std::memory_order_relaxed;  // lfrc-lint: order(remote-head)
        }
        return std::memory_order_acq_rel;  // lfrc-lint: order(remote-head)
    }

    static void tick(std::atomic<std::uint64_t>& c) noexcept {
        // Owner-only counter: load+store, no RMW on the hot path.
        c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-stats-counter)
    }

    void* payload_of(class_state& cs, std::uint32_t idx) noexcept {
        std::byte* slot = cs.dir.slot_at(idx);
        void* p = slot + header_bytes;
        arena_detail::unpoison_payload(p, cs.dir.slot_bytes() - header_bytes);
        return p;
    }

    /// After a successful chain grab: keep the first block, stash the rest
    /// in the caller's magazine, overflow back onto the caller's own remote
    /// list. The chain is exclusively ours post-CAS, so the link walk is
    /// single-owner code.
    void* adopt_chain(class_state& cs, shard& sh, std::uint32_t first) noexcept {
        std::uint32_t cur = load_next(cs.dir.slot_at(first));
        std::uint32_t n = sh.mag_count.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-magazine)
        while (cur != tagged_head::null_index && n < magazine_cap) {
            const std::uint32_t nxt = load_next(cs.dir.slot_at(cur));
            sh.magazine[n++] = cur;
            cur = nxt;
        }
        sh.mag_count.store(n, std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-magazine)
        while (cur != tagged_head::null_index) {
            const std::uint32_t nxt = load_next(cs.dir.slot_at(cur));
            push_remote(cs, sh, cur);
            cur = nxt;
        }
        return payload_of(cs, first);
    }

    void push_remote(class_state& cs, shard& dst, std::uint32_t index) noexcept {
        std::byte* slot = cs.dir.slot_at(index);
        std::uint64_t head = dst.remote_head.load(std::memory_order_acquire);  // lfrc-lint: order(remote-head)
        for (;;) {
            store_next(slot, tagged_head::index_of(head));
            const std::uint64_t desired =
                tagged_head::pack(next_tag(tagged_head::tag_of(head)), index);
            if (dst.remote_head.compare_exchange_weak(head, desired,  // lfrc-lint: order(remote-head)
                                                      std::memory_order_acq_rel)) {
                return;
            }
        }
    }

    static bool hugepages_requested() noexcept {
        const char* e = std::getenv("LFRC_ARENA_HUGEPAGES");
        return e != nullptr && e[0] == '1' && e[1] == '\0';
    }

    std::optional<class_state> classes_[num_classes];
    std::atomic<std::uint64_t> fallback_allocs_{0};
};

/// White-box seams for the unit suite and the sim model check. Tests-only;
/// production code must go through allocate/deallocate.
struct arena_testing {
    static int klass_of(std::size_t sz) noexcept { return arena::klass_of(sz); }

    static std::uint64_t remote_head(const arena& a, std::size_t k, std::size_t s) noexcept {
        return a.classes_[k]->shards[s].remote_head.load(std::memory_order_acquire);  // lfrc-lint: order(remote-head)
    }
    /// Force a shard's remote tag (wraparound tests).
    static void set_remote_tag(arena& a, std::size_t k, std::size_t s,
                               std::uint32_t tag) noexcept {
        auto& head = a.classes_[k]->shards[s].remote_head;
        const std::uint64_t cur = head.load(std::memory_order_acquire);  // lfrc-lint: order(remote-head)
        head.store(tagged_head::pack(tag, tagged_head::index_of(cur)),  // lfrc-lint: order(remote-head)
                   std::memory_order_release);
    }
    static std::uint32_t magazine_size(const arena& a, std::size_t k,
                                       std::size_t s) noexcept {
        return a.classes_[k]->shards[s].mag_count.load(std::memory_order_relaxed);  // lfrc-lint: order(unpaired-owner-magazine)
    }
    static std::uint16_t home_of(const void* payload) noexcept {
        arena::block_header h;
        std::memcpy(&h, static_cast<const std::byte*>(payload) - arena::header_bytes,
                    sizeof(h));
        return h.home;
    }
    static std::uint16_t klass_field_of(const void* payload) noexcept {
        arena::block_header h;
        std::memcpy(&h, static_cast<const std::byte*>(payload) - arena::header_bytes,
                    sizeof(h));
        return h.klass;
    }

#if defined(LFRC_SIM)
    /// Carve a fresh block stamped home=s and push it onto that shard's
    /// remote list via UNSCHEDULED accesses (peek/poke) — sim-test setup
    /// that costs zero scheduler steps, so schedule exploration spends its
    /// whole preemption budget on the remote-pop race under test rather
    /// than on reaching the preconditions.
    static void seed_remote_block(arena& a, std::size_t k, std::size_t s) {
        auto& cs = *a.classes_[k];
        auto& sh = cs.shards[s];
        std::uint32_t idx;
        std::byte* slot = cs.dir.carve(idx);
        const std::uint64_t head = sh.remote_head.peek();
        arena::block_header h;
        h.index = idx;
        h.klass = static_cast<std::uint16_t>(k);
        h.home = static_cast<std::uint16_t>(s);
        h.next = tagged_head::index_of(head);
        std::memcpy(slot, &h, sizeof(h));
        sh.remote_head.poke(tagged_head::pack(tagged_head::tag_of(head), idx));
    }
#endif
};

}  // namespace lfrc::alloc
