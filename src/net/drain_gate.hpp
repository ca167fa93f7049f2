// The server's drain protocol, factored out of the socket layer so the sim
// harness can model-check it (tests/sim/sim_net_drain_test.cpp).
//
// kv_store::drain() severs bucket chains with the policies' *quiescent*
// teardown (reset_chain: exclusive walks, direct deletes) — its contract
// says "writers must be quiesced first". The server therefore may not call
// drain() until every worker's in-flight request batch has retired, and no
// worker may start a new batch once draining begins. drain_gate is that
// ordering, and nothing else:
//
//   worker tick     if (!gate.begin_op()) -> drain mode, exit loop
//                   ... process one batch of requests ...
//                   gate.end_op();
//   drain thread    gate.await_quiescent();   // sets draining, waits
//                   store.drain();            // now provably exclusive
//
// The begin/await handshake is the standard store-buffering dance: begin_op
// increments in_flight THEN checks draining; await_quiescent sets draining
// THEN reads in_flight. Both sides seq_cst, so a worker that saw
// draining==false has its increment visible to the drainer's read — a batch
// can never be running invisibly when await_quiescent returns. The atoms are
// sim-instrumented, making every step of the handshake a schedule point.
//
// Deliberately not here: epoll, buffers, sockets. The sim test drives real
// kv_store operations through this gate with fibers standing in for workers,
// which is exactly the seam where a drain-ordering bug becomes a
// use-after-free the shadow heap can catch.
#pragma once

#include <cstdint>

#include "sim/instrumented.hpp"
#include "util/mutation.hpp"
#include "util/sim_hook.hpp"

namespace lfrc::net {

class drain_gate {
  public:
    drain_gate() = default;
    drain_gate(const drain_gate&) = delete;
    drain_gate& operator=(const drain_gate&) = delete;

    /// Worker side: try to enter an operation batch. False once draining —
    /// the worker must stop touching the store and head for its flush/exit
    /// path. Every `true` must be paired with exactly one end_op().
    bool begin_op() noexcept {
        in_flight_.fetch_add(1, std::memory_order_seq_cst);
        if (draining_.load(std::memory_order_seq_cst) != 0) {
            in_flight_.fetch_sub(1, std::memory_order_seq_cst);
            return false;
        }
        return true;
    }

    /// Worker side: retire the batch begin_op() admitted.
    void end_op() noexcept { in_flight_.fetch_sub(1, std::memory_order_seq_cst); }

    /// True once a drain has been requested (workers poll this to stop
    /// accepting new connections before their final flush).
    bool draining() const noexcept {
        return draining_.load(std::memory_order_seq_cst) != 0;
    }

    /// Drain side: flip to draining and wait until every admitted batch has
    /// retired. After this returns, no worker is inside a store operation
    /// and none can enter one — the store's quiescent-teardown precondition.
    void await_quiescent() noexcept {
        draining_.store(1, std::memory_order_seq_cst);
        // MUTANT (the drain-ordering bug this gate exists to exclude):
        // proceed to the store teardown without waiting for in-flight
        // batches. A worker mid-request then walks entries reset_chain is
        // deleting under it. tests/sim/sim_net_drain_test.cpp proves the
        // sim harness catches this at preemption_bound=1.
        if (mutation::on(mutation::mutant::skip_await)) return;
        while (in_flight_.load(std::memory_order_seq_cst) != 0) {
            util::cooperative_yield();
        }
    }

  private:
    sim::instrumented_atomic<std::uint64_t> in_flight_{0};
    sim::instrumented_atomic<std::uint64_t> draining_{0};
};

}  // namespace lfrc::net
