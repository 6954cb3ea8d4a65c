/// \file test_arena.cpp
/// \brief Scoped arena + buffer pool: reset exactness, per-worker isolation,
/// exactly-once tracker charging, poison-on-reset, pool reuse accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "backend/arena.hpp"
#include "backend/context.hpp"
#include "helpers.hpp"
#include "ops/ops.hpp"
#include "telemetry/metrics.hpp"
#include "util/contracts.hpp"

namespace spbla {
namespace {

using testing::CheckedContext;

using ArenaSuite = CheckedContext;

// ---------------------------------------------------------------------------
// Arena core: nesting, rewind exactness, tracker veneer
// ---------------------------------------------------------------------------

TEST(Arena, NestedScopeResetExactness) {
    backend::MemoryTracker tracker;
    backend::Arena arena{&tracker};

    backend::ScopedArena outer{arena};
    void* a = arena.allocate(100, 8);
    ASSERT_NE(a, nullptr);
    const std::size_t outer_used = arena.used();
    EXPECT_GE(outer_used, 100u);

    {
        backend::ScopedArena inner{arena};
        (void)arena.allocate(1 << 12, 64);
        (void)arena.allocate(33, 1);
        EXPECT_GT(arena.used(), outer_used);
        {
            backend::ScopedArena innermost{arena};
            (void)arena.allocate(1 << 18, 8);  // forces a second slab
            EXPECT_GE(arena.slab_count(), 2u);
        }
        // Innermost rewind reclaims the big block but keeps inner's bytes.
        EXPECT_GT(arena.used(), outer_used);
    }
    // Inner rewind restores the exact outer watermark.
    EXPECT_EQ(arena.used(), outer_used);
    EXPECT_EQ(arena.depth(), 1);
}

TEST(Arena, ExactlyOnceTrackerCharging) {
    backend::MemoryTracker tracker;
    backend::Arena arena{&tracker};
    ASSERT_EQ(tracker.current_bytes(), 0u);

    {
        backend::ScopedArena scope{arena};
        (void)arena.allocate(1000, 8);
        // One slab reserve == one tracked allocation; live bytes cover the
        // full reserve (the tracker veneer charges slabs, not suballocations).
        EXPECT_EQ(tracker.alloc_count(), 1u);
        EXPECT_EQ(tracker.current_bytes(), arena.reserved());
        (void)arena.allocate(2000, 8);
        (void)arena.allocate(3000, 8);
        // Suballocations from the same slab add no tracked allocations.
        EXPECT_EQ(tracker.alloc_count(), 1u);
    }
    // Outermost scope exit settles: retained slabs are uncharged (idle), the
    // alloc stays counted, and nothing was freed yet.
    EXPECT_EQ(tracker.current_bytes(), 0u);
    EXPECT_EQ(tracker.alloc_count(), 1u);
    EXPECT_EQ(tracker.free_count(), 0u);
    EXPECT_GT(arena.reserved(), 0u);

    {
        // Re-entering a scope re-charges the retained reserve on first use
        // without counting a new allocation (the slab is reused, not
        // reallocated).
        backend::ScopedArena scope{arena};
        (void)arena.allocate(500, 8);
        EXPECT_EQ(tracker.alloc_count(), 1u);
        EXPECT_EQ(tracker.current_bytes(), arena.reserved());
    }
    EXPECT_EQ(tracker.current_bytes(), 0u);

    // Trim pairs every on_alloc with an on_free and empties the arena.
    arena.trim();
    EXPECT_EQ(arena.reserved(), 0u);
    EXPECT_EQ(tracker.current_bytes(), 0u);
    EXPECT_EQ(tracker.alloc_count(), tracker.free_count());
    EXPECT_TRUE(tracker.balanced());
}

TEST(Arena, PeakCoversScratch) {
    backend::MemoryTracker tracker;
    backend::Arena arena{&tracker};
    const std::size_t big = std::size_t{1} << 20;
    {
        backend::ScopedArena scope{arena};
        (void)arena.allocate(big, 8);
    }
    // The whole scratch burst is visible in the high-water mark even though
    // the live balance settled back to zero.
    EXPECT_GE(tracker.peak_bytes(), big);
    EXPECT_EQ(tracker.current_bytes(), 0u);
    arena.trim();
}

TEST(Arena, ScopedResetCountsTelemetry) {
    backend::MemoryTracker tracker;
    backend::Arena arena{&tracker};
    const auto before =
        backend::Context::metrics_snapshot().counter(telemetry::Counter::ArenaResets);
    {
        backend::ScopedArena scope{arena};
        (void)arena.allocate(64, 8);
    }
    const auto after =
        backend::Context::metrics_snapshot().counter(telemetry::Counter::ArenaResets);
    EXPECT_GE(after, before + 1);
    arena.trim();
}

TEST(Arena, PassthroughModeTracksEveryAllocation) {
    ASSERT_TRUE(backend::arena_enabled());
    backend::set_arena_enabled(false);

    backend::MemoryTracker tracker;
    {
        backend::Arena arena{&tracker};
        backend::ScopedArena scope{arena};
        (void)arena.allocate(100, 8);
        (void)arena.allocate(200, 8);
        (void)arena.allocate(300, 8);
        // Pass-through: one tracked allocation per request — the ablation
        // baseline the bench ladders compare the arena's slab count against.
        EXPECT_EQ(tracker.alloc_count(), 3u);
        EXPECT_GE(tracker.current_bytes(), 600u);
    }
    EXPECT_EQ(tracker.alloc_count(), tracker.free_count());
    EXPECT_TRUE(tracker.balanced());

    backend::set_arena_enabled(true);
    ASSERT_TRUE(backend::arena_enabled());
}

#if SPBLA_CHECKS_LEVEL >= SPBLA_CHECKS_FULL
TEST(Arena, PoisonOnResetAtFullChecks) {
    backend::MemoryTracker tracker;
    backend::Arena arena{&tracker};
    backend::ScopedArena outer{arena};

    unsigned char* p = nullptr;
    constexpr std::size_t kBytes = 256;
    {
        backend::ScopedArena inner{arena};
        p = static_cast<unsigned char*>(arena.allocate(kBytes, 8));
        // Fresh arena bytes are poisoned before first write...
        for (std::size_t i = 0; i < kBytes; ++i) ASSERT_EQ(p[i], 0xA5u);
        std::memset(p, 0x11, kBytes);
    }
    // ...and re-poisoned when the scope reset reclaims them, so a dangling
    // reader sees poison, not its stale payload.
    for (std::size_t i = 0; i < kBytes; ++i) ASSERT_EQ(p[i], 0xA5u);
}
#endif

// ---------------------------------------------------------------------------
// ArenaVector + per-worker isolation under the pool
// ---------------------------------------------------------------------------

TEST(Arena, ArenaVectorBasics) {
    backend::MemoryTracker tracker;
    backend::Arena arena{&tracker};
    backend::ScopedArena scope{arena};

    backend::ArenaVector<std::uint32_t> v{backend::ArenaAllocator<std::uint32_t>{arena}};
    v.assign(1000, 7);
    for (std::uint32_t x : v) ASSERT_EQ(x, 7u);
    v.resize(5000, 9);
    EXPECT_EQ(v[4999], 9u);
    EXPECT_GE(arena.used(), 5000 * sizeof(std::uint32_t));
}

TEST_F(ArenaSuite, PerWorkerSubArenasAreIsolated) {
    // 8 pool workers each fill arena scratch with a chunk-specific pattern
    // and verify it after a yield-sized recompute; any cross-worker sharing
    // of a sub-arena corrupts the pattern (and TSan flags the race under the
    // `parallel` label build).
    backend::Context pool_ctx{backend::Policy::Parallel, 8};
    constexpr std::size_t kChunks = 64;
    constexpr std::size_t kWords = 4096;
    std::atomic<std::size_t> bad{0};

    pool_ctx.parallel_for_chunks(kChunks, 1, [&](std::size_t c0, std::size_t c1) {
        backend::Arena& arena = pool_ctx.scratch_arena();
        for (std::size_t c = c0; c < c1; ++c) {
            backend::ScopedArena scope{arena};
            auto buf = pool_ctx.scratch_alloc<std::uint64_t>(kWords);
            const std::uint64_t tag = 0x9E3779B97F4A7C15ull * (c + 1);
            for (std::size_t i = 0; i < kWords; ++i) buf[i] = tag + i;
            backend::ArenaVector<std::uint64_t> extra{
                backend::ArenaAllocator<std::uint64_t>{arena}};
            extra.assign(kWords / 2, tag);
            for (std::size_t i = 0; i < kWords; ++i) {
                if (buf[i] != tag + i) bad.fetch_add(1, std::memory_order_relaxed);
            }
            for (std::uint64_t w : extra) {
                if (w != tag) bad.fetch_add(1, std::memory_order_relaxed);
            }
        }
    });
    EXPECT_EQ(bad.load(), 0u);

    // All scopes exited: every worker arena settled, so the context balance
    // is exact without a trim...
    EXPECT_EQ(pool_ctx.arena_hub().used_bytes(), 0u);
    EXPECT_EQ(pool_ctx.tracker().current_bytes(), 0u);
    // ...and trim releases the retained slabs with exact alloc/free pairing.
    pool_ctx.trim_device_scratch();
    EXPECT_EQ(pool_ctx.arena_hub().reserved_bytes(), 0u);
    EXPECT_EQ(pool_ctx.tracker().alloc_count(), pool_ctx.tracker().free_count());
}

TEST_F(ArenaSuite, NestedOpsRewindInsideAWorkerChunkScope) {
    // An op called from inside a chunk body (nested ScopedArena) must rewind
    // to its own mark only — the outer chunk's scratch survives.
    backend::Context pool_ctx{backend::Policy::Parallel, 4};
    std::atomic<std::size_t> bad{0};
    pool_ctx.parallel_for_chunks(16, 1, [&](std::size_t c0, std::size_t c1) {
        backend::Arena& arena = pool_ctx.scratch_arena();
        for (std::size_t c = c0; c < c1; ++c) {
            auto outer_buf = pool_ctx.scratch_alloc<std::uint32_t>(512);
            for (std::size_t i = 0; i < 512; ++i) {
                outer_buf[i] = static_cast<std::uint32_t>(c * 1000 + i);
            }
            {
                backend::ScopedArena nested{arena};
                auto inner_buf = pool_ctx.scratch_alloc<std::uint32_t>(2048);
                for (std::size_t i = 0; i < 2048; ++i) {
                    inner_buf[i] = 0xFFFFFFFFu;
                }
            }
            for (std::size_t i = 0; i < 512; ++i) {
                if (outer_buf[i] != static_cast<std::uint32_t>(c * 1000 + i)) {
                    bad.fetch_add(1, std::memory_order_relaxed);
                }
            }
        }
    });
    EXPECT_EQ(bad.load(), 0u);
    EXPECT_EQ(pool_ctx.tracker().current_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

TEST(BufferPool, ReuseCountersAndRecycling) {
    backend::BufferPool pool;
    EXPECT_EQ(pool.hits(), 0u);
    EXPECT_EQ(pool.misses(), 0u);

    // Power-of-two capacity lands exactly on its size class, so the request
    // classes below can see it (a capacity just under a class boundary parks
    // one class lower than any request that size would scan — by design: a
    // class only serves requests every member can satisfy).
    auto a = pool.acquire(1024);
    EXPECT_EQ(a.size(), 1024u);
    EXPECT_EQ(pool.misses(), 1u);

    pool.release(std::move(a));
    EXPECT_GT(pool.held_bytes(), 0u);

    // Smaller request, same serving class: served from the free list.
    auto b = pool.acquire(900);
    EXPECT_EQ(b.size(), 900u);
    EXPECT_EQ(pool.hits(), 1u);
    EXPECT_EQ(pool.misses(), 1u);

    pool.release(std::move(b));
    auto c = pool.acquire_zeroed(1024);
    ASSERT_EQ(c.size(), 1024u);
    for (std::uint32_t x : c) ASSERT_EQ(x, 0u);
    EXPECT_EQ(pool.hits(), 2u);

    pool.release(std::move(c));
    pool.trim();
    EXPECT_EQ(pool.held_bytes(), 0u);

    // After a trim the next acquire is a miss again.
    auto d = pool.acquire(1024);
    EXPECT_EQ(pool.misses(), 2u);
    pool.release(std::move(d));
}

TEST(BufferPool, ServesLargerClassesButNotSmaller) {
    backend::BufferPool pool;
    auto big = pool.acquire(1 << 16);
    pool.release(std::move(big));
    // A request two classes below still finds the parked buffer...
    auto mid = pool.acquire(1 << 14);
    EXPECT_EQ(pool.hits(), 1u);
    pool.release(std::move(mid));
    // ...but a request far smaller must not drag a huge buffer around.
    auto tiny = pool.acquire(16);
    EXPECT_EQ(pool.misses(), 2u);
    pool.release(std::move(tiny));
}

// ---------------------------------------------------------------------------
// End-to-end: ops on a CheckedContext leave the balance exact
// ---------------------------------------------------------------------------

TEST_F(ArenaSuite, SpGemmLeavesContextBalanced) {
    const auto a = testing::random_csr(256, 256, 0.02, 11);
    const auto b = testing::random_csr(256, 256, 0.02, 13);
    const auto c_par = ops::multiply(testing::ctx(), a, b);
    const auto c_seq = ops::multiply(testing::seq_ctx(), a, b);
    EXPECT_EQ(c_par.nnz(), c_seq.nnz());
    // CheckedContext::TearDown asserts both trackers read their SetUp
    // balance — the arenas settled and pooled buffers are outside the
    // tracker, so no explicit trim is needed here.
}

TEST_F(ArenaSuite, PassthroughAblationMatchesArenaResults) {
    const auto a = testing::random_csr(128, 128, 0.05, 21);
    const auto b = testing::random_csr(128, 128, 0.05, 22);
    const auto with_arena = ops::multiply(testing::ctx(), a, b);

    backend::set_arena_enabled(false);
    const auto without = ops::multiply(testing::ctx(), a, b);
    backend::set_arena_enabled(true);

    ASSERT_EQ(with_arena.nnz(), without.nnz());
    const auto ro_a = with_arena.row_offsets();
    const auto ro_b = without.row_offsets();
    ASSERT_EQ(ro_a.size(), ro_b.size());
    EXPECT_TRUE(std::equal(ro_a.begin(), ro_a.end(), ro_b.begin()));
    const auto cols_a = with_arena.cols();
    const auto cols_b = without.cols();
    ASSERT_EQ(cols_a.size(), cols_b.size());
    EXPECT_TRUE(std::equal(cols_a.begin(), cols_a.end(), cols_b.begin()));
}

}  // namespace
}  // namespace spbla
