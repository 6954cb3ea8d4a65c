/// \file dist.cpp
/// \brief Engine state (group + version-keyed shard cache), routing hints and
///        the Matrix-level sharded operations behind storage::DistBridge.

#include "dist/dist.hpp"

#include <algorithm>
#include <memory>
#include <ranges>
#include <utility>
#include <vector>

#include "dist/device_group.hpp"
#include "dist/partition.hpp"
#include "dist/sharded_matrix.hpp"
#include "dist/sharded_ops.hpp"
#include "prof/prof.hpp"
#include "telemetry/metrics.hpp"
#include "storage/dispatch.hpp"
#include "util/contracts.hpp"
#include "util/thread_annotations.hpp"

namespace spbla::dist {

namespace {

/// Shardings cached by the source handle's content version so fixpoint
/// drivers reuse tiles across iterations; a mutated handle carries a new
/// version and misses (the invalidation-epoch contract). Small FIFO —
/// fixpoints juggle a handful of live matrices.
constexpr std::size_t kShardCacheCap = 16;

struct Engine {
    util::Mutex mutex;  // guards cfg/grp/cache structure, not tile compute
    Config cfg SPBLA_GUARDED_BY(mutex){};
    bool routing_enabled SPBLA_GUARDED_BY(mutex){false};
    // Member order matters: cache entries hold tiles bound to grp's device
    // contexts, so cache (declared later) must destruct before grp.
    std::unique_ptr<DeviceGroup> grp SPBLA_GUARDED_BY(mutex);
    struct CacheEntry {
        std::uint64_t version;
        std::shared_ptr<const ShardedMatrix> shard;
    };
    std::vector<CacheEntry> cache SPBLA_GUARDED_BY(mutex);
};

Engine& engine() {
    static Engine e;
    return e;
}

thread_local Hint tl_hint = Hint::Auto;

DeviceGroup& group_locked(Engine& e) SPBLA_REQUIRES(e.mutex) {
    if (!e.grp) {
        e.grp = std::make_unique<DeviceGroup>(e.cfg.devices, e.cfg.threads_per_device);
    }
    return *e.grp;
}

/// Partition \p m per the active config: explicit grid knobs when set, else
/// the nnz/budget heuristic (square matrices get identical splits both ways,
/// so both sides of A x A share one sharding).
Partition plan(const Matrix& m) {
    Engine& e = engine();
    std::size_t devices;
    Config cfg;
    {
        const util::LockGuard lock{e.mutex};
        cfg = e.cfg;
        devices = group_locked(e).size();
    }
    if (cfg.grid_rows > 0 && cfg.grid_cols > 0) {
        return Partition::uniform(m.nrows(), m.ncols(), cfg.grid_rows, cfg.grid_cols);
    }
    return choose_partition(m.nrows(), m.ncols(), m.nnz(), devices,
                            cfg.tile_budget_bytes);
}

Partition with_splits(std::span<const Index> row_splits, std::span<const Index> col_splits) {
    return Partition{std::vector<Index>(row_splits.begin(), row_splits.end()),
                     std::vector<Index>(col_splits.begin(), col_splits.end())};
}

/// Shard \p m on \p part, reusing a cached sharding when the handle's
/// content version and the partition both match. Version 0 (moved-from)
/// never caches.
std::shared_ptr<const ShardedMatrix> get_shard(const Matrix& m, const Partition& part) {
    Engine& e = engine();
    const std::uint64_t v = m.version();
    DeviceGroup* grp = nullptr;
    Placement placement{};
    {
        const util::LockGuard lock{e.mutex};
        grp = &group_locked(e);
        placement = e.cfg.placement;
        if (v != 0) {
            for (const Engine::CacheEntry& entry : e.cache) {
                if (entry.version == v && entry.shard->partition() == part) {
                    stats().shard_cache_hits.fetch_add(1, std::memory_order_relaxed);
                    telemetry::count(telemetry::Counter::DistShardCacheHits);
                    return entry.shard;
                }
            }
        }
    }
    // Build outside the lock: scatter runs through the group scheduler. The
    // placement policy was copied under the lock above — re-reading
    // engine().cfg here would race with a concurrent configure().
    auto shard = std::make_shared<const ShardedMatrix>(*grp, m, part, placement);
    stats().shard_builds.fetch_add(1, std::memory_order_relaxed);
    telemetry::count(telemetry::Counter::DistShardBuilds);
    if (v != 0) {
        const util::LockGuard lock{e.mutex};
        if (e.cache.size() >= kShardCacheCap) e.cache.erase(e.cache.begin());
        e.cache.push_back(Engine::CacheEntry{v, shard});
    }
    return shard;
}

void count_op() {
    stats().sharded_ops.fetch_add(1, std::memory_order_relaxed);
    telemetry::count(telemetry::Counter::DistShardedOps);
}

bool should_shard(std::initializer_list<const Matrix*> operands) {
    switch (tl_hint) {
        case Hint::ForceShard: return true;
        case Hint::ForceLocal: return false;
        case Hint::Auto: break;
    }
    Engine& e = engine();
    Config cfg;
    {
        const util::LockGuard lock{e.mutex};
        if (!e.routing_enabled) return false;
        cfg = e.cfg;
    }
    Index max_dim = 0;
    std::size_t nnz_sum = 0;
    for (const Matrix* m : operands) {
        max_dim = std::max({max_dim, m->nrows(), m->ncols()});
        nnz_sum += m->nnz();
    }
    return max_dim >= cfg.min_dim && nnz_sum >= cfg.min_nnz;
}

const storage::DistBridge& bridge() {
    static const storage::DistBridge b{
        &should_shard,  &multiply,  &multiply_add, &multiply_masked, &ewise_add,
        &ewise_mult,    &kronecker, &transpose,    &reduce_to_column, &mxv,
    };
    return b;
}

}  // namespace

Stats& stats() noexcept {
    static Stats s;
    return s;
}

void reset_stats() noexcept {
    Stats& s = stats();
    s.sharded_ops.store(0, std::memory_order_relaxed);
    s.shard_builds.store(0, std::memory_order_relaxed);
    s.shard_cache_hits.store(0, std::memory_order_relaxed);
    s.tiles_processed.store(0, std::memory_order_relaxed);
    s.tile_steals.store(0, std::memory_order_relaxed);
    s.tile_transfers.store(0, std::memory_order_relaxed);
    s.transfer_bytes.store(0, std::memory_order_relaxed);
}

void configure(const Config& cfg) {
    SPBLA_REQUIRE(cfg.devices >= 1, Status::InvalidArgument,
                  "dist::configure: need at least one device");
    Engine& e = engine();
    {
        const util::LockGuard lock{e.mutex};
        e.cache.clear();  // tiles reference the old group's contexts
        e.grp.reset();
        e.cfg = cfg;
        e.grp = std::make_unique<DeviceGroup>(cfg.devices, cfg.threads_per_device);
        e.routing_enabled = true;
    }
    storage::set_dist_bridge(&bridge());
}

void disable() {
    Engine& e = engine();
    storage::set_dist_bridge(nullptr);
    const util::LockGuard lock{e.mutex};
    e.routing_enabled = false;
    e.cache.clear();
    e.grp.reset();
}

bool enabled() noexcept {
    Engine& e = engine();
    const util::LockGuard lock{e.mutex};
    return e.routing_enabled;
}

Config config() noexcept {
    Engine& e = engine();
    const util::LockGuard lock{e.mutex};
    return e.cfg;
}

DeviceGroup& group() {
    Engine& e = engine();
    const util::LockGuard lock{e.mutex};
    return group_locked(e);
}

Hint thread_hint() noexcept { return tl_hint; }
void set_thread_hint(Hint hint) noexcept { tl_hint = hint; }

ScopedHint::ScopedHint(Hint hint) : prev_{thread_hint()} {
    set_thread_hint(hint);
    if (hint == Hint::ForceShard) {
        // Make the forced route live even without a prior configure(): the
        // default-config group lazily builds and the bridge installs (with
        // routing_enabled still false, so Auto threads stay unrouted).
        (void)group();
        storage::set_dist_bridge(&bridge());
    }
}

Matrix multiply(backend::Context& ctx, const Matrix& a, const Matrix& b,
                const ops::SpGemmOptions& opts) {
    SPBLA_PROF_SPAN("dist.multiply");
    count_op();
    const Partition pa = plan(a);
    Partition pb = plan(b);
    // SUMMA needs B's row splits equal to A's column splits.
    if (!std::ranges::equal(pb.row_splits(), pa.col_splits())) {
        pb = with_splits(pa.col_splits(), pb.col_splits());
    }
    const auto sa = get_shard(a, pa);
    const auto sb = get_shard(b, pb);
    return sharded_multiply(ctx, *sa, *sb, nullptr, opts);
}

Matrix multiply_add(backend::Context& ctx, const Matrix& c, const Matrix& a,
                    const Matrix& b, const ops::SpGemmOptions& opts) {
    SPBLA_PROF_SPAN("dist.multiply_add");
    count_op();
    const Partition pa = plan(a);
    Partition pb = plan(b);
    if (!std::ranges::equal(pb.row_splits(), pa.col_splits())) {
        pb = with_splits(pa.col_splits(), pb.col_splits());
    }
    const Partition pc = with_splits(pa.row_splits(), pb.col_splits());
    const auto sa = get_shard(a, pa);
    const auto sb = get_shard(b, pb);
    const auto sc = get_shard(c, pc);
    return sharded_multiply(ctx, *sa, *sb, sc.get(), opts);
}

Matrix multiply_masked(backend::Context& ctx, const Matrix& mask, const Matrix& a,
                       const Matrix& b_transposed, bool complement) {
    SPBLA_PROF_SPAN("dist.multiply_masked");
    count_op();
    const Partition pm = plan(mask);
    const Partition pa = with_splits(pm.row_splits(), plan(a).col_splits());
    const Partition pbt = with_splits(pm.col_splits(), pa.col_splits());
    const auto sm = get_shard(mask, pm);
    const auto sa = get_shard(a, pa);
    const auto sbt = get_shard(b_transposed, pbt);
    return sharded_multiply_masked(ctx, *sm, *sa, *sbt, complement);
}

Matrix ewise_add(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    SPBLA_PROF_SPAN("dist.ewise_add");
    count_op();
    const Partition p = plan(a);
    const auto sa = get_shard(a, p);
    const auto sb = get_shard(b, p);
    return sharded_ewise_add(ctx, *sa, *sb);
}

Matrix ewise_mult(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    SPBLA_PROF_SPAN("dist.ewise_mult");
    count_op();
    const Partition p = plan(a);
    const auto sa = get_shard(a, p);
    const auto sb = get_shard(b, p);
    return sharded_ewise_mult(ctx, *sa, *sb);
}

Matrix kronecker(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    SPBLA_PROF_SPAN("dist.kronecker");
    count_op();
    const auto sa = get_shard(a, plan(a));
    return sharded_kronecker(ctx, *sa, b);
}

Matrix transpose(backend::Context& ctx, const Matrix& a) {
    SPBLA_PROF_SPAN("dist.transpose");
    count_op();
    const auto sa = get_shard(a, plan(a));
    return sharded_transpose(ctx, *sa);
}

SpVector reduce_to_column(backend::Context& ctx, const Matrix& a) {
    SPBLA_PROF_SPAN("dist.reduce_to_column");
    count_op();
    const auto sa = get_shard(a, plan(a));
    return sharded_reduce_to_column(ctx, *sa);
}

SpVector mxv(backend::Context& ctx, const Matrix& a, const SpVector& x) {
    SPBLA_PROF_SPAN("dist.mxv");
    count_op();
    const auto sa = get_shard(a, plan(a));
    return sharded_mxv(ctx, *sa, x);
}

}  // namespace spbla::dist
