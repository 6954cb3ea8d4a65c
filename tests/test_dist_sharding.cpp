/// \file test_dist_sharding.cpp
/// \brief Differential shard-oracle harness for the multi-device layer.
///
/// Every sharded kernel, on every grid shape (1x1, 1xN, Nx1, 2x2, 3x3 and
/// ragged grids with sliver edge tiles), is cross-checked bit-exactly
/// against the single-device storage:: result, with tile-placement,
/// transfer-counter accounting and per-device leak checks on teardown.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "helpers.hpp"

// The harness drives the tile kernels directly; tests are a sanctioned
// import site for the private dist headers.
#include "dist/device_group.hpp"    // lint:allow(format-leak)
#include "dist/dist.hpp"
#include "dist/partition.hpp"       // lint:allow(format-leak)
#include "dist/sharded_matrix.hpp"  // lint:allow(format-leak)
#include "dist/sharded_ops.hpp"     // lint:allow(format-leak)
#include "spbla/spbla.h"
#include "storage/dispatch.hpp"
#include "telemetry/metrics.hpp"

namespace dist = spbla::dist;
using spbla::Index;
using spbla::Matrix;
using spbla::SpVector;
using spbla::testing::ctx;
using spbla::testing::random_matrix;

namespace {

struct Grid {
    std::size_t rows;
    std::size_t cols;
};

/// The grid ladder every op is checked on: trivial, row/column strips,
/// square and a ragged 3x4 (37 and 29 do not divide evenly, so edge tiles
/// are slivers).
const std::vector<Grid> kGrids = {{1, 1}, {1, 4}, {4, 1}, {2, 2}, {3, 3}, {3, 4}};

dist::Partition uniform(const Matrix& m, const Grid& g) {
    return dist::Partition::uniform(m.nrows(), m.ncols(), g.rows, g.cols);
}

/// Conformal partitions for C = A x B on one grid spec: B's row splits must
/// equal A's column splits.
struct MultiplyParts {
    dist::Partition pa;
    dist::Partition pb;
};

MultiplyParts multiply_parts(const Matrix& a, const Matrix& b, const Grid& g) {
    dist::Partition pa = uniform(a, g);
    const auto inner = pa.col_splits();
    dist::Partition pbc = dist::Partition::uniform(b.nrows(), b.ncols(), g.cols, g.rows);
    const auto bcols = pbc.col_splits();
    return MultiplyParts{std::move(pa),
                         dist::Partition{{inner.begin(), inner.end()},
                                         {bcols.begin(), bcols.end()}}};
}

class DistSharding : public spbla::testing::CheckedContext {};

}  // namespace

// ---------------------------------------------------------------------------
// Partition geometry
// ---------------------------------------------------------------------------

TEST(DistPartition, UniformCoversExtent) {
    const auto p = dist::Partition::uniform(37, 29, 3, 4);
    EXPECT_EQ(p.grid_rows(), 3u);
    EXPECT_EQ(p.grid_cols(), 4u);
    EXPECT_EQ(p.nrows(), 37u);
    EXPECT_EQ(p.ncols(), 29u);
    Index rows = 0;
    for (std::size_t i = 0; i < p.grid_rows(); ++i) rows += p.tile_nrows(i);
    EXPECT_EQ(rows, 37u);
    Index cols = 0;
    for (std::size_t j = 0; j < p.grid_cols(); ++j) cols += p.tile_ncols(j);
    EXPECT_EQ(cols, 29u);
    // Near-equal: sizes differ by at most one.
    EXPECT_EQ(p.tile_nrows(0) - p.tile_nrows(2), 1u);  // 13, 12, 12
    for (Index r = 0; r < 37; ++r) {
        const std::size_t i = p.tile_of_row(r);
        EXPECT_GE(r, p.row_begin(i));
        EXPECT_LT(r, p.row_begin(i) + p.tile_nrows(i));
    }
    for (Index c = 0; c < 29; ++c) {
        const std::size_t j = p.tile_of_col(c);
        EXPECT_GE(c, p.col_begin(j));
        EXPECT_LT(c, p.col_begin(j) + p.tile_ncols(j));
    }
}

TEST(DistPartition, GridLargerThanExtentYieldsEmptyTiles) {
    const auto p = dist::Partition::uniform(2, 3, 5, 5);
    EXPECT_EQ(p.grid_rows(), 5u);
    EXPECT_EQ(p.nrows(), 2u);
    Index total = 0;
    for (std::size_t i = 0; i < 5; ++i) total += p.tile_nrows(i);
    EXPECT_EQ(total, 2u);
    EXPECT_EQ(p.tile_nrows(4), 0u);  // trailing slivers are empty
}

TEST(DistPartition, TransposedSwapsSplits) {
    const auto p = dist::Partition::uniform(10, 6, 2, 3);
    const auto t = p.transposed();
    EXPECT_EQ(t.nrows(), 6u);
    EXPECT_EQ(t.ncols(), 10u);
    EXPECT_EQ(t.grid_rows(), 3u);
    EXPECT_EQ(t.grid_cols(), 2u);
    EXPECT_TRUE(std::ranges::equal(t.row_splits(), p.col_splits()));
}

TEST(DistPartition, ChooseSquareMatrixGetsIdenticalSplits) {
    const auto p = dist::choose_partition(512, 512, 40000, 4, 1 << 14);
    EXPECT_TRUE(std::ranges::equal(p.row_splits(), p.col_splits()));
    EXPECT_GE(p.tiles(), 4u);  // at least one tile per device
}

TEST(DistPartition, ChooseRespectsTinyMatrices) {
    const auto p = dist::choose_partition(3, 2, 4, 8, 1 << 20);
    EXPECT_LE(p.grid_rows(), 3u);
    EXPECT_LE(p.grid_cols(), 2u);
}

// ---------------------------------------------------------------------------
// Scatter / gather and placement
// ---------------------------------------------------------------------------

TEST_F(DistSharding, GatherRoundTripsOnEveryGrid) {
    const Matrix m = random_matrix(37, 29, 0.12, 77);
    dist::DeviceGroup group{3};
    for (const Grid& g : kGrids) {
        const dist::ShardedMatrix shard{group, m, uniform(m, g)};
        EXPECT_EQ(shard.nnz(), m.nnz());
        EXPECT_TRUE(shard.gather(ctx()) == m)
            << "round trip failed on grid " << g.rows << "x" << g.cols;
    }
    EXPECT_TRUE(group.balanced()) << group.leak_report();
}

TEST_F(DistSharding, EmptyMatrixRoundTrips) {
    const Matrix m{17, 23, ctx()};
    dist::DeviceGroup group{2};
    const dist::ShardedMatrix shard{group, m, uniform(m, {2, 2})};
    EXPECT_EQ(shard.nnz(), 0u);
    EXPECT_TRUE(shard.gather(ctx()) == m);
}

TEST_F(DistSharding, RoundRobinPlacementCyclesDevices) {
    const Matrix m = random_matrix(24, 24, 0.2, 3);
    dist::DeviceGroup group{3};
    const dist::ShardedMatrix shard{group, m, uniform(m, {3, 3}),
                                    dist::Placement::RoundRobin};
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_EQ(shard.owner(i, j), (i * 3 + j) % 3);
        }
    }
}

TEST_F(DistSharding, LoadBalancedPlacementSpreadsWeight) {
    // One dense row-block dominates; LPT must not co-locate the two heavy
    // tiles while a device sits idle.
    std::vector<spbla::Coord> coords;
    for (Index r = 0; r < 8; ++r) {
        for (Index c = 0; c < 32; ++c) coords.push_back({r, c});
    }
    const Matrix m = Matrix::from_coords(32, 32, coords, ctx());
    dist::DeviceGroup group{2};
    const dist::ShardedMatrix shard{group, m, uniform(m, {2, 2}),
                                    dist::Placement::LoadBalanced};
    // Heavy tiles are (0,0) and (0,1); they must land on different devices.
    EXPECT_NE(shard.owner(0, 0), shard.owner(0, 1));
}

// ---------------------------------------------------------------------------
// Shard-oracle: every op on every grid vs single-device storage::
// ---------------------------------------------------------------------------

TEST_F(DistSharding, MultiplyMatchesSingleDeviceOnEveryGrid) {
    const Matrix a = random_matrix(37, 29, 0.15, 101);
    const Matrix b = random_matrix(29, 41, 0.15, 102);
    const Matrix want = spbla::storage::multiply(ctx(), a, b);
    dist::DeviceGroup group{3};
    for (const Grid& g : kGrids) {
        auto [pa, pb] = multiply_parts(a, b, g);
        const dist::ShardedMatrix sa{group, a, std::move(pa)};
        const dist::ShardedMatrix sb{group, b, std::move(pb)};
        EXPECT_TRUE(dist::sharded_multiply(ctx(), sa, sb) == want)
            << "multiply mismatch on grid " << g.rows << "x" << g.cols;
    }
    EXPECT_TRUE(group.balanced()) << group.leak_report();
}

TEST_F(DistSharding, MultiplyAddAccumulatesOnEveryGrid) {
    const Matrix a = random_matrix(26, 31, 0.18, 201);
    const Matrix b = random_matrix(31, 22, 0.18, 202);
    const Matrix c = random_matrix(26, 22, 0.08, 203);
    const Matrix want = spbla::storage::multiply_add(ctx(), c, a, b);
    dist::DeviceGroup group{3};
    for (const Grid& g : kGrids) {
        auto [pa, pb] = multiply_parts(a, b, g);
        const auto rs = pa.row_splits();
        const auto cs = pb.col_splits();
        dist::Partition pc{{rs.begin(), rs.end()}, {cs.begin(), cs.end()}};
        const dist::ShardedMatrix sa{group, a, std::move(pa)};
        const dist::ShardedMatrix sb{group, b, std::move(pb)};
        const dist::ShardedMatrix sc{group, c, std::move(pc)};
        EXPECT_TRUE(dist::sharded_multiply(ctx(), sa, sb, &sc) == want)
            << "multiply_add mismatch on grid " << g.rows << "x" << g.cols;
    }
}

TEST_F(DistSharding, MaskedMultiplyMatchesBothModes) {
    const Matrix a = random_matrix(24, 30, 0.2, 301);
    const Matrix b = random_matrix(30, 27, 0.2, 302);
    const Matrix bt = spbla::storage::transpose(ctx(), b);
    const Matrix mask = random_matrix(24, 27, 0.25, 303);
    dist::DeviceGroup group{3};
    for (const bool complement : {false, true}) {
        const Matrix want =
            spbla::storage::multiply_masked(ctx(), mask, a, bt, complement);
        for (const Grid& g : kGrids) {
            const dist::Partition pm = uniform(mask, g);
            const dist::Partition pa_plain = uniform(a, g);
            const auto mr = pm.row_splits();
            const auto mc = pm.col_splits();
            const auto ac = pa_plain.col_splits();
            dist::Partition pa{{mr.begin(), mr.end()}, {ac.begin(), ac.end()}};
            dist::Partition pbt{{mc.begin(), mc.end()}, {ac.begin(), ac.end()}};
            const dist::ShardedMatrix sm{group, mask, pm};
            const dist::ShardedMatrix sa{group, a, std::move(pa)};
            const dist::ShardedMatrix sbt{group, bt, std::move(pbt)};
            EXPECT_TRUE(dist::sharded_multiply_masked(ctx(), sm, sa, sbt, complement) ==
                        want)
                << "masked mismatch (complement=" << complement << ") on grid "
                << g.rows << "x" << g.cols;
        }
    }
}

TEST_F(DistSharding, EwiseMatchesOnEveryGrid) {
    const Matrix a = random_matrix(37, 29, 0.15, 401);
    const Matrix b = random_matrix(37, 29, 0.15, 402);
    const Matrix want_or = spbla::storage::ewise_add(ctx(), a, b);
    const Matrix want_and = spbla::storage::ewise_mult(ctx(), a, b);
    dist::DeviceGroup group{3};
    for (const Grid& g : kGrids) {
        const dist::Partition p = uniform(a, g);
        const dist::ShardedMatrix sa{group, a, p};
        const dist::ShardedMatrix sb{group, b, p};
        EXPECT_TRUE(dist::sharded_ewise_add(ctx(), sa, sb) == want_or);
        EXPECT_TRUE(dist::sharded_ewise_mult(ctx(), sa, sb) == want_and);
    }
}

TEST_F(DistSharding, KroneckerMatchesOnEveryGrid) {
    const Matrix a = random_matrix(9, 7, 0.3, 501);
    const Matrix b = random_matrix(5, 6, 0.3, 502);
    const Matrix want = spbla::storage::kronecker(ctx(), a, b);
    dist::DeviceGroup group{3};
    for (const Grid& g : kGrids) {
        const dist::ShardedMatrix sa{group, a, uniform(a, g)};
        EXPECT_TRUE(dist::sharded_kronecker(ctx(), sa, b) == want)
            << "kronecker mismatch on grid " << g.rows << "x" << g.cols;
    }
}

TEST_F(DistSharding, TransposeMatchesOnEveryGrid) {
    const Matrix a = random_matrix(37, 29, 0.15, 601);
    const Matrix want = spbla::storage::transpose(ctx(), a);
    dist::DeviceGroup group{3};
    for (const Grid& g : kGrids) {
        const dist::ShardedMatrix sa{group, a, uniform(a, g)};
        EXPECT_TRUE(dist::sharded_transpose(ctx(), sa) == want);
    }
}

TEST_F(DistSharding, ReduceAndMxvMatchOnEveryGrid) {
    const Matrix a = random_matrix(37, 29, 0.15, 701);
    std::vector<Index> set_cols;
    for (Index c = 0; c < 29; c += 3) set_cols.push_back(c);
    const SpVector x = SpVector::from_indices(29, set_cols);
    const SpVector want_reduce = spbla::storage::reduce_to_column(ctx(), a);
    const SpVector want_mxv = spbla::storage::mxv(ctx(), a, x);
    dist::DeviceGroup group{3};
    for (const Grid& g : kGrids) {
        const dist::ShardedMatrix sa{group, a, uniform(a, g)};
        const SpVector got_reduce = dist::sharded_reduce_to_column(ctx(), sa);
        const SpVector got_mxv = dist::sharded_mxv(ctx(), sa, x);
        EXPECT_TRUE(std::ranges::equal(got_reduce.indices(), want_reduce.indices()));
        EXPECT_TRUE(std::ranges::equal(got_mxv.indices(), want_mxv.indices()));
    }
}

TEST_F(DistSharding, SingleRowAndColumnShards) {
    // 1xN and Nx1 matrices on strip grids: every tile is a sliver.
    const Matrix row = random_matrix(1, 40, 0.4, 801);
    const Matrix col = random_matrix(40, 1, 0.4, 802);
    dist::DeviceGroup group{4};
    const dist::ShardedMatrix srow{group, row, uniform(row, {1, 4})};
    const dist::ShardedMatrix scol{group, col, uniform(col, {4, 1})};
    EXPECT_TRUE(srow.gather(ctx()) == row);
    EXPECT_TRUE(scol.gather(ctx()) == col);
    const Matrix want = spbla::storage::multiply(ctx(), col, row);
    auto [pa, pb] = multiply_parts(col, row, {4, 1});
    const dist::ShardedMatrix sa{group, col, std::move(pa)};
    const dist::ShardedMatrix sb{group, row, std::move(pb)};
    EXPECT_TRUE(dist::sharded_multiply(ctx(), sa, sb) == want);
}

// ---------------------------------------------------------------------------
// Transfer accounting and leak checks
// ---------------------------------------------------------------------------

TEST_F(DistSharding, SingleDeviceMovesNoTiles) {
    const Matrix a = random_matrix(32, 32, 0.2, 901);
    dist::DeviceGroup group{1};
    dist::reset_stats();
    const dist::ShardedMatrix sa{group, a, uniform(a, {3, 3})};
    const Matrix r = dist::sharded_multiply(ctx(), sa, sa);
    EXPECT_GT(r.nnz(), 0u);
    EXPECT_EQ(dist::stats().tile_transfers.load(), 0u);
    EXPECT_EQ(dist::stats().transfer_bytes.load(), 0u);
    EXPECT_EQ(dist::stats().tile_steals.load(), 0u);  // nothing to steal from
    EXPECT_GT(dist::stats().tiles_processed.load(), 0u);
}

TEST_F(DistSharding, MultiDeviceChargesTransfers) {
    const Matrix a = random_matrix(48, 48, 0.2, 902);
    dist::DeviceGroup group{4};
    dist::reset_stats();
    const dist::ShardedMatrix sa{group, a, uniform(a, {4, 4})};
    (void)dist::sharded_multiply(ctx(), sa, sa);
    const auto transfers = dist::stats().tile_transfers.load();
    const auto bytes = dist::stats().transfer_bytes.load();
    // A 4x4 SUMMA product over 4 devices cannot keep every (i,k)x(k,j) pair
    // device-local.
    EXPECT_GT(transfers, 0u);
    // Every transferred CSR tile moves at least its offsets array.
    EXPECT_GE(bytes, transfers * sizeof(Index));
    EXPECT_EQ(dist::stats().tiles_processed.load(), 16u + 16u);  // scatter + compute
}

TEST_F(DistSharding, TelemetryMatchesDistTransferCounters) {
    namespace telemetry = spbla::telemetry;
    const Matrix a = random_matrix(30, 30, 0.2, 904);
    const Matrix b = random_matrix(4, 4, 0.5, 905);
    dist::DeviceGroup group{3};
    const dist::ShardedMatrix sa{group, a, uniform(a, {3, 3})};
    dist::reset_stats();
    const auto before = telemetry::snapshot();
    // Kronecker charges its B broadcast outside the per-tile reads, so both
    // paths must reach telemetry as well as dist::stats().
    (void)dist::sharded_kronecker(ctx(), sa, b);
    (void)dist::sharded_multiply(ctx(), sa, sa);
    const auto after = telemetry::snapshot();
    const auto delta = [&](telemetry::Counter c) {
        return after.counter(c) - before.counter(c);
    };
    EXPECT_GT(dist::stats().tile_transfers.load(), 0u);
    EXPECT_EQ(delta(telemetry::Counter::DistTileTransfers),
              dist::stats().tile_transfers.load());
    EXPECT_EQ(delta(telemetry::Counter::DistTransferBytes),
              dist::stats().transfer_bytes.load());
}

TEST_F(DistSharding, DevicesBalancedAfterCompute) {
    dist::DeviceGroup group{3};
    {
        const Matrix a = random_matrix(30, 30, 0.2, 903);
        const dist::ShardedMatrix sa{group, a, uniform(a, {3, 3})};
        (void)dist::sharded_multiply(ctx(), sa, sa);
        (void)dist::sharded_transpose(ctx(), sa);
        (void)dist::sharded_kronecker(ctx(), sa, a);
    }
    // All shards destroyed: every per-device tracker must be back to zero.
    EXPECT_TRUE(group.balanced()) << group.leak_report();
    const auto busy = group.busy_ns();
    EXPECT_EQ(busy.size(), 3u);
}

// ---------------------------------------------------------------------------
// Dispatcher routing + shard-cache invalidation (the mutation-epoch contract)
// ---------------------------------------------------------------------------

TEST_F(DistSharding, ScopedHintForcesAndBlocksRouting) {
    const Matrix a = random_matrix(40, 40, 0.1, 1001);
    const Matrix want = [&] {
        const dist::ScopedHint local{dist::Hint::ForceLocal};
        return spbla::storage::multiply(ctx(), a, a);
    }();
    dist::reset_stats();
    {
        const dist::ScopedHint force{dist::Hint::ForceShard};
        const Matrix got = spbla::storage::multiply(ctx(), a, a);
        EXPECT_TRUE(got == want);
    }
    EXPECT_EQ(dist::stats().sharded_ops.load(), 1u);
    {
        const dist::ScopedHint local{dist::Hint::ForceLocal};
        (void)spbla::storage::multiply(ctx(), a, a);
    }
    EXPECT_EQ(dist::stats().sharded_ops.load(), 1u);  // unchanged
    dist::disable();
}

TEST_F(DistSharding, AutoRoutingHonoursThresholds) {
    dist::Config cfg;
    cfg.devices = 2;
    cfg.min_dim = 32;
    cfg.min_nnz = 1;  // any nonzero operand routes
    dist::configure(cfg);
    dist::reset_stats();
    const Matrix big = random_matrix(64, 64, 0.1, 1101);
    (void)spbla::storage::transpose(ctx(), big);
    EXPECT_EQ(dist::stats().sharded_ops.load(), 1u);
    const Matrix small = random_matrix(8, 8, 0.3, 1102);
    (void)spbla::storage::transpose(ctx(), small);
    EXPECT_EQ(dist::stats().sharded_ops.load(), 1u);  // below min_dim: local
    dist::disable();
    dist::reset_stats();
    (void)spbla::storage::transpose(ctx(), big);
    EXPECT_EQ(dist::stats().sharded_ops.load(), 0u);  // disabled again
}

TEST_F(DistSharding, RoutedFixpointStepMatchesLocal) {
    // The closure drivers' inner step C |= A x B must survive transparent
    // sharding byte-for-byte.
    const Matrix a = random_matrix(50, 50, 0.08, 1201);
    Matrix c_local = a;
    Matrix c_dist = a;
    {
        const dist::ScopedHint local{dist::Hint::ForceLocal};
        c_local.multiply_add(a, a);
    }
    {
        const dist::ScopedHint force{dist::Hint::ForceShard};
        c_dist.multiply_add(a, a);
    }
    EXPECT_TRUE(c_local == c_dist);
    dist::disable();
}

TEST_F(DistSharding, MutationInstallsFreshVersion) {
    Matrix a = random_matrix(20, 20, 0.2, 1301);
    const auto v0 = a.version();
    EXPECT_NE(v0, 0u);
    const Matrix copy = a;
    EXPECT_EQ(copy.version(), v0);  // same content, same stamp
    a += Matrix::identity(20, ctx());
    EXPECT_NE(a.version(), v0);     // mutation re-stamps
    EXPECT_EQ(copy.version(), v0);  // the copy keeps the old content
    Matrix moved = std::move(a);
    EXPECT_NE(moved.version(), v0);
    EXPECT_EQ(a.version(), 0u);  // NOLINT(bugprone-use-after-move): contract
}

TEST_F(DistSharding, ShardObservesSourceMutation) {
    Matrix a = random_matrix(24, 24, 0.2, 1401);
    dist::DeviceGroup group{2};
    const dist::ShardedMatrix shard{group, a, uniform(a, {2, 2})};
    EXPECT_TRUE(shard.in_sync_with(a));
    a += Matrix::identity(24, ctx());
    // The sharding must know it no longer reflects the handle: reusing its
    // tiles for the mutated content would silently compute on stale cells.
    EXPECT_FALSE(shard.in_sync_with(a));
    EXPECT_TRUE(shard.gather(ctx()) != a);  // tiles hold the old content
}

TEST_F(DistSharding, ShardCacheInvalidatesOnMutation) {
    dist::Config cfg;
    cfg.devices = 2;
    cfg.grid_rows = 2;
    cfg.grid_cols = 2;
    dist::configure(cfg);
    dist::reset_stats();
    Matrix a = random_matrix(40, 40, 0.12, 1501);
    const Matrix r1 = [&] {
        const dist::ScopedHint force{dist::Hint::ForceShard};
        return spbla::storage::multiply(ctx(), a, a);
    }();
    // Both sides of A x A share one cached sharding.
    EXPECT_EQ(dist::stats().shard_builds.load(), 1u);
    EXPECT_EQ(dist::stats().shard_cache_hits.load(), 1u);

    {
        const dist::ScopedHint force{dist::Hint::ForceShard};
        (void)spbla::storage::multiply(ctx(), a, a);  // warm: no new builds
    }
    EXPECT_EQ(dist::stats().shard_builds.load(), 1u);
    EXPECT_EQ(dist::stats().shard_cache_hits.load(), 3u);

    a += Matrix::identity(40, ctx());  // mutate through the facade (local)
    const Matrix r2 = [&] {
        const dist::ScopedHint force{dist::Hint::ForceShard};
        return spbla::storage::multiply(ctx(), a, a);
    }();
    // The stale sharding must NOT be reused: a fresh build is required...
    EXPECT_EQ(dist::stats().shard_builds.load(), 2u);
    // ...and the result must match a from-scratch single-device compute.
    const Matrix want = [&] {
        const dist::ScopedHint local{dist::Hint::ForceLocal};
        return spbla::storage::multiply(ctx(), a, a);
    }();
    EXPECT_TRUE(r2 == want);
    EXPECT_TRUE(r2 != r1);
    dist::disable();
}

TEST_F(DistSharding, CApiDistConfigureRoutes) {
    // The C knob drives the same engine; exercised here without the full C
    // API lifecycle (matrix handles are covered by test_capi).
    spbla_DistConfig cfg{};
    cfg.n_devices = 2;
    cfg.min_dim = 16;
    cfg.min_nnz = 1;
    ASSERT_EQ(spbla_DistConfigure(&cfg), SPBLA_STATUS_SUCCESS);
    EXPECT_TRUE(dist::enabled());
    dist::reset_stats();
    const Matrix a = random_matrix(32, 32, 0.15, 1601);
    (void)spbla::storage::transpose(ctx(), a);
    EXPECT_EQ(dist::stats().sharded_ops.load(), 1u);
    ASSERT_EQ(spbla_DistConfigure(nullptr), SPBLA_STATUS_SUCCESS);
    EXPECT_FALSE(dist::enabled());
}
