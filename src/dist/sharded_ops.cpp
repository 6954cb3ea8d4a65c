/// \file sharded_ops.cpp
/// \brief Tile-level sharded kernels: SUMMA multiply, masked/element-wise
///        variants, kronecker broadcast, transpose, reduce and mxv.

#include "dist/sharded_ops.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <ranges>
#include <utility>
#include <vector>

#include "core/convert.hpp"
#include "core/csr.hpp"
#include "ops/bitblock_ops.hpp"
#include "ops/ewise_add.hpp"
#include "ops/ewise_mult.hpp"
#include "storage/thresholds.hpp"
#include "ops/kronecker.hpp"
#include "ops/masked.hpp"
#include "ops/mxv.hpp"
#include "ops/reduce.hpp"
#include "ops/transpose.hpp"
#include "telemetry/metrics.hpp"
#include "util/contracts.hpp"

namespace spbla::dist {

namespace {

/// Charge a cross-device tile read: the executing device pulls \p tile from
/// its owner. Reads of resident or empty tiles are free.
void note_transfer(const Matrix& tile, std::size_t tile_owner, std::size_t exec_device) {
    if (tile_owner == exec_device || tile.nnz() == 0) return;
    // Charge the resident representation's bytes: a BitBlocks tile ships its
    // packed tiles, not a CSR materialised just for accounting.
    const std::size_t bytes = tile.device_bytes();
    stats().tile_transfers.fetch_add(1, std::memory_order_relaxed);
    stats().transfer_bytes.fetch_add(bytes, std::memory_order_relaxed);
    telemetry::count(telemetry::Counter::DistTileTransfers);
    telemetry::count(telemetry::Counter::DistTransferBytes, bytes);
}

/// Stitch per-tile CSR results (row-major over \p part's grid; disengaged
/// slots are empty tiles) into one global CSR on \p out_ctx. Tile rows are
/// disjoint row ranges and tile columns ascend, so this is a counting pass
/// plus a cursor fill — O(nnz + nrows), no sort.
Matrix assemble(backend::Context& out_ctx, const Partition& part,
                const std::vector<std::optional<CsrMatrix>>& tiles) {
    const std::size_t gr = part.grid_rows();
    const std::size_t gc = part.grid_cols();
    const Index nr = part.nrows();

    // The stitched arrays come from the output device's pool: every sharded
    // op assembles here, so round-tripping results through the free lists
    // means steady-state SUMMA iterations reuse the same blocks.
    auto offsets = out_ctx.buffer_pool().acquire_zeroed(static_cast<std::size_t>(nr) + 1);
    for (std::size_t i = 0; i < gr; ++i) {
        const Index base = part.row_begin(i);
        for (std::size_t j = 0; j < gc; ++j) {
            const auto& t = tiles[part.tile_index(i, j)];
            if (!t) continue;
            SPBLA_ASSERT(t->nrows() == part.tile_nrows(i) &&
                             t->ncols() == part.tile_ncols(j),
                         "dist::assemble: tile shape does not match the grid cell");
            for (Index r = 0; r < t->nrows(); ++r)
                offsets[static_cast<std::size_t>(base) + r + 1] += t->row_nnz(r);
        }
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(nr); ++r)
        offsets[r + 1] += offsets[r];

    auto cols = out_ctx.buffer_pool().acquire(offsets[nr]);
    auto cursor = out_ctx.buffer_pool().acquire(nr);
    std::copy(offsets.begin(), offsets.end() - 1, cursor.begin());
    for (std::size_t i = 0; i < gr; ++i) {
        const Index base = part.row_begin(i);
        for (std::size_t j = 0; j < gc; ++j) {
            const auto& t = tiles[part.tile_index(i, j)];
            if (!t) continue;
            const Index col_base = part.col_begin(j);
            for (Index r = 0; r < t->nrows(); ++r) {
                Index& at = cursor[static_cast<std::size_t>(base) + r];
                for (const Index c : t->row(r)) cols[at++] = col_base + c;
            }
        }
    }
    out_ctx.buffer_pool().release(std::move(cursor));
    return Matrix{CsrMatrix::from_raw(nr, part.ncols(), std::move(offsets),
                                      std::move(cols)),
                  out_ctx};
}

/// Stitch per-tile partial column vectors: OR across the grid columns of
/// each grid row, then concatenate the row ranges.
SpVector assemble_column(const Partition& part,
                         const std::vector<std::optional<SpVector>>& partials) {
    const std::size_t gr = part.grid_rows();
    const std::size_t gc = part.grid_cols();
    std::vector<Index> all;
    for (std::size_t i = 0; i < gr; ++i) {
        SpVector acc{part.tile_nrows(i)};
        for (std::size_t j = 0; j < gc; ++j) {
            const auto& p = partials[part.tile_index(i, j)];
            if (!p) continue;
            acc = acc.ewise_or(*p);
        }
        const Index base = part.row_begin(i);
        for (const Index r : acc.indices()) all.push_back(base + r);
    }
    return SpVector::from_indices(part.nrows(), std::move(all));
}

/// A tile pair routes through the broadword kernels when both sides are at
/// (or already in) the bitblock regime — same gate the dispatcher applies
/// globally (storage/thresholds.hpp), evaluated per tile so a dense corner
/// of an otherwise sparse sharded matrix still gets the bit-parallel path.
[[nodiscard]] bool tile_prefers_bitblock(const Matrix& at, const Matrix& bt) noexcept {
    const auto in_regime = [](const Matrix& m) {
        return m.has_format(Format::BitBlocks) ||
               m.density() >= storage::kBitBlockMinDensity;
    };
    return in_regime(at) && in_regime(bt);
}

}  // namespace

Matrix sharded_multiply(backend::Context& out_ctx, const ShardedMatrix& a,
                        const ShardedMatrix& b, const ShardedMatrix* c_in,
                        const ops::SpGemmOptions& opts) {
    SPBLA_REQUIRE(a.ncols() == b.nrows(), Status::DimensionMismatch,
                  "dist::multiply: inner dimensions differ");
    SPBLA_REQUIRE(std::ranges::equal(a.partition().col_splits(), b.partition().row_splits()),
                  Status::DimensionMismatch, "dist::multiply: partitions are not conformal");
    const auto rs = a.partition().row_splits();
    const auto cs = b.partition().col_splits();
    Partition out_part{std::vector<Index>(rs.begin(), rs.end()),
                       std::vector<Index>(cs.begin(), cs.end())};
    if (c_in != nullptr) {
        SPBLA_REQUIRE(c_in->partition() == out_part, Status::DimensionMismatch,
                  "dist::multiply_add: accumulator partition mismatch");
    }

    const std::size_t gc = out_part.grid_cols();
    const std::size_t inner = a.partition().grid_cols();
    const std::size_t n_dev = a.group().size();

    // Input tiles are shared across concurrently executing output tiles; the
    // repr cache synchronises first materialisation per slot, so concurrent
    // bitblocks()/csr() below is safe without prewarming.
    std::vector<std::optional<CsrMatrix>> results(out_part.tiles());
    a.group().run(
        out_part.tiles(), [&](std::size_t t) { return t % n_dev; },
        [&](std::size_t t, std::size_t exec) {
            const std::size_t i = t / gc;
            const std::size_t j = t % gc;
            backend::Context& dev = a.group().device(exec);
            std::optional<CsrMatrix> acc;
            std::optional<BitBlockMatrix> bb_acc;
            if (c_in != nullptr && c_in->tile(i, j).nnz() > 0) {
                note_transfer(c_in->tile(i, j), c_in->owner(i, j), exec);
                acc = c_in->tile(i, j).csr();  // lint:allow(parallel-capture)
            }
            for (std::size_t k = 0; k < inner; ++k) {
                const Matrix& at = a.tile(i, k);
                const Matrix& bt = b.tile(k, j);
                if (at.nnz() == 0 || bt.nnz() == 0) continue;
                note_transfer(at, a.owner(i, k), exec);
                note_transfer(bt, b.owner(k, j), exec);
                if (tile_prefers_bitblock(at, bt)) {
                    BitBlockMatrix p =
                        ops::multiply(dev, at.bitblocks(dev), bt.bitblocks(dev));  // lint:allow(parallel-capture)
                    if (p.nnz() > 0) {
                        bb_acc = bb_acc ? ops::ewise_add(dev, *bb_acc, p) : std::move(p);
                    }
                } else if (acc) {
                    CsrMatrix product = ops::multiply(dev, at.csr(), bt.csr(), opts);  // lint:allow(parallel-capture)
                    CsrMatrix next = ops::ewise_add(dev, *acc, product);
                    // The partial product and the superseded accumulator go
                    // back to this device's pool: tiles of one grid have
                    // similar sizes, so the next round's product re-draws
                    // these arrays.
                    for (CsrMatrix* dead : {&product, &*acc}) {
                        auto [offsets, cols] = std::move(*dead).release_raw();
                        dev.buffer_pool().release(std::move(offsets));
                        dev.buffer_pool().release(std::move(cols));
                    }
                    acc = std::move(next);
                } else {
                    acc = ops::multiply(dev, at.csr(), bt.csr(), opts);  // lint:allow(parallel-capture)
                }
            }
            if (bb_acc) {
                CsrMatrix flat = to_csr(dev, *bb_acc);
                acc = acc ? ops::ewise_add(dev, *acc, flat) : std::move(flat);
            }
            if (acc && acc->nnz() > 0) results[t] = std::move(acc);
        });
    return assemble(out_ctx, out_part, results);
}

Matrix sharded_multiply_masked(backend::Context& out_ctx, const ShardedMatrix& mask,
                               const ShardedMatrix& a, const ShardedMatrix& b_transposed,
                               bool complement) {
    SPBLA_REQUIRE(a.ncols() == b_transposed.ncols(), Status::DimensionMismatch,
                  "dist::multiply_masked: inner dimensions differ");
    SPBLA_REQUIRE(mask.nrows() == a.nrows() && mask.ncols() == b_transposed.nrows(), Status::DimensionMismatch,
                  "dist::multiply_masked: mask shape mismatch");
    SPBLA_REQUIRE(
        std::ranges::equal(mask.partition().row_splits(), a.partition().row_splits()) &&
            std::ranges::equal(mask.partition().col_splits(),
                               b_transposed.partition().row_splits()) &&
            std::ranges::equal(a.partition().col_splits(),
                               b_transposed.partition().col_splits()),
        Status::DimensionMismatch, "dist::multiply_masked: partitions are not conformal");

    const Partition& out_part = mask.partition();
    const std::size_t gc = out_part.grid_cols();
    const std::size_t inner = a.partition().grid_cols();
    const std::size_t n_dev = a.group().size();

    // The mask distributes over the OR accumulation in both modes:
    // OR_k (m & X_k) == m & OR_k X_k and OR_k (X_k & ~m) == (OR_k X_k) & ~m,
    // so each (i, k) pair is masked independently and the partials OR up.
    std::vector<std::optional<CsrMatrix>> results(out_part.tiles());
    a.group().run(
        out_part.tiles(), [&](std::size_t t) { return t % n_dev; },
        [&](std::size_t t, std::size_t exec) {
            const std::size_t i = t / gc;
            const std::size_t j = t % gc;
            const Matrix& mt = mask.tile(i, j);
            if (!complement && mt.nnz() == 0) return;
            backend::Context& dev = a.group().device(exec);
            bool read_mask = false;
            std::optional<CsrMatrix> acc;
            for (std::size_t k = 0; k < inner; ++k) {
                const Matrix& at = a.tile(i, k);
                const Matrix& bt = b_transposed.tile(j, k);
                if (at.nnz() == 0 || bt.nnz() == 0) continue;
                note_transfer(at, a.owner(i, k), exec);
                note_transfer(bt, b_transposed.owner(j, k), exec);
                if (!read_mask) {
                    note_transfer(mt, mask.owner(i, j), exec);
                    read_mask = true;
                }
                CsrMatrix part =
                    ops::multiply_masked(dev, mt.csr(), at.csr(), bt.csr(), complement);  // lint:allow(parallel-capture)
                if (part.nnz() == 0) continue;
                acc = acc ? ops::ewise_add(dev, *acc, part) : std::move(part);
            }
            if (acc && acc->nnz() > 0) results[t] = std::move(acc);
        });
    return assemble(out_ctx, out_part, results);
}

namespace {

template <typename TileOp>
Matrix sharded_ewise(backend::Context& out_ctx, const ShardedMatrix& a,
                     const ShardedMatrix& b, bool intersect, TileOp&& tile_op) {
    SPBLA_REQUIRE(a.partition() == b.partition(), Status::DimensionMismatch,
                  "dist::ewise: operands are sharded on different grids");
    const Partition& part = a.partition();
    std::vector<std::optional<CsrMatrix>> results(part.tiles());
    const std::size_t gc = part.grid_cols();
    a.group().run(
        part.tiles(),
        [&](std::size_t t) { return a.owner(t / gc, t % gc); },
        [&](std::size_t t, std::size_t exec) {
            const std::size_t i = t / gc;
            const std::size_t j = t % gc;
            const Matrix& at = a.tile(i, j);
            const Matrix& bt = b.tile(i, j);
            if (intersect && (at.nnz() == 0 || bt.nnz() == 0)) return;
            if (at.nnz() == 0 && bt.nnz() == 0) return;
            note_transfer(at, a.owner(i, j), exec);
            note_transfer(bt, b.owner(i, j), exec);
            CsrMatrix r = tile_op(a.group().device(exec), at, bt);
            if (r.nnz() > 0) results[t] = std::move(r);
        });
    return assemble(out_ctx, part, results);
}

}  // namespace

Matrix sharded_ewise_add(backend::Context& out_ctx, const ShardedMatrix& a,
                         const ShardedMatrix& b) {
    return sharded_ewise(out_ctx, a, b, /*intersect=*/false,
                         [](backend::Context& dev, const Matrix& x, const Matrix& y) {
                             if (tile_prefers_bitblock(x, y)) {
                                 return to_csr(dev, ops::ewise_add(dev, x.bitblocks(dev),
                                                                   y.bitblocks(dev)));
                             }
                             return ops::ewise_add(dev, x.csr(dev), y.csr(dev));
                         });
}

Matrix sharded_ewise_mult(backend::Context& out_ctx, const ShardedMatrix& a,
                          const ShardedMatrix& b) {
    return sharded_ewise(out_ctx, a, b, /*intersect=*/true,
                         [](backend::Context& dev, const Matrix& x, const Matrix& y) {
                             if (tile_prefers_bitblock(x, y)) {
                                 return to_csr(dev, ops::ewise_mult(dev, x.bitblocks(dev),
                                                                    y.bitblocks(dev)));
                             }
                             return ops::ewise_mult(dev, x.csr(dev), y.csr(dev));
                         });
}

Matrix sharded_kronecker(backend::Context& out_ctx, const ShardedMatrix& a,
                         const Matrix& b) {
    // Block (i, j) of A (x) B is tile A(i,j) (x) B: A's grid scales by B's
    // shape and whole-B broadcasts to every device that computes a block.
    const Partition& pa = a.partition();
    std::vector<Index> row_splits(pa.row_splits().begin(), pa.row_splits().end());
    std::vector<Index> col_splits(pa.col_splits().begin(), pa.col_splits().end());
    for (Index& s : row_splits) s *= b.nrows();
    for (Index& s : col_splits) s *= b.ncols();
    Partition out_part{std::move(row_splits), std::move(col_splits)};

    // Materialise B's CSR once, serially, before the parallel region — the
    // tasks then share it read-only.
    const CsrMatrix& bcsr = b.csr(out_ctx);

    const std::size_t n_dev = a.group().size();
    const std::size_t gc = pa.grid_cols();
    auto used = std::make_unique<std::atomic<std::uint32_t>[]>(n_dev);
    for (std::size_t d = 0; d < n_dev; ++d) used[d].store(0, std::memory_order_relaxed);

    std::vector<std::optional<CsrMatrix>> results(pa.tiles());
    a.group().run(
        pa.tiles(),
        [&](std::size_t t) { return a.owner(t / gc, t % gc); },
        [&](std::size_t t, std::size_t exec) {
            const std::size_t i = t / gc;
            const std::size_t j = t % gc;
            const Matrix& at = a.tile(i, j);
            if (at.nnz() == 0 || b.nnz() == 0) return;
            note_transfer(at, a.owner(i, j), exec);
            used[exec].store(1, std::memory_order_relaxed);
            CsrMatrix r = ops::kronecker(a.group().device(exec), at.csr(), bcsr);  // lint:allow(parallel-capture)
            if (r.nnz() > 0) results[t] = std::move(r);
        });

    // Charge the B broadcast: one copy per participating device beyond the
    // first (the host seeds one device for free).
    std::size_t participants = 0;
    for (std::size_t d = 0; d < n_dev; ++d)
        participants += used[d].load(std::memory_order_relaxed);
    if (participants > 1 && b.nnz() > 0) {
        const std::size_t copies = participants - 1;
        const std::size_t bytes = copies * bcsr.device_bytes();
        stats().tile_transfers.fetch_add(copies, std::memory_order_relaxed);
        stats().transfer_bytes.fetch_add(bytes, std::memory_order_relaxed);
        telemetry::count(telemetry::Counter::DistTileTransfers, copies);
        telemetry::count(telemetry::Counter::DistTransferBytes, bytes);
    }
    return assemble(out_ctx, out_part, results);
}

Matrix sharded_transpose(backend::Context& out_ctx, const ShardedMatrix& a) {
    const Partition& pa = a.partition();
    Partition out_part = pa.transposed();
    const std::size_t gc = pa.grid_cols();

    std::vector<std::optional<CsrMatrix>> results(out_part.tiles());
    a.group().run(
        pa.tiles(),
        [&](std::size_t t) { return a.owner(t / gc, t % gc); },
        [&](std::size_t t, std::size_t exec) {
            const std::size_t i = t / gc;
            const std::size_t j = t % gc;
            const Matrix& at = a.tile(i, j);
            if (at.nnz() == 0) return;
            note_transfer(at, a.owner(i, j), exec);
            // Tile (i, j) transposed lands at grid cell (j, i) of the
            // transposed partition.
            results[out_part.tile_index(j, i)] =
                ops::transpose(a.group().device(exec), at.csr());  // lint:allow(parallel-capture)
        });
    return assemble(out_ctx, out_part, results);
}

SpVector sharded_reduce_to_column(backend::Context& /*out_ctx*/, const ShardedMatrix& a) {
    const Partition& pa = a.partition();
    const std::size_t gc = pa.grid_cols();
    std::vector<std::optional<SpVector>> partials(pa.tiles());
    a.group().run(
        pa.tiles(),
        [&](std::size_t t) { return a.owner(t / gc, t % gc); },
        [&](std::size_t t, std::size_t exec) {
            const std::size_t i = t / gc;
            const std::size_t j = t % gc;
            const Matrix& at = a.tile(i, j);
            if (at.nnz() == 0) return;
            note_transfer(at, a.owner(i, j), exec);
            partials[t] = ops::reduce_to_column(a.group().device(exec), at.csr());  // lint:allow(parallel-capture)
        });
    return assemble_column(pa, partials);
}

SpVector sharded_mxv(backend::Context& /*out_ctx*/, const ShardedMatrix& a,
                     const SpVector& x) {
    SPBLA_REQUIRE(x.size() == a.ncols(), Status::DimensionMismatch,
                  "dist::mxv: vector size mismatch");
    const Partition& pa = a.partition();
    const std::size_t gc = pa.grid_cols();

    // Slice x per grid column, rebased to tile-local indices (x's index list
    // is sorted, so each slice is a contiguous range of it).
    std::vector<SpVector> slices;
    slices.reserve(gc);
    const std::span<const Index> xi = x.indices();
    for (std::size_t j = 0; j < gc; ++j) {
        const Index lo = pa.col_begin(j);
        const Index hi = lo + pa.tile_ncols(j);
        const auto first = std::lower_bound(xi.begin(), xi.end(), lo);
        const auto last = std::lower_bound(first, xi.end(), hi);
        std::vector<Index> local;
        local.reserve(static_cast<std::size_t>(last - first));
        for (auto it = first; it != last; ++it) local.push_back(*it - lo);
        slices.push_back(SpVector::from_indices(pa.tile_ncols(j), std::move(local)));
    }

    std::vector<std::optional<SpVector>> partials(pa.tiles());
    a.group().run(
        pa.tiles(),
        [&](std::size_t t) { return a.owner(t / gc, t % gc); },
        [&](std::size_t t, std::size_t exec) {
            const std::size_t i = t / gc;
            const std::size_t j = t % gc;
            const Matrix& at = a.tile(i, j);
            if (at.nnz() == 0 || slices[j].nnz() == 0) return;
            note_transfer(at, a.owner(i, j), exec);
            partials[t] = ops::mxv(a.group().device(exec), at.csr(), slices[j]);  // lint:allow(parallel-capture)
        });
    return assemble_column(pa, partials);
}

}  // namespace spbla::dist
