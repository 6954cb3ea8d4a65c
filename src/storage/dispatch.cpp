/// \file dispatch.cpp
/// \brief The storage engine's cost model and per-op format routing.
///
/// Cost model, in units of "index touches": for each candidate format the
/// estimated kernel work is added to the conversion work needed to
/// materialise any missing operand representation (zero when cached). The
/// constants are deliberately coarse — the model only has to rank formats,
/// and the bench ladder (bench_ops_micro --formats) keeps it honest against
/// the acceptance bar (auto within 10% of best static, strictly above worst).
///
/// Hysteresis: for binary ops the primary format of the nnz-dominant operand
/// is "preferred" and a rival must undercut its cost by kHysteresis (2x) to
/// win. A fixpoint loop whose iterates stay in one format therefore keeps
/// dispatching to that format until the balance tips decisively — the
/// conversion counter stays bounded by the number of regime changes (at most
/// a couple per run), not by the iteration count.

#include "storage/dispatch.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "backend/arena.hpp"
#include "ops/ops.hpp"
#include "prof/prof.hpp"
#include "storage/thresholds.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace spbla::storage {

namespace {

constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();

/// A rival format must be this much cheaper than the preferred (incumbent)
/// format to displace it — the anti-thrash margin.
constexpr double kHysteresis = 2.0;

// The density / byte-cap candidacy gates (kDenseMinDensity, kDenseByteCap,
// kBitBlockMinDensity, kBitBlockByteCap) live in storage/thresholds.hpp so
// the dense and bitblock tiers share one set of named crossovers.

/// Broadword ops run ~one word per model "index touch" unit but each word
/// carries 64 cells; this factor converts word-op counts into the sparse
/// kernels' cost units. Shared by the dense and bitblock cost formulas.
constexpr double kWordOpScale = 0.08;

[[nodiscard]] double words_of(Index nrows, Index ncols) noexcept {
    return static_cast<double>(nrows) *
           static_cast<double>((static_cast<std::size_t>(ncols) + 63) / 64);
}

[[nodiscard]] std::size_t dense_bytes_of(Index nrows, Index ncols) noexcept {
    return static_cast<std::size_t>(words_of(nrows, ncols)) * sizeof(std::uint64_t);
}

[[nodiscard]] bool dense_eligible(const Matrix& m) noexcept {
    if (m.nrows() == 0 || m.ncols() == 0) return false;
    if (m.has_format(Format::Dense)) return true;  // already paid for
    return m.density() >= kDenseMinDensity &&
           dense_bytes_of(m.nrows(), m.ncols()) <= kDenseByteCap;
}

[[nodiscard]] bool dense_output_eligible(Index nrows, Index ncols) noexcept {
    return dense_bytes_of(nrows, ncols) <= kDenseByteCap;
}

/// Element-wise ops get a byte-cap-only dense gate: their dense cost is one
/// exact word sweep (0.5 * words), so the cost comparison itself rejects
/// oversized grids and the density floor — which exists for multiply, whose
/// dense estimate is fuzzier — would only mask wins on small dense-ish inputs.
[[nodiscard]] bool dense_ewise_eligible(const Matrix& m) noexcept {
    if (m.nrows() == 0 || m.ncols() == 0) return false;
    if (m.has_format(Format::Dense)) return true;  // already paid for
    return dense_bytes_of(m.nrows(), m.ncols()) <= kDenseByteCap;
}

/// Non-empty tiles of the 64x64 block grid, estimated from the gate density:
/// an admitted matrix carries at least ~8 entries per occupied tile, so the
/// occupied count is bounded by nnz / 8 and by the grid itself.
[[nodiscard]] double grid_tiles_of(Index nrows, Index ncols) noexcept {
    return static_cast<double>((static_cast<std::size_t>(nrows) + 63) / 64) *
           static_cast<double>((static_cast<std::size_t>(ncols) + 63) / 64);
}

[[nodiscard]] double est_blocks(const Matrix& m) noexcept {
    return std::min(grid_tiles_of(m.nrows(), m.ncols()),
                    static_cast<double>(m.nnz()) / 8.0 + 1.0);
}

/// Worst-case BitBlocks footprint: never above the flat bitmap, and sparse
/// inputs stay entry-bounded (2 bytes per cell plus tile descriptors).
[[nodiscard]] std::size_t bitblock_bytes_of(const Matrix& m) noexcept {
    const auto entry_bound = static_cast<std::size_t>(m.nnz()) * 16;
    return std::min(dense_bytes_of(m.nrows(), m.ncols()), entry_bound);
}

[[nodiscard]] bool bitblock_eligible(const Matrix& m) noexcept {
    if (m.nrows() == 0 || m.ncols() == 0) return false;
    if (m.has_format(Format::BitBlocks)) return true;  // already paid for
    return m.density() >= kBitBlockMinDensity &&
           bitblock_bytes_of(m) <= kBitBlockByteCap;
}

/// Work to materialise format \p f on \p m; zero when already cached.
[[nodiscard]] double convert_cost(const Matrix& m, Format f) noexcept {
    if (m.has_format(f)) return 0.0;
    const auto nnz = static_cast<double>(m.nnz());
    switch (f) {
        case Format::Csr:
        case Format::Coo:
            // Sparse <-> sparse conversions are linear scans over the entries
            // (plus the row-pointer pass for CSR targets).
            return 2.0 * nnz + 0.5 * static_cast<double>(m.nrows());
        case Format::Dense:
            // Clearing the bitmap dominates for sparse sources.
            return words_of(m.nrows(), m.ncols()) + nnz;
        case Format::BitBlocks:
            // Two parallel passes over the entries plus the occupied-tile
            // bookkeeping; empty tile regions cost nothing.
            return 2.0 * nnz + 8.0 * est_blocks(m);
    }
    return kInfiniteCost;
}

/// Estimated multiply work per candidate format.
struct MultiplyCosts {
    double csr;
    double coo;
    double dense;
    double bitblock;
};

[[nodiscard]] MultiplyCosts multiply_costs(const Matrix& a, const Matrix& b) noexcept {
    const auto nnz_a = static_cast<double>(a.nnz());
    const auto nnz_b = static_cast<double>(b.nnz());
    // Expected FLOP proxy: each entry of A selects a row of B of average
    // population nnz_b / nrows_b; row skew inflates the tail bins.
    const double rows_b = std::max(1.0, static_cast<double>(b.nrows()));
    const double flops = nnz_a * (nnz_b / rows_b);
    const double skew =
        b.nrows() > 0
            ? std::max(1.0, static_cast<double>(b.max_row_nnz()) / (nnz_b / rows_b + 1.0))
            : 1.0;
    MultiplyCosts costs{};
    // Hash SpGEMM: symbolic + numeric passes, hash probes ~ constant each.
    costs.csr = 4.0 * flops + 0.25 * static_cast<double>(a.nrows());
    // Expand-sort-dedup: the sort pays log of the expanded list, and skewed
    // rows expand multiplicatively.
    costs.coo = flops * (1.0 + std::log2(flops + 2.0) * 0.25) * std::min(skew, 4.0);
    // Bit-parallel row-OR: every entry of A ORs one row of B (word-wide).
    costs.dense = kWordOpScale * nnz_a * (words_of(1, b.ncols())) +
                  words_of(a.nrows(), b.ncols());
    // Tile-grid Gustavson: each (A tile, B tile) pair costs accumulator
    // traffic (64 words) plus the cheaper of per-cell row-ORs and the
    // Four-Russians bound (512 lookups + amortised table build).
    const double blocks_a = est_blocks(a);
    const double blocks_b = est_blocks(b);
    const double brows_b = std::max(1.0, static_cast<double>((b.nrows() + 63) / 64));
    const double pairs = blocks_a * (blocks_b / brows_b);
    const double tile_nnz_a = nnz_a / std::max(1.0, blocks_a);
    const double per_pair = 64.0 + std::min(tile_nnz_a, 576.0);
    costs.bitblock = kWordOpScale * pairs * per_pair + 8.0 * blocks_a;
    return costs;
}

void count_dispatch(Format f) noexcept {
    switch (f) {
        case Format::Csr:
            stats().dispatch_csr.fetch_add(1, std::memory_order_relaxed);
            telemetry::count(telemetry::Counter::DispatchCsr);
            break;
        case Format::Coo:
            stats().dispatch_coo.fetch_add(1, std::memory_order_relaxed);
            telemetry::count(telemetry::Counter::DispatchCoo);
            break;
        case Format::Dense:
            stats().dispatch_dense.fetch_add(1, std::memory_order_relaxed);
            telemetry::count(telemetry::Counter::DispatchDense);
            break;
        case Format::BitBlocks:
            stats().dispatch_bitblock.fetch_add(1, std::memory_order_relaxed);
            telemetry::count(telemetry::Counter::DispatchBitBlocks);
            break;
    }
}

/// Short routed-format tag for the flight recorder (static storage, as its
/// records keep the pointer).
[[nodiscard]] const char* format_tag(Format f) noexcept {
    switch (f) {
        case Format::Csr: return "csr";
        case Format::Coo: return "coo";
        case Format::Dense: return "dense";
        case Format::BitBlocks: return "bitblock";
    }
    return "?";
}

[[nodiscard]] telemetry::Histogram latency_histogram(Format f) noexcept {
    switch (f) {
        case Format::Coo: return telemetry::Histogram::OpLatencyCooNs;
        case Format::Dense: return telemetry::Histogram::OpLatencyDenseNs;
        case Format::BitBlocks: return telemetry::Histogram::OpLatencyBitBlocksNs;
        case Format::Csr: break;
    }
    return telemetry::Histogram::OpLatencyCsrNs;
}

/// Per-op telemetry scope. Constructed at dispatch entry (so the measured
/// wall time covers cost modelling, operand conversions and the kernel) and
/// closed via done()/done_sharded() once the result exists: one DispatchOps
/// count, the routed format's latency histogram, the nnz in/out histograms,
/// and a flight-recorder record. Ops that throw record nothing — the
/// invariant "sum of latency-histogram counts == spbla.dispatch.ops" is what
/// check_trace --require-metrics verifies.
class OpTelemetry {
public:
    OpTelemetry(const char* op, backend::Context& ctx, std::uint64_t nnz_in) noexcept
        : op_(op), nnz_in_(nnz_in), arena_scope_{ctx.scratch_arena()} {}

    void done(Format f, Index nrows, Index ncols, std::uint64_t nnz_out) noexcept {
        finish(latency_histogram(f), format_tag(f), nrows, ncols, nnz_out);
    }

    void done_sharded(Index nrows, Index ncols, std::uint64_t nnz_out) noexcept {
        finish(telemetry::Histogram::OpLatencyShardedNs, "sharded", nrows, ncols,
               nnz_out);
    }

private:
    void finish(telemetry::Histogram latency, const char* tag, Index nrows,
                Index ncols, std::uint64_t nnz_out) noexcept {
        const auto ns = static_cast<std::uint64_t>(timer_.seconds() * 1e9);
        telemetry::count(telemetry::Counter::DispatchOps);
        telemetry::observe(latency, ns);
        telemetry::observe(telemetry::Histogram::OpNnzIn, nnz_in_);
        telemetry::observe(telemetry::Histogram::OpNnzOut, nnz_out);
        telemetry::flight::record(op_, tag, nrows, ncols, nnz_in_, nnz_out, ns);
    }

    const char* op_;
    std::uint64_t nnz_in_;
    util::Timer timer_;
    /// Per-op arena scope on the dispatching thread: op-level scratch from
    /// conversions and inline kernel launches is reclaimed when the op
    /// returns. One scope (and so one spbla.arena.resets) per dispatched op
    /// — the invariant tools/check_trace.py --require-arena verifies.
    backend::ScopedArena arena_scope_;
};

/// Keep the caches of every operand under the process-wide budget once the
/// routed kernel has run (their borrowed references are dead by then).
void trim(std::initializer_list<const Matrix*> operands) noexcept {
    if (cached_bytes() <= cache_budget()) return;
    for (const Matrix* m : operands) m->trim_cache();
}

/// Map a forced hint onto the candidate set; Auto and unsupported formats
/// yield no override.
[[nodiscard]] bool forced(FormatHint hint, std::initializer_list<Format> candidates,
                          Format& out) noexcept {
    Format want{};
    switch (hint) {
        case FormatHint::Auto: return false;
        case FormatHint::ForceCsr: want = Format::Csr; break;
        case FormatHint::ForceCoo: want = Format::Coo; break;
        case FormatHint::ForceDense: want = Format::Dense; break;
        case FormatHint::ForceBitBlocks: want = Format::BitBlocks; break;
    }
    for (const Format f : candidates) {
        if (f == want) {
            out = want;
            return true;
        }
    }
    // Forced format has no kernel for this op: CSR is the universal
    // fallback, keeping forced sweeps semantically identical.
    out = Format::Csr;
    return true;
}

/// Pick the cheapest candidate, honouring the incumbent's hysteresis margin.
/// \p preferred is the format the dominant operand already owns (or a
/// sentinel cost of infinity when it is not a candidate).
[[nodiscard]] Format pick(std::initializer_list<std::pair<Format, double>> costed,
                          Format preferred) noexcept {
    Format best = Format::Csr;
    double best_cost = kInfiniteCost;
    double preferred_cost = kInfiniteCost;
    for (const auto& [f, cost] : costed) {
        if (cost < best_cost) {
            best = f;
            best_cost = cost;
        }
        if (f == preferred) preferred_cost = cost;
    }
    if (preferred_cost < kInfiniteCost && preferred_cost <= kHysteresis * best_cost) {
        return preferred;
    }
    return best;
}

/// The operand whose format should anchor hysteresis: the larger one.
[[nodiscard]] Format dominant_format(const Matrix& a, const Matrix& b) noexcept {
    return (b.nnz() > a.nnz() ? b : a).format();
}

}  // namespace

// ---------------------------------------------------------------------------
// multiply / multiply_add
// ---------------------------------------------------------------------------

Matrix multiply(backend::Context& ctx, const Matrix& a, const Matrix& b,
                const ops::SpGemmOptions& opts) {
    SPBLA_PROF_SPAN("storage.dispatch.multiply");
    OpTelemetry tel("multiply", ctx, a.nnz() + b.nnz());
    if (a.empty() || b.empty()) {
        // Delta-shaped operand: a drained frontier (or empty base) makes the
        // product empty without running a kernel. The fast path still counts
        // a format pick and closes the telemetry scope so the dispatch
        // invariants check_trace --require-metrics verifies keep holding.
        SPBLA_REQUIRE(a.ncols() == b.nrows(), Status::DimensionMismatch,
                      "multiply: inner dimensions disagree");
        telemetry::count(telemetry::Counter::IncrShortCircuits);
        count_dispatch(Format::Csr);
        Matrix out{a.nrows(), b.ncols(), ctx};
        tel.done(Format::Csr, out.nrows(), out.ncols(), 0);
        return out;
    }
    if (const DistBridge* db = dist_bridge(); db != nullptr && db->should_shard({&a, &b})) {
        Matrix out = db->multiply(ctx, a, b, opts);
        tel.done_sharded(out.nrows(), out.ncols(), out.nnz());
        return out;
    }
    Format f;
    if (!forced(global_hint(),
                {Format::Csr, Format::Coo, Format::Dense, Format::BitBlocks}, f)) {
        const auto k = multiply_costs(a, b);
        const bool dense_ok = dense_eligible(a) && dense_eligible(b) &&
                              dense_output_eligible(a.nrows(), b.ncols());
        const bool bb_ok = bitblock_eligible(a) && bitblock_eligible(b);
        f = pick({{Format::Csr, k.csr + convert_cost(a, Format::Csr) +
                                    convert_cost(b, Format::Csr)},
                  {Format::Coo, k.coo + convert_cost(a, Format::Coo) +
                                    convert_cost(b, Format::Coo)},
                  {Format::Dense, dense_ok ? k.dense + convert_cost(a, Format::Dense) +
                                                 convert_cost(b, Format::Dense)
                                           : kInfiniteCost},
                  {Format::BitBlocks,
                   bb_ok ? k.bitblock + convert_cost(a, Format::BitBlocks) +
                               convert_cost(b, Format::BitBlocks)
                         : kInfiniteCost}},
                 dominant_format(a, b));
    }
    count_dispatch(f);
    Matrix out = [&] {
        switch (f) {
            case Format::Coo:
                return Matrix{ops::multiply(ctx, a.coo(ctx), b.coo(ctx)), ctx};
            case Format::Dense:
                return Matrix{a.dense(ctx).multiply(b.dense(ctx)), ctx};
            case Format::BitBlocks:
                return Matrix{ops::multiply(ctx, a.bitblocks(ctx), b.bitblocks(ctx)), ctx};
            case Format::Csr:
            default:
                return Matrix{ops::multiply(ctx, a.csr(ctx), b.csr(ctx), opts), ctx};
        }
    }();
    tel.done(f, out.nrows(), out.ncols(), out.nnz());
    trim({&a, &b});
    return out;
}

Matrix multiply_add(backend::Context& ctx, const Matrix& c, const Matrix& a,
                    const Matrix& b, const ops::SpGemmOptions& opts) {
    SPBLA_PROF_SPAN("storage.dispatch.multiply_add");
    OpTelemetry tel("multiply_add", ctx, c.nnz() + a.nnz() + b.nnz());
    if (a.empty() || b.empty()) {
        // Empty product term: the fused form degenerates to C itself. The
        // copy carries C's content version (same cells, same stamp), which
        // the version-keyed caches rely on.
        SPBLA_REQUIRE(a.ncols() == b.nrows(), Status::DimensionMismatch,
                      "multiply_add: inner dimensions disagree");
        SPBLA_REQUIRE(c.nrows() == a.nrows() && c.ncols() == b.ncols(),
                      Status::DimensionMismatch,
                      "multiply_add: accumulator shape disagrees");
        telemetry::count(telemetry::Counter::IncrShortCircuits);
        count_dispatch(Format::Csr);
        Matrix out{c};
        tel.done(Format::Csr, out.nrows(), out.ncols(), out.nnz());
        return out;
    }
    if (const DistBridge* db = dist_bridge(); db != nullptr && db->should_shard({&c, &a, &b})) {
        Matrix out = db->multiply_add(ctx, c, a, b, opts);
        tel.done_sharded(out.nrows(), out.ncols(), out.nnz());
        return out;
    }
    Format f;
    if (!forced(global_hint(), {Format::Csr, Format::Dense, Format::BitBlocks}, f)) {
        const auto k = multiply_costs(a, b);
        const bool dense_ok = dense_eligible(a) && dense_eligible(b) &&
                              dense_eligible(c) &&
                              dense_output_eligible(c.nrows(), c.ncols());
        const bool bb_ok =
            bitblock_eligible(a) && bitblock_eligible(b) && bitblock_eligible(c);
        const double csr_cost = k.csr + 2.0 * static_cast<double>(c.nnz()) +
                                convert_cost(c, Format::Csr) +
                                convert_cost(a, Format::Csr) + convert_cost(b, Format::Csr);
        const double dense_cost =
            dense_ok ? k.dense + words_of(c.nrows(), c.ncols()) +
                           convert_cost(c, Format::Dense) + convert_cost(a, Format::Dense) +
                           convert_cost(b, Format::Dense)
                     : kInfiniteCost;
        const double bb_cost =
            bb_ok ? k.bitblock + kWordOpScale * 320.0 * est_blocks(c) +
                        convert_cost(c, Format::BitBlocks) +
                        convert_cost(a, Format::BitBlocks) +
                        convert_cost(b, Format::BitBlocks)
                  : kInfiniteCost;
        f = pick({{Format::Csr, csr_cost},
                  {Format::Dense, dense_cost},
                  {Format::BitBlocks, bb_cost}},
                 c.format());
    }
    if (f == Format::Coo) f = Format::Csr;  // no fused COO kernel
    count_dispatch(f);
    Matrix out = [&] {
        if (f == Format::Dense) {
            return Matrix{c.dense(ctx).ewise_or(a.dense(ctx).multiply(b.dense(ctx))), ctx};
        }
        if (f == Format::BitBlocks) {
            return Matrix{ops::ewise_add(ctx, c.bitblocks(ctx),
                                         ops::multiply(ctx, a.bitblocks(ctx),
                                                       b.bitblocks(ctx))),
                          ctx};
        }
        return Matrix{ops::multiply_add(ctx, c.csr(ctx), a.csr(ctx), b.csr(ctx), opts), ctx};
    }();
    tel.done(f, out.nrows(), out.ncols(), out.nnz());
    trim({&c, &a, &b});
    return out;
}

// ---------------------------------------------------------------------------
// element-wise family
// ---------------------------------------------------------------------------

Matrix ewise_add(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    SPBLA_PROF_SPAN("storage.dispatch.ewise_add");
    OpTelemetry tel("ewise_add", ctx, a.nnz() + b.nnz());
    if (const DistBridge* db = dist_bridge(); db != nullptr && db->should_shard({&a, &b})) {
        Matrix out = db->ewise_add(ctx, a, b);
        tel.done_sharded(out.nrows(), out.ncols(), out.nnz());
        return out;
    }
    Format f;
    if (!forced(global_hint(),
                {Format::Csr, Format::Coo, Format::Dense, Format::BitBlocks}, f)) {
        const auto total = static_cast<double>(a.nnz() + b.nnz());
        const bool dense_ok = dense_ewise_eligible(a) && dense_ewise_eligible(b);
        const bool bb_ok = bitblock_eligible(a) && bitblock_eligible(b);
        // CSR pays the per-row merge bookkeeping; the flat COO merge is the
        // natural very-sparse winner; dense is one OR sweep over the words;
        // bitblock pays ~5 word sweeps per occupied tile (expand both sides,
        // merge, then the popcount + pack of reassembly).
        f = pick({{Format::Csr, 2.0 * total + 0.5 * static_cast<double>(a.nrows()) +
                                    convert_cost(a, Format::Csr) +
                                    convert_cost(b, Format::Csr)},
                  {Format::Coo, total + convert_cost(a, Format::Coo) +
                                    convert_cost(b, Format::Coo)},
                  {Format::Dense, dense_ok ? 0.5 * words_of(a.nrows(), a.ncols()) +
                                                 convert_cost(a, Format::Dense) +
                                                 convert_cost(b, Format::Dense)
                                           : kInfiniteCost},
                  {Format::BitBlocks,
                   bb_ok ? kWordOpScale * 320.0 * (est_blocks(a) + est_blocks(b)) +
                               convert_cost(a, Format::BitBlocks) +
                               convert_cost(b, Format::BitBlocks)
                         : kInfiniteCost}},
                 dominant_format(a, b));
    }
    count_dispatch(f);
    Matrix out = [&] {
        switch (f) {
            case Format::Coo:
                return Matrix{ops::ewise_add(ctx, a.coo(ctx), b.coo(ctx)), ctx};
            case Format::Dense:
                return Matrix{a.dense(ctx).ewise_or(b.dense(ctx)), ctx};
            case Format::BitBlocks:
                return Matrix{ops::ewise_add(ctx, a.bitblocks(ctx), b.bitblocks(ctx)),
                              ctx};
            case Format::Csr:
            default:
                return Matrix{ops::ewise_add(ctx, a.csr(ctx), b.csr(ctx)), ctx};
        }
    }();
    tel.done(f, out.nrows(), out.ncols(), out.nnz());
    trim({&a, &b});
    return out;
}

Matrix ewise_mult(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    SPBLA_PROF_SPAN("storage.dispatch.ewise_mult");
    OpTelemetry tel("ewise_mult", ctx, a.nnz() + b.nnz());
    if (const DistBridge* db = dist_bridge(); db != nullptr && db->should_shard({&a, &b})) {
        Matrix out = db->ewise_mult(ctx, a, b);
        tel.done_sharded(out.nrows(), out.ncols(), out.nnz());
        return out;
    }
    Format f;
    if (!forced(global_hint(), {Format::Csr, Format::Dense, Format::BitBlocks}, f)) {
        const auto total = static_cast<double>(a.nnz() + b.nnz());
        const bool dense_ok = dense_ewise_eligible(a) && dense_ewise_eligible(b);
        const bool bb_ok = bitblock_eligible(a) && bitblock_eligible(b);
        // The bitblock intersection expands both sides of every matched tile
        // pair (~5 word sweeps, as in ewise_add); the occupied-tile sum is
        // the upper bound on matches and keeps disjoint patterns on CSR.
        f = pick({{Format::Csr, 2.0 * total + convert_cost(a, Format::Csr) +
                                    convert_cost(b, Format::Csr)},
                  {Format::Dense, dense_ok ? 0.5 * words_of(a.nrows(), a.ncols()) +
                                                 convert_cost(a, Format::Dense) +
                                                 convert_cost(b, Format::Dense)
                                           : kInfiniteCost},
                  {Format::BitBlocks,
                   bb_ok ? kWordOpScale * 320.0 *
                               (est_blocks(a) + est_blocks(b)) +
                               convert_cost(a, Format::BitBlocks) +
                               convert_cost(b, Format::BitBlocks)
                         : kInfiniteCost}},
                 dominant_format(a, b));
    }
    if (f == Format::Coo) f = Format::Csr;
    count_dispatch(f);
    Matrix out = [&] {
        if (f == Format::Dense) return Matrix{a.dense(ctx).ewise_and(b.dense(ctx)), ctx};
        if (f == Format::BitBlocks) {
            return Matrix{ops::ewise_mult(ctx, a.bitblocks(ctx), b.bitblocks(ctx)), ctx};
        }
        return Matrix{ops::ewise_mult(ctx, a.csr(ctx), b.csr(ctx)), ctx};
    }();
    tel.done(f, out.nrows(), out.ncols(), out.nnz());
    trim({&a, &b});
    return out;
}

Matrix ewise_diff(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    SPBLA_PROF_SPAN("storage.dispatch.ewise_diff");
    OpTelemetry tel("ewise_diff", ctx, a.nnz() + b.nnz());
    Format f;
    if (!forced(global_hint(), {Format::Csr, Format::Dense}, f)) {
        const auto total = static_cast<double>(a.nnz() + b.nnz());
        const bool dense_ok = dense_eligible(a) && dense_eligible(b);
        f = pick({{Format::Csr, 2.0 * total + convert_cost(a, Format::Csr) +
                                    convert_cost(b, Format::Csr)},
                  {Format::Dense, dense_ok ? 0.5 * words_of(a.nrows(), a.ncols()) +
                                                 convert_cost(a, Format::Dense) +
                                                 convert_cost(b, Format::Dense)
                                           : kInfiniteCost}},
                 dominant_format(a, b));
    }
    if (f == Format::Coo) f = Format::Csr;
    count_dispatch(f);
    Matrix out = [&] {
        if (f == Format::Dense) return Matrix{a.dense(ctx).ewise_andnot(b.dense(ctx)), ctx};
        return Matrix{ops::ewise_diff(ctx, a.csr(ctx), b.csr(ctx)), ctx};
    }();
    tel.done(f, out.nrows(), out.ncols(), out.nnz());
    trim({&a, &b});
    return out;
}

// ---------------------------------------------------------------------------
// structural family
// ---------------------------------------------------------------------------

Matrix kronecker(backend::Context& ctx, const Matrix& a, const Matrix& b) {
    SPBLA_PROF_SPAN("storage.dispatch.kronecker");
    OpTelemetry tel("kronecker", ctx, a.nnz() + b.nnz());
    if (const DistBridge* db = dist_bridge(); db != nullptr && db->should_shard({&a, &b})) {
        Matrix out = db->kronecker(ctx, a, b);
        tel.done_sharded(out.nrows(), out.ncols(), out.nnz());
        return out;
    }
    // The CSR kernel's work is exactly the nnz_a * nnz_b output entries;
    // the dense nested loop touches every cell pair and only wins on tiny,
    // saturated blocks, so route CSR except under an explicit force.
    Format f;
    if (!forced(global_hint(), {Format::Csr, Format::Dense}, f)) f = Format::Csr;
    if (f == Format::Dense &&
        !(dense_eligible(a) && dense_eligible(b) &&
          dense_output_eligible(a.nrows() * b.nrows(), a.ncols() * b.ncols()))) {
        f = Format::Csr;  // forced-dense sweep on an output too big to bitmap
    }
    if (f == Format::Coo) f = Format::Csr;
    count_dispatch(f);
    Matrix out = [&] {
        if (f == Format::Dense) return Matrix{a.dense(ctx).kronecker(b.dense(ctx)), ctx};
        return Matrix{ops::kronecker(ctx, a.csr(ctx), b.csr(ctx)), ctx};
    }();
    tel.done(f, out.nrows(), out.ncols(), out.nnz());
    trim({&a, &b});
    return out;
}

Matrix transpose(backend::Context& ctx, const Matrix& a) {
    SPBLA_PROF_SPAN("storage.dispatch.transpose");
    OpTelemetry tel("transpose", ctx, a.nnz());
    if (const DistBridge* db = dist_bridge(); db != nullptr && db->should_shard({&a})) {
        Matrix out = db->transpose(ctx, a);
        tel.done_sharded(out.nrows(), out.ncols(), out.nnz());
        return out;
    }
    Format f;
    if (!forced(global_hint(),
                {Format::Csr, Format::Coo, Format::Dense, Format::BitBlocks}, f)) {
        const auto nnz = static_cast<double>(a.nnz());
        const bool dense_ok = dense_eligible(a);
        const bool bb_ok = bitblock_eligible(a);
        // COO transpose is swap + sort; CSR is a counting pass + scatter;
        // bitblock is ~384 register word ops per occupied tile.
        f = pick({{Format::Csr, 2.0 * nnz + 0.5 * static_cast<double>(a.ncols()) +
                                    convert_cost(a, Format::Csr)},
                  {Format::Coo, nnz * (1.0 + 0.25 * std::log2(nnz + 2.0)) +
                                    convert_cost(a, Format::Coo)},
                  {Format::Dense, dense_ok ? static_cast<double>(a.nrows()) *
                                                     static_cast<double>(a.ncols()) +
                                                 convert_cost(a, Format::Dense)
                                           : kInfiniteCost},
                  {Format::BitBlocks,
                   bb_ok ? kWordOpScale * 448.0 * est_blocks(a) +
                               convert_cost(a, Format::BitBlocks)
                         : kInfiniteCost}},
                 a.format());
    }
    count_dispatch(f);
    Matrix out = [&] {
        switch (f) {
            case Format::Coo: return Matrix{ops::transpose(ctx, a.coo(ctx)), ctx};
            case Format::Dense: return Matrix{a.dense(ctx).transpose(), ctx};
            case Format::BitBlocks:
                return Matrix{ops::transpose(ctx, a.bitblocks(ctx)), ctx};
            case Format::Csr:
            default: return Matrix{ops::transpose(ctx, a.csr(ctx)), ctx};
        }
    }();
    tel.done(f, out.nrows(), out.ncols(), out.nnz());
    trim({&a});
    return out;
}

Matrix submatrix(backend::Context& ctx, const Matrix& a, Index r0, Index c0, Index m,
                 Index n) {
    SPBLA_PROF_SPAN("storage.dispatch.submatrix");
    OpTelemetry tel("submatrix", ctx, a.nnz());
    Format f;
    if (!forced(global_hint(), {Format::Csr, Format::Coo, Format::Dense}, f)) {
        const auto nnz = static_cast<double>(a.nnz());
        const bool dense_ok = dense_eligible(a) && dense_output_eligible(m, n);
        // CSR touches only the selected row windows; COO scans all entries.
        const double row_fraction =
            a.nrows() > 0 ? static_cast<double>(m) / static_cast<double>(a.nrows()) : 1.0;
        f = pick({{Format::Csr, nnz * row_fraction + 8.0 * static_cast<double>(m) +
                                    convert_cost(a, Format::Csr)},
                  {Format::Coo, nnz + convert_cost(a, Format::Coo)},
                  {Format::Dense, dense_ok ? static_cast<double>(m) *
                                                     static_cast<double>(n) +
                                                 convert_cost(a, Format::Dense)
                                           : kInfiniteCost}},
                 a.format());
    }
    count_dispatch(f);
    Matrix out = [&] {
        switch (f) {
            case Format::Coo:
                return Matrix{ops::submatrix(ctx, a.coo(ctx), r0, c0, m, n), ctx};
            case Format::Dense:
                return Matrix{a.dense(ctx).submatrix(r0, c0, m, n), ctx};
            case Format::Csr:
            default:
                return Matrix{ops::submatrix(ctx, a.csr(ctx), r0, c0, m, n), ctx};
        }
    }();
    tel.done(f, out.nrows(), out.ncols(), out.nnz());
    trim({&a});
    return out;
}

// ---------------------------------------------------------------------------
// reductions and vector products
// ---------------------------------------------------------------------------

SpVector reduce_to_column(backend::Context& ctx, const Matrix& a) {
    SPBLA_PROF_SPAN("storage.dispatch.reduce_to_column");
    OpTelemetry tel("reduce_to_col", ctx, a.nnz());
    if (const DistBridge* db = dist_bridge(); db != nullptr && db->should_shard({&a})) {
        SpVector out = db->reduce_to_column(ctx, a);
        tel.done_sharded(out.size(), 1, out.nnz());
        return out;
    }
    Format f;
    if (!forced(global_hint(), {Format::Csr, Format::Coo, Format::BitBlocks}, f)) {
        // All kernels are linear; whichever representation exists wins.
        f = pick({{Format::Csr, 0.5 * static_cast<double>(a.nrows()) +
                                    convert_cost(a, Format::Csr)},
                  {Format::Coo, static_cast<double>(a.nnz()) +
                                    convert_cost(a, Format::Coo)},
                  {Format::BitBlocks, kWordOpScale * 64.0 * est_blocks(a) +
                                          convert_cost(a, Format::BitBlocks)}},
                 a.format());
    }
    if (f == Format::Dense) f = Format::Csr;
    count_dispatch(f);
    SpVector out = f == Format::Coo         ? ops::reduce_to_column(ctx, a.coo(ctx))
                   : f == Format::BitBlocks ? ops::reduce_to_column(ctx, a.bitblocks(ctx))
                                            : ops::reduce_to_column(ctx, a.csr(ctx));
    tel.done(f, out.size(), 1, out.nnz());
    trim({&a});
    return out;
}

SpVector reduce_to_row(backend::Context& ctx, const Matrix& a) {
    SPBLA_PROF_SPAN("storage.dispatch.reduce_to_row");
    OpTelemetry tel("reduce_to_row", ctx, a.nnz());
    Format f;
    if (!forced(global_hint(), {Format::Csr}, f)) f = Format::Csr;
    if (f != Format::Csr) f = Format::Csr;
    count_dispatch(f);
    SpVector out = ops::reduce_to_row(ctx, a.csr(ctx));
    tel.done(f, 1, out.size(), out.nnz());
    trim({&a});
    return out;
}

std::size_t reduce_scalar(const Matrix& a) noexcept { return a.nnz(); }

SpVector mxv(backend::Context& ctx, const Matrix& a, const SpVector& x) {
    SPBLA_PROF_SPAN("storage.dispatch.mxv");
    OpTelemetry tel("mxv", ctx, a.nnz() + x.nnz());
    if (const DistBridge* db = dist_bridge(); db != nullptr && db->should_shard({&a})) {
        SpVector out = db->mxv(ctx, a, x);
        tel.done_sharded(out.size(), 1, out.nnz());
        return out;
    }
    Format f;
    if (!forced(global_hint(), {Format::Csr, Format::BitBlocks}, f)) {
        // CSR walks the rows the frontier lands on; bitblock tests one packed
        // word per (tile row, frontier tile) and wins once the matrix is
        // dense enough that its representation is (or will be) materialised.
        f = pick({{Format::Csr, static_cast<double>(a.nnz()) * 0.5 +
                                    convert_cost(a, Format::Csr)},
                  {Format::BitBlocks,
                   bitblock_eligible(a)
                       ? kWordOpScale * 64.0 * est_blocks(a) +
                             convert_cost(a, Format::BitBlocks)
                       : kInfiniteCost}},
                 a.format());
    }
    if (f != Format::BitBlocks) f = Format::Csr;
    count_dispatch(f);
    SpVector out = f == Format::BitBlocks ? ops::mxv(ctx, a.bitblocks(ctx), x)
                                          : ops::mxv(ctx, a.csr(ctx), x);
    tel.done(f, out.size(), 1, out.nnz());
    trim({&a});
    return out;
}

SpVector vxm(backend::Context& ctx, const SpVector& x, const Matrix& a) {
    SPBLA_PROF_SPAN("storage.dispatch.vxm");
    OpTelemetry tel("vxm", ctx, a.nnz() + x.nnz());
    count_dispatch(Format::Csr);
    SpVector out = ops::vxm(ctx, x, a.csr(ctx));
    tel.done(Format::Csr, 1, out.size(), out.nnz());
    trim({&a});
    return out;
}

Matrix multiply_masked(backend::Context& ctx, const Matrix& mask, const Matrix& a,
                       const Matrix& b_transposed, bool complement) {
    SPBLA_PROF_SPAN("storage.dispatch.multiply_masked");
    OpTelemetry tel("mxm_masked", ctx, mask.nnz() + a.nnz() + b_transposed.nnz());
    if (const DistBridge* db = dist_bridge(); db != nullptr && db->should_shard({&mask, &a, &b_transposed})) {
        Matrix out = db->multiply_masked(ctx, mask, a, b_transposed, complement);
        tel.done_sharded(out.nrows(), out.ncols(), out.nnz());
        return out;
    }
    count_dispatch(Format::Csr);
    Matrix out{ops::multiply_masked(ctx, mask.csr(ctx), a.csr(ctx),
                                    b_transposed.csr(ctx), complement),
               ctx};
    tel.done(Format::Csr, out.nrows(), out.ncols(), out.nnz());
    trim({&mask, &a, &b_transposed});
    return out;
}

// ---------------------------------------------------------------------------
// multi-device bridge
// ---------------------------------------------------------------------------

namespace {
std::atomic<const DistBridge*> g_dist_bridge{nullptr};
}  // namespace

void set_dist_bridge(const DistBridge* bridge) noexcept {
    g_dist_bridge.store(bridge, std::memory_order_release);
}

const DistBridge* dist_bridge() noexcept {
    return g_dist_bridge.load(std::memory_order_acquire);
}

}  // namespace spbla::storage
