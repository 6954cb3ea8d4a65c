/// \file dist.hpp
/// \brief Public surface of the block-sharded multi-device execution layer.
///
/// The ROADMAP north star asks for scaling past one simulated device. This
/// layer 2D block-partitions Boolean matrices into storage::Matrix tiles
/// (dist/sharded_matrix.hpp), places them across a DeviceGroup of N virtual
/// devices and runs the hot ops tile-wise with cross-device overlap —
/// SUMMA-style blocked multiply (Karppa & Kaski), GraphBLAST-style masked
/// and element-wise variants, kronecker, transpose, reduce and mxv.
///
/// Routing is transparent: after dist::configure(), storage/dispatch routes
/// any op whose operands cross the size/nnz thresholds through the sharded
/// kernels (DistBridge), so the closure/CFPQ/RPQ fixpoint drivers scale with
/// no source changes. dist::ScopedHint forces the route per scope either
/// way. Inter-device tile traffic is charged to dist::stats() and to the
/// spbla.dist.* telemetry counters.
///
/// Everything below operates on the format-polymorphic spbla::Matrix; the
/// concrete-tile headers (partition/device_group/sharded_matrix/sharded_ops)
/// stay private to src/dist/ — the lint `format-leak` rule enforces it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "backend/context.hpp"
#include "core/spvector.hpp"
#include "ops/spgemm.hpp"
#include "storage/matrix.hpp"

namespace spbla::dist {

class DeviceGroup;

/// Process-wide sharded-execution counters (relaxed atomics). The same
/// events are counted by telemetry (spbla.dist.*), the one registry metrics
/// exports and trace checks read; these fields remain for callers that read
/// them directly (tests, benches, perfbench).
struct Stats {
    std::atomic<std::uint64_t> sharded_ops{0};      ///< ops executed sharded
    std::atomic<std::uint64_t> shard_builds{0};     ///< shardings materialised
    std::atomic<std::uint64_t> shard_cache_hits{0}; ///< shardings reused by version
    std::atomic<std::uint64_t> tiles_processed{0};  ///< tile tasks executed
    std::atomic<std::uint64_t> tile_steals{0};      ///< tasks run off-owner queue
    std::atomic<std::uint64_t> tile_transfers{0};   ///< non-resident tile reads
    std::atomic<std::uint64_t> transfer_bytes{0};   ///< bytes moved between devices
};

[[nodiscard]] Stats& stats() noexcept;

/// Zero every dist counter.
void reset_stats() noexcept;

/// Tile-placement policy of a sharding.
enum class Placement : std::uint8_t {
    RoundRobin = 0,    ///< flat tile index modulo device count
    LoadBalanced = 1,  ///< heaviest-first greedy onto the least-loaded device
};

/// Grid/device knobs (the spbla_DistConfigure surface).
struct Config {
    std::size_t devices = 4;            ///< simulated devices in the group
    std::size_t threads_per_device = 1; ///< pool workers per device (<=1: one lane)
    std::size_t grid_rows = 0;          ///< 0 = auto from nnz + tile budget
    std::size_t grid_cols = 0;          ///< 0 = auto from nnz + tile budget
    std::size_t tile_budget_bytes = std::size_t{8} << 20;  ///< per-tile CSR cap
    std::size_t min_nnz = std::size_t{1} << 15;  ///< auto-route: combined operand nnz
    Index min_dim = 256;                         ///< auto-route: largest dimension
    Placement placement = Placement::LoadBalanced;
};

/// (Re)build the device group with \p cfg and enable transparent routing of
/// above-threshold ops through the sharded kernels. Rebuilding tears the old
/// group down (dropping every cached sharding) — do not call concurrently
/// with in-flight operations.
void configure(const Config& cfg);

/// Tear the group down and stop routing (the state at process start).
void disable();

/// True iff configure() enabled transparent routing.
[[nodiscard]] bool enabled() noexcept;

/// A snapshot of the active configuration (meaningful after configure()).
/// By value: the engine's copy is lock-guarded and may be replaced by a
/// concurrent configure().
[[nodiscard]] Config config() noexcept;

/// The active device group; lazily builds one from the default Config so
/// ScopedHint{ForceShard} works without a prior configure().
[[nodiscard]] DeviceGroup& group();

/// Per-thread routing override consulted before the Config thresholds.
enum class Hint : std::uint8_t {
    Auto = 0,        ///< thresholds decide
    ForceShard = 1,  ///< every routed op executes sharded
    ForceLocal = 2,  ///< never shard (single-device dispatch)
};

[[nodiscard]] Hint thread_hint() noexcept;
void set_thread_hint(Hint hint) noexcept;

/// RAII thread-local hint override (mirrors storage::ScopedHint).
class ScopedHint {
public:
    explicit ScopedHint(Hint hint);
    ~ScopedHint() { set_thread_hint(prev_); }
    ScopedHint(const ScopedHint&) = delete;
    ScopedHint& operator=(const ScopedHint&) = delete;

private:
    Hint prev_;
};

// ---- Matrix-level sharded operations (the DistBridge targets) -------------
// Operands are sharded against the active group — shardings are cached by
// the handle's content version (storage::Matrix::version()), so a mutated
// matrix is re-sharded while fixpoint iterates reuse their tiles — computed
// tile-wise across the devices, and the result is gathered on \p ctx.

[[nodiscard]] Matrix multiply(backend::Context& ctx, const Matrix& a, const Matrix& b,
                              const ops::SpGemmOptions& opts = {});
[[nodiscard]] Matrix multiply_add(backend::Context& ctx, const Matrix& c, const Matrix& a,
                                  const Matrix& b, const ops::SpGemmOptions& opts = {});
[[nodiscard]] Matrix multiply_masked(backend::Context& ctx, const Matrix& mask,
                                     const Matrix& a, const Matrix& b_transposed,
                                     bool complement = false);
[[nodiscard]] Matrix ewise_add(backend::Context& ctx, const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix ewise_mult(backend::Context& ctx, const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix kronecker(backend::Context& ctx, const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix transpose(backend::Context& ctx, const Matrix& a);
[[nodiscard]] SpVector reduce_to_column(backend::Context& ctx, const Matrix& a);
[[nodiscard]] SpVector mxv(backend::Context& ctx, const Matrix& a, const SpVector& x);

}  // namespace spbla::dist
