/// \file harness.hpp
/// \brief The benchmark's workload interface and the timing, checking and
/// tracing loop that drives it.
///
/// A workload is a fixed list of ops (one "round") over inputs generated
/// from the seed. The harness sets it up several times, then runs whole
/// rounds on the sequential context until the run length is used up (the
/// traced run adds rounds on the pooled context), times every op from
/// outside, keeps the first round's outputs for checking, and finally asks
/// the workload for an independently computed answer to compare them
/// against.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backend/context.hpp"
#include "storage/matrix.hpp"

namespace perfbench {

using spbla::Coord;
using spbla::Index;
using spbla::Matrix;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Which of the two contexts an op runs on.
enum class Side : std::uint8_t { Pool = 0, Seq = 1 };

/// The two execution contexts every workload runs on: a worker pool of a
/// fixed size and the single-thread Policy::Sequential fallback.
struct Contexts {
    explicit Contexts(std::size_t pool_size)
        : pool{spbla::backend::Policy::Parallel, pool_size},
          seq{spbla::backend::Policy::Sequential} {}
    spbla::backend::Context pool;
    spbla::backend::Context seq;
    [[nodiscard]] spbla::backend::Context& at(Side s) { return s == Side::Pool ? pool : seq; }
};

/// One reported figure.
struct Metric {
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Cell set of a Boolean matrix in row-major order.
using Cells = std::vector<Coord>;

class Workload {
public:
    virtual ~Workload() = default;

    /// All one-time work: inputs from \p seed, query compilation and any
    /// initial build. Called once on a fresh object.
    virtual void setup(std::uint64_t seed, Contexts& ctxs) = 0;

    /// Number of ops in one round; every round runs the same ops in order.
    [[nodiscard]] virtual std::size_t ops_per_round() const = 0;

    /// Run op \p i on \p side. Throws on failure.
    virtual void run_op(Side side, std::size_t i) = 0;

    /// The answer the last run_op(side, i) produced.
    [[nodiscard]] virtual const Matrix& output(Side side, std::size_t i) const = 0;

    /// Check made after every op, untimed; a message on failure.
    [[nodiscard]] virtual std::optional<std::string> check_after_op(Side /*side*/,
                                                                    std::size_t /*i*/) {
        return std::nullopt;
    }

    /// The answer op \p i must produce, computed without the code being
    /// timed; nullopt for ops whose first-round answer is not compared
    /// directly (later rounds still must repeat the first round's answer).
    [[nodiscard]] virtual std::optional<Cells> expected(std::size_t i) = 0;

    /// Short label of op \p i (used in failure messages).
    [[nodiscard]] virtual std::string op_name(std::size_t i) const = 0;

    /// Checker self-test hook: make the next round skip one step that a
    /// check must catch. Returns false if the workload has no such step.
    virtual bool sabotage() { return false; }

    // ---- traced mode ------------------------------------------------------

    /// A traced op of the pool side finished in \p seconds.
    virtual void observe_traced_op(std::size_t /*i*/, double /*seconds*/) {}

    /// Layer figures measured beside the rounds (the workload's own share of
    /// the per-layer metrics), averaged per round over \p traced_rounds.
    /// Returns what a check made on the way found wrong.
    virtual std::vector<std::string> trace_extras(Contexts& /*ctxs*/,
                                                  std::size_t /*traced_rounds*/,
                                                  Metrics& /*out*/) {
        return {};
    }

    /// Matrices the Boolean-vs-generic SpGEMM comparison squares.
    [[nodiscard]] virtual std::vector<const Matrix*> square_inputs() = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Seed of one generated input: distinct per (run seed, input) pair.
[[nodiscard]] inline std::uint64_t input_seed(std::uint64_t run_seed, std::uint64_t input) {
    return run_seed * 1000003ULL + input * 7919ULL + 1;
}

/// Timing knobs shared by every workload.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t pool_size = 2;
};

/// Run the benchmark; prints progress lines and, last, the JSON result.
/// Returns the process exit code.
int run_benchmark(const Options& opts);

/// Checker self-test: every workload's checker must reject a dropped cell,
/// a spurious cell and (rpq-churn) an unapplied re-insert batch.
int run_selftest(const Options& opts);

}  // namespace perfbench
