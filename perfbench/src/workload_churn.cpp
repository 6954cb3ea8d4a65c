/// \file workload_churn.cpp
/// \brief rpq-churn: an RPQ index kept current under an edge stream.
///
/// One op is one incr::IncrementalRpq::apply batch on a LUBM graph for the
/// Q4^3 template, `(a | b | c)*` over the graph's three most frequent
/// labels. The stream alternates a batch that deletes 8 existing edges of
/// those labels with the batch that re-inserts them, so every round starts
/// from the initial graph. After every re-insert the answers must equal the
/// initial answers exactly; after every delete they must equal
/// rpq::evaluate_reference on the initial graph minus that batch, a graph
/// the benchmark builds itself.
#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "data/lubm.hpp"
#include "incr/incremental.hpp"
#include "rpq/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace spbla;

constexpr Index kUniversities = 120;
// Single batches differ widely in cost; 16 of them left the round time
// moving by a third between seeds, 64 by about a tenth.
constexpr std::size_t kBatches = 64;
constexpr std::size_t kBatchEdges = 8;

class RpqChurn final : public Workload {
public:
    void setup(std::uint64_t seed, Contexts& ctxs) override {
        graph_ = data::make_lubm(kUniversities, input_seed(seed, 0));
        const auto labels = graph_.labels_by_frequency();
        const auto t0 = Clock::now();
        query_ = compile_template(rpq::template_by_name("Q4^3"), labels);
        compile_s_ = seconds_since(t0);

        std::vector<data::LabeledEdge> pool;
        for (std::size_t l = 0; l < 3; ++l) {
            for (const auto& c : graph_.matrix(labels[l]).to_coords()) {
                pool.push_back({c.row, labels[l], c.col});
            }
        }
        std::mt19937_64 rng{input_seed(seed, 1)};
        std::shuffle(pool.begin(), pool.end(), rng);
        for (std::size_t b = 0; b < kBatches; ++b) {
            batches_.emplace_back(pool.begin() + static_cast<std::ptrdiff_t>(b * kBatchEdges),
                                  pool.begin() +
                                      static_cast<std::ptrdiff_t>((b + 1) * kBatchEdges));
        }

        drivers_.reserve(2);
        drivers_.emplace_back(ctxs.pool, graph_, query_);
        drivers_.emplace_back(ctxs.seq, graph_, query_);
        initial_ = drivers_[0].reachable();
    }

    [[nodiscard]] std::size_t ops_per_round() const override { return 2 * kBatches; }

    void run_op(Side side, std::size_t i) override {
        auto& driver = drivers_[static_cast<std::size_t>(side)];
        stats_before_ = driver.stats();
        const auto& batch = batches_[i / 2];
        if (i % 2 == 0) {
            driver.apply({}, batch);
        } else if (skip_reinsert_ && i == 1) {
            skip_reinsert_ = false;  // checker self-test: leave this batch out
        } else {
            driver.apply(batch, {});
        }
    }

    [[nodiscard]] const Matrix& output(Side side, std::size_t /*i*/) const override {
        return drivers_[static_cast<std::size_t>(side)].reachable();
    }

    [[nodiscard]] std::optional<std::string> check_after_op(Side side,
                                                            std::size_t i) override {
        if (i % 2 == 1 && !(output(side, i) == initial_)) {
            return "answers after re-inserting batch " + std::to_string(i / 2) +
                   " differ from the initial answers";
        }
        return std::nullopt;
    }

    [[nodiscard]] std::optional<Cells> expected(std::size_t i) override {
        if (i % 2 == 1) {
            if (initial_reference_.empty()) {
                initial_reference_ = cells_of(rpq::evaluate_reference(graph_, query_));
            }
            return initial_reference_;
        }
        return cells_of(rpq::evaluate_reference(graph_without(i / 2), query_));
    }

    [[nodiscard]] std::string op_name(std::size_t i) const override {
        return (i % 2 == 0 ? "delete/" : "reinsert/") + std::to_string(i / 2);
    }

    bool sabotage() override {
        skip_reinsert_ = true;
        return true;
    }

    void observe_traced_op(std::size_t /*i*/, double seconds) override {
        traced_ms_.push_back(seconds * 1e3);
        const auto& now = drivers_[0].stats();
        rounds_ += now.rounds - stats_before_.rounds;
        rebuilds_ += now.rebuilds - stats_before_.rebuilds;
        saved_ += now.iterations_saved - stats_before_.iterations_saved;
    }

    std::vector<std::string> trace_extras(Contexts& ctxs, std::size_t traced_rounds,
                                          Metrics& out) override {
        // Full recompute of the same post-batch graphs, for comparison.
        std::vector<double> recompute_ms;
        for (std::size_t b = 0; b < kBatches; ++b) {
            for (const auto& g : {graph_without(b), graph_}) {
                const auto t0 = Clock::now();
                (void)rpq::build_index(ctxs.pool, g, query_);
                recompute_ms.push_back(seconds_since(t0) * 1e3);
            }
        }
        const RpqSteps steps = rpq_steps(ctxs.pool, graph_, query_);
        const double r = static_cast<double>(traced_rounds);
        const double recompute_p50 = median(recompute_ms);
        out["incr.rounds"].value = static_cast<double>(rounds_) / r;
        out["incr.rebuilds"].value = static_cast<double>(rebuilds_) / r;
        out["incr.iterations_saved"].value = static_cast<double>(saved_) / r;
        out["incr.recompute_ms_p50"].value = recompute_p50;
        out["incr.speedup_vs_recompute"].value = recompute_p50 / median(traced_ms_);
        out["rpq.compile_s"].value = compile_s_;
        out["rpq.kron_s"].value = steps.kron_s;
        out["rpq.extract_s"].value = steps.extract_s;
        out["rpq.product_nnz"].value = static_cast<double>(steps.product_nnz);
        out["algorithms.closure_s"].value = steps.closure_s;
        out["algorithms.closure_rounds"].value = static_cast<double>(steps.closure_rounds);
        if (!(steps.reachable == initial_)) {
            return {"step-by-step build disagrees with the incremental answers"};
        }
        return {};
    }

    [[nodiscard]] std::vector<const Matrix*> square_inputs() override {
        if (union_.nrows() == 0) union_ = graph_.union_matrix();
        return {&union_};
    }

private:
    [[nodiscard]] data::LabeledGraph graph_without(std::size_t b) const {
        const std::set<std::pair<std::string, Coord>> gone = [&] {
            std::set<std::pair<std::string, Coord>> s;
            for (const auto& e : batches_[b]) s.insert({e.label, {e.src, e.dst}});
            return s;
        }();
        std::vector<data::LabeledEdge> edges;
        for (const auto& label : graph_.labels()) {
            for (const auto& c : graph_.matrix(label).to_coords()) {
                if (!gone.contains({label, c})) edges.push_back({c.row, label, c.col});
            }
        }
        return data::LabeledGraph::from_edges(graph_.num_vertices(), edges);
    }

    [[nodiscard]] static double median(std::vector<double> v) {
        std::sort(v.begin(), v.end());
        const std::size_t n = v.size();
        return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    }

    data::LabeledGraph graph_;
    rpq::Dfa query_;
    double compile_s_ = 0.0;
    std::vector<std::vector<data::LabeledEdge>> batches_;
    std::vector<incr::IncrementalRpq> drivers_;
    Matrix initial_;
    Cells initial_reference_;
    Matrix union_;
    bool skip_reinsert_ = false;
    incr::IncrStats stats_before_;
    std::vector<double> traced_ms_;
    std::uint64_t rounds_ = 0;
    std::uint64_t rebuilds_ = 0;
    std::uint64_t saved_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_rpq_churn() { return std::make_unique<RpqChurn>(); }

}  // namespace perfbench
