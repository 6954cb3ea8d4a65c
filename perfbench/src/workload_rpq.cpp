/// \file workload_rpq.cpp
/// \brief rpq-fig2: Figure 2's RPQ index builds over the LUBM series.
///
/// One op is one rpq::build_index of a Table II template over one graph of
/// a six-graph LUBM series, generated from the run seed. As in the paper
/// (and bench_fig2_lubm_rpq) the templates are instantiated once, with the
/// most frequent labels of the smallest graph. Answers are checked against
/// rpq::evaluate_reference, the product-automaton BFS.
#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "algorithms/closure.hpp"
#include "data/lubm.hpp"
#include "rpq/engine.hpp"
#include "rpq/nfa.hpp"
#include "storage/dispatch.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace spbla;

Cells cells_of(const Matrix& m) { return m.to_coords(); }

std::vector<Index> permutation(Index n, std::uint64_t seed) {
    std::vector<Index> perm(n);
    std::iota(perm.begin(), perm.end(), Index{0});
    std::mt19937_64 rng{seed};
    std::shuffle(perm.begin(), perm.end(), rng);
    return perm;
}

data::LabeledGraph renumbered(const data::LabeledGraph& g, const std::vector<Index>& perm) {
    std::vector<data::LabeledEdge> edges;
    for (const auto& label : g.labels()) {
        for (const auto& c : g.matrix(label).to_coords()) {
            edges.push_back({perm[c.row], label, perm[c.col]});
        }
    }
    return data::LabeledGraph::from_edges(g.num_vertices(), edges);
}

rpq::Dfa compile_template(const rpq::QueryTemplate& tpl,
                          const std::vector<std::string>& labels) {
    return rpq::minimize(rpq::determinize(rpq::glushkov(*tpl.instantiate(labels))));
}

RpqSteps rpq_steps(backend::Context& ctx, const data::LabeledGraph& graph,
                   const rpq::Dfa& query) {
    RpqSteps steps;
    const Index n = graph.num_vertices();
    const Index k = query.num_states;

    auto t0 = Clock::now();
    Matrix product{k * n, k * n, ctx};
    for (const auto& symbol : query.symbols()) {
        if (!graph.has_label(symbol)) continue;
        product = storage::ewise_add(
            ctx, product, storage::kronecker(ctx, query.matrix(symbol), graph.matrix(symbol)));
    }
    steps.kron_s = seconds_since(t0);
    steps.product_nnz = product.nnz();

    t0 = Clock::now();
    algorithms::ClosureStats stats;
    const Matrix closure = algorithms::transitive_closure(
        ctx, product, algorithms::ClosureStrategy::Squaring, &stats);
    steps.closure_s = seconds_since(t0);
    steps.closure_rounds = stats.rounds;

    t0 = Clock::now();
    Matrix reachable{n, n, ctx};
    for (const auto f : query.accepting_states()) {
        reachable = storage::ewise_add(
            ctx, reachable, storage::submatrix(ctx, closure, query.start * n, f * n, n, n));
    }
    if (query.accepting[query.start]) {
        reachable = storage::ewise_add(ctx, reachable, Matrix::identity(n, ctx));
    }
    steps.extract_s = seconds_since(t0);
    steps.reachable = std::move(reachable);
    return steps;
}

namespace {

struct Build {
    std::size_t graph;
    std::size_t query;
};

class RpqFig2 final : public Workload {
public:
    void setup(std::uint64_t seed, Contexts& ctxs) override {
        ctxs_ = &ctxs;
        // bench/datasets.hpp's series (24 .. 465 universities) at an eighth
        // of its size, keeping its geometric spacing.
        const Index sizes[] = {3, 9, 15, 30, 45, 58};
        for (std::size_t g = 0; g < std::size(sizes); ++g) {
            graphs_.push_back(data::make_lubm(sizes[g], input_seed(seed, g)));
        }
        const auto labels = graphs_.front().labels_by_frequency();
        const auto t0 = Clock::now();
        for (const auto& tpl : rpq::table2_templates()) {
            if (labels.size() < tpl.arity) continue;
            names_.push_back(tpl.name);
            queries_.push_back(compile_template(tpl, labels));
        }
        compile_s_ = seconds_since(t0);
        for (std::size_t q = 0; q < queries_.size(); ++q) {
            for (std::size_t g = 0; g < graphs_.size(); ++g) builds_.push_back({g, q});
        }
        for (auto& side : out_) side.resize(builds_.size());
    }

    [[nodiscard]] std::size_t ops_per_round() const override { return builds_.size(); }

    void run_op(Side side, std::size_t i) override {
        const Build& b = builds_[i];
        out_[static_cast<std::size_t>(side)][i] =
            rpq::build_index(ctxs_->at(side), graphs_[b.graph], queries_[b.query]).reachable;
    }

    [[nodiscard]] const Matrix& output(Side side, std::size_t i) const override {
        return out_[static_cast<std::size_t>(side)][i];
    }

    [[nodiscard]] std::optional<Cells> expected(std::size_t i) override {
        const Build& b = builds_[i];
        return cells_of(rpq::evaluate_reference(graphs_[b.graph], queries_[b.query]));
    }

    [[nodiscard]] std::string op_name(std::size_t i) const override {
        const Build& b = builds_[i];
        return names_[b.query] + "/lubm" + std::to_string(b.graph);
    }

    std::vector<std::string> trace_extras(Contexts& ctxs, std::size_t /*traced_rounds*/,
                                          Metrics& out) override {
        // One more pass, step by step; its answers must match build_index's.
        std::vector<std::string> errors;
        RpqSteps total;
        for (std::size_t i = 0; i < builds_.size(); ++i) {
            const Build& b = builds_[i];
            RpqSteps s = rpq_steps(ctxs.pool, graphs_[b.graph], queries_[b.query]);
            total.kron_s += s.kron_s;
            total.closure_s += s.closure_s;
            total.extract_s += s.extract_s;
            total.closure_rounds += s.closure_rounds;
            total.product_nnz += s.product_nnz;
            if (!(s.reachable == out_[0][i])) {
                errors.push_back(op_name(i) + ": step-by-step build disagrees with build_index");
            }
        }
        out["rpq.compile_s"].value = compile_s_;
        out["rpq.kron_s"].value = total.kron_s;
        out["rpq.extract_s"].value = total.extract_s;
        out["rpq.product_nnz"].value = static_cast<double>(total.product_nnz);
        out["algorithms.closure_s"].value = total.closure_s;
        out["algorithms.closure_rounds"].value = static_cast<double>(total.closure_rounds);
        return errors;
    }

    [[nodiscard]] std::vector<const Matrix*> square_inputs() override {
        if (unions_.empty()) {
            for (const auto& g : graphs_) unions_.push_back(g.union_matrix());
        }
        std::vector<const Matrix*> out;
        for (const auto& m : unions_) out.push_back(&m);
        return out;
    }

private:
    Contexts* ctxs_ = nullptr;
    std::vector<data::LabeledGraph> graphs_;
    std::vector<std::string> names_;
    std::vector<rpq::Dfa> queries_;
    std::vector<Build> builds_;
    std::vector<Matrix> out_[2];
    std::vector<Matrix> unions_;
    double compile_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_rpq_fig2() { return std::make_unique<RpqFig2>(); }

}  // namespace perfbench
