/// \file workloads.hpp
/// \brief The four workloads and the helpers two of them share.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/labeled_graph.hpp"
#include "harness.hpp"
#include "rpq/dfa.hpp"
#include "rpq/query_templates.hpp"

namespace perfbench {

[[nodiscard]] std::unique_ptr<Workload> make_cfpq_table4();
[[nodiscard]] std::unique_ptr<Workload> make_rpq_fig2();
[[nodiscard]] std::unique_ptr<Workload> make_square_e1();
[[nodiscard]] std::unique_ptr<Workload> make_rpq_churn();

/// Regex -> minimal DFA for a Table II template over concrete labels.
[[nodiscard]] spbla::rpq::Dfa compile_template(const spbla::rpq::QueryTemplate& tpl,
                                               const std::vector<std::string>& labels);

/// rpq::build_index re-run step by step through the public kronecker,
/// closure and sub-matrix calls, each step timed on its own.
struct RpqSteps {
    double kron_s = 0.0;
    double closure_s = 0.0;
    double extract_s = 0.0;
    std::size_t closure_rounds = 0;
    std::size_t product_nnz = 0;
    Matrix reachable;
};
[[nodiscard]] RpqSteps rpq_steps(spbla::backend::Context& ctx,
                                 const spbla::data::LabeledGraph& graph,
                                 const spbla::rpq::Dfa& query);

/// A permutation of [0, n) drawn from \p seed.
[[nodiscard]] std::vector<Index> permutation(Index n, std::uint64_t seed);

/// \p g with vertex v renamed perm[v]: the same graph up to isomorphism.
[[nodiscard]] spbla::data::LabeledGraph renumbered(const spbla::data::LabeledGraph& g,
                                                   const std::vector<Index>& perm);

/// Sorted cell list of \p m.
[[nodiscard]] Cells cells_of(const Matrix& m);

}  // namespace perfbench
