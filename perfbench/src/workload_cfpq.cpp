/// \file workload_cfpq.cpp
/// \brief cfpq-table4: the Table IV cells, each built by Tns and by Mtx.
///
/// One op is one index build, cfpq::tensor_cfpq (Tns) or cfpq::azimov_cfpq
/// (Mtx), of one (graph, grammar) cell. The graphs are the Table III
/// analogs of bench/datasets.hpp at an eighth of that scale, with their
/// vertices renumbered by the run seed; the queries are G1 and G2 on the
/// seven ontology analogs,
/// Geo where the graph has broaderTransitive edges, and MA on the four
/// alias graphs. Answers are checked cell by cell against
/// cfpq::worklist_cfpq (Melski-Reps, no matrix code); Tns and Mtx must both
/// equal it, hence each other.
#include <string>
#include <vector>

#include "cfpq/azimov.hpp"
#include "cfpq/queries.hpp"
#include "cfpq/tensor.hpp"
#include "cfpq/worklist.hpp"
#include "data/kernel_alias.hpp"
#include "data/rdflike.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace spbla;

struct Graph {
    std::string name;
    data::LabeledGraph graph;
};

struct Cell {
    std::size_t graph;
    std::size_t grammar;
};

class CfpqTable4 final : public Workload {
public:
    void setup(std::uint64_t seed, Contexts& ctxs) override {
        ctxs_ = &ctxs;
        // Fixed graph shapes, like the paper's fixed datasets (generator
        // seeds as in bench/datasets.hpp); the run seed renumbers their
        // vertices. At this scale a fresh random shape per seed moves single
        // cells by tens of percent, which would drown a real change.
        std::uint64_t input = 0;
        const auto add = [&](std::string name, data::LabeledGraph g, bool inverse) {
            g = renumbered(g, permutation(g.num_vertices(), input_seed(seed, input++)));
            if (inverse) g.add_inverse_labels();
            graphs_.push_back({std::move(name), std::move(g)});
        };
        add("eclass", data::make_ontology(750, 0.8, 201, 0.05), true);
        add("enzyme", data::make_ontology(150, 1.8, 202, 0.2), true);
        add("geospecies", data::make_geospecies(375, 20, 203), true);
        add("go", data::make_ontology(875, 0.65, 204, 0.6), true);
        add("go-hierarchy", data::make_ontology(138, 0.0, 205, 0.6), true);
        add("pathways", data::make_ontology(38, 1.0, 206, 0.2), true);
        add("taxonomy", data::make_taxonomy(1125, 2, 207), true);
        const std::size_t num_rdf = graphs_.size();
        add("arch", data::make_alias_graph(212, 301), false);
        add("crypto", data::make_alias_graph(216, 302), false);
        add("drivers", data::make_alias_graph(262, 303), false);
        add("fs", data::make_alias_graph(256, 304), false);

        grammars_ = {cfpq::query_g1(), cfpq::query_g2(), cfpq::query_geo(), cfpq::query_ma()};
        for (std::size_t g = 0; g < graphs_.size(); ++g) {
            if (g < num_rdf) {
                cells_.push_back({g, 0});
                cells_.push_back({g, 1});
                if (graphs_[g].graph.has_label("broaderTransitive")) cells_.push_back({g, 2});
            } else {
                cells_.push_back({g, 3});
            }
        }
        for (auto& side : out_) side.resize(cells_.size() * 2);
    }

    [[nodiscard]] std::size_t ops_per_round() const override { return cells_.size() * 2; }

    void run_op(Side side, std::size_t i) override {
        const Cell& c = cells_[i / 2];
        auto& ctx = ctxs_->at(side);
        const auto& graph = graphs_[c.graph].graph;
        const auto& grammar = grammars_[c.grammar];
        Matrix& out = out_[static_cast<std::size_t>(side)][i];
        if (i % 2 == 0) {
            auto index = cfpq::tensor_cfpq(ctx, graph, grammar);
            last_rounds_ = index.rounds;
            out = index.reachable(grammar);
        } else {
            auto index = cfpq::azimov_cfpq(ctx, graph, grammar);
            last_rounds_ = index.rounds;
            out = index.reachable();
        }
    }

    [[nodiscard]] const Matrix& output(Side side, std::size_t i) const override {
        return out_[static_cast<std::size_t>(side)][i];
    }

    [[nodiscard]] std::optional<Cells> expected(std::size_t i) override {
        // Tns and Mtx of one cell share the reference.
        if (i / 2 != reference_cell_) {
            reference_cell_ = i / 2;
            const Cell& c = cells_[i / 2];
            reference_ = cells_of(cfpq::worklist_cfpq(graphs_[c.graph].graph,
                                                      grammars_[c.grammar]));
        }
        return reference_;
    }

    [[nodiscard]] std::string op_name(std::size_t i) const override {
        static const char* kQuery[] = {"G1", "G2", "Geo", "MA"};
        const Cell& c = cells_[i / 2];
        return graphs_[c.graph].name + "/" + kQuery[c.grammar] + (i % 2 == 0 ? "/Tns" : "/Mtx");
    }

    void observe_traced_op(std::size_t i, double seconds) override {
        if (i % 2 == 0) {
            tns_s_ += seconds;
            tns_rounds_ += last_rounds_;
        } else {
            mtx_s_ += seconds;
            mtx_rounds_ += last_rounds_;
        }
    }

    std::vector<std::string> trace_extras(Contexts& /*ctxs*/, std::size_t traced_rounds,
                                          Metrics& out) override {
        const double r = static_cast<double>(traced_rounds);
        out["cfpq.tns_s"].value = tns_s_ / r;
        out["cfpq.mtx_s"].value = mtx_s_ / r;
        out["cfpq.tns_rounds"].value = static_cast<double>(tns_rounds_) / r;
        out["cfpq.mtx_rounds"].value = static_cast<double>(mtx_rounds_) / r;
        return {};
    }

    [[nodiscard]] std::vector<const Matrix*> square_inputs() override {
        if (unions_.empty()) {
            for (const auto& g : graphs_) unions_.push_back(g.graph.union_matrix());
        }
        std::vector<const Matrix*> out;
        for (const auto& m : unions_) out.push_back(&m);
        return out;
    }

private:
    Contexts* ctxs_ = nullptr;
    std::vector<Graph> graphs_;
    std::vector<cfpq::Grammar> grammars_;
    std::vector<Cell> cells_;
    std::vector<Matrix> out_[2];
    Cells reference_;
    std::size_t reference_cell_ = static_cast<std::size_t>(-1);
    std::vector<Matrix> unions_;
    std::size_t last_rounds_ = 0;
    double tns_s_ = 0.0;
    double mtx_s_ = 0.0;
    std::size_t tns_rounds_ = 0;
    std::size_t mtx_rounds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_cfpq_table4() { return std::make_unique<CfpqTable4>(); }

}  // namespace perfbench
