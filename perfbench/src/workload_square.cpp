/// \file workload_square.cpp
/// \brief square-e1: the E1 squaring products A·A through the dispatcher.
///
/// One op is one storage::multiply(A, A). The seven inputs are picked so
/// the cost model routes them to different kernels: CSR hash SpGEMM
/// (rmat-13-8, zipf-12), sparse inputs with low output (lubm-100,
/// taxonomy-20k), the bit-block tier (uniform-2048 at 1%, rmat-10-16) and
/// the dense bitmap (uniform-1024 at 5%). Every product is checked against
/// a plain row merge written here, with no library kernel in it.
#include <algorithm>
#include <string>
#include <vector>

#include "data/lubm.hpp"
#include "data/rdflike.hpp"
#include "data/rmat.hpp"
#include "storage/dispatch.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace spbla;

/// A·A by merging, for each row i, the rows of A named by A's row i.
Cells square_by_row_merge(const Matrix& a) {
    const Cells cells = a.to_coords();  // row-major
    const Index n = a.nrows();
    std::vector<std::size_t> start(static_cast<std::size_t>(n) + 1, 0);
    for (const auto& c : cells) ++start[c.row + 1];
    for (Index r = 0; r < n; ++r) start[r + 1] += start[r];

    Cells out;
    std::vector<Index> seen(a.ncols(), static_cast<Index>(-1));
    std::vector<Index> row;
    for (Index r = 0; r < n; ++r) {
        row.clear();
        for (std::size_t p = start[r]; p < start[r + 1]; ++p) {
            const Index mid = cells[p].col;
            for (std::size_t q = start[mid]; q < start[mid + 1]; ++q) {
                const Index c = cells[q].col;
                if (seen[c] != r) {
                    seen[c] = r;
                    row.push_back(c);
                }
            }
        }
        std::sort(row.begin(), row.end());
        for (const Index c : row) out.push_back({r, c});
    }
    return out;
}

class SquareE1 final : public Workload {
public:
    void setup(std::uint64_t seed, Contexts& ctxs) override {
        ctxs_ = &ctxs;
        std::uint64_t input = 0;
        const auto s = [&] { return input_seed(seed, input++); };
        add("rmat-13-8", data::make_rmat(13, 8, s()));
        add("zipf-12", data::make_zipf(4096, 4096, 16, 1.0, s()));
        add("lubm-100", data::make_lubm(100, s()).union_matrix());
        add("taxonomy-20k", data::make_taxonomy(20000, 2, s()).union_matrix());
        add("uniform-2048-1%", data::make_uniform(2048, 2048, 0.01, s()));
        add("rmat-10-16", data::make_rmat(10, 16, s()));
        add("uniform-1024-5%", data::make_uniform(1024, 1024, 0.05, s()));
        for (auto& side : out_) side.resize(inputs_.size());
    }

    [[nodiscard]] std::size_t ops_per_round() const override { return inputs_.size(); }

    void run_op(Side side, std::size_t i) override {
        out_[static_cast<std::size_t>(side)][i] =
            storage::multiply(ctxs_->at(side), inputs_[i], inputs_[i]);
    }

    [[nodiscard]] const Matrix& output(Side side, std::size_t i) const override {
        return out_[static_cast<std::size_t>(side)][i];
    }

    [[nodiscard]] std::optional<Cells> expected(std::size_t i) override {
        return square_by_row_merge(inputs_[i]);
    }

    [[nodiscard]] std::string op_name(std::size_t i) const override { return names_[i]; }

    [[nodiscard]] std::vector<const Matrix*> square_inputs() override {
        std::vector<const Matrix*> out;
        for (const auto& m : inputs_) out.push_back(&m);
        return out;
    }

private:
    void add(std::string name, Matrix m) {
        names_.push_back(std::move(name));
        inputs_.push_back(std::move(m));
    }

    Contexts* ctxs_ = nullptr;
    std::vector<std::string> names_;
    std::vector<Matrix> inputs_;
    std::vector<Matrix> out_[2];
};

}  // namespace

std::unique_ptr<Workload> make_square_e1() { return std::make_unique<SquareE1>(); }

}  // namespace perfbench
