#include "ops/coo_ops.hpp"

#include <algorithm>
#include <vector>

#include "core/validate.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {
namespace {

/// Row segment offsets of a (row, col)-sorted COO matrix: offsets[r] is the
/// first entry of row r; size nrows + 1.
std::vector<std::size_t> row_segments(const CooMatrix& m) {
    std::vector<std::size_t> offsets(static_cast<std::size_t>(m.nrows()) + 1, 0);
    for (const auto r : m.rows()) ++offsets[r + 1];
    for (Index r = 0; r < m.nrows(); ++r) offsets[r + 1] += offsets[r];
    return offsets;
}

}  // namespace

CooMatrix multiply(backend::Context& ctx, const CooMatrix& a, const CooMatrix& b) {
    SPBLA_REQUIRE(a.ncols() == b.nrows(), Status::DimensionMismatch,
                  "coo multiply: A.ncols must equal B.nrows");
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    SPBLA_PROF_SPAN("coo.multiply");
    const auto b_offsets = row_segments(b);
    const auto a_rows = a.rows();
    const auto a_cols = a.cols();
    const auto b_cols = b.cols();

    // Expand: one packed (row, col) key per partial product. The buffer is
    // proportional to the raw product count — the same transient-memory
    // trade-off the paper describes for the one-pass COO addition.
    std::size_t products = 0;
    for (const auto k : a_cols) products += b_offsets[k + 1] - b_offsets[k];
    auto keys = ctx.alloc<std::uint64_t>(products);

    std::size_t out = 0;
    for (std::size_t e = 0; e < a_rows.size(); ++e) {
        const std::uint64_t row_base =
            static_cast<std::uint64_t>(a_rows[e]) * b.ncols();
        for (std::size_t t = b_offsets[a_cols[e]]; t < b_offsets[a_cols[e] + 1]; ++t) {
            keys[out++] = row_base + b_cols[t];
        }
    }

    // Sort-deduplicate: the whole "numeric" phase of a Boolean ESC — there
    // are no values to combine.
    std::sort(keys.begin(), keys.end());
    const auto unique_end = std::unique(keys.begin(), keys.end());
    const auto distinct =
        static_cast<std::size_t>(std::distance(keys.begin(), unique_end));

    std::vector<Index> rows(distinct);
    std::vector<Index> cols(distinct);
    for (std::size_t k = 0; k < distinct; ++k) {
        rows[k] = static_cast<Index>(keys[k] / b.ncols());
        cols[k] = static_cast<Index>(keys[k] % b.ncols());
    }
    CooMatrix result = CooMatrix::from_sorted(a.nrows(), b.ncols(), std::move(rows),
                                              std::move(cols));
    SPBLA_VALIDATE(result);
    return result;
}

CooMatrix transpose(backend::Context& ctx, const CooMatrix& n) {
    SPBLA_VALIDATE(n);
    SPBLA_PROF_SPAN("coo.transpose");
    // Pack as (col, row) keys and sort — simple and exactly nnz extra words.
    auto keys = ctx.alloc<std::uint64_t>(n.nnz());
    const auto rows = n.rows();
    const auto cols = n.cols();
    for (std::size_t k = 0; k < rows.size(); ++k) {
        keys[k] = (static_cast<std::uint64_t>(cols[k]) << 32) | rows[k];
    }
    std::sort(keys.begin(), keys.end());
    std::vector<Index> out_rows(n.nnz());
    std::vector<Index> out_cols(n.nnz());
    for (std::size_t k = 0; k < n.nnz(); ++k) {
        out_rows[k] = static_cast<Index>(keys[k] >> 32);
        out_cols[k] = static_cast<Index>(keys[k] & 0xFFFFFFFFu);
    }
    CooMatrix result = CooMatrix::from_sorted(n.ncols(), n.nrows(), std::move(out_rows),
                                              std::move(out_cols));
    SPBLA_VALIDATE(result);
    return result;
}

CooMatrix submatrix(backend::Context& ctx, const CooMatrix& src, Index row0, Index col0,
                    Index m, Index n) {
    (void)ctx;
    SPBLA_REQUIRE(static_cast<std::uint64_t>(row0) + m <= src.nrows() &&
                      static_cast<std::uint64_t>(col0) + n <= src.ncols(),
                  Status::OutOfRange, "coo submatrix: window exceeds source shape");
    SPBLA_VALIDATE(src);
    std::vector<Index> rows;
    std::vector<Index> cols;
    const auto src_rows = src.rows();
    const auto src_cols = src.cols();
    for (std::size_t k = 0; k < src_rows.size(); ++k) {
        const Index r = src_rows[k];
        const Index c = src_cols[k];
        if (r >= row0 && r < row0 + m && c >= col0 && c < col0 + n) {
            rows.push_back(r - row0);
            cols.push_back(c - col0);
        }
    }
    CooMatrix result = CooMatrix::from_sorted(m, n, std::move(rows), std::move(cols));
    SPBLA_VALIDATE(result);
    return result;
}

SpVector reduce_to_column(backend::Context& ctx, const CooMatrix& m) {
    (void)ctx;
    SPBLA_VALIDATE(m);
    std::vector<Index> indices;
    Index last = 0;
    bool have_last = false;
    for (const auto r : m.rows()) {  // rows are sorted; emit each once
        if (!have_last || r != last) {
            indices.push_back(r);
            last = r;
            have_last = true;
        }
    }
    SpVector out = SpVector::from_indices(m.nrows(), std::move(indices));
    SPBLA_VALIDATE(out);
    return out;
}

}  // namespace spbla::ops
