#include "ops/kronecker.hpp"

#include <vector>

#include "core/validate.hpp"
#include "prof/prof.hpp"
#include "util/contracts.hpp"

namespace spbla::ops {

CsrMatrix kronecker(backend::Context& ctx, const CsrMatrix& a, const CsrMatrix& b) {
    SPBLA_VALIDATE(a);
    SPBLA_VALIDATE(b);
    const std::uint64_t out_rows = static_cast<std::uint64_t>(a.nrows()) * b.nrows();
    const std::uint64_t out_cols = static_cast<std::uint64_t>(a.ncols()) * b.ncols();
    SPBLA_REQUIRE(out_rows <= 0xFFFFFFFFull && out_cols <= 0xFFFFFFFFull,
                  Status::OutOfRange, "kronecker: result shape overflows Index");
    const std::uint64_t total = static_cast<std::uint64_t>(a.nnz()) * b.nnz();
    SPBLA_REQUIRE(total <= 0xFFFFFFFFull, Status::OutOfRange,
                  "kronecker: result nnz overflows Index");
    SPBLA_PROF_SPAN("kronecker");

    const Index m = static_cast<Index>(out_rows);
    std::vector<Index> row_offsets(static_cast<std::size_t>(m) + 1, 0);

    // Row sizes factorise: |K(i1*rB + i2, :)| = |A(i1, :)| * |B(i2, :)|.
    std::uint64_t running = 0;
    for (Index i1 = 0; i1 < a.nrows(); ++i1) {
        const std::uint64_t an = a.row_nnz(i1);
        for (Index i2 = 0; i2 < b.nrows(); ++i2) {
            const Index r = i1 * b.nrows() + i2;
            row_offsets[r] = static_cast<Index>(running);
            running += an * b.row_nnz(i2);
        }
    }
    row_offsets[m] = static_cast<Index>(running);

    std::vector<Index> cols(static_cast<std::size_t>(total));
    // One launch item per output row; ascending (j1, j2) iteration emits
    // sorted columns because j1*cB + j2 is monotone in that order.
    ctx.parallel_for(m, 256, [&](std::size_t r) {
        const Index i1 = static_cast<Index>(r) / b.nrows();
        const Index i2 = static_cast<Index>(r) % b.nrows();
        std::size_t out = row_offsets[r];
        for (const auto j1 : a.row(i1)) {
            const Index base = j1 * b.ncols();
            for (const auto j2 : b.row(i2)) cols[out++] = base + j2;
        }
    });

    CsrMatrix out = CsrMatrix::from_raw(m, static_cast<Index>(out_cols),
                                        std::move(row_offsets), std::move(cols));
    SPBLA_VALIDATE(out);
    return out;
}

}  // namespace spbla::ops
