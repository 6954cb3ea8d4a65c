/// \file bench_boolean_vs_generic.cpp
/// \brief Experiment E1 — the abstract's headline claim.
///
/// "Operations specialized for Boolean matrices can be up to 5 times faster
/// and consume up to 4 times less memory than generic, not the Boolean
/// optimized, operations from modern libraries."
///
/// Workload: matrix squaring C = A * A (the standard SpGEMM stress test the
/// SPbLA evaluation uses) and element-wise addition A + A^T, over R-MAT
/// power-law matrices and generated RDF adjacency matrices. Comparators:
///   boolean      — SPbLA's hash-set kernel, no value array
///   generic-hash — same Nsparse structure with float hash-map accumulation
///                  (the cuSPARSE-style comparator)
///   generic-esc  — expand-sort-compress with float values (the CUSP-style
///                  comparator; its expansion buffer is the memory hog)
/// Reported memory = matrix footprints + peak tracked temporaries.
///
/// Besides the printed tables, the run writes BENCH_e1.json (path
/// overridable via SPBLA_BENCH_E1_JSON) through the shared bench::JsonWriter
/// so the comparison is machine-readable with dispersion (min/mean/stddev
/// per measurement), not just a point estimate.
#include <cstdio>
#include <cstdlib>

#include "baseline/generic_csr.hpp"
#include "baseline/generic_ewise_add.hpp"
#include "baseline/generic_spgemm.hpp"
#include "common.hpp"
#include "data/lubm.hpp"
#include "data/rdflike.hpp"
#include "data/rmat.hpp"
#include "ops/ewise_add.hpp"
#include "ops/spgemm.hpp"
#include "ops/transpose.hpp"
#include "prof/prof.hpp"

namespace {

using namespace spbla;
using bench::ctx;

struct Workload {
    std::string name;
    CsrMatrix matrix;
};

struct Measurement {
    bench::Stats time;
    std::size_t bytes;  // result + temporaries
};

Measurement measure_boolean_square(const CsrMatrix& a) {
    ctx().tracker().reset_peak();
    CsrMatrix result{a.nrows(), a.ncols()};
    const auto stats = bench::time_stats([&] { result = ops::multiply(ctx(), a, a); });
    return {stats, result.device_bytes() + ctx().tracker().peak_bytes()};
}

Measurement measure_generic_square(const CsrMatrix& a, bool esc) {
    const auto g = baseline::GenericCsr::from_boolean(a);
    ctx().tracker().reset_peak();
    baseline::GenericCsr result{a.nrows(), a.ncols()};
    const auto stats = bench::time_stats([&] {
        result = esc ? baseline::multiply_esc(ctx(), g, g)
                     : baseline::multiply_hash(ctx(), g, g);
    });
    return {stats, result.device_bytes() + ctx().tracker().peak_bytes()};
}

Measurement measure_boolean_add(const CsrMatrix& a, const CsrMatrix& at) {
    ctx().tracker().reset_peak();
    CsrMatrix result{a.nrows(), a.ncols()};
    const auto stats =
        bench::time_stats([&] { result = ops::ewise_add(ctx(), a, at); });
    return {stats, result.device_bytes() + ctx().tracker().peak_bytes()};
}

Measurement measure_generic_add(const CsrMatrix& a, const CsrMatrix& at) {
    const auto ga = baseline::GenericCsr::from_boolean(a);
    const auto gat = baseline::GenericCsr::from_boolean(at);
    ctx().tracker().reset_peak();
    baseline::GenericCsr result{a.nrows(), a.ncols()};
    const auto stats =
        bench::time_stats([&] { result = baseline::ewise_add(ctx(), ga, gat); });
    return {stats, result.device_bytes() + ctx().tracker().peak_bytes()};
}

struct SquareRow {
    const Workload* w;
    Measurement boolean, generic_hash, generic_esc;
};

struct AddRow {
    const Workload* w;
    Measurement boolean, generic;
};

void write_measurement(bench::JsonWriter& w, const char* key, const Measurement& m) {
    w.begin_object(key);
    w.field("time", m.time);
    w.field("bytes", static_cast<std::uint64_t>(m.bytes));
    w.end_object();
}

void write_json(const std::vector<SquareRow>& squares, const std::vector<AddRow>& adds) {
    const char* path = std::getenv("SPBLA_BENCH_E1_JSON");
    if (path == nullptr) path = "BENCH_e1.json";
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench_boolean_vs_generic: cannot open %s for writing\n",
                     path);
        return;
    }
    bench::JsonWriter w(f);
    w.begin_object();
    w.field("bench", "boolean_vs_generic");
    w.field("policy", "parallel");
    w.field("threads",
            static_cast<std::uint64_t>(ctx().pool() ? ctx().pool()->size() : 1));
    w.field("runs", bench::kRuns);
    w.field("profile", prof::compiled_level_name());
    w.begin_array("spgemm");
    for (const auto& row : squares) {
        w.begin_object();
        w.field("name", row.w->name);
        w.field("nrows", static_cast<std::uint64_t>(row.w->matrix.nrows()));
        w.field("nnz", static_cast<std::uint64_t>(row.w->matrix.nnz()));
        write_measurement(w, "boolean", row.boolean);
        write_measurement(w, "generic_hash", row.generic_hash);
        write_measurement(w, "generic_esc", row.generic_esc);
        w.end_object();
    }
    w.end_array();
    w.begin_array("ewise_add");
    for (const auto& row : adds) {
        w.begin_object();
        w.field("name", row.w->name);
        w.field("nnz", static_cast<std::uint64_t>(row.w->matrix.nnz()));
        write_measurement(w, "boolean", row.boolean);
        write_measurement(w, "generic", row.generic);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    std::fclose(f);
    std::printf("\nE1 measurements written to %s\n", path);
}

}  // namespace

int main() {
    std::vector<Workload> workloads;
    workloads.push_back({"rmat-11-8", data::make_rmat(11, 8).csr()});
    workloads.push_back({"rmat-13-8", data::make_rmat(13, 8).csr()});
    workloads.push_back({"rmat-14-4", data::make_rmat(14, 4).csr()});
    workloads.push_back({"lubm-100", data::make_lubm(100).union_matrix().csr()});
    workloads.push_back(
        {"taxonomy-20k", data::make_taxonomy(20000, 2).union_matrix().csr()});
    workloads.push_back(
        {"geospecies-30k", data::make_geospecies(30000, 24).union_matrix().csr()});

    std::vector<SquareRow> squares;
    std::vector<AddRow> adds;

    std::printf("E1: Boolean-specialised vs generic kernels (paper: boolean up to "
                "5x faster, up to 4x less memory)\n\n");
    std::printf("-- SpGEMM: C = A * A ------------------------------------------"
                "---------------------------------\n");
    std::printf("%-16s %10s %10s | %9s %9s %9s %7s | %9s %9s %9s %7s\n", "matrix",
                "|V|", "nnz", "bool ms", "gnrc ms", "esc ms", "speedup", "bool MB",
                "gnrc MB", "esc MB", "mem x");
    for (const auto& w : workloads) {
        const auto b = measure_boolean_square(w.matrix);
        const auto gh = measure_generic_square(w.matrix, /*esc=*/false);
        const auto ge = measure_generic_square(w.matrix, /*esc=*/true);
        const double worst_generic_s = gh.time.mean_s > ge.time.mean_s
                                           ? gh.time.mean_s
                                           : ge.time.mean_s;
        const double worst_generic_b =
            static_cast<double>(gh.bytes > ge.bytes ? gh.bytes : ge.bytes);
        std::printf(
            "%-16s %10u %10zu | %9.2f %9.2f %9.2f %6.2fx | %9.2f %9.2f %9.2f %6.2fx\n",
            w.name.c_str(), w.matrix.nrows(), w.matrix.nnz(), b.time.mean_ms(),
            gh.time.mean_ms(), ge.time.mean_ms(), worst_generic_s / b.time.mean_s,
            b.bytes / 1e6, gh.bytes / 1e6, ge.bytes / 1e6,
            worst_generic_b / static_cast<double>(b.bytes));
        squares.push_back({&w, b, gh, ge});
    }

    std::printf("\n-- EWiseAdd: C = A + A^T --------------------------------------"
                "-------------\n");
    std::printf("%-16s %10s | %9s %9s %7s | %9s %9s %7s\n", "matrix", "nnz",
                "bool ms", "gnrc ms", "speedup", "bool MB", "gnrc MB", "mem x");
    for (const auto& w : workloads) {
        const auto at = spbla::ops::transpose(ctx(), w.matrix);
        const auto b = measure_boolean_add(w.matrix, at);
        const auto g = measure_generic_add(w.matrix, at);
        std::printf("%-16s %10zu | %9.2f %9.2f %6.2fx | %9.2f %9.2f %6.2fx\n",
                    w.name.c_str(), w.matrix.nnz(), b.time.mean_ms(),
                    g.time.mean_ms(), g.time.mean_s / b.time.mean_s, b.bytes / 1e6,
                    g.bytes / 1e6,
                    static_cast<double>(g.bytes) / static_cast<double>(b.bytes));
        adds.push_back({&w, b, g});
    }
    std::printf("\nExpected shape (the paper claims *up to* 5x/4x, not uniform "
                "wins): the boolean kernel's advantage is largest on the "
                "product-heavy power-law matrices (many duplicate partial "
                "products collapse into the hash set) and smallest on very "
                "sparse inputs where every kernel is bandwidth-bound; the ESC "
                "comparator's memory blow-up grows with the raw product count "
                "(its expansion buffer).\n");

    write_json(squares, adds);
    return 0;
}
