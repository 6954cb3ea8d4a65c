/// \file harness.cpp
/// \brief Set-up, timed rounds, checking, traced rounds and the result line.
#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <thread>

#include "backend/arena.hpp"
#include "baseline/generic_csr.hpp"
#include "baseline/generic_spgemm.hpp"
#include "dist/dist.hpp"
#include "ops/spgemm.hpp"
#include "storage/matrix.hpp"
#include "telemetry/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using spbla::telemetry::Counter;
using spbla::telemetry::Histogram;

/// Set-ups per run; the reported setup_s is their median.
constexpr int kSetups = 3;

/// Fewest timed rounds, so each op's minimum is taken over several samples.
constexpr std::size_t kMinRounds = 4;

/// Every per-layer metric the traced run reports, with its unit. Layers a
/// workload does not exercise report 0.
const std::vector<std::pair<const char*, const char*>>& layer_catalog() {
    static const std::vector<std::pair<const char*, const char*>> kCatalog = {
        {"storage.dispatch_ops", "count"},   {"storage.picks_csr", "count"},
        {"storage.picks_coo", "count"},      {"storage.picks_dense", "count"},
        {"storage.picks_bitblock", "count"}, {"storage.conversions", "count"},
        {"storage.cache_hits", "count"},     {"ops.busy_s.csr", "s"},
        {"ops.busy_s.coo", "s"},             {"ops.busy_s.dense", "s"},
        {"ops.busy_s.bitblock", "s"},        {"ops.nnz_out", "count"},
        {"ops.nnz_out_per_busy_s", "1/s"},   {"ops.kernel_share", "ratio"},
        {"util.pool_launches", "count"},     {"util.launches_per_op", "ratio"},
        {"util.pool_wall_s", "s"},           {"util.pool_over_seq", "ratio"},
        {"backend.arena_resets", "count"},   {"backend.pool_hit_ratio", "ratio"},
        {"backend.tracked_allocs", "count"}, {"backend.pool_held_mb", "MB"},
        {"algorithms.closure_rounds", "count"},
        {"algorithms.closure_s", "s"},       {"rpq.compile_s", "s"},
        {"rpq.kron_s", "s"},                 {"rpq.extract_s", "s"},
        {"rpq.product_nnz", "count"},        {"cfpq.tns_s", "s"},
        {"cfpq.mtx_s", "s"},                 {"cfpq.tns_rounds", "count"},
        {"cfpq.mtx_rounds", "count"},        {"incr.rounds", "count"},
        {"incr.rebuilds", "count"},          {"incr.iterations_saved", "count"},
        {"incr.delta_nnz", "count"},         {"incr.memo_hit_ratio", "ratio"},
        {"incr.recompute_ms_p50", "ms"},     {"incr.speedup_vs_recompute", "ratio"},
        {"dist.wall_s", "s"},                {"dist.over_local", "ratio"},
        {"dist.sharded_ops", "count"},       {"dist.transfer_bytes", "B"},
        {"baseline.generic_time_ratio", "ratio"},
        {"baseline.generic_mem_ratio", "ratio"},
        {"trace.overhead_ratio", "ratio"},
    };
    return kCatalog;
}

[[nodiscard]] double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

[[nodiscard]] double median(const std::vector<double>& v) { return percentile(v, 0.5); }

[[nodiscard]] double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

[[nodiscard]] std::size_t nproc() {
    return std::max(1u, std::thread::hardware_concurrency());
}

[[nodiscard]] double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

// ---- checking -------------------------------------------------------------

/// First-round answers of both sides plus everything a check found wrong.
struct Checker {
    std::vector<Cells> kept[2];
    std::vector<bool> have[2];
    std::vector<std::string> errors;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    explicit Checker(std::size_t ops) {
        for (int s = 0; s < 2; ++s) {
            kept[s].resize(ops);
            have[s].assign(ops, false);
        }
    }

    /// Keep the first answer of (side, op); later answers must repeat it.
    void after_op(Workload& w, Side side, std::size_t i) {
        const auto s = static_cast<std::size_t>(side);
        const Matrix& out = w.output(side, i);
        if (!have[s][i]) {
            kept[s][i] = cells_of(out);
            have[s][i] = true;
        } else if (out.nnz() != kept[s][i].size()) {
            errors.push_back(w.op_name(i) + ": answer changed between rounds");
        }
        if (auto msg = w.check_after_op(side, i)) errors.push_back(w.op_name(i) + ": " + *msg);
    }

    /// Compare the kept answers with the workload's independent ones, and
    /// the two sides with each other.
    void verify(Workload& w) {
        for (std::size_t i = 0; i < kept[0].size(); ++i) {
            if (!have[0][i] && !have[1][i]) continue;
            if (have[0][i] && have[1][i] && kept[0][i] != kept[1][i]) {
                errors.push_back(w.op_name(i) + ": pooled and sequential answers differ");
            }
            const auto want = w.expected(i);
            if (!want) continue;
            for (int s = 0; s < 2; ++s) {
                if (have[s][i] && kept[s][i] != *want) {
                    errors.push_back(w.op_name(i) + (s == 0 ? " (pool)" : " (seq)") +
                                     ": answer differs from the reference (" +
                                     std::to_string(kept[s][i].size()) + " vs " +
                                     std::to_string(want->size()) + " cells)");
                }
            }
        }
    }
};

// ---- per-layer snapshots --------------------------------------------------

/// The library's own counters at one instant.
struct LayerSnapshot {
    spbla::telemetry::Snapshot telemetry;
    std::uint64_t conversions = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t picks[4] = {0, 0, 0, 0};
    std::uint64_t sharded_ops = 0;
    std::uint64_t transfer_bytes = 0;

    static LayerSnapshot take() {
        LayerSnapshot s;
        s.telemetry = spbla::telemetry::snapshot();
        auto& st = spbla::storage::stats();
        s.conversions = st.format_conversions.load();
        s.cache_hits = st.repr_cache_hits.load();
        s.picks[0] = st.dispatch_csr.load();
        s.picks[1] = st.dispatch_coo.load();
        s.picks[2] = st.dispatch_dense.load();
        s.picks[3] = st.dispatch_bitblock.load();
        auto& dst = spbla::dist::stats();
        s.sharded_ops = dst.sharded_ops.load();
        s.transfer_bytes = dst.transfer_bytes.load();
        return s;
    }
};

/// Sums of per-op snapshot differences over the traced rounds.
struct LayerTotals {
    std::map<std::string, double> sum;
    double wall_s = 0.0;

    void add(const LayerSnapshot& a, const LayerSnapshot& b, double seconds) {
        const auto counter = [&](Counter c) {
            return static_cast<double>(b.telemetry.counter(c) - a.telemetry.counter(c));
        };
        const auto hist_sum = [&](Histogram h) {
            return static_cast<double>(b.telemetry.histogram(h).sum -
                                       a.telemetry.histogram(h).sum);
        };
        wall_s += seconds;
        sum["storage.dispatch_ops"] += counter(Counter::DispatchOps);
        const char* picks[] = {"storage.picks_csr", "storage.picks_coo", "storage.picks_dense",
                               "storage.picks_bitblock"};
        for (int f = 0; f < 4; ++f) sum[picks[f]] += static_cast<double>(b.picks[f] - a.picks[f]);
        sum["storage.conversions"] += static_cast<double>(b.conversions - a.conversions);
        sum["storage.cache_hits"] += static_cast<double>(b.cache_hits - a.cache_hits);
        sum["ops.busy_s.csr"] += hist_sum(Histogram::OpLatencyCsrNs) * 1e-9;
        sum["ops.busy_s.coo"] += hist_sum(Histogram::OpLatencyCooNs) * 1e-9;
        sum["ops.busy_s.dense"] += hist_sum(Histogram::OpLatencyDenseNs) * 1e-9;
        sum["ops.busy_s.bitblock"] += hist_sum(Histogram::OpLatencyBitBlocksNs) * 1e-9;
        sum["ops.nnz_out"] += hist_sum(Histogram::OpNnzOut);
        sum["util.pool_launches"] +=
            counter(Counter::PoolBulkLaunches) + counter(Counter::PoolTasks);
        sum["backend.arena_resets"] += counter(Counter::ArenaResets);
        sum["backend.tracked_allocs"] += counter(Counter::MemAllocs);
        sum["pool_hits"] += counter(Counter::PoolBufferHits);
        sum["pool_misses"] += counter(Counter::PoolBufferMisses);
        sum["incr.delta_nnz"] += counter(Counter::IncrDeltaNnz);
        sum["memo_lookups"] += counter(Counter::IncrMemoLookups);
        sum["memo_hits"] += counter(Counter::IncrMemoHits);
    }

    /// Per-round figures of the layers the snapshots see.
    void report(std::size_t rounds, Metrics& out) const {
        const double r = static_cast<double>(rounds);
        const auto get = [&](const char* k) {
            const auto it = sum.find(k);
            return it == sum.end() ? 0.0 : it->second;
        };
        for (const char* k :
             {"storage.dispatch_ops", "storage.picks_csr", "storage.picks_coo",
              "storage.picks_dense", "storage.picks_bitblock", "storage.conversions",
              "storage.cache_hits", "ops.busy_s.csr", "ops.busy_s.coo", "ops.busy_s.dense",
              "ops.busy_s.bitblock", "ops.nnz_out", "util.pool_launches",
              "backend.arena_resets", "backend.tracked_allocs", "incr.delta_nnz"}) {
            out[k].value = get(k) / r;
        }
        const double busy = get("ops.busy_s.csr") + get("ops.busy_s.coo") +
                            get("ops.busy_s.dense") + get("ops.busy_s.bitblock");
        out["ops.nnz_out_per_busy_s"].value = ratio(get("ops.nnz_out"), busy);
        out["ops.kernel_share"].value = ratio(busy, wall_s);
        out["util.launches_per_op"].value =
            ratio(get("util.pool_launches"), get("storage.dispatch_ops"));
        out["backend.pool_hit_ratio"].value =
            ratio(get("pool_hits"), get("pool_hits") + get("pool_misses"));
        out["incr.memo_hit_ratio"].value = ratio(get("memo_hits"), get("memo_lookups"));
    }
};

// ---- rounds ---------------------------------------------------------------

/// Latency samples of each op of a round, in seconds, indexed by op.
using OpSamples = std::vector<std::vector<double>>;

/// Each op's latency with outside interference filtered out: the fastest
/// of its samples across the run's rounds. Every round repeats the
/// identical op on identical inputs, and outside load (other tenants on the
/// host, CPU steal) only ever adds time, so the minimum is the op's own
/// cost. On the shared VM the benchmark was built on, the per-round time of
/// one run moves by 30% within seconds, and the per-op minimum repeated to
/// within 2% across runs where the median or lower quartile moved by 25%.
[[nodiscard]] std::vector<double> op_latencies(const OpSamples& samples) {
    std::vector<double> out;
    for (const auto& s : samples) out.push_back(*std::min_element(s.begin(), s.end()));
    return out;
}

/// Time of one round: the sum of its ops' filtered latencies.
[[nodiscard]] double round_time(const OpSamples& samples) {
    double total = 0.0;
    for (const double s : op_latencies(samples)) total += s;
    return total;
}

/// Run every op of one round on \p side; returns the summed op seconds.
/// Op latencies go to \p samples when given; \p layers, when given,
/// receives snapshot differences around each op.
double run_round(Workload& w, Side side, Checker& check, OpSamples* samples,
                 LayerTotals* layers) {
    double total = 0.0;
    for (std::size_t i = 0; i < w.ops_per_round(); ++i) {
        LayerSnapshot before;
        if (layers != nullptr) before = LayerSnapshot::take();
        bool ok = true;
        const auto t0 = Clock::now();
        try {
            w.run_op(side, i);
        } catch (const std::exception& e) {
            ok = false;
            std::fprintf(stderr, "perfbench: op %s failed: %s\n", w.op_name(i).c_str(), e.what());
        }
        const double s = seconds_since(t0);
        total += s;
        ++check.attempted;
        if (layers != nullptr) {
            layers->add(before, LayerSnapshot::take(), s);
            w.observe_traced_op(i, s);
        }
        if (!ok) {
            ++check.failed;
            continue;
        }
        if (samples != nullptr) (*samples)[i].push_back(s);
        check.after_op(w, side, i);
    }
    return total;
}

struct Instance {
    std::unique_ptr<Contexts> ctxs;
    std::unique_ptr<Workload> work;  // declared after ctxs: destroyed first

    /// Tear down in the safe order: the workload's matrices, then contexts.
    void reset() {
        work.reset();
        ctxs.reset();
    }
};

/// One set-up: fresh contexts and workload, inputs, compilation, initial
/// builds and an untimed warm-up round on each context the run will time.
Instance set_up(const Options& opts, bool pool_too) {
    Instance in;
    in.ctxs = std::make_unique<Contexts>(opts.pool_size);
    in.work = make_workload(opts.workload);
    in.work->setup(opts.seed, *in.ctxs);
    Checker warm{in.work->ops_per_round()};
    if (pool_too) run_round(*in.work, Side::Pool, warm, nullptr, nullptr);
    run_round(*in.work, Side::Seq, warm, nullptr, nullptr);
    return in;
}

// ---- output ---------------------------------------------------------------

void print_fingerprint(const Options& opts) {
    std::printf(
        "fingerprint: nproc=%zu compiler=\"%s\" build_type=%s SPBLA_CHECKS=%s "
        "SPBLA_PROFILE=%s sanitizer=%s SPBLA_ARENA=%s pool_size=%zu seed=%llu "
        "workload=%s seconds=%g trace=%d\n",
        nproc(), PERFBENCH_LIB_COMPILER, PERFBENCH_LIB_BUILD_TYPE, PERFBENCH_LIB_CHECKS,
        PERFBENCH_LIB_PROFILE, *PERFBENCH_LIB_SANITIZE ? PERFBENCH_LIB_SANITIZE : "none",
        spbla::backend::arena_enabled() ? "on" : "off", opts.pool_size,
        static_cast<unsigned long long>(opts.seed), opts.workload.c_str(), opts.seconds,
        opts.trace ? 1 : 0);
}

/// A checked, profiled, sanitized or unoptimised build is another program.
[[nodiscard]] std::optional<std::string> refuse_reason() {
    const std::string type = PERFBENCH_LIB_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo") return "build type " + type;
    if (SPBLA_CHECKS_LEVEL != 0) return std::string{"SPBLA_CHECKS="} + PERFBENCH_LIB_CHECKS;
    if (SPBLA_PROFILE_LEVEL != 0) return std::string{"SPBLA_PROFILE="} + PERFBENCH_LIB_PROFILE;
    if (*PERFBENCH_LIB_SANITIZE) return std::string{"sanitizer "} + PERFBENCH_LIB_SANITIZE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return std::string{"sanitized benchmark program"};
#endif
    return std::nullopt;
}

void print_result(const Checker& check, const Metrics& metrics) {
    for (const auto& e : check.errors) std::printf("check failed: %s\n", e.c_str());
    for (const auto& [name, m] : metrics) {
        std::printf("%-28s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(check.attempted),
                static_cast<unsigned long long>(check.failed));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                check.errors.empty() ? "true" : "false",
                static_cast<unsigned long long>(check.attempted),
                static_cast<unsigned long long>(check.failed));
    bool first = true;
    for (const auto& [name, m] : metrics) {
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", first ? "" : ", ",
                    name.c_str(), v, m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

// ---- traced-mode side measurements ----------------------------------------

/// One round under dist::configure against one without, on the pool.
void measure_dist(Workload& w, Checker& check, Metrics& out) {
    spbla::dist::Config cfg;
    cfg.devices = std::min<std::size_t>(4, nproc());
    const double local_s = run_round(w, Side::Pool, check, nullptr, nullptr);
    const LayerSnapshot before = LayerSnapshot::take();
    spbla::dist::configure(cfg);
    double sharded_s = 0.0;
    try {
        sharded_s = run_round(w, Side::Pool, check, nullptr, nullptr);
    } catch (...) {
        spbla::dist::disable();
        throw;
    }
    spbla::dist::disable();
    const LayerSnapshot after = LayerSnapshot::take();
    out["dist.wall_s"].value = sharded_s;
    out["dist.over_local"].value = ratio(sharded_s, local_s);
    out["dist.sharded_ops"].value = static_cast<double>(after.sharded_ops - before.sharded_ops);
    out["dist.transfer_bytes"].value =
        static_cast<double>(after.transfer_bytes - before.transfer_bytes);
}

/// Generic value-carrying SpGEMM against the Boolean one, A·A on the
/// workload's square inputs, on a fresh context of the same pool size
/// (E1's measurement: result bytes plus the tracked peak of temporaries).
void measure_baseline(Workload& w, std::size_t pool_size, Metrics& out) {
    spbla::backend::Context ctx{spbla::backend::Policy::Parallel, pool_size};
    double bool_s = 0.0, generic_s = 0.0, bool_b = 0.0, generic_b = 0.0;
    for (const Matrix* m : w.square_inputs()) {
        const spbla::CsrMatrix& a = m->csr(ctx);
        const auto g = spbla::baseline::GenericCsr::from_boolean(a);
        std::vector<double> tb, tg;
        for (int rep = 0; rep < 3; ++rep) {
            ctx.tracker().reset_peak();
            auto base = ctx.tracker().current_bytes();
            auto t0 = Clock::now();
            const auto rb = spbla::ops::multiply(ctx, a, a);
            tb.push_back(seconds_since(t0));
            const double bytes_b =
                static_cast<double>(rb.device_bytes() + ctx.tracker().peak_bytes() - base);

            ctx.tracker().reset_peak();
            base = ctx.tracker().current_bytes();
            t0 = Clock::now();
            const auto rg = spbla::baseline::multiply_hash(ctx, g, g);
            tg.push_back(seconds_since(t0));
            const double bytes_g =
                static_cast<double>(rg.device_bytes() + ctx.tracker().peak_bytes() - base);
            if (rep == 0) {
                bool_b += bytes_b;
                generic_b += bytes_g;
            }
        }
        bool_s += median(tb);
        generic_s += median(tg);
    }
    out["baseline.generic_time_ratio"].value = ratio(generic_s, bool_s);
    out["baseline.generic_mem_ratio"].value = ratio(generic_b, bool_b);
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> kNames = {"cfpq-table4", "rpq-fig2", "square-e1",
                                                    "rpq-churn"};
    return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
    if (name == "cfpq-table4") return make_cfpq_table4();
    if (name == "rpq-fig2") return make_rpq_fig2();
    if (name == "square-e1") return make_square_e1();
    if (name == "rpq-churn") return make_rpq_churn();
    return nullptr;
}

int run_benchmark(const Options& opts) {
    print_fingerprint(opts);
    if (const auto why = refuse_reason()) {
        std::fprintf(stderr, "perfbench: refusing to report numbers from this build (%s)\n",
                     why->c_str());
        return 3;
    }

    // Set up several times; keep the last instance for the timed phase.
    std::vector<double> setup_s;
    Instance in;
    for (int k = 0; k < kSetups; ++k) {
        in.reset();
        const auto t0 = Clock::now();
        in = set_up(opts, opts.trace);
        setup_s.push_back(seconds_since(t0));
    }
    Workload& w = *in.work;
    Checker check{w.ops_per_round()};
    Metrics metrics;

    if (!opts.trace) {
        // Whole rounds on the sequential context until the time is used up.
        OpSamples seq(w.ops_per_round());
        std::vector<double> device_peak;
        // Peak RSS of the set-ups, each of which ran the workload once. Read
        // here, not at the end: buffers the library parks in each context's
        // buffer pool raise the RSS round after round (up to the pool's
        // cap), so a later reading would depend on how many rounds fit.
        const double rss = peak_rss_mb();
        auto& tracker = in.ctxs->seq.tracker();
        std::size_t rounds = 0;
        const auto t0 = Clock::now();
        for (; rounds < kMinRounds || seconds_since(t0) < opts.seconds; ++rounds) {
            tracker.reset_peak();
            run_round(w, Side::Seq, check, &seq, nullptr);
            device_peak.push_back(static_cast<double>(tracker.peak_bytes()));
        }
        std::vector<double> op_ms = op_latencies(seq);
        for (double& v : op_ms) v *= 1e3;
        metrics["seq_wall_s"] = {round_time(seq), "s"};
        metrics["op_ms_p50"] = {percentile(op_ms, 0.5), "ms"};
        metrics["op_ms_p90"] = {percentile(op_ms, 0.9), "ms"};
        metrics["setup_s"] = {median(setup_s), "s"};
        metrics["device_peak_mb"] = {median(device_peak) / 1e6, "MB"};
        metrics["host_rss_peak_mb"] = {rss, "MB"};
        std::printf("rounds %zu of %zu ops\n", rounds, w.ops_per_round());
    } else {
        for (const auto& [name, unit] : layer_catalog()) metrics[name] = {0.0, unit};
        // Cycle a plain and a traced round on the pool and a round on the
        // sequential context; the traced ones read every layer's counters
        // around each op.
        LayerTotals layers;
        OpSamples plain(w.ops_per_round()), traced(w.ops_per_round()), seq(w.ops_per_round());
        std::size_t traced_rounds = 0;
        const auto t0 = Clock::now();
        for (std::size_t r = 0; r < 3 || seconds_since(t0) < opts.seconds; ++r) {
            if (r % 3 == 0) {
                run_round(w, Side::Pool, check, &plain, nullptr);
            } else if (r % 3 == 1) {
                run_round(w, Side::Pool, check, &traced, &layers);
                ++traced_rounds;
            } else {
                run_round(w, Side::Seq, check, &seq, nullptr);
            }
        }
        layers.report(traced_rounds, metrics);
        metrics["util.pool_wall_s"].value = round_time(plain);
        metrics["util.pool_over_seq"].value = ratio(round_time(plain), round_time(seq));
        // Bytes parked in buffer-pool free lists at the end of the rounds.
        metrics["backend.pool_held_mb"].value =
            static_cast<double>(spbla::telemetry::snapshot().gauge(
                spbla::telemetry::Gauge::PoolHeldBytes)) /
            1e6;
        metrics["trace.overhead_ratio"].value = ratio(round_time(traced), round_time(plain));
        for (auto& e : w.trace_extras(*in.ctxs, traced_rounds, metrics)) {
            check.errors.push_back(std::move(e));
        }
        measure_dist(w, check, metrics);
        measure_baseline(w, opts.pool_size, metrics);
        std::printf("rounds %zu traced, as many plain and sequential\n", traced_rounds);
    }

    check.verify(w);
    print_result(check, metrics);
    return 0;
}

int run_selftest(const Options& base) {
    int missed = 0;
    for (const auto& name : workload_names()) {
        Options opts = base;
        opts.workload = name;
        Instance in = set_up(opts, true);
        Workload& w = *in.work;

        // Untouched answers must pass.
        Checker clean{w.ops_per_round()};
        run_round(w, Side::Pool, clean, nullptr, nullptr);
        run_round(w, Side::Seq, clean, nullptr, nullptr);
        Checker verified = clean;
        verified.verify(w);
        const bool clean_ok = verified.errors.empty() && clean.failed == 0;
        std::printf("%-12s untouched answers        %s\n", name.c_str(),
                    clean_ok ? "pass (as they must)" : "FAIL");
        if (!clean_ok) ++missed;

        // The first op with a non-empty answer gets one cell dropped, then
        // one spurious cell added.
        std::size_t victim = 0;
        while (victim + 1 < clean.kept[0].size() && clean.kept[0][victim].empty()) ++victim;
        for (const bool drop : {true, false}) {
            Checker bad = clean;
            Cells& cells = bad.kept[0][victim];
            if (drop) {
                cells.erase(cells.begin() + static_cast<std::ptrdiff_t>(cells.size() / 2));
            } else {
                Coord extra{0, 0};
                while (std::binary_search(cells.begin(), cells.end(), extra)) ++extra.col;
                cells.insert(std::lower_bound(cells.begin(), cells.end(), extra), extra);
            }
            bad.verify(w);
            const bool caught = !bad.errors.empty();
            std::printf("%-12s %-24s %s\n", name.c_str(),
                        drop ? "one answer cell dropped" : "one spurious cell added",
                        caught ? "caught" : "MISSED");
            if (!caught) ++missed;
        }

        if (w.sabotage()) {
            Checker bad{w.ops_per_round()};
            run_round(w, Side::Pool, bad, nullptr, nullptr);
            const bool caught = !bad.errors.empty();
            std::printf("%-12s %-24s %s\n", name.c_str(), "re-insert batch unapplied",
                        caught ? "caught" : "MISSED");
            if (!caught) ++missed;
        }
    }
    std::printf(missed == 0 ? "selftest: every corruption caught\n"
                            : "selftest: %d check(s) failed\n",
                missed);
    return missed == 0 ? 0 : 1;
}

}  // namespace perfbench
