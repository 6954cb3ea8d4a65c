/// \file test_prof.cpp
/// \brief spbla::prof — span nesting, ring-buffer thread-safety and
/// Chrome-trace export.
///
/// The prof runtime (registration, rings, export) is compiled in every
/// build, so most tests drive it through the direct API after raising the
/// runtime level; only the test that relies on the *macro* instrumentation
/// inside library kernels skips itself when the build compiled the macros
/// out (SPBLA_PROFILE=off).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "backend/context.hpp"
#include "data/rmat.hpp"
#include "prof/prof.hpp"
#include "storage/dispatch.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace spbla;

/// Every test starts from a clean slate at trace level and restores the
/// compiled default afterwards — the registry is process-global.
class ProfTest : public ::testing::Test {
protected:
    void SetUp() override {
        prof::reset();
        prof::set_runtime_level(SPBLA_PROFILE_TRACE);
    }
    void TearDown() override {
        prof::set_runtime_level(prof::compiled_level());
        prof::reset();
    }
};

// --------------------------- minimal JSON parser ---------------------------
// Structural validator for the Chrome-trace export: accepts exactly the JSON
// value grammar (no extensions), so an unbalanced bracket, trailing comma or
// unescaped quote in the exporter fails the golden check.

bool parse_value(const std::string& s, std::size_t& i);

void skip_ws(const std::string& s, std::size_t& i) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) ++i;
}

bool parse_string(const std::string& s, std::size_t& i) {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
        if (s[i] == '\\') {
            ++i;
            if (i >= s.size()) return false;
        }
        ++i;
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    return true;
}

bool parse_number(const std::string& s, std::size_t& i) {
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) != 0 ||
                            s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                            s[i] == '+' || s[i] == '-')) {
        ++i;
    }
    return i > start;
}

bool parse_container(const std::string& s, std::size_t& i, char open, char close,
                     bool object) {
    if (i >= s.size() || s[i] != open) return false;
    ++i;
    skip_ws(s, i);
    if (i < s.size() && s[i] == close) {
        ++i;
        return true;
    }
    for (;;) {
        skip_ws(s, i);
        if (object) {
            if (!parse_string(s, i)) return false;
            skip_ws(s, i);
            if (i >= s.size() || s[i] != ':') return false;
            ++i;
        }
        if (!parse_value(s, i)) return false;
        skip_ws(s, i);
        if (i >= s.size()) return false;
        if (s[i] == ',') {
            ++i;
            continue;
        }
        if (s[i] == close) {
            ++i;
            return true;
        }
        return false;
    }
}

bool parse_value(const std::string& s, std::size_t& i) {
    skip_ws(s, i);
    if (i >= s.size()) return false;
    switch (s[i]) {
        case '{': return parse_container(s, i, '{', '}', /*object=*/true);
        case '[': return parse_container(s, i, '[', ']', /*object=*/false);
        case '"': return parse_string(s, i);
        default: break;
    }
    if (s.compare(i, 4, "true") == 0) { i += 4; return true; }
    if (s.compare(i, 5, "false") == 0) { i += 5; return true; }
    if (s.compare(i, 4, "null") == 0) { i += 4; return true; }
    return parse_number(s, i);
}

bool is_valid_json(const std::string& s) {
    std::size_t i = 0;
    if (!parse_value(s, i)) return false;
    skip_ws(s, i);
    return i == s.size();
}

// ------------------------------- span tests --------------------------------

TEST_F(ProfTest, SpanNestingAndOrdering) {
    const auto outer = prof::register_span("test.outer");
    const auto inner = prof::register_span("test.inner");
    {
        const prof::SpanScope a(outer);
        { const prof::SpanScope b(inner); }
        { const prof::SpanScope c(inner); }
    }

    EXPECT_EQ(prof::span_calls("test.outer"), 1u);
    EXPECT_EQ(prof::span_calls("test.inner"), 2u);

    std::uint64_t outer_start = 0, outer_end = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> inner_windows;
    for (const auto& e : prof::snapshot_events()) {
        if (e.name == "test.outer") {
            outer_start = e.start_ns;
            outer_end = e.start_ns + e.dur_ns;
        } else if (e.name == "test.inner") {
            inner_windows.emplace_back(e.start_ns, e.start_ns + e.dur_ns);
        }
    }
    ASSERT_EQ(inner_windows.size(), 2u);
    for (const auto& [start, end] : inner_windows) {
        // Nested spans are contained in the enclosing span's window.
        EXPECT_GE(start, outer_start);
        EXPECT_LE(end, outer_end);
    }
}

TEST_F(ProfTest, IterationSpansCarryTheIteration) {
    const auto site = prof::register_span("test.round");
    for (std::uint64_t i = 1; i <= 3; ++i) {
        const prof::SpanScope s(site, i);
    }
    std::vector<std::uint64_t> iters;
    for (const auto& e : prof::snapshot_events()) {
        if (e.name == "test.round") iters.push_back(e.iter);
    }
    EXPECT_EQ(iters, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(ProfTest, ResetClearsEverything) {
    const auto site = prof::register_span("test.outer");
    { const prof::SpanScope s(site); }
    prof::reset();
    EXPECT_EQ(prof::span_calls("test.outer"), 0u);
    EXPECT_TRUE(prof::snapshot_events().empty());
}

TEST_F(ProfTest, RuntimeLevelGatesRecording) {
    const auto site = prof::register_span("test.outer");
    prof::set_runtime_level(SPBLA_PROFILE_OFF);
    EXPECT_FALSE(prof::recording());
    { const prof::SpanScope s(site); }
    EXPECT_EQ(prof::span_calls("test.outer"), 0u);

    prof::set_runtime_level(SPBLA_PROFILE_COUNTERS);
    EXPECT_TRUE(prof::recording());
    EXPECT_FALSE(prof::tracing());
    { const prof::SpanScope s(site); }
    EXPECT_EQ(prof::span_calls("test.outer"), 1u);
    EXPECT_TRUE(prof::snapshot_events().empty());  // no ring writes below trace
}

// ---------------------------- ring-buffer tests ----------------------------

TEST_F(ProfTest, RingWrapKeepsTheMostRecentEvents) {
    prof::set_ring_capacity(4);
    // Capacity applies to rings created after the call, so record on a fresh
    // thread.
    // Raw thread on purpose: prof must serve foreign (non-pool) threads.
    std::thread recorder([] {  // lint:allow(std-thread)
        const auto site = prof::register_span("test.wrap");
        for (std::uint64_t i = 1; i <= 10; ++i) {
            const prof::SpanScope s(site, i);
        }
    });
    recorder.join();
    std::vector<std::uint64_t> iters;
    for (const auto& e : prof::snapshot_events()) {
        if (e.name == "test.wrap") iters.push_back(e.iter);
    }
    EXPECT_EQ(iters, (std::vector<std::uint64_t>{7, 8, 9, 10}));
    EXPECT_EQ(prof::span_calls("test.wrap"), 10u);  // stats see every span
    prof::set_ring_capacity(8192);
}

TEST_F(ProfTest, ConcurrentSpansAreRaceFree) {
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 200;
    const auto site = prof::register_span("test.parallel");
    // Raw threads on purpose: the race check targets arbitrary writers, not
    // just pool workers (which ride the same thread-local logs anyway).
    std::vector<std::thread> threads;  // lint:allow(std-thread)
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([site] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                const prof::SpanScope s(site);
            }
        });
    }
    for (auto& t : threads) t.join();

    EXPECT_EQ(prof::span_calls("test.parallel"),
              static_cast<std::uint64_t>(kThreads) * kSpansPerThread);
    // Every thread keeps its own ring; none lost events (capacity 8192).
    std::size_t events = 0;
    for (const auto& e : prof::snapshot_events()) {
        if (e.name == "test.parallel") ++events;
    }
    EXPECT_EQ(events, static_cast<std::size_t>(kThreads) * kSpansPerThread);
}

// ------------------------------ export tests -------------------------------

TEST_F(ProfTest, ChromeTraceJsonIsWellFormed) {
    const auto outer = prof::register_span("test.outer");
    const auto inner = prof::register_span("test.inner");
    {
        const prof::SpanScope a(outer, 7);
        const prof::SpanScope b(inner);
    }
    const std::string json = prof::chrome_trace_json();
    EXPECT_TRUE(is_valid_json(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("test.inner"), std::string::npos);
    EXPECT_NE(json.find("\"iter\": 7"), std::string::npos);
}

TEST_F(ProfTest, JsonEscapingSurvivesHostileNames) {
    const auto site = prof::register_span("test.\"quoted\\name\"");
    { const prof::SpanScope s(site); }
    const std::string json = prof::chrome_trace_json();
    EXPECT_TRUE(is_valid_json(json)) << json;
}

TEST_F(ProfTest, WriteChromeTraceRoundTrips) {
    const auto site = prof::register_span("test.outer");
    { const prof::SpanScope s(site); }
    const std::string path = ::testing::TempDir() + "spbla_trace_test.json";
    ASSERT_TRUE(prof::write_chrome_trace(path));
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string contents;
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) contents.append(buffer, n);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(contents, prof::chrome_trace_json());
    EXPECT_TRUE(is_valid_json(contents));
}

TEST_F(ProfTest, TextSummaryShowsTheSpanTree) {
    const auto outer = prof::register_span("test.outer");
    const auto inner = prof::register_span("test.inner");
    {
        const prof::SpanScope a(outer);
        const prof::SpanScope b(inner);
    }
    const std::string summary = prof::text_summary();
    EXPECT_NE(summary.find("test.outer"), std::string::npos);
    EXPECT_NE(summary.find("test.inner"), std::string::npos);
    // The child is indented under its parent, so it appears after it.
    EXPECT_LT(summary.find("test.outer"), summary.find("test.inner"));
}

// ------------------------ macro instrumentation test -----------------------
// Relies on the SPBLA_PROF_SPAN sites inside the library kernels, so it only
// observes anything when the build compiled them in.

TEST_F(ProfTest, PoolLaunchedMultiplyRecordsOneSpanOnTheLaunchingThread) {
    if (prof::compiled_level() < SPBLA_PROFILE_COUNTERS) {
        GTEST_SKIP() << "library built with SPBLA_PROFILE=off";
    }
    backend::Context ctx{backend::Policy::Parallel, 4};  // real pool even on 1 core
    // Pin the CSR kernel: auto dispatch may route this density elsewhere,
    // and the span under test is the spgemm one.
    const storage::ScopedHint force_csr{storage::FormatHint::ForceCsr};
    // Zipf-skewed rows fill the hash bins, so the row kernels run as pool
    // chunks rather than one serial sweep.
    const Matrix a = data::make_zipf(4096, 4096, 16, 1.0);
    prof::reset();
    (void)storage::multiply(ctx, a, a);

    EXPECT_EQ(prof::span_calls("spgemm.multiply"), 1u);
    std::vector<prof::SnapshotEvent> multiplies;
    for (const auto& e : prof::snapshot_events()) {
        if (e.name == "spgemm.multiply") multiplies.push_back(e);
    }
    ASSERT_EQ(multiplies.size(), 1u);
    EXPECT_EQ(multiplies.front().tid, telemetry::thread_id());
}

}  // namespace
