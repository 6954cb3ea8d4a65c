/// \file prof.hpp
/// \brief Compile-time-gated span tracer: scoped spans, Chrome-trace export.
///
/// The tracer answers "where did this run spend its time": each
/// SPBLA_PROF_SPAN("spgemm.numeric") opens a scoped span on the calling
/// thread. Spans nest; every closed span adds one call and its duration to
/// per-thread statistics (the text span tree) and, at trace level, appends
/// one complete event — name, optional iteration, thread, start, duration —
/// to a lock-free per-thread ring exportable as Chrome trace-event JSON
/// (chrome://tracing / Perfetto). SPBLA_PROF_SPAN_ITER(name, i) carries an
/// iteration number (fixpoint rounds in the CFPQ/RPQ/closure drivers).
///
/// Counting events is not this layer's job: spbla::telemetry is the one
/// counter registry, always on. A closed span also feeds telemetry's
/// ProfSpans / ProfSpanNs instruments, and the tracer reuses telemetry's
/// thread ids and clock so the two share one timeline.
///
/// Gating mirrors SPBLA_CHECKS: the CMake knob SPBLA_PROFILE=off|counters|
/// trace defines SPBLA_PROFILE_LEVEL to 0/1/2. At "off" every macro expands
/// to a no-op (zero overhead — the release configuration). At "counters"
/// spans record calls and time only; "trace" also fills the rings. The
/// level can be moved at runtime via set_runtime_level / spbla_ProfEnable /
/// the SPBLA_TRACE environment variable (which also arms a dump-at-exit
/// hook).
///
/// The runtime below (registration, rings, export) is always compiled, so
/// tests exercise it in every build through the direct API; only the macro
/// instrumentation in library code is compile-time gated.
///
/// Thread-safety: frame stacks are thread-local; span statistics are
/// per-thread atomics read with relaxed loads by the exporter. Ring entries
/// are published with a release store on the head index; snapshots are
/// intended for quiescent points (between launches), as a writer lapping a
/// concurrent reader may hand it a torn event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#define SPBLA_PROFILE_OFF 0
#define SPBLA_PROFILE_COUNTERS 1
#define SPBLA_PROFILE_TRACE 2

#ifndef SPBLA_PROFILE_LEVEL
#define SPBLA_PROFILE_LEVEL SPBLA_PROFILE_OFF
#endif

namespace spbla::prof {

/// Profiling level this translation unit was compiled with.
inline constexpr int kCompiledLevel = SPBLA_PROFILE_LEVEL;

[[nodiscard]] constexpr int compiled_level() noexcept { return kCompiledLevel; }

/// Human-readable name of the compiled profiling level.
[[nodiscard]] constexpr const char* compiled_level_name() noexcept {
    return kCompiledLevel >= SPBLA_PROFILE_TRACE      ? "trace"
           : kCompiledLevel >= SPBLA_PROFILE_COUNTERS ? "counters"
                                                      : "off";
}

/// Identifier of a registered span site. Ids are dense and bounded; sites
/// registered past the bound fold into an "(overflow)" slot so
/// instrumentation can never fail.
using SiteId = std::uint32_t;

inline constexpr SiteId kNoSite = 0xFFFFFFFFu;
inline constexpr std::uint64_t kNoIter = 0xFFFFFFFFFFFFFFFFull;

/// Active runtime level (defaults to the compiled level). Raising it above
/// the compiled level only affects direct API callers — macro sites compiled
/// out at SPBLA_PROFILE=off stay gone.
[[nodiscard]] int runtime_level() noexcept;
void set_runtime_level(int level) noexcept;

/// True iff spans record calls and time at the current runtime level.
[[nodiscard]] bool recording() noexcept;
/// True iff closed spans are also appended to the trace rings.
[[nodiscard]] bool tracing() noexcept;

/// Register a span site (idempotent per name; macro sites cache the id in a
/// function-local static so registration runs once).
[[nodiscard]] SiteId register_span(const char* name);

/// RAII span. Pushes a frame on the calling thread's stack; on destruction
/// adds the call and its duration to the thread's statistics and, at trace
/// level, appends one complete ("X") event to the thread's ring.
class SpanScope {
public:
    explicit SpanScope(SiteId site, std::uint64_t iter = kNoIter) noexcept;
    ~SpanScope();

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    bool active_;
};

// ---------------------------------------------------------------------------
// Aggregation, export and test surface (always available; call at quiescent
// points — no kernel in flight).
// ---------------------------------------------------------------------------

/// One completed span pulled out of the ring buffers.
struct SnapshotEvent {
    std::string name;
    std::uint32_t tid{0};  ///< telemetry::thread_id() of the recording thread
    std::uint64_t start_ns{0};
    std::uint64_t dur_ns{0};
    std::uint64_t iter{kNoIter};
};

/// All events currently held in the ring buffers, in start order.
[[nodiscard]] std::vector<SnapshotEvent> snapshot_events();

/// Number of spans completed under \p span's site (all threads).
[[nodiscard]] std::uint64_t span_calls(std::string_view span);

/// Chrome trace-event JSON: {"traceEvents": [...], "otherData": {...}} with
/// one "X" event per recorded span (args carry the iteration, if any).
[[nodiscard]] std::string chrome_trace_json();

/// Write chrome_trace_json() to \p path; returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

/// Hierarchical text summary: spans as a tree (parent = enclosing span at
/// first use) with call counts, total milliseconds and percent of parent.
[[nodiscard]] std::string text_summary();

/// Clear every ring buffer and span statistic. Callers must be quiescent
/// (no kernel in flight).
void reset();

/// Ring-buffer capacity (events per thread) applied to rings created after
/// the call; the default is 8192. Test hook.
[[nodiscard]] std::size_t ring_capacity() noexcept;
void set_ring_capacity(std::size_t events) noexcept;

}  // namespace spbla::prof

// ---------------------------------------------------------------------------
// Instrumentation macros. Compiled out entirely at SPBLA_PROFILE=off; the
// sizeof trick keeps the iteration argument type-checked without evaluating
// it (matching the SPBLA_ASSERT idiom in util/contracts.hpp).
// ---------------------------------------------------------------------------

#define SPBLA_PROF_CAT2(a, b) a##b
#define SPBLA_PROF_CAT(a, b) SPBLA_PROF_CAT2(a, b)

#if SPBLA_PROFILE_LEVEL >= SPBLA_PROFILE_COUNTERS

#define SPBLA_PROF_SPAN(name)                                                 \
    static const ::spbla::prof::SiteId SPBLA_PROF_CAT(spblaProfSite_,         \
                                                      __LINE__) =             \
        ::spbla::prof::register_span(name);                                   \
    const ::spbla::prof::SpanScope SPBLA_PROF_CAT(spblaProfScope_, __LINE__)( \
        SPBLA_PROF_CAT(spblaProfSite_, __LINE__))

#define SPBLA_PROF_SPAN_ITER(name, iter)                                      \
    static const ::spbla::prof::SiteId SPBLA_PROF_CAT(spblaProfSite_,         \
                                                      __LINE__) =             \
        ::spbla::prof::register_span(name);                                   \
    const ::spbla::prof::SpanScope SPBLA_PROF_CAT(spblaProfScope_, __LINE__)( \
        SPBLA_PROF_CAT(spblaProfSite_, __LINE__),                             \
        static_cast<std::uint64_t>(iter))

#else  // SPBLA_PROFILE_LEVEL == off: every macro is a checked no-op.

#define SPBLA_PROF_SPAN(name) static_cast<void>(0)
#define SPBLA_PROF_SPAN_ITER(name, iter) \
    static_cast<void>(sizeof(static_cast<std::uint64_t>(iter)))

#endif  // SPBLA_PROFILE_LEVEL
