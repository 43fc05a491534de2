/**
 * @file
 * Shared plumbing of the repository benchmark: run options, the result
 * record printed as the last stdout line, order statistics, the in-memory
 * span tracer, and the environment stamp every result carries.
 *
 * The benchmark measures each layer from outside: spans are recorded here,
 * around calls into the library's public functions, never inside the
 * library. See perfbench/README.md for the workloads and metric map.
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options (see main.cpp). */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Test hook: corrupt one oracle answer so the correctness gate must
     *  fire (the run then reports correct=false and exits non-zero). */
    bool inject_mismatch = false;
    /** Where spans and the full result record are written. */
    std::string out_dir = ".bench_build/perfbench-out";
};

inline std::uint64_t now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double seconds_since(std::uint64_t start_ns)
{
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/** Median of @p values (0 for an empty sample). */
double median(std::vector<double> values);

/** Nearest-rank percentile, @p q in [0, 1] (0 for an empty sample). */
double percentile(std::vector<double> values, double q);

/**
 * Percentile @p q of each window of samples, read across the windows at
 * quantile @p across (the median by default): a stall of a shared host
 * spoils some windows, not the figure.
 */
double windowed_percentile(const std::vector<std::vector<double>>& windows, double q,
                           double across = 0.5);

/** Consecutive samples grouped @p per_window at a time; a short last
 *  group joins the one before it. */
std::vector<std::vector<double>> chunk(const std::vector<double>& samples,
                                       std::size_t per_window);

/**
 * The fastest observed time of each of @p n operations. Sampling at
 * points of a run far apart in time (before and after the measured loop)
 * gives each operation its own cost even when a shared host slows down
 * whole stretches of the run.
 */
class BestTimes {
public:
    explicit BestTimes(std::size_t n) : best_ms_(n, 1e300) {}
    template <typename Fn>
    void sample(std::size_t i, Fn&& fn)
    {
        const std::uint64_t start = now_ns();
        fn();
        best_ms_[i] = std::min(best_ms_[i], seconds_since(start) * 1e3);
    }
    /** Median over the operations of their fastest times. */
    double median_ms() const { return median(best_ms_); }

private:
    std::vector<double> best_ms_;
};

/** Bytes per second expressed in GB/s (1e9 bytes). */
inline double gbps(double bytes, double seconds)
{
    return seconds > 0 ? bytes / seconds * 1e-9 : 0.0;
}

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * What one run reports. `attempted` counts oracle-checked operations,
 * `failed` those that returned a non-ok status, were refused, or
 * disagreed with the oracle.
 */
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /** Records one failed operation; the first few reasons go to stderr. */
    void fail(const std::string& why);
    double error_rate() const
    {
        return attempted == 0 ? 0.0
                              : static_cast<double>(failed) /
                                    static_cast<double>(attempted);
    }
};

/**
 * In-memory span recorder. A span is one call into a layer: name, start,
 * end, the span that was open when it began (its parent), and the id of
 * the operation it belongs to. Disabled tracers record nothing, so the
 * untraced runs pay one branch per span site.
 */
class Tracer {
public:
    struct Span {
        const char* name;
        std::uint32_t parent;  // index + 1 of the enclosing span; 0 = none
        std::uint64_t op;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const noexcept { return enabled_; }
    /** Starts a new operation; spans opened afterwards carry its id. A
     *  disabled tracer writes nothing, so threads may share one. */
    void begin_op() noexcept
    {
        if (enabled_) {
            ++op_;
        }
    }

    std::uint32_t open(const char* name);
    void close(std::uint32_t handle);
    /** Records a finished root span of operation @p op after the fact (for
     *  operations that overlap in time, like open-loop requests). */
    void record(const char* name, std::uint64_t op, std::uint64_t start_ns,
                std::uint64_t end_ns);

    const std::vector<Span>& spans() const noexcept { return spans_; }

    /** Per-layer totals: wall time of its spans and self time (minus the
     *  time covered by their direct children). */
    struct LayerTime {
        std::string name;
        std::uint64_t spans = 0;
        double total_s = 0;
        double self_s = 0;
    };
    std::vector<LayerTime> layer_times() const;

    /** Writes every span as one JSON object per line. */
    bool write(const std::string& path) const;

private:
    static constexpr std::size_t kMaxSpans = std::size_t{1} << 21;
    bool enabled_;
    std::uint64_t op_ = 0;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
    std::uint64_t dropped_ = 0;
};

/** RAII span: opens on construction, closes on destruction. */
class SpanScope {
public:
    SpanScope(Tracer& tracer, const char* name)
        : tracer_(&tracer), handle_(tracer.enabled() ? tracer.open(name) : 0)
    {
    }
    ~SpanScope()
    {
        if (handle_ != 0) {
            tracer_->close(handle_);
        }
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    Tracer* tracer_;
    std::uint32_t handle_;
};

/** Peak resident set since the last reset_peak_rss(), minus the resident
 *  set at that reset, in MiB: the program's own peak memory. */
double peak_rss_mb();
/** Returns freed heap to the OS, restarts the peak-RSS watermark and
 *  takes the current resident set as the baseline. Called once the
 *  generated inputs and oracle answers exist, which stay alive (and
 *  unchanged) to the end, so they do not count as the program's. */
void reset_peak_rss();

/** The environment stamp: SIMD tier, CPU, nproc, commit, build type and
 *  the DESCEND_OBS state, as one JSON object. */
std::string environment_json();
/** True when the benchmark and library were built as Release. */
bool release_build();

/** Every per-layer metric name with its unit, in report order. A traced
 *  run reports all of them; layers a workload does not exercise read 0. */
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics();

/** Ends a traced run: prints each layer's total and self time, writes
 *  the spans next to the result record, adds `trace.spans`, and fills in
 *  the per-layer metrics @p result lacks with 0, in per_layer_metrics()
 *  order. */
void finish_traced(const Tracer& tracer, const Options& options, Result& result);

/** Seeded generator for everything a workload draws at random. */
using Rng = std::mt19937_64;

}  // namespace perfbench
