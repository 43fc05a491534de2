#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "descend/obs/counters.h"
#include "descend/simd/dispatch.h"

namespace perfbench {

double median(std::vector<double> values)
{
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double percentile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
    return values[index];
}

double windowed_percentile(const std::vector<std::vector<double>>& windows, double q,
                           double across)
{
    std::vector<double> per_window;
    for (const std::vector<double>& window : windows) {
        if (!window.empty()) {
            per_window.push_back(percentile(window, q));
        }
    }
    return across == 0.5 ? median(per_window) : percentile(per_window, across);
}

std::vector<std::vector<double>> chunk(const std::vector<double>& samples,
                                       std::size_t per_window)
{
    std::vector<std::vector<double>> windows;
    for (std::size_t at = 0; at < samples.size(); at += per_window) {
        const std::size_t end = std::min(samples.size(), at + per_window);
        if (end - at < per_window && !windows.empty()) {
            windows.back().insert(windows.back().end(), samples.begin() + at,
                                  samples.begin() + end);
        } else {
            windows.emplace_back(samples.begin() + at, samples.begin() + end);
        }
    }
    return windows;
}

void Result::fail(const std::string& why)
{
    ++failed;
    if (failed <= 5) {
        std::fprintf(stderr, "perfbench: FAILED op: %s\n", why.c_str());
    }
}

std::uint32_t Tracer::open(const char* name)
{
    if (spans_.size() >= kMaxSpans) {
        ++dropped_;
        return 0;
    }
    const std::uint32_t parent = stack_.empty() ? 0 : stack_.back();
    spans_.push_back({name, parent, op_, now_ns(), 0});
    const auto handle = static_cast<std::uint32_t>(spans_.size());
    stack_.push_back(handle);
    return handle;
}

void Tracer::close(std::uint32_t handle)
{
    spans_[handle - 1].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == handle) {
        stack_.pop_back();
    }
}

void Tracer::record(const char* name, std::uint64_t op, std::uint64_t start_ns,
                    std::uint64_t end_ns)
{
    if (spans_.size() >= kMaxSpans) {
        ++dropped_;
        return;
    }
    spans_.push_back({name, 0, op, start_ns, end_ns});
}

std::vector<Tracer::LayerTime> Tracer::layer_times() const
{
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& span : spans_) {
        if (span.parent != 0) {
            child_s[span.parent - 1] +=
                static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
        }
    }
    std::map<std::string, LayerTime> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        LayerTime& layer = by_name[span.name];
        layer.name = span.name;
        const double total = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
        ++layer.spans;
        layer.total_s += total;
        layer.self_s += total - child_s[i];
    }
    std::vector<LayerTime> out;
    for (auto& [name, layer] : by_name) {
        out.push_back(layer);
    }
    return out;
}

bool Tracer::write(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        out << "{\"id\":" << i + 1 << ",\"parent\":" << span.parent
            << ",\"op\":" << span.op << ",\"name\":\"" << span.name
            << "\",\"start_ns\":" << span.start_ns - origin
            << ",\"dur_ns\":" << span.end_ns - span.start_ns << "}\n";
    }
    if (dropped_ != 0) {
        out << "{\"dropped_spans\":" << dropped_ << "}\n";
    }
    return static_cast<bool>(out);
}

namespace {

/** /proc/self/status field @p key ("VmHWM:", "VmRSS:") in MiB. */
double status_mb(const char* key)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    const std::size_t length = std::strlen(key);
    while (std::getline(status, line)) {
        if (line.compare(0, length, key) == 0) {
            return std::strtod(line.c_str() + length, nullptr) / 1024.0;
        }
    }
    return 0;
}

/** Resident set at the last reset_peak_rss(): the benchmark's own inputs
 *  and oracle answers. */
double rss_baseline_mb = 0;

}  // namespace

double peak_rss_mb()
{
    return status_mb("VmHWM:") - rss_baseline_mb;
}

void reset_peak_rss()
{
    malloc_trim(0);
    {
        std::ofstream clear("/proc/self/clear_refs");
        clear << "5";
    }
    rss_baseline_mb = status_mb("VmRSS:");
}

namespace {

std::string cpu_model()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::size_t begin = line.find_first_not_of(' ', colon + 1);
                return begin == std::string::npos ? "" : line.substr(begin);
            }
        }
    }
    return "unknown";
}

std::string json_escape(const std::string& text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
        }
        if (static_cast<unsigned char>(c) >= 0x20) {
            out.push_back(c);
        }
    }
    return out;
}

}  // namespace

bool release_build()
{
    return std::string(PERFBENCH_BUILD_TYPE) == "Release";
}

std::string environment_json()
{
    const char* commit = std::getenv("PERFBENCH_COMMIT");
    std::ostringstream out;
    out << "{\"simd_tier\":\""
        << descend::simd::level_name(descend::simd::default_level())
        << "\",\"cpu_model\":\"" << json_escape(cpu_model())
        << "\",\"nproc\":" << std::thread::hardware_concurrency()
        << ",\"commit\":\"" << json_escape(commit != nullptr ? commit : "unknown")
        << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
        << "\",\"non_release_build\":" << (release_build() ? "false" : "true")
        << ",\"descend_obs\":" << (descend::obs::kEnabled ? "true" : "false")
        << "}";
    return out.str();
}

const std::vector<std::pair<const char*, const char*>>& per_layer_metrics()
{
    static const std::vector<std::pair<const char*, const char*>> names = {
        {"simd.classify_gbps", "GB/s"},
        {"simd.batch_refills", "count"},
        {"classify.blocks_per_input_block", "ratio"},
        {"classify.pipeline_resumes", "count"},
        {"engine.iterate_gbps", "GB/s"},
        {"engine.iterate_brackets_gbps", "GB/s"},
        {"engine.events", "count"},
        {"engine.simulate_s", "s"},
        {"engine.skip_saving_s", "s"},
        {"engine.label_search_gbps", "GB/s"},
        {"engine.label_search_hit_ratio", "ratio"},
        {"engine.blocks.structural", "share"},
        {"engine.blocks.child_skipped", "share"},
        {"engine.blocks.sibling_skipped", "share"},
        {"engine.blocks.head_skip", "share"},
        {"engine.blocks.tail", "share"},
        {"automaton.compile_us", "us"},
        {"automaton.dfa_states", "count"},
        {"multi.compile_ms", "ms"},
        {"multi.product_states", "count"},
        {"multi.lanes_fallback", "count"},
        {"multi.run_gbps", "GB/s"},
        {"multi.product_skips", "count"},
        {"multi.fused_skips_suppressed", "count"},
        {"project.extend_gbps", "GB/s"},
        {"project.values", "count"},
        {"project.bytes", "count"},
        {"project.filter_candidates", "count"},
        {"project.filter_admit_ratio", "ratio"},
        {"project.filter_us_per_candidate", "us"},
        {"stream.split_gbps", "GB/s"},
        {"stream.records", "count"},
        {"stream.record_us.p50", "us"},
        {"stream.record_us.p99", "us"},
        {"stream.parallel_efficiency", "ratio"},
        {"serve.decode_us", "us"},
        {"serve.encode_us", "us"},
        {"serve.dispatch_us.p50", "us"},
        {"serve.dispatch_us.p99", "us"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.miss_compile_us", "us"},
        {"serve.wire_queue_us", "us"},
        {"serve.gen_late_ms", "ms"},
        {"trace.overhead_pct", "%"},
        {"trace.spans", "count"},
    };
    return names;
}

void finish_traced(const Tracer& tracer, const Options& options, Result& result)
{
    for (const Tracer::LayerTime& layer : tracer.layer_times()) {
        std::printf("  span %-44s n=%-7llu total=%.4fs self=%.4fs\n", layer.name.c_str(),
                    static_cast<unsigned long long>(layer.spans), layer.total_s,
                    layer.self_s);
    }
    tracer.write(options.out_dir + "/spans-" + options.workload + "-seed" +
                 std::to_string(options.seed) + ".jsonl");
    result.add("trace.spans", static_cast<double>(tracer.spans().size()), "count");

    for (const Metric& have : result.metrics) {
        const auto& names = per_layer_metrics();
        if (std::none_of(names.begin(), names.end(),
                         [&](const auto& entry) { return have.name == entry.first; })) {
            throw std::logic_error("per-layer metric missing from the list: " + have.name);
        }
    }
    std::vector<Metric> ordered;
    for (const auto& [name, unit] : per_layer_metrics()) {
        Metric metric{name, 0.0, unit};
        for (const Metric& have : result.metrics) {
            if (have.name == name) {
                metric.value = have.value;
            }
        }
        ordered.push_back(metric);
    }
    result.metrics = std::move(ordered);
}

}  // namespace perfbench
