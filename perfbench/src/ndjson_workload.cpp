/**
 * @file
 * ndjson-fanout: a ~22-query subscription set over a ~128 MiB stream of
 * mixed-schema records, run through MultiStreamExecutor (backend auto)
 * with every match materialized as a zero-copy slice.
 *
 * The only batch workload that exercises the record splitter, the fused
 * multi-query backends, filters and projection. The set has shared
 * prefixes, a slice, an index and two filters; because of the filters
 * `auto` currently falls back to the lanes backend. The seed picks the
 * schema and size of every record.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "descend/automaton/compiled.h"
#include "descend/engine/extract.h"
#include "descend/multi/multi_stream.h"
#include "descend/multi/product_query.h"
#include "descend/project/filter_eval.h"
#include "descend/project/span.h"
#include "descend/stream/record_splitter.h"
#include "descend/stream/stream_executor.h"
#include "descend/util/errors.h"
#include "descend/workloads/datasets.h"
#include "workloads.h"

namespace perfbench {

using descend::PaddedString;
using descend::PaddedView;
using descend::obs::Counter;
using descend::stream::RecordSpan;

namespace {

constexpr std::size_t kStreamBytes = std::size_t{128} << 20;
/** Set-ups before the measured loop, and again after it. */
constexpr int kSetupRepeats = 5;
constexpr int kCompileRepeats = 50;
/** Set compiles between passes: the first warms the caches the pass
 *  evicted. */
constexpr int kCompileBurst = 5;
/** Latency windows of 4 passes: a window's p99 is its slowest pass. */
constexpr std::size_t kPassesPerWindow = 4;

const std::vector<std::string>& subscription_set()
{
    static const std::vector<std::string> queries = {
        // walmart
        "$.items.*.name",
        "$.items.*.salePrice",
        "$.items.*.msrp",
        "$.items[0].itemId",
        "$.items[?(@.salePrice > 500)]",
        "$..bestMarketplacePrice.price",
        // bestbuy
        "$.products.*.categoryPath.*.id",
        "$.products.*.name",
        "$.products[1:3].sku",
        "$.products[?(@.customerReviewAverage >= 4.5)]",
        "$..videoChapters",
        "$.products.*.salePrice",
        // crossref
        "$.items.*.DOI",
        "$.items.*.author.*.family",
        "$.items.*.author.*.affiliation.*.name",
        "$..ORCID",
        "$.items.*.title",
        "$.items.*.reference.*.DOI",
        // twitter
        "$.*.text",
        "$.*.entities.urls.*.url",
        "$.*.user.screen_name",
        "$..hashtags..text",
    };
    return queries;
}

/** The candidate query of a filter query: the filter replaced by `[*]`. */
std::string candidate_query(const std::string& query)
{
    return query.substr(0, query.find("[?(")) + "[*]";
}

/**
 * The record stream: four schemas, sizes in 48 log-spaced classes over
 * [1, 64] KiB. The seed sets the order: every group of four records holds
 * each schema once, in a seed-shuffled order, and each schema walks all
 * size classes in a seed-shuffled order before repeating one. So every
 * seed yields nearly the same mix, in a different order. Records of one
 * (schema, size) repeat, so each is generated once.
 */
std::string make_stream(std::uint64_t seed)
{
    static const char* const kSchemas[] = {"twitter", "walmart", "crossref",
                                           "bestbuy"};
    constexpr int kSchemaCount = 4;
    constexpr int kSizes = 48;
    std::map<std::pair<int, int>, std::string> made;
    Rng rng(seed);
    std::vector<int> schemas = {0, 1, 2, 3};
    std::vector<std::vector<int>> size_orders(kSchemaCount);
    std::vector<std::size_t> next_size(kSchemaCount, kSizes);
    std::string stream;
    stream.reserve(kStreamBytes + (std::size_t{320} << 10));
    while (stream.size() < kStreamBytes) {
        std::shuffle(schemas.begin(), schemas.end(), rng);
        for (int schema : schemas) {
            std::vector<int>& order = size_orders[schema];
            if (next_size[schema] == kSizes) {
                order.resize(kSizes);
                for (int i = 0; i < kSizes; ++i) {
                    order[i] = i;
                }
                std::shuffle(order.begin(), order.end(), rng);
                next_size[schema] = 0;
            }
            const int size_class = order[next_size[schema]++];
            auto [it, fresh] = made.try_emplace({schema, size_class});
            if (fresh) {
                const double kib = std::pow(64.0, size_class / double(kSizes - 1));
                it->second = descend::workloads::generate(
                    kSchemas[schema], static_cast<std::size_t>(kib * 1024));
            }
            stream += it->second;
            stream += '\n';
        }
    }
    return stream;
}

struct Match {
    std::size_t query;
    std::size_t record;
    std::size_t offset;
    bool operator==(const Match&) const = default;
};

/** The workload's sink: every match extended over its record's subview
 *  and kept as a zero-copy slice. */
class SliceCollector final : public descend::multi::MultiStreamSink {
public:
    SliceCollector(PaddedView input, const std::vector<RecordSpan>& records,
                   const descend::simd::Kernels& kernels)
        : input_(input), records_(&records), kernels_(&kernels)
    {
    }
    void on_match(std::size_t query, std::size_t record, std::size_t offset) override
    {
        if (record != current_) {
            const RecordSpan& span = (*records_)[record];
            extender_.emplace(input_.subview(span.begin, span.size()), *kernels_);
            current_ = record;
        }
        const descend::project::ValueSpan span = extender_->extend(offset);
        matches.push_back({query, record, offset});
        slices.push_back(extender_->slice(span));
    }
    void on_record_error(std::size_t, const descend::EngineStatus&) override
    {
        ++errors;
    }

    std::vector<Match> matches;
    std::vector<std::string_view> slices;
    std::size_t errors = 0;

private:
    PaddedView input_;
    const std::vector<RecordSpan>* records_;
    const descend::simd::Kernels* kernels_;
    std::optional<descend::project::SpanExtender> extender_;
    std::size_t current_ = ~std::size_t{0};
};

descend::stream::StreamOptions stream_options(std::size_t threads)
{
    descend::stream::StreamOptions options;
    options.threads = threads;
    return options;
}

/** Oracle: one independent StreamExecutor run per query, in the fused
 *  replay order (records ascending, queries ascending within a record),
 *  with slices from the scalar extract_value reference. */
void oracle(PaddedView input, const std::vector<RecordSpan>& records,
            std::vector<Match>& matches, std::vector<std::string_view>& slices)
{
    const std::vector<std::string>& queries = subscription_set();
    for (std::size_t q = 0; q < queries.size(); ++q) {
        descend::stream::StreamExecutor executor =
            descend::stream::StreamExecutor::for_query(queries[q],
                                                       stream_options(worker_count()));
        descend::stream::CollectingStreamSink sink;
        const descend::stream::StreamResult result =
            executor.run_records(input, records, sink);
        if (!result.ok()) {
            throw descend::Error("oracle StreamExecutor run failed for " + queries[q]);
        }
        for (const auto& match : sink.matches()) {
            matches.push_back({q, match.record, match.offset});
        }
    }
    std::stable_sort(matches.begin(), matches.end(),
                     [](const Match& a, const Match& b) { return a.record < b.record; });
    for (const Match& match : matches) {
        const RecordSpan& span = records[match.record];
        slices.push_back(
            descend::extract_value(input.subview(span.begin, span.size()), match.offset));
    }
}

/** Compares one pass against the oracle; one op per query. */
void check_pass(const SliceCollector& got, const std::vector<Match>& want,
                const std::vector<std::string_view>& want_slices, Result& result)
{
    const std::size_t n = subscription_set().size();
    std::vector<bool> bad(n, got.errors != 0);
    std::size_t i = 0, j = 0;
    while (i < got.matches.size() || j < want.size()) {
        if (i < got.matches.size() && j < want.size() && got.matches[i] == want[j]) {
            if (got.slices[i] != want_slices[j]) {
                bad[want[j].query] = true;
            }
            ++i;
            ++j;
        } else {
            // A divergence: blame the query of whichever side is ahead.
            if (i < got.matches.size()) {
                bad[got.matches[i].query] = true;
            }
            if (j < want.size()) {
                bad[want[j].query] = true;
            }
            break;
        }
    }
    for (std::size_t q = 0; q < n; ++q) {
        ++result.attempted;
        if (bad[q]) {
            result.fail("ndjson query " + subscription_set()[q] +
                        ": matches or slices differ from independent StreamExecutor "
                        "runs / extract_value");
        }
    }
}

/** Cold compiles of the whole set into the `auto` fused engine; between
 *  passes too, so the fastest is found wherever the host was quiet. */
void sample_set_compiles(BestTimes& compile, int repeats)
{
    for (int i = 0; i < repeats; ++i) {
        compile.sample(0, [] { descend::multi::make_fused_engine(subscription_set()); });
    }
}

struct PassTimes {
    std::vector<double> pass_ms;
    std::size_t records = 0;
};

PassTimes measure_passes(const descend::multi::MultiStreamExecutor& executor,
                         const PaddedString& input, const std::vector<Match>& want,
                         const std::vector<std::string_view>& want_slices,
                         double seconds, Result& result, Tracer& tracer,
                         BestTimes* compile = nullptr)
{
    const descend::simd::Kernels& kernels =
        descend::simd::kernels_for(executor.options().engine.simd);
    PassTimes times;
    const std::uint64_t start = now_ns();
    while (seconds_since(start) < seconds || times.pass_ms.empty()) {
        tracer.begin_op();
        const std::uint64_t pass_start = now_ns();
        std::vector<RecordSpan> records;
        {
            SpanScope span(tracer, "stream.split_records");
            records = descend::stream::split_records(input, kernels);
        }
        SliceCollector sink(input, records, kernels);
        {
            SpanScope span(tracer, "multi.MultiStreamExecutor::run_records");
            executor.run_records(input, records, sink);
        }
        times.pass_ms.push_back(seconds_since(pass_start) * 1e3);
        times.records += records.size();
        check_pass(sink, want, want_slices, result);
        if (compile != nullptr) {
            sample_set_compiles(*compile, kCompileBurst);
        }
    }
    return times;
}

double compile_set_ms()
{
    const std::uint64_t start = now_ns();
    const auto engine = descend::multi::make_fused_engine(subscription_set());
    return seconds_since(start) * 1e3;
}

}  // namespace

Result run_ndjson_workload(const Options& options)
{
    Result result;
    const std::string text = make_stream(options.seed);
    const std::size_t threads = worker_count();

    std::vector<Match> want;
    std::vector<std::string_view> want_slices;
    PaddedString oracle_input(text);
    const descend::simd::Kernels& kernels = descend::simd::best_kernels();
    const std::vector<RecordSpan> oracle_records =
        descend::stream::split_records(oracle_input, kernels);
    oracle(oracle_input, oracle_records, want, want_slices);
    if (options.inject_mismatch && !want.empty()) {
        want_slices[want.size() / 2] = want_slices[want.size() / 2].substr(1);
    }
    // The oracle's buffer stays alive: the expected slices alias it, and
    // the program's own copy is compared byte-wise against them. It and
    // `text` are part of the peak-RSS baseline taken here.
    reset_peak_rss();

    BestTimes compile(1);
    sample_set_compiles(compile, kCompileRepeats);
    std::vector<double> setup_s;
    std::unique_ptr<PaddedString> input;
    std::unique_ptr<descend::multi::MultiStreamExecutor> executor;
    auto sample_setups = [&] {
        for (int i = 0; i < kSetupRepeats; ++i) {
            input.reset();
            executor.reset();
            const std::uint64_t start = now_ns();
            input = std::make_unique<PaddedString>(text);
            executor = std::make_unique<descend::multi::MultiStreamExecutor>(
                descend::multi::MultiStreamExecutor::for_queries(subscription_set(),
                                                                 stream_options(threads)));
            setup_s.push_back(seconds_since(start));
        }
    };
    sample_setups();
    const double bytes = static_cast<double>(input->size());

    Tracer untraced(false);
    if (!options.trace) {
        const PassTimes times = measure_passes(*executor, *input, want, want_slices,
                                               options.seconds, result, untraced,
                                               &compile);
        sample_setups();
        // Rates from the median pass, robust to a pass hit by a stall.
        const double pass_s = median(times.pass_ms) * 1e-3;
        const double records = static_cast<double>(times.records) /
                               static_cast<double>(times.pass_ms.size());
        result.add("setup_s", median(setup_s), "s");
        result.add("compile_ms", compile.median_ms(), "ms");
        result.add("throughput_gbps", gbps(bytes, pass_s), "GB/s");
        result.add("throughput_rps", records / pass_s, "1/s");
        const auto windows = chunk(times.pass_ms, kPassesPerWindow);
        result.add("latency_ms.p50", windowed_percentile(windows, 0.50), "ms");
        result.add("latency_ms.p99", windowed_percentile(windows, 0.99), "ms");
        result.add("peak_rss_mb", peak_rss_mb(), "MiB");
        return result;
    }

    Tracer tracer(true);
    const PassTimes plain = measure_passes(*executor, *input, want, want_slices,
                                           options.seconds * 0.25, result, untraced);
    const PassTimes traced = measure_passes(*executor, *input, want, want_slices,
                                            options.seconds * 0.25, result, tracer);
    const double plain_gbps = gbps(bytes, median(plain.pass_ms) * 1e-3);
    const double traced_gbps = gbps(bytes, median(traced.pass_ms) * 1e-3);

    // simd / stream split.
    {
        tracer.begin_op();
        const std::uint64_t start = now_ns();
        {
            SpanScope span(tracer, "simd.Kernels::classify_batch");
            classify_sweep({PaddedView(*input)}, kernels);
        }
        result.add("simd.classify_gbps", gbps(bytes, seconds_since(start)), "GB/s");
    }
    std::vector<RecordSpan> records;
    {
        tracer.begin_op();
        const std::uint64_t start = now_ns();
        {
            SpanScope span(tracer, "stream.split_records");
            records = descend::stream::split_records(*input, kernels);
        }
        result.add("stream.split_gbps", gbps(bytes, seconds_since(start)), "GB/s");
        result.add("stream.records", static_cast<double>(records.size()), "count");
    }

    // Counters of one fused stream run, with the accounting invariant.
    {
        tracer.begin_op();
        descend::multi::CountingMultiStreamSink sink(subscription_set().size());
        descend::stream::StreamResult run;
        {
            SpanScope span(tracer, "multi.MultiStreamExecutor::run_records");
            run = executor->run_records(*input, records, sink);
        }
        ++result.attempted;
        if (!run.ok() || accounted_blocks(run.counters) != run.record_blocks) {
            result.fail("ndjson: blocks.accounted " +
                        std::to_string(accounted_blocks(run.counters)) + " != total " +
                        std::to_string(run.record_blocks));
        }
        add_engine_counter_metrics(result, run.counters, run.record_blocks);
        result.add("multi.product_skips",
                   static_cast<double>(run.counters.get(Counter::kProductSkips)), "count");
        result.add("multi.fused_skips_suppressed",
                   static_cast<double>(
                       run.counters.get(Counter::kFusedChildSkipSuppressed) +
                       run.counters.get(Counter::kFusedSiblingSkipSuppressed) +
                       run.counters.get(Counter::kFusedWithinSkipSuppressed)),
                   "count");
    }

    // Bare iteration over every record.
    {
        double drain_s = 0, brackets_s = 0;
        for (int pass = 0; pass < 2; ++pass) {
            tracer.begin_op();
            SpanScope span(tracer, pass == 0 ? "engine.StructuralIterator::next"
                                             : "engine.StructuralIterator::next.brackets");
            const std::uint64_t start = now_ns();
            for (const RecordSpan& record : records) {
                drain_iterator(PaddedView(*input).subview(record.begin, record.size()),
                               kernels, pass == 0);
            }
            (pass == 0 ? drain_s : brackets_s) = seconds_since(start);
        }
        result.add("engine.iterate_gbps", gbps(bytes, drain_s), "GB/s");
        result.add("engine.iterate_brackets_gbps", gbps(bytes, brackets_s), "GB/s");
    }

    // Single-threaded fused run, no projection: run speed and per-record
    // latency (the slowest records finish a parallel batch last).
    {
        const descend::multi::FusedEngine& engine = executor->engine();
        std::vector<double> record_us;
        record_us.reserve(records.size());
        double run_s = 0;
        descend::multi::CountingMultiSink sink(subscription_set().size());
        for (const RecordSpan& record : records) {
            tracer.begin_op();
            SpanScope span(tracer, "multi.FusedEngine::run");
            const std::uint64_t start = now_ns();
            engine.run(PaddedView(*input).subview(record.begin, record.size()), sink);
            const double s = seconds_since(start);
            run_s += s;
            record_us.push_back(s * 1e6);
        }
        result.add("multi.run_gbps", gbps(bytes, run_s), "GB/s");
        result.add("stream.record_us.p50", percentile(record_us, 0.50), "us");
        result.add("stream.record_us.p99", percentile(record_us, 0.99), "us");
        result.add("multi.lanes_fallback",
                   engine.name().rfind("descend-multi", 0) == 0 ? 1.0 : 0.0, "count");
    }

    // Set compilation: the auto backend as built, and the product
    // automaton's size (over the filter-free part when filters force lanes).
    {
        std::vector<double> compile_ms;
        for (int i = 0; i < kCompileRepeats; ++i) {
            tracer.begin_op();
            SpanScope span(tracer, "multi.make_fused_engine");
            compile_ms.push_back(compile_set_ms());
        }
        result.add("multi.compile_ms", median(compile_ms), "ms");
        std::vector<std::string> product_part;
        for (const std::string& query : subscription_set()) {
            if (query.find("[?(") == std::string::npos) {
                product_part.push_back(query);
            }
        }
        tracer.begin_op();
        SpanScope span(tracer, "multi.QuerySetCompiler::compile");
        int states = 0;
        try {
            states = descend::multi::QuerySetCompiler::compile(
                         descend::multi::MultiQuery::compile(subscription_set()))
                         .num_states();
        } catch (const descend::LimitError&) {
            states = descend::multi::QuerySetCompiler::compile(
                         descend::multi::MultiQuery::compile(product_part))
                         .num_states();
        }
        result.add("multi.product_states", states, "count");

        std::vector<double> compile_us;
        double dfa_states = 0;
        for (const std::string& query : subscription_set()) {
            for (int rep = 0; rep < kCompileRepeats; ++rep) {
                tracer.begin_op();
                SpanScope compile_span(tracer, "automaton.CompiledQuery::compile");
                const std::uint64_t start = now_ns();
                const auto compiled = descend::automaton::CompiledQuery::compile(query);
                compile_us.push_back(seconds_since(start) * 1e6);
                if (rep == 0) {
                    dfa_states += compiled.dfa().num_states();
                }
            }
        }
        result.add("automaton.compile_us", median(compile_us), "us");
        result.add("automaton.dfa_states", dfa_states, "count");
    }

    // Projection: extension of every match of the oracle's match set.
    {
        tracer.begin_op();
        SpanScope span(tracer, "project.SpanExtender::extend");
        double extended = 0;
        const std::uint64_t start = now_ns();
        std::size_t current = ~std::size_t{0};
        std::optional<descend::project::SpanExtender> extender;
        for (const Match& match : want) {
            if (match.record != current) {
                const RecordSpan& record = records[match.record];
                extender.emplace(PaddedView(*input).subview(record.begin, record.size()),
                                 kernels);
                current = match.record;
            }
            extended += static_cast<double>(extender->extend(match.offset).size());
        }
        result.add("project.extend_gbps", gbps(extended, seconds_since(start)), "GB/s");
        result.add("project.values", static_cast<double>(want.size()), "count");
        result.add("project.bytes", extended, "count");
    }

    // Filters: the gate over every candidate the automaton would report.
    {
        double candidates = 0, admitted = 0, gate_s = 0;
        for (const std::string& query : subscription_set()) {
            if (query.find("[?(") == std::string::npos) {
                continue;
            }
            const descend::query::Query parsed = descend::query::Query::parse(query);
            descend::stream::StreamExecutor wildcard =
                descend::stream::StreamExecutor::for_query(candidate_query(query),
                                                           stream_options(threads));
            descend::stream::CollectingStreamSink sink;
            wildcard.run_records(*input, records, sink);
            tracer.begin_op();
            SpanScope span(tracer, "project.FilterGate::admits");
            const std::uint64_t start = now_ns();
            std::size_t current = ~std::size_t{0};
            std::optional<descend::project::FilterGate> gate;
            for (const auto& match : sink.matches()) {
                if (match.record != current) {
                    const RecordSpan& record = records[match.record];
                    gate.emplace(*parsed.filter(),
                                 PaddedView(*input).subview(record.begin, record.size()),
                                 kernels);
                    current = match.record;
                }
                admitted += gate->admits(match.offset) ? 1 : 0;
            }
            gate_s += seconds_since(start);
            candidates += static_cast<double>(sink.matches().size());
        }
        result.add("project.filter_candidates", candidates, "count");
        result.add("project.filter_admit_ratio",
                   candidates > 0 ? admitted / candidates : 0.0, "ratio");
        result.add("project.filter_us_per_candidate",
                   candidates > 0 ? gate_s * 1e6 / candidates : 0.0, "us");
    }

    // Parallel efficiency of the executor itself (counting sink, so the
    // serial replay of projected slices does not dilute it).
    {
        auto run_with = [&](std::size_t n, const char* name) {
            const descend::multi::MultiStreamExecutor sized =
                descend::multi::MultiStreamExecutor::for_queries(subscription_set(),
                                                                 stream_options(n));
            descend::multi::CountingMultiStreamSink sink(subscription_set().size());
            tracer.begin_op();
            SpanScope span(tracer, name);
            const std::uint64_t start = now_ns();
            sized.run_records(*input, records, sink);
            return seconds_since(start);
        };
        const double one = run_with(1, "stream.MultiStreamExecutor.threads1");
        const double many = run_with(threads, "stream.MultiStreamExecutor.threadsN");
        result.add("stream.parallel_efficiency",
                   one / (static_cast<double>(threads) * many), "ratio");
    }

    result.add("trace.overhead_pct", (plain_gbps / traced_gbps - 1.0) * 100.0, "%");
    finish_traced(tracer, options, result);
    return result;
}

}  // namespace perfbench
