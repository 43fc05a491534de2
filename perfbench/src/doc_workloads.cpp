/**
 * @file
 * doc-events and doc-skips: paper queries over ~32 MiB generated
 * documents, each run through DescendEngine::count_checked.
 *
 * doc-events holds event-dense queries, where structural iteration and
 * automaton simulation dominate; doc-skips holds head-skip (`$..label`)
 * and child-skip queries, where most bytes go through LabelSearch or the
 * depth-classifier fast-forward. The workload generators take no seed, so
 * the seed only shuffles the pass order inside each round.
 *
 * Rounds run on one thread per CPU at once, and each query is charged its
 * fastest pass of the run: on a shared host, neighbours slow whole
 * stretches of a run on some CPUs, and the fastest of many passes spread
 * over every CPU is the figure that repeats.
 */
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "descend/automaton/compiled.h"
#include "descend/baselines/dom_engine.h"
#include "descend/engine/label_search.h"
#include "descend/engine/main_engine.h"
#include "descend/engine/structural_iterator.h"
#include "descend/json/dom.h"
#include "descend/query/query.h"
#include "descend/workloads/datasets.h"
#include "workloads.h"

namespace perfbench {

using descend::PaddedString;
using descend::PaddedView;
using descend::obs::Counter;

namespace {

constexpr std::size_t kDocBytes = std::size_t{32} << 20;
/** Set-ups before the measured loop, and again after it: the median of
 *  samples from both ends of the run is the figure that repeats on a
 *  shared host. */
constexpr int kSetupRepeats = 8;
constexpr int kCompileRepeats = 100;
/** Compiles per query between rounds: the first warms the caches the
 *  round evicted. */
constexpr int kCompileBurst = 10;

struct QueryDef {
    const char* id;
    const char* dataset;
    const char* text;
};

const std::vector<QueryDef>& event_queries()
{
    static const std::vector<QueryDef> queries = {
        {"A1", "ast", "$..decl.name"},
        {"A2", "ast", "$..inner..inner..type.qualType"},
        {"A3", "ast", "$..loc.includedFrom.file"},
        {"N2", "nspl", "$.data.*.*.*"},
        {"C2r", "crossref", "$..author..affiliation..name"},
        {"B1", "bestbuy", "$.products.*.categoryPath.*.id"},
    };
    return queries;
}

const std::vector<QueryDef>& skip_queries()
{
    static const std::vector<QueryDef> queries = {
        {"C1", "crossref", "$..DOI"},
        {"B3r", "bestbuy", "$..videoChapters"},
        {"W1r", "walmart", "$..bestMarketplacePrice.price"},
        {"O1r", "openfood", "$..vitamins_tags"},
        {"Wir", "wikimedia", "$..P150..mainsnak.property"},
        {"G2r", "googlemap", "$..available_travel_modes"},
        {"C3", "crossref", "$.items.*.editor.*.affiliation.*.name"},
    };
    return queries;
}

/** What the program holds after set-up: padded documents and engines. */
struct Loaded {
    std::map<std::string, PaddedString> documents;
    std::vector<std::unique_ptr<descend::DescendEngine>> engines;
};

/** The program-side set-up: load each document into a padded buffer,
 *  compile each query and build its engine. */
Loaded load(const std::map<std::string, std::string>& texts,
            const std::vector<QueryDef>& queries)
{
    Loaded loaded;
    for (const auto& [name, text] : texts) {
        loaded.documents.emplace(name, PaddedString(text));
    }
    for (const QueryDef& query : queries) {
        loaded.engines.push_back(std::make_unique<descend::DescendEngine>(
            descend::automaton::CompiledQuery::compile(query.text)));
    }
    return loaded;
}

/** DomEngine's answer for every query, parsing each document once. */
std::vector<std::vector<std::size_t>> oracle_offsets(
    const std::map<std::string, std::string>& texts,
    const std::vector<QueryDef>& queries)
{
    std::vector<std::vector<std::size_t>> answers(queries.size());
    for (const auto& [name, text] : texts) {
        const descend::json::Document dom = descend::json::parse(text);
        for (std::size_t q = 0; q < queries.size(); ++q) {
            if (name != queries[q].dataset) {
                continue;
            }
            descend::DomEngine engine(descend::query::Query::parse(queries[q].text));
            descend::OffsetSink sink;
            engine.evaluate(dom.root(), sink);
            answers[q] = sink.offsets();
        }
    }
    return answers;
}

/** Cold compiles of every query, @p repeats times; between rounds too,
 *  so the fastest compile is found wherever the host was quiet. */
void sample_compiles(const std::vector<QueryDef>& queries, BestTimes& compile,
                     int repeats)
{
    for (int rep = 0; rep < repeats; ++rep) {
        for (std::size_t q = 0; q < queries.size(); ++q) {
            compile.sample(q, [&] {
                const auto compiled =
                    descend::automaton::CompiledQuery::compile(queries[q].text);
            });
        }
    }
}

struct PassTimes {
    double round_bytes = 0;
    /** Per query, its fastest pass in seconds. */
    std::vector<double> best_s;

    /** Seconds of one round at every query's fastest pass. */
    double round_s() const
    {
        double sum = 0;
        for (double s : best_s) {
            sum += s;
        }
        return sum;
    }
};

/** What one measuring thread saw. */
struct ThreadPasses {
    std::vector<double> best_s;
    std::uint64_t attempted = 0;
    std::vector<std::string> failures;
};

/**
 * Whole rounds of every query, in a seed-shuffled order per round, on
 * @p threads threads at once until @p seconds have elapsed. Every pass's
 * count is checked. Spans are recorded only on one thread (the tracer is
 * single-threaded); compiles are sampled between the rounds of thread 0.
 */
PassTimes measure_rounds(const Loaded& loaded, const std::vector<QueryDef>& queries,
                         const std::vector<std::size_t>& expected_counts,
                         double seconds, std::size_t threads, Rng& rng,
                         Result& result, Tracer& tracer, BestTimes* compile = nullptr)
{
    if (tracer.enabled() && threads != 1) {
        throw std::logic_error("measure_rounds: a traced run uses one thread");
    }
    PassTimes times;
    for (const QueryDef& query : queries) {
        times.round_bytes += static_cast<double>(loaded.documents.at(query.dataset).size());
    }
    std::vector<ThreadPasses> seen(threads);
    std::vector<Rng> rngs;
    for (std::size_t t = 0; t < threads; ++t) {
        rngs.emplace_back(rng());
    }
    const std::uint64_t start = now_ns();
    auto passes = [&](std::size_t t) {
        ThreadPasses& mine = seen[t];
        std::vector<std::size_t> order(queries.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            order[i] = i;
        }
        while (seconds_since(start) < seconds || mine.attempted == 0) {
            std::shuffle(order.begin(), order.end(), rngs[t]);
            for (std::size_t q : order) {
                const PaddedString& doc = loaded.documents.at(queries[q].dataset);
                tracer.begin_op();
                const std::uint64_t pass_start = now_ns();
                descend::CountResult counted;
                {
                    SpanScope span(tracer, "engine.DescendEngine::count_checked");
                    counted = loaded.engines[q]->count_checked(doc);
                }
                mine.best_s[q] = std::min(mine.best_s[q], seconds_since(pass_start));
                ++mine.attempted;
                if (!counted.ok() || counted.count != expected_counts[q]) {
                    mine.failures.push_back(
                        std::string(queries[q].id) + ": count " +
                        std::to_string(counted.count) + " status " +
                        descend::to_string(counted.status) + ", expected " +
                        std::to_string(expected_counts[q]));
                }
            }
            if (t == 0 && compile != nullptr) {
                sample_compiles(queries, *compile, kCompileBurst);
            }
        }
    };
    auto run = [&](std::size_t t) {
        ThreadPasses& mine = seen[t];
        mine.best_s.assign(queries.size(), 1e300);
        try {
            passes(t);
        } catch (const std::exception& error) {
            ++mine.attempted;
            mine.failures.push_back(std::string("doc pass threw: ") + error.what());
        }
    };
    std::vector<std::thread> workers;
    for (std::size_t t = 1; t < threads; ++t) {
        workers.emplace_back(run, t);
    }
    run(0);
    for (std::thread& worker : workers) {
        worker.join();
    }
    times.best_s.assign(queries.size(), 1e300);
    for (const ThreadPasses& mine : seen) {
        for (std::size_t q = 0; q < queries.size(); ++q) {
            times.best_s[q] = std::min(times.best_s[q], mine.best_s[q]);
        }
        result.attempted += mine.attempted;
        for (const std::string& why : mine.failures) {
            result.fail(why);
        }
    }
    return times;
}

/** Median wall time of @p fn over @p repeats calls. */
template <typename Fn>
double median_time_s(int repeats, Fn&& fn)
{
    std::vector<double> seconds;
    for (int i = 0; i < repeats; ++i) {
        const std::uint64_t start = now_ns();
        fn();
        seconds.push_back(seconds_since(start));
    }
    return median(seconds);
}

}  // namespace

std::size_t classify_sweep(const std::vector<PaddedView>& inputs,
                           const descend::simd::Kernels& kernels)
{
    descend::simd::BlockMasks masks[descend::simd::kBatchBlocks];
    std::size_t bytes = 0;
    std::uint64_t sink = 0;
    for (const PaddedView& input : inputs) {
        descend::simd::BatchCarry carry;
        for (std::size_t at = 0; at < input.size(); at += descend::simd::kBatchSize) {
            kernels.classify_batch(input.data() + at, carry, masks);
            sink += masks[0].in_string ^ masks[7].commas;
        }
        bytes += input.size();
    }
    // Keeps the sweep observable without a measurable cost.
    if (sink == 0x5eed) {
        std::fputc(' ', stderr);
    }
    return bytes;
}

std::size_t drain_iterator(PaddedView input, const descend::simd::Kernels& kernels,
                           bool commas_and_colons)
{
    descend::StructuralIterator iterator(input, kernels);
    iterator.set_commas(commas_and_colons);
    iterator.set_colons(commas_and_colons);
    std::size_t events = 0;
    while (iterator.next().kind != descend::StructuralIterator::Kind::kNone) {
        ++events;
    }
    return events;
}

std::uint64_t accounted_blocks(const descend::obs::Counters& counters)
{
    return counters.get(Counter::kBlocksStructural) +
           counters.get(Counter::kBlocksChildSkipped) +
           counters.get(Counter::kBlocksSiblingSkipped) +
           counters.get(Counter::kBlocksWithinSkipped) +
           counters.get(Counter::kBlocksHeadSkip) +
           counters.get(Counter::kBlocksTail);
}

void add_engine_counter_metrics(Result& result,
                                const descend::obs::Counters& counters,
                                std::size_t total_blocks)
{
    const double blocks = static_cast<double>(total_blocks);
    auto get = [&](Counter id) { return static_cast<double>(counters.get(id)); };
    auto share = [&](Counter id) { return blocks > 0 ? get(id) / blocks : 0.0; };
    result.add("simd.batch_refills", get(Counter::kBatchRefills), "count");
    result.add("classify.blocks_per_input_block",
               share(Counter::kBlocksClassified), "ratio");
    result.add("classify.pipeline_resumes", get(Counter::kPipelineResumes), "count");
    result.add("engine.events", get(Counter::kStructuralEvents), "count");
    const double candidates = get(Counter::kLabelSearchCandidates);
    result.add("engine.label_search_hit_ratio",
               candidates > 0 ? get(Counter::kLabelSearchHits) / candidates : 0.0,
               "ratio");
    result.add("engine.blocks.structural", share(Counter::kBlocksStructural), "share");
    result.add("engine.blocks.child_skipped", share(Counter::kBlocksChildSkipped),
               "share");
    result.add("engine.blocks.sibling_skipped",
               share(Counter::kBlocksSiblingSkipped), "share");
    result.add("engine.blocks.head_skip", share(Counter::kBlocksHeadSkip), "share");
    result.add("engine.blocks.tail", share(Counter::kBlocksTail), "share");
}

Result run_doc_workload(const Options& options, bool skip_bound)
{
    const std::vector<QueryDef>& queries = skip_bound ? skip_queries() : event_queries();
    Result result;
    Rng rng(options.seed);

    // Inputs and oracle answers: the benchmark's own work, not set-up.
    std::map<std::string, std::string> texts;
    for (const QueryDef& query : queries) {
        if (texts.count(query.dataset) == 0) {
            texts.emplace(query.dataset,
                          descend::workloads::generate(query.dataset, kDocBytes));
        }
    }
    std::vector<std::vector<std::size_t>> expected = oracle_offsets(texts, queries);
    if (options.inject_mismatch) {
        expected[0].push_back(texts.at(queries[0].dataset).size());
    }
    std::vector<std::size_t> expected_counts;
    for (const auto& offsets : expected) {
        expected_counts.push_back(offsets.size());
    }
    reset_peak_rss();

    BestTimes compile(queries.size());
    sample_compiles(queries, compile, kCompileRepeats);
    std::vector<double> setup_s;
    Loaded loaded;
    auto sample_setups = [&] {
        for (int i = 0; i < kSetupRepeats; ++i) {
            loaded = Loaded{};
            const std::uint64_t start = now_ns();
            loaded = load(texts, queries);
            setup_s.push_back(seconds_since(start));
        }
    };
    sample_setups();

    // Full offset check against the DOM oracle, once per query.
    for (std::size_t q = 0; q < queries.size(); ++q) {
        ++result.attempted;
        descend::OffsetsResult got =
            loaded.engines[q]->offsets_checked(loaded.documents.at(queries[q].dataset));
        if (!got.ok() || got.offsets != expected[q]) {
            result.fail(std::string(queries[q].id) + ": offsets differ from DomEngine (" +
                        std::to_string(got.offsets.size()) + " vs " +
                        std::to_string(expected[q].size()) + ")");
        }
    }

    Tracer untraced(false);
    if (!options.trace) {
        const PassTimes times =
            measure_rounds(loaded, queries, expected_counts, options.seconds,
                           worker_count(), rng, result, untraced, &compile);
        sample_setups();
        std::vector<double> best_ms;
        for (double s : times.best_s) {
            best_ms.push_back(s * 1e3);
        }
        result.add("setup_s", median(setup_s), "s");
        result.add("compile_ms", compile.median_ms(), "ms");
        result.add("throughput_gbps", gbps(times.round_bytes, times.round_s()), "GB/s");
        result.add("throughput_rps",
                   static_cast<double>(queries.size()) / times.round_s(), "1/s");
        result.add("latency_ms.p50", percentile(best_ms, 0.50), "ms");
        result.add("latency_ms.p99", percentile(best_ms, 0.99), "ms");
        result.add("peak_rss_mb", peak_rss_mb(), "MiB");
        return result;
    }

    // Traced run: an untraced and a traced stretch of equal length, on
    // one thread each, give the tracing overhead; the layer probes follow,
    // each call inside a span.
    Tracer tracer(true);
    const PassTimes plain = measure_rounds(loaded, queries, expected_counts,
                                           options.seconds * 0.3, 1, rng, result,
                                           untraced);
    const PassTimes traced = measure_rounds(loaded, queries, expected_counts,
                                            options.seconds * 0.3, 1, rng, result,
                                            tracer);

    const descend::simd::Kernels& kernels = descend::simd::best_kernels();
    std::vector<PaddedView> views;
    for (const auto& [name, doc] : loaded.documents) {
        views.emplace_back(doc);
    }
    {
        double bytes = 0;
        const double s = median_time_s(3, [&] {
            tracer.begin_op();
            SpanScope span(tracer, "simd.Kernels::classify_batch");
            bytes = static_cast<double>(classify_sweep(views, kernels));
        });
        result.add("simd.classify_gbps", gbps(bytes, s), "GB/s");
    }

    // Per query: counters from run_with_stats (with the accounting
    // invariant), then full, no-skip and bare-drain timings.
    descend::obs::Counters merged;
    std::size_t total_blocks = 0;
    double drain_bytes = 0, drain_s = 0, brackets_s = 0;
    double simulate_s = 0, skip_saving_s = 0;
    double label_bytes = 0, label_s = 0;
    descend::EngineOptions no_skips;
    no_skips.leaf_skipping = false;
    no_skips.child_skipping = false;
    no_skips.sibling_skipping = false;
    no_skips.head_skipping = false;
    for (std::size_t q = 0; q < queries.size(); ++q) {
        const PaddedString& doc = loaded.documents.at(queries[q].dataset);
        const descend::DescendEngine& engine = *loaded.engines[q];
        tracer.begin_op();
        descend::RunStats stats;
        {
            SpanScope span(tracer, "engine.DescendEngine::run_with_stats");
            descend::CountSink sink;
            stats = engine.run_with_stats(PaddedView(doc), sink);
        }
        ++result.attempted;
        const std::size_t blocks = input_blocks(doc.size());
        if (!stats.status.ok() || accounted_blocks(stats.counters) != blocks) {
            result.fail(std::string(queries[q].id) + ": blocks.accounted " +
                        std::to_string(accounted_blocks(stats.counters)) +
                        " != total " + std::to_string(blocks));
        }
        merged.merge(stats.counters);
        total_blocks += blocks;

        const double full_s = median_time_s(3, [&] {
            tracer.begin_op();
            SpanScope span(tracer, "engine.DescendEngine::count_checked");
            engine.count_checked(doc);
        });
        const descend::DescendEngine plain_engine(engine.compiled_query(), no_skips);
        const double noskip_s = median_time_s(3, [&] {
            tracer.begin_op();
            SpanScope span(tracer, "engine.DescendEngine::count_checked.no_skips");
            plain_engine.count_checked(doc);
        });
        const double q_drain_s = median_time_s(3, [&] {
            tracer.begin_op();
            SpanScope span(tracer, "engine.StructuralIterator::next");
            drain_iterator(doc, kernels, true);
        });
        const double q_brackets_s = median_time_s(3, [&] {
            tracer.begin_op();
            SpanScope span(tracer, "engine.StructuralIterator::next.brackets");
            drain_iterator(doc, kernels, false);
        });
        drain_bytes += static_cast<double>(doc.size());
        drain_s += q_drain_s;
        brackets_s += q_brackets_s;
        simulate_s += noskip_s - q_drain_s;
        skip_saving_s += noskip_s - full_s;

        const auto& label = engine.compiled_query().head_skip_label();
        if (label) {
            label_s += median_time_s(3, [&] {
                tracer.begin_op();
                SpanScope span(tracer, "engine.LabelSearch::next");
                descend::LabelSearch search(doc, kernels, *label);
                while (search.next()) {
                }
            });
            label_bytes += static_cast<double>(doc.size());
        }
    }
    add_engine_counter_metrics(result, merged, total_blocks);
    result.add("engine.iterate_gbps", gbps(drain_bytes, drain_s), "GB/s");
    result.add("engine.iterate_brackets_gbps", gbps(drain_bytes, brackets_s), "GB/s");
    result.add("engine.simulate_s", simulate_s, "s");
    result.add("engine.skip_saving_s", skip_saving_s, "s");
    result.add("engine.label_search_gbps", gbps(label_bytes, label_s), "GB/s");

    std::vector<double> compile_us;
    double dfa_states = 0;
    for (const QueryDef& query : queries) {
        for (int rep = 0; rep < kCompileRepeats; ++rep) {
            tracer.begin_op();
            SpanScope span(tracer, "automaton.CompiledQuery::compile");
            const std::uint64_t start = now_ns();
            auto compiled = descend::automaton::CompiledQuery::compile(query.text);
            compile_us.push_back(seconds_since(start) * 1e6);
            if (rep == 0) {
                dfa_states += compiled.dfa().num_states();
            }
        }
    }
    result.add("automaton.compile_us", median(compile_us), "us");
    result.add("automaton.dfa_states", dfa_states, "count");
    result.add("trace.overhead_pct", (traced.round_s() / plain.round_s() - 1.0) * 100.0,
               "%");
    finish_traced(tracer, options, result);
    return result;
}

}  // namespace perfbench
