/**
 * @file
 * The four workloads and the layer probes they share.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common.h"
#include "descend/engine/padded_string.h"
#include "descend/obs/counters.h"
#include "descend/simd/dispatch.h"

namespace perfbench {

/** doc-events (skip_bound = false) or doc-skips (skip_bound = true). */
Result run_doc_workload(const Options& options, bool skip_bound);
/** ndjson-fanout: a fused query set over a mixed-schema NDJSON stream. */
Result run_ndjson_workload(const Options& options);
/** serve-mixed: an in-process descend-serve under open-loop TCP load. */
Result run_serve_workload(const Options& options);

/** Threads a batch workload runs on: one per CPU, at most 4. */
inline std::size_t worker_count()
{
    return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

// --- layer probes (doc_workloads.cpp) ---

/** Kernel-only sweep: classify_batch over every input, each byte once.
 *  Returns the bytes swept. */
std::size_t classify_sweep(const std::vector<descend::PaddedView>& inputs,
                           const descend::simd::Kernels& kernels);

/** Bare StructuralIterator drain; returns the events seen. */
std::size_t drain_iterator(descend::PaddedView input,
                           const descend::simd::Kernels& kernels,
                           bool commas_and_colons);

/** ceil(size / kBlockSize): the blocks the accounting invariant covers. */
inline std::size_t input_blocks(std::size_t size)
{
    return (size + descend::simd::kBlockSize - 1) / descend::simd::kBlockSize;
}

/** Sum of the per-block attribution counters of one registry. */
std::uint64_t accounted_blocks(const descend::obs::Counters& counters);

/** Adds the simd/classify/engine counter metrics derived from merged
 *  engine counters over @p total_blocks input blocks. */
void add_engine_counter_metrics(Result& result,
                                const descend::obs::Counters& counters,
                                std::size_t total_blocks);

}  // namespace perfbench
