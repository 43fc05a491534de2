/**
 * @file
 * serve-mixed: an in-process descend-serve (serve::Server, 2 workers) on
 * loopback TCP, driven open-loop at a fixed Poisson rate by one generator
 * thread over 4 connections.
 *
 * The mix is ~70% single-query requests over 4-64 KiB bodies, ~15%
 * 4-query multi requests, ~10% NDJSON requests and ~5% requests with
 * kWantValues. Query texts are drawn Zipf-distributed from a pool four
 * times the size of the server's 256-entry cache, so some requests hit
 * the cache and some compile. Bodies fit in L2: fixed per-request costs
 * (decode, cache, queueing, encode) dominate, not scan speed. Each
 * request is timed from when it was due to be sent, so a stall also
 * charges the requests queued behind it. A closed-loop phase after the
 * open-loop one measures the server's capacity: the throughput figures.
 */
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "descend/automaton/compiled.h"
#include "descend/engine/extract.h"
#include "descend/engine/main_engine.h"
#include "descend/multi/fused.h"
#include "descend/serve/dispatch.h"
#include "descend/serve/protocol.h"
#include "descend/serve/query_cache.h"
#include "descend/serve/server.h"
#include "descend/stream/stream_executor.h"
#include "descend/util/errors.h"
#include "descend/workloads/datasets.h"
#include "workloads.h"

namespace perfbench {

using descend::serve::Request;
using descend::serve::RequestMode;
using descend::serve::Response;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kCacheCapacity = 256;
constexpr std::size_t kPoolPerTemplate = 64;
/** Requests per second: ~30% of the ~20k/s the server completed under
 *  overload on the 4-core host the benchmark was defined on. At 40-50% a
 *  busy neighbour on the host now and then pushed capacity below the rate
 *  and the backlog never drained; far below, the server's threads go idle
 *  between requests and wake-up delays dominate the tail. */
constexpr double kRequestRate = 6000.0;
constexpr double kZipfExponent = 1.0;
constexpr std::uint64_t kRankingSeed = 0x9e3779b97f4a7c15ull;
/** Set-ups before the load, between the load and the capacity phase,
 *  and after it: the median of samples from three points of the run is
 *  the figure that repeats on a shared host. */
constexpr int kSetupRepeats = 31;
constexpr int kCompileRounds = 3;
constexpr double kDrainSeconds = 10.0;
/** The generator does idle work (one compile sample) only when the next
 *  request is due at least this far ahead. */
constexpr std::uint64_t kIdleWorkNs = 100000;
/** Latency windows of 250 ms: ~1500 requests each, 15 beyond the p99. */
constexpr std::uint64_t kWindowNs = 250000000;
/** Share of the run given to the closed-loop capacity phase. */
constexpr double kCapacityShare = 0.2;
/** Requests per capacity batch: all due at once, so every connection of
 *  the pool stays busy; one batch takes ~50 ms at ~20k/s. */
constexpr std::size_t kCapacityBatch = 1000;
/** Latency windows and capacity batches are read at the quietest one: on
 *  the shared host the benchmark was defined on, busy neighbours
 *  stretched the tail of over three windows in four in some runs, while
 *  the quietest window repeated within a few percent (see README.md). */
constexpr double kQuietWindows = 0.0;

constexpr const char* kSchemas[] = {"twitter", "walmart", "crossref", "bestbuy"};
constexpr int kSchemaCount = 4;

/** Four query templates per schema; `K` is replaced by 1..64, so the pool
 *  holds 16 x 64 = 1024 distinct canonical texts. */
const char* const kTemplates[kSchemaCount][4] = {
    {"$[0:K].text", "$[0:K].user.screen_name", "$[0:K].entities.urls.*.url",
     "$[0:K]..text"},
    {"$.items[0:K].name", "$.items[0:K].salePrice", "$.items[0:K].msrp",
     "$.items[0:K]..itemId"},
    {"$.items[0:K].DOI", "$.items[0:K].author.*.family", "$.items[0:K]..name",
     "$.items[0:K].title"},
    {"$.products[0:K].sku", "$.products[0:K].categoryPath.*.id",
     "$.products[0:K].name", "$.products[0:K]..id"},
};

struct PoolQuery {
    std::string text;
    int schema;
};

std::vector<PoolQuery> query_pool()
{
    std::vector<PoolQuery> pool;
    for (int schema = 0; schema < kSchemaCount; ++schema) {
        for (const char* templ : kTemplates[schema]) {
            for (std::size_t k = 1; k <= kPoolPerTemplate; ++k) {
                const std::string_view shape = templ;
                const std::size_t at = shape.find('K');
                std::string text(shape.substr(0, at));
                text += std::to_string(k);
                text += shape.substr(at + 1);
                pool.push_back({std::move(text), schema});
            }
        }
    }
    return pool;
}

/** Request bodies: per schema, 8 JSON documents and 2 NDJSON streams of
 *  4-64 KiB (fixed; the seed picks among them). */
struct Bodies {
    std::vector<std::string> json[kSchemaCount];
    std::vector<std::string> ndjson[kSchemaCount];
};

Bodies make_bodies()
{
    Bodies bodies;
    for (int schema = 0; schema < kSchemaCount; ++schema) {
        for (int i = 0; i < 8; ++i) {
            const double kib = 4.0 * std::pow(16.0, i / 7.0);
            bodies.json[schema].push_back(descend::workloads::generate(
                kSchemas[schema], static_cast<std::size_t>(kib * 1024)));
        }
        for (int i = 0; i < 2; ++i) {
            const std::size_t target = i == 0 ? (std::size_t{6} << 10)
                                              : (std::size_t{48} << 10);
            std::string stream;
            for (int r = 0; stream.size() < target; ++r) {
                stream += descend::workloads::generate(
                    kSchemas[schema], std::size_t{1024} << (r % 3));
                stream += '\n';
            }
            bodies.ndjson[schema].push_back(std::move(stream));
        }
    }
    return bodies;
}

/** One scheduled request: what to send, and when. */
struct Planned {
    RequestMode mode = RequestMode::kSingle;
    bool values = false;
    std::vector<std::size_t> queries;  // pool indices
    int schema = 0;
    std::size_t body = 0;
    std::uint64_t due_ns = 0;  // relative to the schedule start
};

/** Zipf draws over a fixed, shuffled ranking of the pool. The ranking
 *  does not follow the seed: which queries are popular sets the cost mix,
 *  and the seed should vary only the draws and the arrival times. */
class ZipfPool {
public:
    explicit ZipfPool(std::size_t size) : rank_to_query_(size), cdf_(size)
    {
        for (std::size_t i = 0; i < size; ++i) {
            rank_to_query_[i] = i;
        }
        Rng ranking(kRankingSeed);
        std::shuffle(rank_to_query_.begin(), rank_to_query_.end(), ranking);
        double total = 0;
        for (std::size_t r = 0; r < size; ++r) {
            total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
            cdf_[r] = total;
        }
        for (double& c : cdf_) {
            c /= total;
        }
    }
    std::size_t draw(Rng& rng) const
    {
        const double u = std::uniform_real_distribution<double>(0, 1)(rng);
        const std::size_t rank =
            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
        return rank_to_query_[std::min(rank, cdf_.size() - 1)];
    }

private:
    std::vector<std::size_t> rank_to_query_;
    std::vector<double> cdf_;
};

std::vector<Planned> make_schedule(const std::vector<PoolQuery>& pool,
                                   const Bodies& bodies, double seconds, Rng& rng)
{
    const ZipfPool zipf(pool.size());
    std::exponential_distribution<double> gap(kRequestRate);
    std::uniform_real_distribution<double> unit(0, 1);
    std::vector<Planned> plan;
    double at = 0;
    while (true) {
        at += gap(rng);
        if (at >= seconds) {
            break;
        }
        Planned request;
        request.due_ns = static_cast<std::uint64_t>(at * 1e9);
        const double kind = unit(rng);
        request.queries.push_back(zipf.draw(rng));
        request.schema = pool[request.queries[0]].schema;
        if (kind < 0.70) {
            request.mode = RequestMode::kSingle;
        } else if (kind < 0.85) {
            request.mode = RequestMode::kMulti;
            for (int i = 0; i < 3; ++i) {
                request.queries.push_back(zipf.draw(rng));
            }
        } else if (kind < 0.95) {
            request.mode = RequestMode::kNdjson;
        } else {
            request.mode = RequestMode::kSingle;
            request.values = true;
        }
        const auto& choices = request.mode == RequestMode::kNdjson
                                  ? bodies.ndjson[request.schema]
                                  : bodies.json[request.schema];
        request.body = std::uniform_int_distribution<std::size_t>(
            0, choices.size() - 1)(rng);
        plan.push_back(std::move(request));
    }
    return plan;
}

const std::string& body_of(const Planned& planned, const Bodies& bodies)
{
    return planned.mode == RequestMode::kNdjson
               ? bodies.ndjson[planned.schema][planned.body]
               : bodies.json[planned.schema][planned.body];
}

Request make_request(const Planned& planned, const std::vector<PoolQuery>& pool,
                     const Bodies& bodies)
{
    Request request;
    request.mode = planned.mode;
    request.flags = descend::serve::kWantOffsets;
    if (planned.values) {
        request.flags |= descend::serve::kWantValues;
    }
    for (std::size_t i = 0; i < planned.queries.size(); ++i) {
        if (i != 0) {
            request.query += '\n';
        }
        request.query += pool[planned.queries[i]].text;
    }
    request.body = body_of(planned, bodies);
    return request;
}

/** What a response must carry: count, offsets and values, as a digest. */
std::uint64_t digest(const Response& response)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&](const void* data, std::size_t size) {
        const auto* bytes = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            h = (h ^ bytes[i]) * 1099511628211ull;
        }
    };
    mix(&response.match_count, sizeof(response.match_count));
    mix(response.offsets.data(), response.offsets.size() * sizeof(std::uint64_t));
    for (const std::string& value : response.values) {
        const std::uint64_t size = value.size();
        mix(&size, sizeof(size));
        mix(value.data(), value.size());
    }
    return h;
}

/** The in-process answer to @p planned, from direct engine runs. */
Response expected_response(const Planned& planned, const std::vector<PoolQuery>& pool,
                           const Bodies& bodies)
{
    const descend::PaddedString body(body_of(planned, bodies));
    Response response;
    std::vector<std::size_t> offsets;
    if (planned.mode == RequestMode::kSingle) {
        const auto engine = descend::DescendEngine::for_query(pool[planned.queries[0]].text);
        descend::OffsetsResult run = engine.offsets_checked(body);
        response.engine_status = run.status;
        offsets = run.offsets;
        response.match_count = offsets.size();
        response.offsets.assign(offsets.begin(), offsets.end());
    } else if (planned.mode == RequestMode::kMulti) {
        std::vector<std::string> texts;
        for (std::size_t q : planned.queries) {
            texts.push_back(pool[q].text);
        }
        const auto engine = descend::multi::make_fused_engine(texts);
        descend::multi::CollectingMultiSink sink(texts.size());
        response.engine_status = engine->run(body, sink);
        for (std::size_t q = 0; q < texts.size(); ++q) {
            for (std::size_t offset : sink.offsets(q)) {
                response.offsets.push_back(q);
                response.offsets.push_back(offset);
            }
            response.match_count += sink.offsets(q).size();
        }
    } else {
        descend::stream::StreamOptions options;
        options.threads = 1;
        const auto executor = descend::stream::StreamExecutor::for_query(
            pool[planned.queries[0]].text, options);
        descend::stream::CollectingStreamSink sink;
        const std::vector<descend::stream::RecordSpan> records =
            descend::stream::split_records(body, descend::simd::best_kernels());
        const descend::stream::StreamResult result =
            executor.run_records(body, records, sink);
        if (!result.ok()) {
            response.engine_status = result.first_error;
        }
        for (const auto& match : sink.matches()) {
            response.offsets.push_back(records[match.record].begin + match.offset);
        }
        response.match_count = sink.matches().size();
    }
    if (planned.values) {
        for (std::string_view value : descend::extract_values(body, offsets)) {
            response.values.emplace_back(value);
        }
    }
    return response;
}

int connect_loopback(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

/** One client connection of the generator: pending bytes to write, bytes
 *  read but not yet decoded, and the requests awaiting a response (the
 *  server answers each connection in order). */
struct Connection {
    int fd = -1;
    std::vector<std::uint8_t> out;
    std::size_t out_sent = 0;
    std::vector<std::uint8_t> in;
    std::deque<std::size_t> waiting;

    Connection() = default;
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;
    ~Connection()
    {
        if (fd >= 0) {
            ::close(fd);
        }
    }
};

/** A running server plus the generator's connections to it. */
struct Service {
    std::unique_ptr<descend::serve::Server> server;
    std::vector<std::unique_ptr<Connection>> connections;

    ~Service()
    {
        connections.clear();
        if (server) {
            server->shutdown();
            server->wait();
        }
    }
};

/** The program-side set-up: construct and start the server, then open
 *  the client connections. */
std::unique_ptr<Service> start_service()
{
    auto service = std::make_unique<Service>();
    descend::serve::ServerConfig config;
    config.workers = kWorkers;
    config.cache_capacity = kCacheCapacity;
    service->server = std::make_unique<descend::serve::Server>(config);
    std::string error;
    if (!service->server->start(error)) {
        throw descend::Error("serve-mixed: server start failed: " + error);
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
        auto conn = std::make_unique<Connection>();
        conn->fd = connect_loopback(service->server->tcp_port());
        if (conn->fd < 0) {
            throw descend::Error("serve-mixed: cannot connect to the server");
        }
        service->connections.push_back(std::move(conn));
    }
    return service;
}

/** What the generator observed for one request. */
struct Outcome {
    /** When the generator saw the request fall due (its lateness). */
    std::uint64_t noticed_ns = 0;
    /** When it went out on a connection (after any wait for one). */
    std::uint64_t sent_ns = 0;
    std::uint64_t done_ns = 0;
    bool done = false;
    bool ok = false;
    std::uint64_t digest = 0;
    std::size_t values = 0;
    std::size_t value_bytes = 0;
};

/** Flushes what the socket accepts; false on a broken connection. */
bool flush(Connection& conn)
{
    while (conn.out_sent < conn.out.size()) {
        const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_sent,
                                 conn.out.size() - conn.out_sent, MSG_NOSIGNAL);
        if (n < 0) {
            return errno == EAGAIN || errno == EWOULDBLOCK;
        }
        conn.out_sent += static_cast<std::size_t>(n);
    }
    conn.out.clear();
    conn.out_sent = 0;
    return true;
}

/** Reads and decodes every complete response; false on a broken
 *  connection. */
bool receive(Connection& conn, std::vector<Outcome>& outcomes)
{
    std::uint8_t chunk[1 << 16];
    while (true) {
        const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (n == 0) {
            return false;
        }
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                break;
            }
            return false;
        }
        conn.in.insert(conn.in.end(), chunk, chunk + n);
    }
    std::size_t at = 0;
    while (!conn.waiting.empty()) {
        Response response;
        std::size_t consumed = 0;
        if (!descend::serve::decode_response(conn.in.data() + at, conn.in.size() - at,
                                             response, consumed)) {
            break;
        }
        at += consumed;
        Outcome& outcome = outcomes[conn.waiting.front()];
        conn.waiting.pop_front();
        outcome.done_ns = now_ns();
        outcome.done = true;
        outcome.ok = response.ok() && !response.values_truncated();
        outcome.digest = digest(response);
        outcome.values = response.values.size();
        for (const std::string& value : response.values) {
            outcome.value_bytes += value.size();
        }
    }
    conn.in.erase(conn.in.begin(), conn.in.begin() + static_cast<std::ptrdiff_t>(at));
    return true;
}

/**
 * Drives the open-loop schedule; returns the schedule's start time.
 *
 * The client is a connection pool: a due request goes out on an idle
 * connection, or waits in the generator's FIFO until one frees up. It is
 * timed from its due time either way, so the wait counts. The pool never
 * pipelines a second request onto a busy connection: the server answers
 * one request per connection at a time, and a pipelined response waits on
 * the client's delayed ACK (the server sends with Nagle on), which makes
 * latency swing by 3x between runs. A plan whose requests are all due at
 * once keeps every connection busy: a closed loop.
 */
template <typename EncodeFn, typename IdleFn>
std::uint64_t drive(Service& service, const std::vector<Planned>& plan,
                    EncodeFn&& encode, IdleFn&& idle, std::vector<Outcome>& outcomes)
{
    outcomes.assign(plan.size(), Outcome{});
    std::vector<pollfd> fds(service.connections.size());
    std::deque<std::size_t> queued;
    const std::uint64_t start = now_ns();
    std::size_t next = 0;
    std::size_t outstanding = 0;
    const std::uint64_t give_up =
        start + (plan.empty() ? 0 : plan.back().due_ns) +
        static_cast<std::uint64_t>(kDrainSeconds * 1e9);
    auto send_queued = [&]() {
        for (auto& conn : service.connections) {
            if (queued.empty()) {
                return true;
            }
            if (!conn->waiting.empty()) {
                continue;
            }
            const std::size_t i = queued.front();
            queued.pop_front();
            const std::vector<std::uint8_t> frame = encode(plan[i]);
            conn->out.insert(conn->out.end(), frame.begin(), frame.end());
            conn->waiting.push_back(i);
            outcomes[i].sent_ns = now_ns();
            if (!flush(*conn)) {
                return false;
            }
        }
        return true;
    };
    while ((next < plan.size() || outstanding > 0) && now_ns() < give_up) {
        const std::uint64_t now = now_ns();
        while (next < plan.size() && start + plan[next].due_ns <= now) {
            outcomes[next].noticed_ns = now;
            queued.push_back(next);
            ++outstanding;
            ++next;
        }
        if (!send_queued()) {
            return start;
        }
        for (std::size_t c = 0; c < fds.size(); ++c) {
            const Connection& conn = *service.connections[c];
            fds[c].fd = conn.fd;
            fds[c].events = static_cast<short>(
                POLLIN | (conn.out_sent < conn.out.size() ? POLLOUT : 0));
            fds[c].revents = 0;
        }
        if (next < plan.size() && start + plan[next].due_ns > now_ns() + kIdleWorkNs) {
            idle();
        }
        timespec wait{0, 1000000};
        if (next < plan.size()) {
            const std::uint64_t due = start + plan[next].due_ns;
            const std::uint64_t at = now_ns();
            const std::uint64_t gap = due > at ? due - at : 0;
            wait.tv_sec = static_cast<time_t>(gap / 1000000000ull);
            wait.tv_nsec = static_cast<long>(gap % 1000000000ull);
        }
        if (::ppoll(fds.data(), fds.size(), &wait, nullptr) < 0 && errno != EINTR) {
            return start;
        }
        for (std::size_t c = 0; c < fds.size(); ++c) {
            Connection& conn = *service.connections[c];
            if ((fds[c].revents & POLLOUT) != 0 && !flush(conn)) {
                return start;
            }
            if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
                const std::size_t before = conn.waiting.size();
                const bool alive = receive(conn, outcomes);
                outstanding -= before - conn.waiting.size();
                if (!alive) {
                    return start;
                }
            }
        }
    }
    return start;
}

struct LoadStats {
    double seconds = 0;
    double completed = 0;
    double body_bytes = 0;
    /** Per request, indexed by the window of the schedule it fell due in. */
    std::vector<std::vector<double>> latency_ms_by_window;
    std::vector<double> late_ms;
    double values = 0;
    double value_bytes = 0;
    /** Peak RSS when the last response arrived, before any checking. */
    double peak_rss_mb = 0;
};

/** Runs the schedule against a live service and checks every response
 *  against the in-process engines (memoized per request shape). Spans of
 *  the requests are recorded after the load, so tracing does not slow
 *  it. @p outcomes is scratch, sized by the caller before the peak-RSS
 *  baseline is taken. */
LoadStats run_load(Service& service, const std::vector<Planned>& plan,
                   const std::vector<PoolQuery>& pool, const Bodies& bodies,
                   std::map<std::vector<std::size_t>, std::uint64_t>& expected,
                   bool inject_mismatch, Result& result, Tracer& tracer,
                   std::vector<Outcome>& outcomes, BestTimes* compile = nullptr)
{
    std::size_t next_compile = 0;
    const std::uint64_t start = drive(
        service, plan,
        [&](const Planned& planned) {
            return descend::serve::encode_request(make_request(planned, pool, bodies));
        },
        [&] {
            // Compile samples spread over the whole load, in the
            // generator's idle gaps, so the fastest is found wherever the
            // host was quiet.
            if (compile != nullptr) {
                const std::size_t q = next_compile++ % pool.size();
                compile->sample(q, [&] {
                    const auto compiled =
                        descend::automaton::CompiledQuery::compile(pool[q].text);
                });
            }
        },
        outcomes);

    LoadStats stats;
    stats.peak_rss_mb = peak_rss_mb();
    std::uint64_t last_done = start;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const Outcome& outcome = outcomes[i];
        ++result.attempted;
        if (!outcome.done) {
            result.fail("serve request " + std::to_string(i) + ": no response");
            continue;
        }
        const Planned& planned = plan[i];
        std::vector<std::size_t> key = {static_cast<std::size_t>(planned.mode),
                                        planned.values ? 1u : 0u,
                                        static_cast<std::size_t>(planned.schema),
                                        planned.body};
        key.insert(key.end(), planned.queries.begin(), planned.queries.end());
        auto it = expected.find(key);
        if (it == expected.end()) {
            std::uint64_t want = digest(expected_response(planned, pool, bodies));
            if (inject_mismatch && expected.empty()) {
                ++want;
            }
            it = expected.emplace(key, want).first;
        }
        if (!outcome.ok || outcome.digest != it->second) {
            result.fail("serve request " + std::to_string(i) +
                        (outcome.ok ? ": response differs from the in-process engine run"
                                    : ": non-ok status"));
        }
        const std::uint64_t due = start + planned.due_ns;
        const std::size_t window = planned.due_ns / kWindowNs;
        if (stats.latency_ms_by_window.size() <= window) {
            stats.latency_ms_by_window.resize(window + 1);
        }
        stats.latency_ms_by_window[window].push_back(
            static_cast<double>(outcome.done_ns - due) * 1e-6);
        stats.late_ms.push_back(static_cast<double>(outcome.noticed_ns - due) * 1e-6);
        stats.completed += 1;
        stats.body_bytes += static_cast<double>(body_of(planned, bodies).size());
        stats.values += static_cast<double>(outcome.values);
        stats.value_bytes += static_cast<double>(outcome.value_bytes);
        last_done = std::max(last_done, outcome.done_ns);
        if (tracer.enabled()) {
            tracer.record("serve.request", i, outcome.sent_ns, outcome.done_ns);
        }
    }
    stats.seconds = static_cast<double>(last_done - start) * 1e-9;
    return stats;
}

/** Server capacity: completed requests and body bytes per second. */
struct Capacity {
    double rps = 0;
    double gbps = 0;
};

/**
 * Batches of requests drawn from the same mix, each all due at once,
 * until @p seconds have elapsed. Returns the rates of the quietest
 * batch (like the latency windows).
 */

Capacity measure_capacity(Service& service, const std::vector<PoolQuery>& pool,
                          const Bodies& bodies,
                          std::map<std::vector<std::size_t>, std::uint64_t>& expected,
                          double seconds, Rng& rng, Result& result,
                          std::vector<Outcome>& outcomes)
{
    Tracer untraced(false);
    std::vector<double> rps, gbps_by_batch;
    const std::uint64_t start = now_ns();
    while (seconds_since(start) < seconds || rps.empty()) {
        std::vector<Planned> batch = make_schedule(
            pool, bodies, static_cast<double>(kCapacityBatch) / kRequestRate, rng);
        for (Planned& planned : batch) {
            planned.due_ns = 0;
        }
        const LoadStats stats = run_load(service, batch, pool, bodies, expected, false,
                                         result, untraced, outcomes);
        if (stats.seconds > 0) {
            rps.push_back(stats.completed / stats.seconds);
            gbps_by_batch.push_back(gbps(stats.body_bytes, stats.seconds));
        }
    }
    return {percentile(rps, 1.0 - kQuietWindows),
            percentile(gbps_by_batch, 1.0 - kQuietWindows)};
}

/** The server's in-process layers on the schedule's first requests. */
struct InProcess {
    std::vector<double> decode_us, dispatch_us, encode_us;
    /** Wall time of the decode, dispatch and encode calls. */
    double seconds = 0;
};

/** FrameReader decode, Dispatcher::handle on a fresh cache of the
 *  server's geometry and encode_response, for the first @p count requests
 *  of @p plan in order. */
InProcess run_in_process(const std::vector<Planned>& plan, std::size_t count,
                         const std::vector<PoolQuery>& pool, const Bodies& bodies,
                         Result& result, Tracer& tracer)
{
    descend::serve::QueryCache cache(kCacheCapacity);
    descend::serve::ServePolicy policy;
    const descend::serve::Dispatcher dispatcher(policy, cache);
    descend::RunScratch scratch;
    InProcess times;
    for (std::size_t i = 0; i < count; ++i) {
        const std::vector<std::uint8_t> frame =
            descend::serve::encode_request(make_request(plan[i], pool, bodies));
        tracer.begin_op();
        SpanScope op(tracer, "serve.request.in_process");
        const std::uint64_t t0 = now_ns();
        Request request;
        {
            SpanScope span(tracer, "serve.FrameReader::feed");
            descend::serve::FrameReader reader;
            reader.feed(frame.data(), frame.size());
            request = reader.take_request();
        }
        const std::uint64_t t1 = now_ns();
        Response response;
        {
            SpanScope span(tracer, "serve.Dispatcher::handle");
            response = dispatcher.handle(request, scratch);
        }
        const std::uint64_t t2 = now_ns();
        {
            SpanScope span(tracer, "serve.encode_response");
            const std::vector<std::uint8_t> bytes = descend::serve::encode_response(response);
        }
        const std::uint64_t t3 = now_ns();
        ++result.attempted;
        if (!response.ok()) {
            result.fail("in-process serve request " + std::to_string(i) + ": non-ok");
        }
        times.decode_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        times.dispatch_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
        times.encode_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
        times.seconds += static_cast<double>(t3 - t0) * 1e-9;
    }
    return times;
}

/** Cold compiles of every pool query. */
void sample_compiles(const std::vector<PoolQuery>& pool, BestTimes& compile)
{
    for (int round = 0; round < kCompileRounds; ++round) {
        for (std::size_t q = 0; q < pool.size(); ++q) {
            compile.sample(q, [&] {
                const auto compiled = descend::automaton::CompiledQuery::compile(pool[q].text);
            });
        }
    }
}

}  // namespace

Result run_serve_workload(const Options& options)
{
    Result result;
    Rng rng(options.seed);
    const std::vector<PoolQuery> pool = query_pool();
    const Bodies bodies = make_bodies();
    const double load_seconds =
        options.seconds * (options.trace ? 0.3 : 1.0 - kCapacityShare);
    const std::vector<Planned> plan = make_schedule(pool, bodies, load_seconds, rng);
    std::map<std::vector<std::size_t>, std::uint64_t> expected;
    // Sized (and its pages touched) before the baseline: it is the
    // generator's, not the server's.
    std::vector<Outcome> outcomes(plan.size());
    reset_peak_rss();

    BestTimes compile(pool.size());
    sample_compiles(pool, compile);

    std::vector<double> setup_s;
    std::unique_ptr<Service> service;
    auto sample_setups = [&] {
        for (int i = 0; i < kSetupRepeats; ++i) {
            service.reset();
            const std::uint64_t start = now_ns();
            service = start_service();
            setup_s.push_back(seconds_since(start));
        }
    };
    sample_setups();

    Tracer untraced(false);
    Tracer tracer(options.trace);
    const LoadStats load = run_load(*service, plan, pool, bodies, expected,
                                    options.inject_mismatch, result, tracer, outcomes,
                                    options.trace ? nullptr : &compile);
    const descend::serve::CacheStats cache = service->server->cache_stats();

    if (!options.trace) {
        sample_setups();
        const Capacity capacity =
            measure_capacity(*service, pool, bodies, expected,
                             options.seconds * kCapacityShare, rng, result, outcomes);
        sample_setups();
        result.add("setup_s", median(setup_s), "s");
        sample_compiles(pool, compile);
        result.add("compile_ms", compile.median_ms(), "ms");
        result.add("throughput_gbps", capacity.gbps, "GB/s");
        result.add("throughput_rps", capacity.rps, "1/s");
        result.add("latency_ms.p50",
                   windowed_percentile(load.latency_ms_by_window, 0.50, kQuietWindows), "ms");
        result.add("latency_ms.p99",
                   windowed_percentile(load.latency_ms_by_window, 0.99, kQuietWindows), "ms");
        result.add("peak_rss_mb", load.peak_rss_mb, "MiB");
        return result;
    }

    // Traced run: the load above recorded one span per request; the
    // in-process layers follow on the same request mix, untraced and
    // traced in turn (tracing overhead = traced vs untraced wall time).
    const double plain_p50 =
        windowed_percentile(load.latency_ms_by_window, 0.50, kQuietWindows);
    result.add("serve.gen_late_ms", percentile(load.late_ms, 0.99), "ms");
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    result.add("serve.cache_hit_ratio",
               lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0, "ratio");
    result.add("project.values", load.values, "count");
    result.add("project.bytes", load.value_bytes, "count");

    const std::size_t sample = std::min<std::size_t>(plan.size(), 4000);
    const InProcess plain = run_in_process(plan, sample, pool, bodies, result, untraced);
    const double traced_s = run_in_process(plan, sample, pool, bodies, result, tracer).seconds;
    const double plain_again_s =
        run_in_process(plan, sample, pool, bodies, result, untraced).seconds;
    const double traced_again_s =
        run_in_process(plan, sample, pool, bodies, result, tracer).seconds;
    result.add("trace.overhead_pct",
               (std::min(traced_s, traced_again_s) / std::min(plain.seconds, plain_again_s) -
                1.0) * 100.0,
               "%");
    const double decode = median(plain.decode_us), encode = median(plain.encode_us);
    const double dispatch_p50 = percentile(plain.dispatch_us, 0.50);
    result.add("serve.decode_us", decode, "us");
    result.add("serve.encode_us", encode, "us");
    result.add("serve.dispatch_us.p50", dispatch_p50, "us");
    result.add("serve.dispatch_us.p99", percentile(plain.dispatch_us, 0.99), "us");
    result.add("serve.wire_queue_us",
               plain_p50 * 1e3 - (decode + dispatch_p50 + encode), "us");

    // Cache misses in isolation: lookup() on a fresh cache, same sequence.
    {
        const descend::serve::ServePolicy policy;
        descend::serve::QueryCache cache_alone(kCacheCapacity);
        std::vector<double> miss_us;
        for (std::size_t i = 0; i < sample; ++i) {
            const Request request = make_request(plan[i], pool, bodies);
            bool hit = false;
            tracer.begin_op();
            SpanScope span(tracer, "serve.QueryCache::lookup");
            const std::uint64_t start = now_ns();
            cache_alone.lookup(request.mode, request.query, policy.engine, hit);
            if (!hit) {
                miss_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
            }
        }
        result.add("serve.miss_compile_us", median(miss_us), "us");
    }

    std::vector<double> compile_us;
    double dfa_states = 0;
    for (std::size_t q = 0; q < pool.size(); q += 8) {
        tracer.begin_op();
        SpanScope span(tracer, "automaton.CompiledQuery::compile");
        const std::uint64_t start = now_ns();
        const auto compiled = descend::automaton::CompiledQuery::compile(pool[q].text);
        compile_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
        dfa_states += compiled.dfa().num_states();
    }
    result.add("automaton.compile_us", median(compile_us), "us");
    result.add("automaton.dfa_states", dfa_states, "count");
    finish_traced(tracer, options, result);
    return result;
}

}  // namespace perfbench
