#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "cluster/client.hpp"
#include "cluster/node.hpp"
#include "cluster/replication.hpp"
#include "cluster/router.hpp"
#include "eval/metrics.hpp"
#include "mie/client.hpp"
#include "mie/durable_server.hpp"
#include "mie/keys.hpp"
#include "mie/object_codec.hpp"
#include "mie/wire.hpp"
#include "net/message.hpp"
#include "net/tcp.hpp"
#include "reactor/group_commit.hpp"
#include "reactor/reactor.hpp"
#include "sim/dataset.hpp"
#include "sim/fleet.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace mie;

// Load threads and client connections stay <= nproc of a 4-core box.
constexpr std::size_t kClients = 4;
constexpr double kLatencyLimitMs = 20.0;
/// Set-up runs this many times per run; setup_s is the median.
constexpr std::size_t kSetupReps = 5;
/// The timed phase is split into equal windows: one per kWindowOps ops,
/// at least kMinWindows and at most kMaxWindows. Throughput and latency
/// percentiles are medians over the windows, so a short burst of
/// interference on a shared machine moves a few windows, not the result.
constexpr std::size_t kMinWindows = 10;
constexpr std::size_t kMaxWindows = 20;
constexpr std::size_t kWindowOps = 1000;
constexpr std::size_t kTopK = 10;
/// Closed loops run this long before the timed phase starts, so caches,
/// connections and the allocator are warm when timing begins.
constexpr double kWarmupSeconds = 2.0;
/// Stage self times must sum to the traced end-to-end mean within this
/// share of it; the rest is op time no stage accounts for.
constexpr double kReconcileTolerance = 0.05;
constexpr const char* kUserSecret = "perfbench-user";

constexpr int kIngestImagePx = 48;
constexpr std::size_t kIngestPreload = 1000;
/// Acked objects searched for after the timed phase; the results of the
/// first kIngestRoundTrips searches are decrypted and compared.
constexpr std::size_t kIngestSamples = 1024;
constexpr std::size_t kIngestRoundTrips = 64;
constexpr std::uint64_t kFreshIdBase = 1'000'000'000ULL;

constexpr int kSearchImagePx = 48;
constexpr std::size_t kSearchGroups = 3334;  // x3 = 10002 objects
constexpr std::size_t kSearchGroupSize = 3;

constexpr int kFleetImagePx = 96;
constexpr std::size_t kFleetRepos = 8;
constexpr std::uint32_t kFleetShards = 2;
constexpr std::size_t kFleetSenders = 2;
constexpr std::size_t kFleetSetupObjects = 24;
/// Offered load in ops/s: a quarter or less of the 540-680 ops/s the
/// replay completes closed-loop on a 4-core box. At about half of it,
/// queueing behind the thread that owns the hottest repositories dominated
/// the tail.
constexpr double kFleetRate = 100.0;

/// Progress note on stderr (stdout carries the results).
void note(const std::string& what) {
    std::fprintf(stderr, "[perfbench] %s\n", what.c_str());
    std::fflush(stderr);
}

RepositoryKey make_key(const std::string& label) {
    return RepositoryKey::generate(to_bytes(label), 64, 64, 0.7978845608);
}

DurableServer::Options durable_options() {
    DurableServer::Options options;
    options.wal.sync_policy = store::SyncPolicy::kEveryRecord;
    return options;
}

double ms_between(std::int64_t from, std::int64_t to) {
    return static_cast<double>(to - from) / 1e6;
}

double median(std::vector<double> v) {
    if (v.empty()) return std::nan("");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile; NaN for an empty sample.
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return std::nan("");
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) {
    return den > 0.0 ? num / den : std::nan("");
}

template <typename F>
void parallel(std::size_t n, F&& body) {
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            try {
                body(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    }
    for (auto& thread : threads) thread.join();
    for (const auto& error : errors) {
        if (error) std::rethrow_exception(error);
    }
}

// ---------------------------------------------------------------------------
// Serving stacks
// ---------------------------------------------------------------------------

/// Reactor + group commit in front of a durable handler, with the
/// benchmark's timing decorators in between.
struct Hosted {
    Hosted(net::RequestHandler& handler, net::BatchRequestHandler& batch,
           std::function<std::size_t()> checkpoints, Tracer& tracer)
        : read(handler, tracer),
          batched(batch, tracer, std::move(checkpoints)),
          committer(batched),
          reactor(read, &committer,
                  [](BytesView request) {
                      return is_mutating_request(request);
                  }) {
        reactor.start();
    }

    TimedHandler read;
    TimedBatchHandler batched;
    reactor::GroupCommitter committer;
    reactor::ReactorServer reactor;
};

struct SingleNode {
    SingleNode(const fs::path& dir, Tracer& tracer)
        : vfs(store::PosixVfs::instance(), tracer),
          durable(vfs, dir, durable_options()),
          hosted(durable, durable,
                 [this] { return durable.durability().checkpoints_written; },
                 tracer) {}

    TimedVfs vfs;
    DurableServer durable;
    Hosted hosted;
};

/// One client connection: TCP, the net.rpc decorator, a MieClient.
struct ClientLink {
    ClientLink(std::uint16_t port, Tracer& tracer, const RepositoryKey& key,
               const std::string& repo)
        : tcp("127.0.0.1", port),
          timed(tcp, tracer, "net.rpc", "op", /*registers=*/true),
          client(timed, repo, key, to_bytes(kUserSecret)) {}

    net::TcpTransport tcp;
    TimedTransport timed;
    MieClient client;
};

struct ReactorCounters {
    std::uint64_t submitted = 0;
    std::uint64_t batches = 0;
    std::uint64_t admission_pauses = 0;
    std::uint64_t backpressure_pauses = 0;

    static ReactorCounters of(const Hosted& hosted) {
        const auto rs = hosted.reactor.stats();
        const auto gc = hosted.committer.stats();
        return {gc.submitted, gc.batches, rs.admission_pauses,
                rs.backpressure_pauses};
    }
    ReactorCounters operator-(const ReactorCounters& o) const {
        return {submitted - o.submitted, batches - o.batches,
                admission_pauses - o.admission_pauses,
                backpressure_pauses - o.backpressure_pauses};
    }
    ReactorCounters& operator+=(const ReactorCounters& o) {
        submitted += o.submitted;
        batches += o.batches;
        admission_pauses += o.admission_pauses;
        backpressure_pauses += o.backpressure_pauses;
        return *this;
    }
};

// ---------------------------------------------------------------------------
// Per-operation accounting
// ---------------------------------------------------------------------------

struct ThreadStats {
    std::vector<double> update_ms;  ///< latency of acked mutations
    std::vector<double> search_ms;  ///< latency of completed searches
    /// Open loop: how late the generator itself sent each op — send time
    /// minus the later of its due time and the end of the sender's
    /// previous op. Waiting behind the previous op is the system's delay
    /// and is already in the latency, which runs from the due time.
    std::vector<double> lag_ms;
    /// (end time, latency) of every completed op.
    std::vector<std::pair<std::int64_t, double>> done;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t slo_misses = 0;  ///< over the latency limit, or failed
    std::uint64_t request_bytes = 0;
    std::uint64_t mutation_request_bytes = 0;
    std::uint64_t mutations = 0;
    std::uint64_t searches = 0;
    std::vector<double> ap;  ///< per-search average precision

    // Traced runs only; the fields after `untraced_lat_ms` cover traced ops.
    std::vector<double> traced_lat_ms;
    std::vector<double> untraced_lat_ms;
    std::uint64_t traced_mutations = 0;
    std::uint64_t traced_searches = 0;
    double rpc_update_ms = 0.0;
    double rpc_search_ms = 0.0;
    std::uint64_t request_bytes_traced = 0;
    std::uint64_t search_response_bytes = 0;
    std::uint64_t postings = 0;
    std::uint64_t query_descriptors = 0;
    std::uint64_t descriptors_kept = 0;

    void merge(const ThreadStats& o) {
        update_ms.insert(update_ms.end(), o.update_ms.begin(),
                         o.update_ms.end());
        search_ms.insert(search_ms.end(), o.search_ms.begin(),
                         o.search_ms.end());
        lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
        done.insert(done.end(), o.done.begin(), o.done.end());
        ap.insert(ap.end(), o.ap.begin(), o.ap.end());
        attempted += o.attempted;
        failed += o.failed;
        slo_misses += o.slo_misses;
        request_bytes += o.request_bytes;
        mutation_request_bytes += o.mutation_request_bytes;
        mutations += o.mutations;
        searches += o.searches;
        traced_lat_ms.insert(traced_lat_ms.end(), o.traced_lat_ms.begin(),
                             o.traced_lat_ms.end());
        untraced_lat_ms.insert(untraced_lat_ms.end(),
                               o.untraced_lat_ms.begin(),
                               o.untraced_lat_ms.end());
        traced_mutations += o.traced_mutations;
        traced_searches += o.traced_searches;
        rpc_update_ms += o.rpc_update_ms;
        rpc_search_ms += o.rpc_search_ms;
        request_bytes_traced += o.request_bytes_traced;
        search_response_bytes += o.search_response_bytes;
        postings += o.postings;
        query_descriptors += o.query_descriptors;
        descriptors_kept += o.descriptors_kept;
    }
};

/// Runs MieClient operations for one load thread and records them. While
/// the tracer is enabled, every other op of a timed runner is traced, so
/// traced and untraced ops see the same load, checkpoints included.
class OpRunner {
public:
    /// `top` is the outermost client decorator (bytes, envelope key);
    /// `rpcs` are the node-link decorators whose time is net.rpc. A
    /// warm-up runner (`timed` false) never traces: its last op can start
    /// after the tracer is switched on, and its stats are dropped.
    OpRunner(Tracer& tracer, TimedTransport& top,
             std::vector<TimedTransport*> rpcs, ThreadStats& stats,
             std::uint64_t thread_tag, bool timed)
        : tracer_(tracer), top_(top), rpcs_(std::move(rpcs)), stats_(stats),
          read_tag_((thread_tag + 1) << 48), timed_(timed) {}

    /// `due_ns` > 0 times the op from when it was due (open loop).
    bool update(MieClient& client, const sim::MultimodalObject& object,
                std::int64_t due_ns = 0) {
        return run(client, true, due_ns, [&] { client.update(object); });
    }

    bool remove(MieClient& client, std::uint64_t id, std::int64_t due_ns) {
        return run(client, true, due_ns, [&] { client.remove(id); });
    }

    std::optional<std::vector<SearchResult>> search(
        MieClient& client, const sim::MultimodalObject& query,
        std::int64_t due_ns = 0) {
        std::vector<SearchResult> results;
        const std::uint64_t down_before = top_.bytes_down;
        const bool ok = run(client, false, due_ns, [&] {
            results = client.search(query, kTopK);
        });
        if (!ok) return std::nullopt;
        if (last_traced_) {
            const auto work = client.last_search_work();
            stats_.postings += work.postings_scored;
            stats_.query_descriptors += work.query_descriptors;
            stats_.descriptors_kept += work.descriptors_kept;
            stats_.search_response_bytes += top_.bytes_down - down_before;
        }
        return results;
    }

private:
    std::int64_t rpc_ns() const {
        std::int64_t total = 0;
        for (const TimedTransport* rpc : rpcs_) total += rpc->call_ns;
        return total;
    }

    template <typename F>
    bool run(MieClient& client, bool mutation, std::int64_t due_ns, F&& op) {
        const bool tracing = timed_ && tracer_.enabled();
        const bool traced = tracing && ops_++ % 2 == 0;
        const OpKey read_key{read_tag_ | ++reads_, 1};
        begin_thread_op(traced, read_key);
        const sim::CostMeter& meter = client.meter();
        const double index_before = meter.seconds(sim::SubOp::kIndex);
        const double encrypt_before = meter.seconds(sim::SubOp::kEncrypt);
        const std::uint64_t up_before = top_.bytes_up;
        const std::int64_t rpc_before = rpc_ns();

        ++stats_.attempted;
        const std::int64_t start = now_ns();
        bool ok = true;
        try {
            op();
        } catch (const std::exception&) {
            ok = false;
        }
        const std::int64_t end = now_ns();
        const std::int64_t ready = std::max(due_ns, previous_end_);
        previous_end_ = end;
        last_traced_ = false;
        if (!ok) {
            ++stats_.failed;
            ++stats_.slo_misses;
            try {
                top_.reconnect();
            } catch (const std::exception&) {
                // The next op fails and is counted too.
            }
            return false;
        }

        const double latency = ms_between(due_ns > 0 ? due_ns : start, end);
        if (due_ns > 0) stats_.lag_ms.push_back(ms_between(ready, start));
        if (latency > kLatencyLimitMs) ++stats_.slo_misses;
        stats_.done.emplace_back(end, latency);
        const std::uint64_t up = top_.bytes_up - up_before;
        stats_.request_bytes += up;
        if (mutation) {
            stats_.update_ms.push_back(latency);
            stats_.mutation_request_bytes += up;
            ++stats_.mutations;
        } else {
            stats_.search_ms.push_back(latency);
            ++stats_.searches;
        }

        if (traced) {
            last_traced_ = true;
            const OpKey key = mutation ? top_.last_key() : read_key;
            const auto index_ns = static_cast<std::int64_t>(
                (meter.seconds(sim::SubOp::kIndex) - index_before) * 1e9);
            const auto encrypt_ns = static_cast<std::int64_t>(
                (meter.seconds(sim::SubOp::kEncrypt) - encrypt_before) * 1e9);
            // The meter gives durations; extraction runs first in every
            // MieClient op, DPE/AES right after it.
            tracer_.record(key, "op", "", start, end);
            tracer_.record(key, "client.extract", "op", start,
                           start + index_ns);
            tracer_.record(key, "client.encrypt", "op", start + index_ns,
                           start + index_ns + encrypt_ns);
            stats_.traced_lat_ms.push_back(ms_between(start, end));
            stats_.request_bytes_traced += up;
            const double rpc = static_cast<double>(rpc_ns() - rpc_before) / 1e6;
            if (mutation) {
                ++stats_.traced_mutations;
                stats_.rpc_update_ms += rpc;
            } else {
                ++stats_.traced_searches;
                stats_.rpc_search_ms += rpc;
            }
        } else if (tracing) {
            stats_.untraced_lat_ms.push_back(ms_between(start, end));
        }
        return true;
    }

    Tracer& tracer_;
    TimedTransport& top_;
    std::vector<TimedTransport*> rpcs_;
    ThreadStats& stats_;
    std::uint64_t read_tag_;
    bool timed_;
    std::uint64_t reads_ = 0;
    std::uint64_t ops_ = 0;
    bool last_traced_ = false;
    std::int64_t previous_end_ = 0;
};

// ---------------------------------------------------------------------------
// Reporting shared by the workloads
// ---------------------------------------------------------------------------

/// `start`..`end` is the timed phase.
void report_end_to_end(RunResult& r, const ThreadStats& s,
                       const std::vector<double>& setups, std::int64_t start,
                       std::int64_t end, double map_pct) {
    std::vector<double> all = s.update_ms;
    all.insert(all.end(), s.search_ms.begin(), s.search_ms.end());
    const double completed = static_cast<double>(s.mutations + s.searches);
    const double wall_s = ms_between(start, end) / 1e3;
    const std::size_t num_windows =
        std::clamp(s.done.size() / kWindowOps, kMinWindows, kMaxWindows);
    std::vector<std::vector<double>> windows(num_windows);
    for (const auto& [at, latency] : s.done) {
        const auto w = static_cast<std::size_t>(
            static_cast<double>(at - start) / static_cast<double>(end - start) *
            static_cast<double>(num_windows));
        windows[std::min(w, num_windows - 1)].push_back(latency);
    }
    std::vector<double> rates, p50s, p90s, p99s;
    for (const auto& window : windows) {
        rates.push_back(static_cast<double>(window.size()) /
                        (wall_s / static_cast<double>(num_windows)));
        // A window in which no op completed (a stall longer than the
        // window) has a rate of 0 and no latencies.
        if (window.empty()) continue;
        p50s.push_back(percentile(window, 0.50));
        p90s.push_back(percentile(window, 0.90));
        p99s.push_back(percentile(window, 0.99));
    }
    r.attempted = s.attempted;
    r.failed = s.failed;
    r.add("setup_s", median(setups), "s");
    r.add("throughput_ops_s", median(rates), "1/s");
    r.add("p50_ms", median(p50s), "ms");
    r.add("p99_ms", median(p99s), "ms");
    r.add("p90_ms", median(p90s), "ms");
    r.add("window_throughput_min", *std::min_element(rates.begin(), rates.end()),
          "1/s");
    r.add("window_throughput_max", *std::max_element(rates.begin(), rates.end()),
          "1/s");
    r.add("run_throughput_ops_s", completed / wall_s, "1/s");
    r.add("run_p50_ms", percentile(all, 0.50), "ms");
    r.add("run_p99_ms", percentile(all, 0.99), "ms");
    r.add("update_p50_ms", percentile(s.update_ms, 0.50), "ms");
    r.add("update_p99_ms", percentile(s.update_ms, 0.99), "ms");
    r.add("search_p50_ms", percentile(s.search_ms, 0.50), "ms");
    r.add("search_p99_ms", percentile(s.search_ms, 0.99), "ms");
    r.add("slo_miss_frac",
          ratio(static_cast<double>(s.slo_misses),
                static_cast<double>(s.attempted)),
          "fraction");
    r.add("error_frac",
          ratio(static_cast<double>(s.failed),
                static_cast<double>(s.attempted)),
          "fraction");
    r.add("search_map_pct", map_pct, "%");
    r.add("request_bytes_per_op",
          ratio(static_cast<double>(s.request_bytes), completed), "bytes");
    r.add("upload_bytes_per_update",
          ratio(static_cast<double>(s.mutation_request_bytes),
                static_cast<double>(s.mutations)),
          "bytes");
    r.add("samples", completed, "count");
    r.add("windows", static_cast<double>(num_windows), "count");
}

/// `cluster`: ops go through ClusterClient (fleet_mixed).
void report_layers(RunResult& r, const Tracer& tracer, const ThreadStats& s,
                   const ReactorCounters& rc, const RunOptions& options,
                   bool cluster) {
    const LayerCounters& c = tracer.counters;
    const auto d = [](const auto& v) { return static_cast<double>(v); };
    const double ops = d(s.traced_lat_ms.size());
    // The layer counters cover every op of the timed phase.
    const double muts = d(s.mutations);

    const Tracer::StageTimes times = tracer.stage_times();
    const std::size_t rooted = times.ops;
    const auto stage = [&](const char* span) {
        const auto it = times.self_ms.find(span);
        return it == times.self_ms.end() ? 0.0 : it->second / d(rooted);
    };
    // Per-op self time of each stage. The root span's own self time is
    // what no stage accounts for, so it is not a stage.
    const std::vector<std::pair<const char*, const char*>> stages = {
        {"client.extract_ms", "client.extract"},
        {"client.encrypt_ms", "client.encrypt"},
        {"cluster.route_ms", "cluster.call"},
        {"reactor.wire_queue_ms", "net.rpc"},
        {"server.batch_self_ms", "server.batch"},
        {"server.read_self_ms", "server.read"},
        {"store.io_ms", "store.vfs"},
    };
    double stage_sum = 0.0;
    for (const auto& [metric, span] : stages) {
        const double v = rooted ? stage(span) : std::nan("");
        r.add(metric, v, "ms");
        stage_sum += v;
    }
    r.add("client.request_bytes", ratio(d(s.request_bytes_traced), ops),
          "bytes");
    r.add("net.rpc_update_ms",
          ratio(s.rpc_update_ms, d(s.traced_mutations)), "ms");
    r.add("net.rpc_search_ms",
          ratio(s.rpc_search_ms, d(s.traced_searches)), "ms");
    r.add("net.response_bytes",
          ratio(d(s.search_response_bytes), d(s.traced_searches)), "bytes");
    r.add("reactor.batch_size", ratio(d(rc.submitted), d(rc.batches)),
          "requests");
    r.add("reactor.admission_pauses", d(rc.admission_pauses), "count");
    r.add("reactor.backpressure_pauses", d(rc.backpressure_pauses), "count");
    r.add("server.batch_ms", ratio(d(c.batch_ns.load()) / 1e6, d(c.batches)),
          "ms");
    r.add("server.apply_ms",
          ratio(d(c.batch_ns.load() - c.batch_vfs_ns.load()) / 1e6,
                d(c.batches)),
          "ms");
    r.add("server.search_ms",
          ratio(d(c.search_ns.load()) / 1e6, d(c.searches)), "ms");
    r.add("store.fsync_ms",
          ratio(d(c.wal_fsync_ns.load()) / 1e6, d(c.wal_fsyncs)), "ms");
    r.add("store.fsyncs_per_update", ratio(d(c.wal_fsyncs), muts), "count");
    r.add("store.checkpoints", d(c.checkpoints), "count");
    r.add("store.checkpoint_ms",
          c.checkpoints ? d(c.checkpoint_ns.load()) / 1e6 / d(c.checkpoints)
                        : 0.0,
          "ms");
    r.add("store.bytes_per_update", ratio(d(c.bytes_written), muts),
          "bytes");
    const double searches = d(s.traced_searches);
    r.add("index.postings_scored", ratio(d(s.postings), searches), "count");
    r.add("index.query_descriptors",
          ratio(d(s.query_descriptors), searches), "count");
    r.add("index.descriptors_kept", ratio(d(s.descriptors_kept), searches),
          "count");

    // Reconciliation: stage self times against the harness's own
    // end-to-end timing of the same traced ops. A layer whose spans are
    // missing leaves its time unattributed and fails the check.
    const double e2e = ratio(std::accumulate(s.traced_lat_ms.begin(),
                                             s.traced_lat_ms.end(), 0.0),
                             ops);
    const double err = ratio(std::fabs(stage_sum - e2e), e2e);
    r.add("trace.ops", ops, "count");
    r.add("trace.untraced_ops", d(s.untraced_lat_ms.size()), "count");
    r.add("trace.stage_sum_ms", stage_sum, "ms");
    r.add("trace.e2e_mean_ms", e2e, "ms");
    r.add("trace.unattributed_ms", rooted ? stage("op") : std::nan(""), "ms");
    r.add("trace.reconcile_err_pct", 100.0 * err, "%");
    r.check(!s.traced_lat_ms.empty(), "traced run traced no operation");
    // Coverage: every traced op has a span of each layer on its path. A
    // layer below the root whose spans were missing would hide in its
    // parent's self time instead of showing as unattributed.
    const auto spans_in = [&](const std::string& span) {
        const auto it = times.ops_with.find(span);
        return it == times.ops_with.end() ? std::size_t{0} : it->second;
    };
    const std::size_t both = s.traced_mutations + s.traced_searches;
    const std::vector<std::pair<std::string, std::size_t>> paths = {
        {"client.extract", both},
        {"client.encrypt", both},
        {"cluster.call", cluster ? both : 0},
        {"net.rpc", both},
        {"server.batch", s.traced_mutations},
        {"store.vfs", s.traced_mutations},
        {"server.read", s.traced_searches},
    };
    r.check(rooted == both, "traced ops without a root span");
    for (const auto& [span, want] : paths) {
        r.check(spans_in(span) == want,
                std::to_string(spans_in(span)) + " traced ops have " + span +
                    " spans, " + std::to_string(want) + " expected");
    }
    r.check(err <= kReconcileTolerance,
            "stage self times do not sum to the traced end-to-end mean "
            "within " +
                std::to_string(100.0 * kReconcileTolerance) + "%");
    // Medians: a checkpoint stalls a few ops for about a second each, and
    // the means would differ by which of the two sets those few fell in.
    const double traced_p50 = percentile(s.traced_lat_ms, 0.50);
    const double untraced_p50 = percentile(s.untraced_lat_ms, 0.50);
    r.add("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
    r.add("trace.overhead_pct",
          100.0 * ratio(traced_p50 - untraced_p50, untraced_p50), "%");
    r.add("trace.spans", d(tracer.num_spans()), "count");

    fs::create_directories(options.out_dir);
    const fs::path file =
        options.out_dir / (options.workload + "-seed" +
                           std::to_string(options.seed) + ".spans.jsonl");
    tracer.write(file);
    r.trace_file = file.string();
}

/// Cluster metrics that do not apply to single-node workloads.
void report_no_cluster(RunResult& r) {
    r.add("cluster.repl_pump_ms", std::nan(""), "ms");
    r.add("cluster.repl_records_per_pump", std::nan(""), "count");
    r.add("cluster.repl_lag_records", std::nan(""), "count");
    r.add("cluster.shard_ops_skew", std::nan(""), "ratio");
    r.add("generator_lag_ms", std::nan(""), "ms");
}

std::string workload_json(
    const std::vector<std::pair<std::string, std::string>>& fields) {
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i) out << ",";
        out << "\"" << fields[i].first << "\":" << fields[i].second;
    }
    out << "}";
    return out.str();
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

/// Peak resident set size of this process so far.
double peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Runs `op(w, link, runner)` back to back on one thread per link: for
/// kWarmupSeconds unrecorded, then for `options.seconds` into `stats[w]`.
/// `at_start` runs on this thread as the timed phase begins. Returns the
/// timed phase's start and the end of its last op.
template <typename Op>
std::pair<std::int64_t, std::int64_t> closed_loop(
    const RunOptions& options, Tracer& tracer,
    std::vector<std::unique_ptr<ClientLink>>& links,
    std::vector<ThreadStats>& stats, const std::function<void()>& at_start,
    Op&& op) {
    const std::int64_t start =
        now_ns() + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(options.seconds * 1e9);
    std::atomic<std::int64_t> last_end{start};
    std::vector<std::exception_ptr> errors(links.size());
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < links.size(); ++w) {
        threads.emplace_back([&, w] {
            try {
                ClientLink& link = *links[w];
                ThreadStats warm;
                OpRunner warm_runner(tracer, link.timed, {&link.timed}, warm,
                                     w + links.size(), false);
                while (now_ns() < start) op(w, link, warm_runner);
                OpRunner runner(tracer, link.timed, {&link.timed}, stats[w],
                                w, true);
                while (now_ns() < deadline) op(w, link, runner);
                std::int64_t prev = last_end.load();
                const std::int64_t end = now_ns();
                while (prev < end &&
                       !last_end.compare_exchange_weak(prev, end)) {
                }
            } catch (...) {
                errors[w] = std::current_exception();
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(start - now_ns()));
    at_start();
    tracer.set_enabled(options.trace);
    note("timed phase started");
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline - now_ns()));
    note("timed phase ended; waiting for in-flight ops");
    for (auto& thread : threads) thread.join();
    // The ops in flight at the deadline are counted, so the layer counters
    // run until they end.
    tracer.set_enabled(false);
    note("load threads joined");
    for (const auto& error : errors) {
        if (error) std::rethrow_exception(error);
    }
    return {start, last_end.load()};
}

// ---------------------------------------------------------------------------
// Single-node set-up: create, load through kClients connections, train.
// ---------------------------------------------------------------------------

struct LoadedNode {
    std::unique_ptr<SingleNode> node;
    std::vector<std::unique_ptr<ClientLink>> links;
};

LoadedNode load_single_node(const fs::path& dir, Tracer& tracer,
                            const RepositoryKey& key, const std::string& repo,
                            const std::vector<sim::MultimodalObject>& objects,
                            std::vector<double>& setups) {
    LoadedNode loaded;
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
        loaded.links.clear();
        loaded.node.reset();
        fs::remove_all(dir);
        const Stopwatch watch;
        loaded.node = std::make_unique<SingleNode>(dir, tracer);
        for (std::size_t c = 0; c < kClients; ++c) {
            loaded.links.push_back(std::make_unique<ClientLink>(
                loaded.node->hosted.reactor.port(), tracer, key, repo));
        }
        loaded.links[0]->client.create_repository();
        parallel(kClients, [&](std::size_t c) {
            for (std::size_t i = c; i < objects.size(); i += kClients) {
                loaded.links[c]->client.update(objects[i]);
            }
        });
        loaded.links[0]->client.train();
        setups.push_back(watch.elapsed_seconds());
        note("set-up " + std::to_string(rep + 1) + " done");
    }
    return loaded;
}

/// Position of `id` in `results`, if present.
std::optional<std::size_t> rank_of(const std::vector<SearchResult>& results,
                                   std::uint64_t id) {
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].object_id == id) return i;
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------------
// ingest: closed-loop writers of fresh objects into one trained repository
// ---------------------------------------------------------------------------

RunResult run_ingest(const RunOptions& options) {
    RunResult r;
    Tracer tracer;
    const sim::FlickrLikeGenerator generator(sim::FlickrLikeParams{
        .num_classes = 20, .image_size = kIngestImagePx,
        .seed = options.seed});
    const std::string repo = "ingest";
    const RepositoryKey key =
        make_key("perfbench-ingest-" + std::to_string(options.seed));
    const auto preload = generator.make_batch(1, kIngestPreload);

    std::vector<double> setups;
    LoadedNode loaded = load_single_node(options.state_dir / "ingest", tracer,
                                         key, repo, preload, setups);
    SingleNode& node = *loaded.node;

    r.add("setup_peak_rss_mb", peak_rss_mb(), "MB");
    std::vector<ThreadStats> stats(kClients);
    std::vector<std::vector<std::uint64_t>> acked(kClients);
    std::vector<std::uint64_t> sent(kClients, 0);
    ReactorCounters before;
    std::size_t checkpoints_before = 0;
    const auto [start, end] = closed_loop(
        options, tracer, loaded.links, stats,
        [&] {
            before = ReactorCounters::of(node.hosted);
            checkpoints_before =
                node.durable.durability().checkpoints_written;
        },
        [&](std::size_t w, ClientLink& link, OpRunner& runner) {
            const std::uint64_t id = kFreshIdBase * (w + 1) + sent[w]++;
            if (runner.update(link.client, generator.make(id))) {
                acked[w].push_back(id);
            }
        });
    const ReactorCounters rc = ReactorCounters::of(node.hosted) - before;

    ThreadStats all;
    for (const auto& s : stats) all.merge(s);

    // End state: every acked update is present exactly once.
    std::size_t total_acked = 0;
    for (const auto& ids : acked) total_acked += ids.size();
    const auto repo_stats = node.durable.server().stats(repo);
    r.check(repo_stats.num_objects == kIngestPreload + total_acked,
            "object count " + std::to_string(repo_stats.num_objects) +
                " != loaded + acked " +
                std::to_string(kIngestPreload + total_acked));
    r.check(node.durable.durability().replays_suppressed == 0,
            "replays_suppressed != 0");

    // Sampled round trips: search for sampled acked objects; every result
    // (preloaded or fresh, all from `generator`) must decrypt to its
    // generated object. Where the sample ranks is retrieval quality.
    SplitMix64 rng(options.seed ^ 0x5A3D1E5ULL);
    std::vector<std::uint64_t> sampled;
    for (std::size_t i = 0; i < kIngestSamples && total_acked > 0; ++i) {
        const auto& ids = acked[rng.next_below(kClients)];
        if (!ids.empty()) sampled.push_back(ids[rng.next_below(ids.size())]);
    }
    std::vector<double> ap(sampled.size(), 0.0);
    std::vector<std::size_t> round_trips(kClients, 0);
    std::vector<std::size_t> mismatched(kClients, 0);
    parallel(kClients, [&](std::size_t c) {
        MieClient& probe = loaded.links[c]->client;
        for (std::size_t i = c; i < sampled.size(); i += kClients) {
            const auto results =
                probe.search(generator.make(sampled[i]), kTopK);
            if (const auto rank = rank_of(results, sampled[i])) {
                ap[i] = 1.0 / static_cast<double>(*rank + 1);
            }
            if (i >= kIngestRoundTrips) continue;
            for (const SearchResult& result : results) {
                ++round_trips[c];
                bool same = false;
                try {
                    same = encode_object(probe.decrypt_result(result)) ==
                           encode_object(generator.make(result.object_id));
                } catch (const std::exception&) {
                }
                if (!same) ++mismatched[c];
            }
        }
    });
    const auto sum = [](const std::vector<std::size_t>& v) {
        return std::accumulate(v.begin(), v.end(), std::size_t{0});
    };
    r.check(sum(round_trips) > 0, "no sampled round trip");
    r.check(sum(mismatched) == 0,
            std::to_string(sum(mismatched)) + " of " +
                std::to_string(sum(round_trips)) +
                " sampled results do not decrypt to the generated object");
    const double ap_sum = std::accumulate(ap.begin(), ap.end(), 0.0);

    report_end_to_end(r, all, setups, start, end,
                      100.0 * ratio(ap_sum, static_cast<double>(ap.size())));
    r.add("checkpoints_in_run",
          static_cast<double>(node.durable.durability().checkpoints_written -
                              checkpoints_before),
          "count");
    if (options.trace) report_layers(r, tracer, all, rc, options, false);
    report_no_cluster(r);
    r.workload_json = workload_json({
        {"loop", quoted("closed")},
        {"threads", std::to_string(kClients)},
        {"connections", std::to_string(kClients)},
        {"preloaded_objects", std::to_string(kIngestPreload)},
        {"image_px", std::to_string(kIngestImagePx)},
        {"ops", quoted("update of fresh objects")},
        {"acked_updates", std::to_string(total_acked)},
        {"rate_ops_s", "null"},
        {"latency_limit_ms", std::to_string(kLatencyLimitMs)},
        {"warmup_s", std::to_string(kWarmupSeconds)},
        {"setup_repetitions", std::to_string(kSetupReps)},
    });
    note("results collected; stopping the stack");
    return r;
}

// ---------------------------------------------------------------------------
// search: closed-loop exact searches over a 10^4-object repository
// ---------------------------------------------------------------------------

RunResult run_search(const RunOptions& options) {
    RunResult r;
    Tracer tracer;
    const auto dataset =
        sim::HolidaysLikeGenerator(
            sim::HolidaysLikeParams{.num_groups = kSearchGroups,
                                    .group_size = kSearchGroupSize,
                                    .image_size = kSearchImagePx,
                                    .seed = options.seed})
            .generate();
    const std::string repo = "search";
    const RepositoryKey key =
        make_key("perfbench-search-" + std::to_string(options.seed));
    std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> groups;
    for (const auto& object : dataset.objects) {
        groups[object.label].push_back(object.id);
    }

    std::vector<double> setups;
    LoadedNode loaded = load_single_node(options.state_dir / "search", tracer,
                                         key, repo, dataset.objects, setups);
    SingleNode& node = *loaded.node;

    // Every searcher draws the next query from one seeded permutation.
    std::vector<std::size_t> order = dataset.query_indices;
    SplitMix64 shuffle(options.seed ^ 0x5EA5C4ULL);
    for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[shuffle.next_below(i)]);
    }
    r.add("setup_peak_rss_mb", peak_rss_mb(), "MB");
    std::atomic<std::size_t> next{0};
    std::vector<ThreadStats> stats(kClients);
    std::vector<std::map<std::uint64_t, double>> query_ap(kClients);
    std::atomic<std::uint64_t> short_results{0};
    std::atomic<std::uint64_t> bad_decrypts{0};
    ReactorCounters before;
    const auto [start, end] = closed_loop(
        options, tracer, loaded.links, stats,
        [&] { before = ReactorCounters::of(node.hosted); },
        [&](std::size_t w, ClientLink& link, OpRunner& runner) {
            const auto& query = dataset.objects[order[next++ % order.size()]];
            const auto results = runner.search(link.client, query);
            if (!results) return;
            if (results->size() != kTopK) ++short_results;
            std::vector<std::uint64_t> ranked;
            for (const SearchResult& result : *results) {
                try {
                    if (link.client.decrypt_result(result).id !=
                        result.object_id) {
                        ++bad_decrypts;
                    }
                } catch (const std::exception&) {
                    ++bad_decrypts;
                }
                if (result.object_id != query.id) {
                    ranked.push_back(result.object_id);
                }
            }
            std::unordered_set<std::uint64_t> relevant;
            for (const std::uint64_t id : groups.at(query.label)) {
                if (id != query.id) relevant.insert(id);
            }
            query_ap[w].emplace(query.id,
                                eval::average_precision(ranked, relevant));
        });
    const ReactorCounters rc = ReactorCounters::of(node.hosted) - before;

    ThreadStats all;
    for (const auto& s : stats) all.merge(s);
    r.check(short_results == 0, std::to_string(short_results.load()) +
                                    " searches returned fewer than k results");
    r.check(bad_decrypts == 0, std::to_string(bad_decrypts.load()) +
                                   " search results did not decrypt");
    r.check(node.durable.durability().records_logged ==
                dataset.objects.size() + 2,
            "searches changed the log");
    // Exact search is deterministic, so each distinct query counts once.
    std::map<std::uint64_t, double> per_query;
    for (const auto& m : query_ap) per_query.insert(m.begin(), m.end());
    double ap_sum = 0.0;
    for (const auto& [id, ap] : per_query) ap_sum += ap;

    report_end_to_end(
        r, all, setups, start, end,
        100.0 * ratio(ap_sum, static_cast<double>(per_query.size())));
    r.add("distinct_queries", static_cast<double>(per_query.size()), "count");
    if (options.trace) report_layers(r, tracer, all, rc, options, false);
    report_no_cluster(r);
    r.workload_json = workload_json({
        {"loop", quoted("closed")},
        {"threads", std::to_string(kClients)},
        {"connections", std::to_string(kClients)},
        {"preloaded_objects", std::to_string(dataset.objects.size())},
        {"groups", std::to_string(kSearchGroups)},
        {"image_px", std::to_string(kSearchImagePx)},
        {"ops", quoted("exact search, top_k 10, search_probes 0")},
        {"rate_ops_s", "null"},
        {"latency_limit_ms", std::to_string(kLatencyLimitMs)},
        {"warmup_s", std::to_string(kWarmupSeconds)},
        {"setup_repetitions", std::to_string(kSetupReps)},
    });
    note("results collected; stopping the stack");
    return r;
}

// ---------------------------------------------------------------------------
// fleet_mixed: open-loop FleetScript replay on a replicated 2-shard cluster
// ---------------------------------------------------------------------------

struct PrimaryNode {
    PrimaryNode(const fs::path& dir, Tracer& tracer)
        : vfs(store::PosixVfs::instance(), tracer),
          node(vfs, dir,
               cluster::NodeOptions{.role = cluster::Role::kPrimary,
                                    .storage = durable_options()}),
          hosted(node, node,
                 [this] {
                     return node.durable().durability().checkpoints_written;
                 },
                 tracer) {}

    TimedVfs vfs;
    cluster::Node node;
    Hosted hosted;
};

struct ShardReplicas {
    ShardReplicas(const fs::path& dir, Tracer& tracer)
        : primary(dir / "p", tracer),
          follower(store::PosixVfs::instance(), dir / "f",
                   cluster::NodeOptions{.role = cluster::Role::kFollower,
                                        .storage = durable_options()}),
          pull("127.0.0.1", primary.hosted.reactor.port()),
          replicator(follower, pull) {}

    PrimaryNode primary;
    cluster::Node follower;
    net::TcpTransport pull;
    cluster::Replicator replicator;
};

/// One sender thread's client side: a connection per shard, the
/// ClusterClient over them, and a MieClient per owned repository.
struct Sender {
    Sender(const std::vector<std::unique_ptr<ShardReplicas>>& shards,
           Tracer& tracer) {
        std::vector<cluster::ShardEndpoints> endpoints;
        for (const auto& shard : shards) {
            tcps.push_back(std::make_unique<net::TcpTransport>(
                "127.0.0.1", shard->primary.hosted.reactor.port()));
            links.push_back(std::make_unique<TimedTransport>(
                *tcps.back(), tracer, "net.rpc", "cluster.call",
                /*registers=*/true));
            endpoints.push_back({links.back().get(), nullptr});
        }
        cluster = std::make_unique<cluster::ClusterClient>(endpoints);
        top = std::make_unique<TimedTransport>(*cluster, tracer,
                                               "cluster.call", "op",
                                               /*registers=*/false);
    }

    std::vector<TimedTransport*> rpcs() const {
        std::vector<TimedTransport*> out;
        for (const auto& link : links) out.push_back(link.get());
        return out;
    }

    std::vector<std::unique_ptr<net::TcpTransport>> tcps;
    std::vector<std::unique_ptr<TimedTransport>> links;
    std::unique_ptr<cluster::ClusterClient> cluster;
    std::unique_ptr<TimedTransport> top;
    std::map<std::uint32_t, std::unique_ptr<MieClient>> clients;
};

std::string fleet_repo(std::uint32_t repo) {
    return "fleet-" + std::to_string(repo);
}

std::vector<std::uint64_t> list_ids(cluster::Node& node,
                                    const std::string& repo) {
    net::MessageWriter writer;
    writer.write_u8(static_cast<std::uint8_t>(MieOp::kListObjects));
    writer.write_string(repo);
    const Bytes response = node.durable().server().handle(writer.take());
    net::MessageReader reader(response);
    const std::uint32_t count = reader.read_u32();
    std::vector<std::uint64_t> ids;
    for (std::uint32_t i = 0; i < count; ++i) {
        ids.push_back(reader.read_u64());
        reader.read_bytes();
    }
    return ids;
}

RunResult run_fleet(const RunOptions& options) {
    RunResult r;
    Tracer tracer;
    sim::FleetParams params;
    params.seed = options.seed;
    params.num_repositories = kFleetRepos;
    params.num_events =
        static_cast<std::size_t>(std::llround(options.seconds * kFleetRate));
    params.setup_objects_per_repo = kFleetSetupObjects;
    const sim::FleetScript script = sim::FleetScript::generate(params);

    std::vector<sim::FlickrLikeGenerator> generators;
    std::vector<RepositoryKey> keys;
    for (std::uint32_t repo = 0; repo < kFleetRepos; ++repo) {
        generators.emplace_back(sim::FlickrLikeParams{
            .num_classes = 8, .image_size = kFleetImagePx,
            .seed = options.seed * 1000 + repo});
        keys.push_back(make_key("perfbench-fleet-" +
                                std::to_string(options.seed) + "-" +
                                std::to_string(repo)));
    }

    const fs::path dir = options.state_dir / "fleet";
    std::vector<std::unique_ptr<ShardReplicas>> shards;
    std::vector<std::unique_ptr<Sender>> senders;
    std::vector<double> setups;
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
        senders.clear();
        shards.clear();
        fs::remove_all(dir);
        const Stopwatch watch;
        for (std::uint32_t s = 0; s < kFleetShards; ++s) {
            shards.push_back(std::make_unique<ShardReplicas>(
                dir / ("shard" + std::to_string(s)), tracer));
        }
        for (std::size_t t = 0; t < kFleetSenders; ++t) {
            senders.push_back(std::make_unique<Sender>(shards, tracer));
        }
        parallel(kFleetSenders, [&](std::size_t t) {
            Sender& sender = *senders[t];
            for (std::uint32_t repo = t; repo < kFleetRepos;
                 repo += kFleetSenders) {
                auto client = std::make_unique<MieClient>(
                    *sender.top, fleet_repo(repo), keys[repo],
                    to_bytes(kUserSecret));
                client->train_params.tree_branch = 8;
                client->train_params.tree_depth = 2;
                client->create_repository();
                for (const std::uint64_t id : script.setup[repo]) {
                    client->update(generators[repo].make(id));
                }
                client->train();
                sender.clients.emplace(repo, std::move(client));
            }
        });
        for (auto& shard : shards) shard->replicator.sync();
        setups.push_back(watch.elapsed_seconds());
    }
    r.add("setup_peak_rss_mb", peak_rss_mb(), "MB");

    // Replication runs beside the load, one pump per shard per round.
    struct ReplStats {
        std::uint64_t pumps = 0;
        std::int64_t pump_ns = 0;
        std::uint64_t records = 0;
        double lag_records = 0.0;
    } repl;
    std::atomic<bool> stop_repl{false};
    std::exception_ptr repl_error;
    std::thread replication([&] {
        try {
            while (!stop_repl.load()) {
                bool applied = false;
                for (auto& shard : shards) {
                    const double lag = static_cast<double>(
                        shard->primary.node.durable().durability().last_lsn -
                        shard->follower.acked_lsn());
                    const std::int64_t t0 = now_ns();
                    const auto round = shard->replicator.pump();
                    repl.pump_ns += now_ns() - t0;
                    ++repl.pumps;
                    repl.records += round.records_applied;
                    repl.lag_records += lag;
                    applied = applied || round.records_applied > 0;
                }
                if (!applied) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                }
            }
        } catch (...) {
            repl_error = std::current_exception();
        }
    });

    ReactorCounters before;
    for (const auto& shard : shards) {
        before += ReactorCounters::of(shard->primary.hosted);
    }
    std::vector<std::uint64_t> shard_calls_before(kFleetShards, 0);
    for (const auto& sender : senders) {
        for (std::uint32_t s = 0; s < kFleetShards; ++s) {
            shard_calls_before[s] += sender->links[s]->calls;
        }
    }
    std::vector<ThreadStats> stats(kFleetSenders);
    std::atomic<std::uint64_t> missed_self{0};
    tracer.set_enabled(options.trace);
    const std::int64_t start = now_ns();
    std::atomic<std::int64_t> last_end{start};
    const double interval_ns = 1e9 / kFleetRate;
    {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kFleetSenders; ++t) {
            threads.emplace_back([&, t] {
                Sender& sender = *senders[t];
                OpRunner runner(tracer, *sender.top, sender.rpcs(), stats[t],
                                t, true);
                for (std::size_t i = 0; i < script.events.size(); ++i) {
                    const sim::FleetEvent& event = script.events[i];
                    if (event.repo % kFleetSenders != t) continue;
                    MieClient& client = *sender.clients.at(event.repo);
                    std::optional<sim::MultimodalObject> object;
                    if (event.kind != sim::FleetOpKind::kRemove) {
                        object = generators[event.repo].make(event.object_id);
                    }
                    const std::int64_t due =
                        start + static_cast<std::int64_t>(
                                    static_cast<double>(i) * interval_ns);
                    const std::int64_t wait = due - now_ns();
                    if (wait > 0) {
                        std::this_thread::sleep_for(
                            std::chrono::nanoseconds(wait));
                    }
                    switch (event.kind) {
                        case sim::FleetOpKind::kAdd:
                        case sim::FleetOpKind::kUpdate:
                            runner.update(client, *object, due);
                            break;
                        case sim::FleetOpKind::kRemove:
                            runner.remove(client, event.object_id, due);
                            break;
                        case sim::FleetOpKind::kSearch: {
                            // The query is a live object: it should find
                            // itself (average precision = 1 / rank).
                            const auto results =
                                runner.search(client, *object, due);
                            if (!results) break;
                            const auto rank =
                                rank_of(*results, event.object_id);
                            if (!rank) ++missed_self;
                            stats[t].ap.push_back(
                                rank ? 1.0 / static_cast<double>(*rank + 1)
                                     : 0.0);
                            break;
                        }
                    }
                }
                std::int64_t prev = last_end.load();
                const std::int64_t end = now_ns();
                while (prev < end && !last_end.compare_exchange_weak(prev, end)) {
                }
            });
        }
        for (auto& thread : threads) thread.join();
    }
    tracer.set_enabled(false);
    stop_repl = true;
    replication.join();
    if (repl_error) std::rethrow_exception(repl_error);
    ReactorCounters rc;
    for (const auto& shard : shards) {
        rc += ReactorCounters::of(shard->primary.hosted);
    }
    rc = rc - before;
    std::vector<double> shard_calls(kFleetShards, 0.0);
    for (const auto& sender : senders) {
        for (std::uint32_t s = 0; s < kFleetShards; ++s) {
            shard_calls[s] += static_cast<double>(sender->links[s]->calls);
        }
    }
    double max_calls = 0.0;
    double sum_calls = 0.0;
    for (std::uint32_t s = 0; s < kFleetShards; ++s) {
        shard_calls[s] -= static_cast<double>(shard_calls_before[s]);
        max_calls = std::max(max_calls, shard_calls[s]);
        sum_calls += shard_calls[s];
    }

    ThreadStats all;
    for (const auto& s : stats) all.merge(s);

    // End state: each repository holds exactly the script's live ids, and
    // each caught-up follower is bitwise equal to its primary.
    const cluster::Router router(kFleetShards);
    for (std::uint32_t repo = 0; repo < kFleetRepos; ++repo) {
        auto& primary =
            shards[router.shard_of(fleet_repo(repo))]->primary.node;
        std::vector<std::uint64_t> want = script.live[repo];
        std::sort(want.begin(), want.end());
        r.check(list_ids(primary, fleet_repo(repo)) == want,
                fleet_repo(repo) + " ids differ from FleetScript::live");
    }
    for (std::uint32_t s = 0; s < kFleetShards; ++s) {
        shards[s]->replicator.sync();
        r.check(shards[s]->primary.node.durable().server().export_snapshot() ==
                    shards[s]->follower.durable().server().export_snapshot(),
                "shard " + std::to_string(s) +
                    " follower state differs from its primary");
    }
    const double lag_p99 = percentile(all.lag_ms, 0.99);
    r.check(lag_p99 <= kLatencyLimitMs,
            "invalid run: generator lag p99 exceeds the latency limit");

    double ap_sum = 0.0;
    for (const double ap : all.ap) ap_sum += ap;
    report_end_to_end(r, all, setups, start, last_end.load(),
                      100.0 * ratio(ap_sum, static_cast<double>(all.ap.size())));
    r.add("searches_missing_self", static_cast<double>(missed_self.load()),
          "count");
    if (options.trace) report_layers(r, tracer, all, rc, options, true);
    r.add("cluster.repl_pump_ms",
          ratio(static_cast<double>(repl.pump_ns) / 1e6,
                static_cast<double>(repl.pumps)),
          "ms");
    r.add("cluster.repl_records_per_pump",
          ratio(static_cast<double>(repl.records),
                static_cast<double>(repl.pumps)),
          "count");
    r.add("cluster.repl_lag_records",
          ratio(repl.lag_records, static_cast<double>(repl.pumps)), "count");
    r.add("cluster.shard_ops_skew",
          ratio(max_calls, sum_calls / kFleetShards), "ratio");
    r.add("generator_lag_ms", lag_p99, "ms");
    r.workload_json = workload_json({
        {"loop", quoted("open")},
        {"threads", quoted(std::to_string(kFleetSenders) +
                           " senders + 1 replication")},
        {"connections",
         quoted(std::to_string(kFleetSenders * kFleetShards) + " client + " +
                std::to_string(kFleetShards) + " replication")},
        {"shards", std::to_string(kFleetShards)},
        {"repositories", std::to_string(kFleetRepos)},
        {"setup_objects_per_repo", std::to_string(kFleetSetupObjects)},
        {"events", std::to_string(script.events.size())},
        {"mix", quoted("45% add, 35% search, 12% update, 8% remove; Zipf 1.1")},
        {"image_px", std::to_string(kFleetImagePx)},
        {"rate_ops_s", std::to_string(kFleetRate)},
        {"latency_limit_ms", std::to_string(kLatencyLimitMs)},
        {"setup_repetitions", std::to_string(kSetupReps)},
    });
    note("results collected; stopping the stack");
    return r;
}

}  // namespace

RunResult run_workload(const RunOptions& options) {
    RunResult result;
    if (options.workload == "ingest") {
        result = run_ingest(options);
    } else if (options.workload == "search") {
        result = run_search(options);
    } else if (options.workload == "fleet_mixed") {
        result = run_fleet(options);
    } else {
        throw std::invalid_argument("unknown workload: " + options.workload);
    }
    note("stack stopped");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
}

}  // namespace perfbench
