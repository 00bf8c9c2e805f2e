// Tracing for the benchmark's traced run: spans recorded around calls
// into each layer's public interfaces, from decorators the benchmark
// passes into the stack. Nothing inside the program is instrumented.
//
// A span is (key, name, parent, start, end). The key is the request's
// idempotency envelope (client_id, seq) for mutations. Searches carry no
// envelope, so the harness tags each one with a benchmark-assigned key.
//
// The harness traces every other op of each load thread. The client-side
// decorator registers each request of a traced op before sending it (by
// envelope, or by a hash of the request bytes for searches); the
// server-side decorators record spans only for registered requests. So
// traced and untraced ops interleave on the same stack for the whole
// timed phase, and no op is left out of both sets.
//
// Span tree of one operation:
//   op                          harness: one MieClient call
//   ├─ client.extract           from MieClient::meter(), Index bucket
//   ├─ client.encrypt           from MieClient::meter(), Encrypt bucket
//   └─ cluster.call             ClusterClient::call (fleet only)
//      └─ net.rpc               Transport::call on the node link
//         ├─ server.batch       BatchRequestHandler::handle_batch
//         │  └─ store.vfs       each store::File / Vfs call in the batch
//         └─ server.read        RequestHandler::handle (read path)
//
// While the tracer is enabled (the timed phase of a traced run) the
// layer counters count every batch, search and file operation. When it is
// disabled every decorator is a pass-through (the client-side one still
// counts calls and bytes).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/batch.hpp"
#include "net/transport.hpp"
#include "store/file.hpp"

namespace perfbench {

using mie::Bytes;
using mie::BytesView;

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct OpKey {
    std::uint64_t client = 0;
    std::uint64_t seq = 0;
    bool operator==(const OpKey&) const = default;
    bool valid() const { return client != 0 || seq != 0; }
};

struct OpKeyHash {
    std::size_t operator()(const OpKey& key) const {
        return std::hash<std::uint64_t>{}(key.client * 0x9e3779b97f4a7c15ULL ^
                                          key.seq);
    }
};

struct Span {
    OpKey key;
    const char* name = "";
    const char* parent = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/// Set by the harness before each op on its thread: whether the op is
/// traced, and the key of its non-enveloped requests (searches).
void begin_thread_op(bool traced, OpKey read_key);

/// Counters of the layers that are not per-request (all gated by the
/// tracer being enabled).
struct LayerCounters {
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::int64_t> batch_ns{0};
    std::atomic<std::int64_t> batch_vfs_ns{0};
    std::atomic<std::uint64_t> checkpoints{0};
    std::atomic<std::int64_t> checkpoint_ns{0};
    std::atomic<std::uint64_t> wal_fsyncs{0};
    std::atomic<std::int64_t> wal_fsync_ns{0};
    std::atomic<std::uint64_t> bytes_written{0};
    std::atomic<std::uint64_t> searches{0};
    std::atomic<std::int64_t> search_ns{0};
};

class Tracer {
public:
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void set_enabled(bool on) { enabled_.store(on); }

    void record(const OpKey& key, const char* name, const char* parent,
                std::int64_t start, std::int64_t end);

    /// Requests of traced ops in flight: the client side registers each
    /// one while it is sent, the server side looks it up by its bytes.
    void register_request(std::uint64_t id, OpKey key);
    void forget_request(std::uint64_t id, OpKey key);
    /// Key of a registered request; an invalid key if it is not traced.
    OpKey traced_key(std::uint64_t id) const;

    LayerCounters counters;

    struct StageTimes {
        std::size_t ops = 0;  ///< traced ops with an `op` root span
        /// Self time summed over those ops, by span name.
        std::map<std::string, double> self_ms;
        /// How many of those ops have at least one span of each name.
        std::map<std::string, std::size_t> ops_with;
    };
    StageTimes stage_times() const;

    /// Writes every span as one JSON object per line.
    void write(const std::filesystem::path& path) const;

    std::size_t num_spans() const;

private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;  // guarded by mutex_
    mutable std::mutex requests_mutex_;
    std::unordered_multimap<std::uint64_t, OpKey> requests_;  // requests_mutex_
};

/// Client-side Transport decorator: times call() of traced ops as span
/// `name` under `parent` and tallies calls and bytes. `registers` marks
/// the decorator next to the wire, which registers traced requests for
/// the server side. One thread per instance.
class TimedTransport final : public mie::net::Transport {
public:
    TimedTransport(mie::net::Transport& inner, Tracer& tracer,
                   const char* name, const char* parent, bool registers)
        : inner_(inner), tracer_(tracer), name_(name), parent_(parent),
          registers_(registers) {}

    Bytes call(BytesView request) override;
    void reconnect() override { inner_.reconnect(); }
    double network_seconds() const override {
        return inner_.network_seconds();
    }
    double server_seconds() const override { return inner_.server_seconds(); }

    /// Key of the most recent traced call.
    OpKey last_key() const { return last_key_; }

    // Counted on every call; call_ns only for traced ops.
    std::uint64_t calls = 0;
    std::uint64_t bytes_up = 0;
    std::uint64_t bytes_down = 0;
    std::int64_t call_ns = 0;

private:
    mie::net::Transport& inner_;
    Tracer& tracer_;
    const char* name_;
    const char* parent_;
    bool registers_;
    OpKey last_key_;
};

/// Server read path decorator (searches, replication pulls, stats).
class TimedHandler final : public mie::net::RequestHandler {
public:
    TimedHandler(mie::net::RequestHandler& inner, Tracer& tracer)
        : inner_(inner), tracer_(tracer) {}
    Bytes handle(BytesView request) override;

private:
    mie::net::RequestHandler& inner_;
    Tracer& tracer_;
};

/// Group-commit batch decorator. `checkpoints` reads the server's
/// checkpoint count so a batch that wrote one is recognised.
class TimedBatchHandler final : public mie::net::BatchRequestHandler {
public:
    TimedBatchHandler(mie::net::BatchRequestHandler& inner, Tracer& tracer,
                      std::function<std::size_t()> checkpoints)
        : inner_(inner), tracer_(tracer),
          checkpoints_(std::move(checkpoints)) {}
    std::vector<Result> handle_batch(
        const std::vector<Bytes>& requests) override;

private:
    mie::net::BatchRequestHandler& inner_;
    Tracer& tracer_;
    std::function<std::size_t()> checkpoints_;
};

/// store::Vfs decorator: times every file operation; inside a batch the
/// intervals become `store.vfs` spans of each request in the batch.
class TimedVfs final : public mie::store::Vfs {
public:
    TimedVfs(mie::store::Vfs& inner, Tracer& tracer)
        : inner_(inner), tracer_(tracer) {}

    std::unique_ptr<mie::store::File> open_append(
        const std::filesystem::path& path) override;
    std::unique_ptr<mie::store::File> create_truncate(
        const std::filesystem::path& path) override;
    Bytes read_file(const std::filesystem::path& path) const override {
        return inner_.read_file(path);
    }
    bool exists(const std::filesystem::path& path) const override {
        return inner_.exists(path);
    }
    std::uint64_t file_size(const std::filesystem::path& path) const override {
        return inner_.file_size(path);
    }
    std::vector<std::filesystem::path> list_dir(
        const std::filesystem::path& dir) const override {
        return inner_.list_dir(dir);
    }
    void remove_file(const std::filesystem::path& path) override;
    void truncate_file(const std::filesystem::path& path,
                       std::uint64_t new_size) override;
    void rename(const std::filesystem::path& from,
                const std::filesystem::path& to) override;
    void create_directories(const std::filesystem::path& dir) override;
    void sync_dir(const std::filesystem::path& dir) override;

private:
    mie::store::Vfs& inner_;
    Tracer& tracer_;
};

}  // namespace perfbench
