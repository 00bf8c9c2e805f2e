#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "mie/wire.hpp"
#include "net/envelope.hpp"

namespace perfbench {
namespace {

thread_local bool t_op_traced = false;
thread_local OpKey t_read_key;

/// The batch the committer thread is inside, so file operations can be
/// charged to the requests of that batch.
struct BatchContext {
    bool active = false;
    std::vector<std::pair<std::int64_t, std::int64_t>> io;
    std::int64_t io_ns = 0;
    std::int64_t last_wal_sync_end = 0;
};
thread_local BatchContext t_batch;

std::uint64_t fnv1a(BytesView bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint8_t b : bytes) {
        h = (h ^ b) * 0x100000001b3ULL;
    }
    return h;
}

std::optional<mie::net::Envelope> envelope_of(BytesView request) {
    try {
        return mie::net::parse_envelope(request);
    } catch (const std::invalid_argument&) {
        return std::nullopt;
    }
}

void note_io(std::int64_t start, std::int64_t end) {
    if (!t_batch.active) return;
    t_batch.io.emplace_back(start, end);
    t_batch.io_ns += end - start;
}

class TimedFile final : public mie::store::File {
public:
    TimedFile(std::unique_ptr<mie::store::File> inner, Tracer& tracer,
              bool wal)
        : inner_(std::move(inner)), tracer_(tracer), wal_(wal) {}

    void append(BytesView data) override {
        if (!tracer_.enabled()) return inner_->append(data);
        const std::int64_t start = now_ns();
        inner_->append(data);
        const std::int64_t end = now_ns();
        note_io(start, end);
        tracer_.counters.bytes_written += data.size();
    }

    void append_parts(BytesView header, BytesView payload) override {
        if (!tracer_.enabled()) return inner_->append_parts(header, payload);
        const std::int64_t start = now_ns();
        inner_->append_parts(header, payload);
        const std::int64_t end = now_ns();
        note_io(start, end);
        tracer_.counters.bytes_written += header.size() + payload.size();
    }

    void sync() override {
        if (!tracer_.enabled()) return inner_->sync();
        const std::int64_t start = now_ns();
        inner_->sync();
        const std::int64_t end = now_ns();
        note_io(start, end);
        if (wal_) {
            ++tracer_.counters.wal_fsyncs;
            tracer_.counters.wal_fsync_ns += end - start;
            t_batch.last_wal_sync_end = end;
        }
    }

    void flush_async() override {
        if (!tracer_.enabled()) return inner_->flush_async();
        const std::int64_t start = now_ns();
        inner_->flush_async();
        note_io(start, now_ns());
    }

    std::uint64_t size() const override { return inner_->size(); }

private:
    std::unique_ptr<mie::store::File> inner_;
    Tracer& tracer_;
    bool wal_;
};

bool is_wal_path(const std::filesystem::path& path) {
    return path.parent_path().filename() == "wal";
}

/// Runs a Vfs operation, charging its time to the current batch.
template <typename F>
void timed_io(const Tracer& tracer, F&& fn) {
    if (!tracer.enabled()) return fn();
    const std::int64_t start = now_ns();
    fn();
    note_io(start, now_ns());
}

/// Envelope (client_id, seq) of `request`, else the thread's read key.
OpKey key_of(BytesView request) {
    if (const auto env = envelope_of(request)) {
        return OpKey{env->client_id, env->seq};
    }
    return t_read_key;
}

/// Registry id of a request: its envelope key, else a hash of its bytes.
std::uint64_t request_id(BytesView request) {
    if (const auto env = envelope_of(request)) {
        return OpKeyHash{}(OpKey{env->client_id, env->seq});
    }
    return fnv1a(request);
}

}  // namespace

void begin_thread_op(bool traced, OpKey read_key) {
    t_op_traced = traced;
    t_read_key = read_key;
}

void Tracer::record(const OpKey& key, const char* name, const char* parent,
                    std::int64_t start, std::int64_t end) {
    const std::scoped_lock lock(mutex_);
    spans_.push_back(Span{key, name, parent, start, end});
}

void Tracer::register_request(std::uint64_t id, OpKey key) {
    const std::scoped_lock lock(requests_mutex_);
    requests_.emplace(id, key);
}

void Tracer::forget_request(std::uint64_t id, OpKey key) {
    const std::scoped_lock lock(requests_mutex_);
    auto [first, last] = requests_.equal_range(id);
    for (auto it = first; it != last; ++it) {
        if (it->second == key) {
            requests_.erase(it);
            return;
        }
    }
}

OpKey Tracer::traced_key(std::uint64_t id) const {
    const std::scoped_lock lock(requests_mutex_);
    const auto it = requests_.find(id);
    return it == requests_.end() ? OpKey{} : it->second;
}

std::size_t Tracer::num_spans() const {
    const std::scoped_lock lock(mutex_);
    return spans_.size();
}

Tracer::StageTimes Tracer::stage_times() const {
    const std::scoped_lock lock(mutex_);
    std::unordered_map<OpKey, std::vector<const Span*>, OpKeyHash> by_key;
    for (const Span& span : spans_) by_key[span.key].push_back(&span);

    StageTimes times;
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    std::vector<std::string_view> names;
    for (const auto& [key, spans] : by_key) {
        const bool rooted = std::any_of(
            spans.begin(), spans.end(),
            [](const Span* s) { return std::string_view(s->name) == "op"; });
        if (!rooted) continue;
        ++times.ops;
        names.clear();
        for (const Span* span : spans) names.emplace_back(span->name);
        std::sort(names.begin(), names.end());
        names.erase(std::unique(names.begin(), names.end()), names.end());
        for (const std::string_view name : names) {
            ++times.ops_with[std::string(name)];
        }
        for (const Span* span : spans) {
            // Self time: the span minus the union of its children,
            // clipped to the span's own interval.
            covered.clear();
            for (const Span* child : spans) {
                if (std::string_view(child->parent) != span->name) continue;
                const std::int64_t lo = std::max(child->start, span->start);
                const std::int64_t hi = std::min(child->end, span->end);
                if (hi > lo) covered.emplace_back(lo, hi);
            }
            std::sort(covered.begin(), covered.end());
            std::int64_t busy = 0;
            std::int64_t reach = span->start;
            for (const auto& [lo, hi] : covered) {
                const std::int64_t from = std::max(lo, reach);
                if (hi > from) busy += hi - from;
                reach = std::max(reach, hi);
            }
            times.self_ms[span->name] +=
                static_cast<double>(span->end - span->start - busy) / 1e6;
        }
    }
    return times;
}

void Tracer::write(const std::filesystem::path& path) const {
    const std::scoped_lock lock(mutex_);
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        throw std::runtime_error("perfbench: cannot write " + path.string());
    }
    for (const Span& s : spans_) {
        std::fprintf(out,
                     "{\"client\":%llu,\"seq\":%llu,\"name\":\"%s\","
                     "\"parent\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                     static_cast<unsigned long long>(s.key.client),
                     static_cast<unsigned long long>(s.key.seq), s.name,
                     s.parent, static_cast<long long>(s.start),
                     static_cast<long long>(s.end));
    }
    if (std::fclose(out) != 0) {
        throw std::runtime_error("perfbench: cannot write " + path.string());
    }
}

Bytes TimedTransport::call(BytesView request) {
    ++calls;
    bytes_up += request.size();
    if (!tracer_.enabled() || !t_op_traced) {
        Bytes response = inner_.call(request);
        bytes_down += response.size();
        return response;
    }
    const OpKey key = key_of(request);
    last_key_ = key;
    const std::uint64_t id = registers_ ? request_id(request) : 0;
    if (registers_) tracer_.register_request(id, key);
    const std::int64_t start = now_ns();
    Bytes response;
    try {
        response = inner_.call(request);
    } catch (...) {
        if (registers_) tracer_.forget_request(id, key);
        throw;
    }
    const std::int64_t end = now_ns();
    if (registers_) tracer_.forget_request(id, key);
    call_ns += end - start;
    bytes_down += response.size();
    tracer_.record(key, name_, parent_, start, end);
    return response;
}

Bytes TimedHandler::handle(BytesView request) {
    if (!tracer_.enabled()) return inner_.handle(request);
    const auto env = envelope_of(request);
    const OpKey key = tracer_.traced_key(request_id(request));
    const BytesView inner = env ? env->inner : request;
    const std::int64_t start = now_ns();
    Bytes response = inner_.handle(request);
    const std::int64_t end = now_ns();
    if (!inner.empty() &&
        inner[0] == static_cast<std::uint8_t>(mie::MieOp::kSearch)) {
        ++tracer_.counters.searches;
        tracer_.counters.search_ns += end - start;
    }
    if (key.valid()) tracer_.record(key, "server.read", "net.rpc", start, end);
    return response;
}

std::vector<mie::net::BatchRequestHandler::Result>
TimedBatchHandler::handle_batch(const std::vector<Bytes>& requests) {
    if (!tracer_.enabled()) return inner_.handle_batch(requests);
    std::vector<OpKey> keys;
    keys.reserve(requests.size());
    for (const Bytes& request : requests) {
        const OpKey key = tracer_.traced_key(request_id(request));
        if (key.valid()) keys.push_back(key);
    }
    const std::size_t checkpoints_before = checkpoints_();
    t_batch = BatchContext{};
    t_batch.active = true;
    const std::int64_t start = now_ns();
    std::vector<Result> results;
    try {
        results = inner_.handle_batch(requests);
    } catch (...) {
        t_batch.active = false;
        throw;
    }
    const std::int64_t end = now_ns();
    t_batch.active = false;

    LayerCounters& c = tracer_.counters;
    ++c.batches;
    c.batch_ns += end - start;
    c.batch_vfs_ns += t_batch.io_ns;
    const std::size_t checkpoints = checkpoints_() - checkpoints_before;
    if (checkpoints > 0) {
        // The checkpoint runs after the batch's WAL fsync, at its end.
        c.checkpoints += checkpoints;
        c.checkpoint_ns +=
            end - (t_batch.last_wal_sync_end > 0 ? t_batch.last_wal_sync_end
                                                 : start);
    }
    for (const OpKey& key : keys) {
        tracer_.record(key, "server.batch", "net.rpc", start, end);
        for (const auto& [lo, hi] : t_batch.io) {
            tracer_.record(key, "store.vfs", "server.batch", lo, hi);
        }
    }
    return results;
}

std::unique_ptr<mie::store::File> TimedVfs::open_append(
    const std::filesystem::path& path) {
    return std::make_unique<TimedFile>(inner_.open_append(path), tracer_,
                                       is_wal_path(path));
}

std::unique_ptr<mie::store::File> TimedVfs::create_truncate(
    const std::filesystem::path& path) {
    return std::make_unique<TimedFile>(inner_.create_truncate(path), tracer_,
                                       is_wal_path(path));
}

void TimedVfs::remove_file(const std::filesystem::path& path) {
    timed_io(tracer_, [&] { inner_.remove_file(path); });
}

void TimedVfs::truncate_file(const std::filesystem::path& path,
                             std::uint64_t new_size) {
    timed_io(tracer_, [&] { inner_.truncate_file(path, new_size); });
}

void TimedVfs::rename(const std::filesystem::path& from,
                      const std::filesystem::path& to) {
    timed_io(tracer_, [&] { inner_.rename(from, to); });
}

void TimedVfs::create_directories(const std::filesystem::path& dir) {
    timed_io(tracer_, [&] { inner_.create_directories(dir); });
}

void TimedVfs::sync_dir(const std::filesystem::path& dir) {
    timed_io(tracer_, [&] { inner_.sync_dir(dir); });
}

}  // namespace perfbench
