#include "src/obs/trace/tracer.h"

#include <algorithm>
#include <atomic>
#include <fstream>

#include "src/obs/trace/file.h"

namespace co::obs::trace {

namespace {

std::uint64_t next_epoch() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// One cached (tracer, stream) pair per thread. Keyed by the tracer's
/// address AND its process-unique epoch, so a new Tracer reusing a freed
/// address can never satisfy a stale cache entry.
struct TlsCache {
  const void* owner = nullptr;
  std::uint64_t epoch = 0;
  void* stream = nullptr;
};
thread_local TlsCache tls_cache;

}  // namespace

Tracer::Tracer(TracerConfig config, TraceSink* sink)
    : epoch_(next_epoch()),
      config_(config),
      sink_(sink),
      watermark_(config.ring_capacity / 2) {
  if (watermark_ == 0) watermark_ = 1;
}

Tracer::~Tracer() = default;

Tracer::Stream& Tracer::local_stream() {
  if (tls_cache.owner == this && tls_cache.epoch == epoch_)
    return *static_cast<Stream*>(tls_cache.stream);
  Stream& s = register_stream();
  tls_cache = {this, epoch_, &s};
  return s;
}

Tracer::Stream& Tracer::register_stream() {
  const std::thread::id me = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mutex_);
  // A thread that lost its tls cache (e.g. it interleaved emits to another
  // tracer) must get its existing stream back, not a duplicate.
  for (const auto& s : streams_)
    if (s->owner == me) return *s;
  streams_.push_back(std::make_unique<Stream>(
      config_.ring_capacity, config_.overwrite_oldest,
      static_cast<std::uint16_t>(streams_.size())));
  streams_.back()->owner = me;
  return *streams_.back();
}

void Tracer::drain_stream(Stream& s) {
  // Serialize sink access across writer threads; draining our own ring is
  // safe (we are its only writer).
  std::lock_guard<std::mutex> lock(mutex_);
  scratch_.clear();
  const std::size_t n = s.ring.drain(scratch_);
  if (n != 0 && sink_ != nullptr)
    sink_->on_records(s.id, scratch_.data(), n, s.ring.dropped());
}

std::uint64_t Tracer::appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& s : streams_) total += s->ring.appended();
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& s : streams_) total += s->ring.dropped();
  return total;
}

std::size_t Tracer::stream_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return streams_.size();
}

void Tracer::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sink_ == nullptr) return;
  for (const auto& s : streams_) {
    scratch_.clear();
    const std::size_t n = s->ring.drain(scratch_);
    if (n != 0) sink_->on_records(s->id, scratch_.data(), n, s->ring.dropped());
  }
  sink_->flush();
}

std::vector<Record> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Record> out;
  for (const auto& s : streams_) s->ring.copy_out(out);
  // Stable: equal timestamps keep stream registration order, and each
  // stream's records are already in append order.
  std::stable_sort(out.begin(), out.end(),
                   [](const Record& a, const Record& b) { return a.at < b.at; });
  return out;
}

void Tracer::write_snapshot(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  write_trace_header(os);
  std::vector<Record> chunk;
  for (const auto& s : streams_) {
    chunk.clear();
    s->ring.copy_out(chunk);
    write_trace_block(os, s->id, chunk.data(), chunk.size(),
                      s->ring.dropped());
  }
}

bool Tracer::write_snapshot_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  write_snapshot(os);
  os.flush();
  return os.good();
}

}  // namespace co::obs::trace
