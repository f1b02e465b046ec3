// trace.h — in-memory span recorder for the frame benchmark.
//
// The benchmark times layers from outside: every public call it makes
// into a layer (SessionService::apply, buildScene, the delta encoder, the
// receiver, the render pipeline, a shard read) is wrapped in a span. A
// span records its name, start, end, parent span, frame id and tenant id.
// Each client thread owns one TraceBuffer, so recording never locks;
// buffers are merged only when the run ends and written out as Chrome
// trace-event JSON (open it in chrome://tracing or Perfetto).
//
// With tracing off a ScopedSpan costs one branch: the untraced runs that
// produce the end-to-end metrics pay nothing measurable for it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pb {

using Ns = std::int64_t;

inline Ns nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string: the layer call's name
  Ns start = 0;
  Ns end = 0;
  std::int32_t parent = -1;  ///< index in the same buffer, -1 = root
  std::uint32_t frame = 0;
  std::uint32_t tenant = 0;
};

/// One thread's spans. Not thread-safe: one buffer per client thread.
class TraceBuffer {
 public:
  TraceBuffer(bool enabled, std::uint32_t threadId)
      : enabled_(enabled), threadId_(threadId) {}

  bool enabled() const { return enabled_; }
  std::uint32_t threadId() const { return threadId_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span under the innermost open one; returns its index.
  std::int32_t open(const char* name, std::uint32_t frame,
                    std::uint32_t tenant) {
    Span s;
    s.name = name;
    s.parent = current_;
    s.frame = frame;
    s.tenant = tenant;
    s.start = nowNs();
    spans_.push_back(s);
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }

  void close(std::int32_t index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end = nowNs();
    current_ = s.parent;
  }

 private:
  bool enabled_;
  std::uint32_t threadId_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// RAII span; a no-op when `buffer` is null or tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buffer, const char* name, std::uint32_t frame,
             std::uint32_t tenant)
      : buffer_(buffer != nullptr && buffer->enabled() ? buffer : nullptr) {
    if (buffer_ != nullptr) index_ = buffer_->open(name, frame, tenant);
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buffer_;
  std::int32_t index_ = -1;
};

/// Writes every buffer as one Chrome trace-event JSON file ("X" complete
/// events, microsecond timestamps relative to `origin`), at most
/// `maxPerBuffer` spans of each buffer (the earliest), to bound the file.
/// `metadata` is a JSON object string stored under "otherData". Returns
/// false on a write failure.
inline bool writeChromeTrace(const std::string& path,
                             const std::vector<const TraceBuffer*>& buffers,
                             Ns origin, const std::string& metadata,
                             std::size_t maxPerBuffer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                  "\"traceEvents\":[",
               metadata.c_str());
  bool first = true;
  for (const TraceBuffer* b : buffers) {
    const std::size_t n = std::min(b->spans().size(), maxPerBuffer);
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = b->spans()[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"frame\":%u,"
                   "\"tenant\":%u,\"parent\":%d}}",
                   first ? "" : ",", s.name, b->threadId(),
                   static_cast<double>(s.start - origin) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3, s.frame,
                   s.tenant, s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pb
