// In-memory span recorder of the traced benchmark run. The benchmark wraps
// its own calls into each layer's public functions in spans; nothing is
// recorded inside the library. Spans nest per thread, carry the request
// they served, and are written out once, at exit, as a Chrome trace that
// Perfetto and chrome://tracing open.
#ifndef ODB_SPANS_H_
#define ODB_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace odb {

class SpanLog {
 public:
  /// Opens a span on the calling thread; its parent is the thread's
  /// innermost open span. Returns its index.
  int32_t Open(const char* name, int64_t request);
  void Close(int32_t index);

  /// Records an already-timed span whose parent is the thread's innermost
  /// open span (used for intervals measured outside a scope).
  void Add(const char* name, uint64_t start, uint64_t end, int64_t request);

  std::vector<Span> Snapshot() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t request = -1)
      : log_(log), index_(log != nullptr ? log->Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

}  // namespace odb

#endif  // ODB_SPANS_H_
