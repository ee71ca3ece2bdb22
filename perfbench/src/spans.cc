#include "spans.h"

#include <atomic>
#include <cstdio>

#include "util/metrics.h"

namespace odb {
namespace {

std::atomic<int32_t> g_next_tid{1};

struct ThreadState {
  int32_t tid = g_next_tid.fetch_add(1);
  std::vector<int32_t> open;  // innermost last
};
thread_local ThreadState t_state;

}  // namespace

int32_t SpanLog::Open(const char* name, int64_t request) {
  Span span;
  span.name = name;
  span.start = odf::MonotonicNanos();
  span.parent = t_state.open.empty() ? -1 : t_state.open.back();
  span.request = request;
  span.tid = t_state.tid;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  t_state.open.push_back(index);
  return index;
}

void SpanLog::Close(int32_t index) {
  const uint64_t now = odf::MonotonicNanos();
  if (!t_state.open.empty() && t_state.open.back() == index) {
    t_state.open.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = now;
}

void SpanLog::Add(const char* name, uint64_t start, uint64_t end,
                  int64_t request) {
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = t_state.open.empty() ? -1 : t_state.open.back();
  span.request = request;
  span.tid = t_state.tid;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t origin = spans.empty() ? 0 : spans.front().start;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const uint64_t start = s.start >= origin ? s.start - origin : 0;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%lld}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.tid,
                 static_cast<double>(start) * 1e-3,
                 static_cast<double>(s.end - s.start) * 1e-3, i, s.parent,
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace odb
