//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host-time spans for the benchmark's traced run.  A span brackets one
/// call into a library entry point; spans nest per thread, and every span
/// of one concurrent-serving request carries that request's ticket index.
/// Spans live in memory until the run ends, then are written out as JSON
/// lines and folded into per-name busy time, call count and self time
/// (span minus direct child spans).
///
/// With tracing disabled a Scope reads no clock and records nothing, so
/// the untraced run measures the library, not the tracer.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_E2EBENCH_TRACE_H
#define JUMPSTART_E2EBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace jumpstart::e2e {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  /// A string literal: span names are the per-layer metric stems.
  const char *Name;
  int64_t Ticket;
  uint64_t BeginNs;
  uint64_t EndNs;
  /// Index of the enclosing span in the same buffer, -1 at top level.
  int32_t Parent;
};

/// The spans of one thread.  Only its owning thread touches it until the
/// run ends.
struct SpanBuffer {
  uint32_t Thread = 0;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// Busy time, call count and self time of every span with one name.
struct SpanTotals {
  double Seconds = 0;
  double SelfSeconds = 0;
  uint64_t Calls = 0;
};

class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// A fresh buffer for a new thread (thread-safe).
  SpanBuffer &newBuffer();

  /// RAII span; a no-op when the log is disabled.
  class Scope {
  public:
    Scope(SpanLog &Log, SpanBuffer &Buf, const char *Name,
          int64_t Ticket = -1);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanBuffer *Buf = nullptr;
  };

  /// Folds every buffer by span name.
  std::map<std::string, SpanTotals> totals() const;

  /// Writes one JSON object per span.  \returns false on I/O failure.
  bool write(const std::string &Path) const;

private:
  const bool Enabled;
  std::mutex M;
  std::vector<std::unique_ptr<SpanBuffer>> Buffers;
};

} // namespace jumpstart::e2e

#endif // JUMPSTART_E2EBENCH_TRACE_H
