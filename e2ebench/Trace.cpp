//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>

using namespace jumpstart::e2e;

SpanBuffer &SpanLog::newBuffer() {
  std::lock_guard<std::mutex> Lock(M);
  Buffers.push_back(std::make_unique<SpanBuffer>());
  Buffers.back()->Thread = static_cast<uint32_t>(Buffers.size() - 1);
  return *Buffers.back();
}

SpanLog::Scope::Scope(SpanLog &Log, SpanBuffer &B, const char *Name,
                      int64_t Ticket) {
  if (!Log.Enabled)
    return;
  Buf = &B;
  int32_t Parent = B.Open.empty() ? -1 : B.Open.back();
  B.Open.push_back(static_cast<int32_t>(B.Spans.size()));
  B.Spans.push_back(Span{Name, Ticket, nowNs(), 0, Parent});
}

SpanLog::Scope::~Scope() {
  if (!Buf)
    return;
  Buf->Spans[Buf->Open.back()].EndNs = nowNs();
  Buf->Open.pop_back();
}

std::map<std::string, SpanTotals> SpanLog::totals() const {
  std::map<std::string, SpanTotals> Out;
  for (const auto &B : Buffers) {
    std::vector<double> ChildSeconds(B->Spans.size(), 0.0);
    for (const Span &S : B->Spans)
      if (S.Parent >= 0)
        ChildSeconds[S.Parent] += (S.EndNs - S.BeginNs) * 1e-9;
    for (size_t I = 0; I < B->Spans.size(); ++I) {
      const Span &S = B->Spans[I];
      double Seconds = (S.EndNs - S.BeginNs) * 1e-9;
      SpanTotals &T = Out[S.Name];
      T.Seconds += Seconds;
      T.SelfSeconds += Seconds - ChildSeconds[I];
      ++T.Calls;
    }
  }
  return Out;
}

bool SpanLog::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const auto &B : Buffers)
    for (const Span &S : B->Spans)
      std::fprintf(F,
                   "{\"name\": \"%s\", \"thread\": %u, \"ticket\": %lld, "
                   "\"begin_ns\": %llu, \"end_ns\": %llu, \"parent\": %d}\n",
                   S.Name, B->Thread, static_cast<long long>(S.Ticket),
                   static_cast<unsigned long long>(S.BeginNs),
                   static_cast<unsigned long long>(S.EndNs), S.Parent);
  return std::fclose(F) == 0;
}
