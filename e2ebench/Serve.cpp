//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `serve` phase: open-loop concurrent serving.  Each window boots a
/// fresh server, runs a serial profiling prefix, opens a concurrent
/// window and offers the serve stream at a fixed rate: ticket i is due
/// at a deterministic Poisson arrival time drawn from the run seed.
/// Three workers take the next ticket, wait until it is due and call
/// vm::Server::serve; latency runs from the due time, so queueing behind
/// a slow request is charged to the requests that waited (no coordinated
/// omission).  One more thread drains the retranslate-all through
/// runBackgroundJitWork while the window runs, so the window spans both
/// the publication phase and the steady phase after it.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/StringUtil.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

using namespace jumpstart;
using namespace jumpstart::e2e;

namespace {

constexpr uint32_t kWorkers = 3;
/// Offered rate of the serve_p50_us / serve_p99_us windows: a sixth to a
/// quarter of what three workers sustain on a 4-vCPU Xeon VM.
constexpr double kFixedRate = 6000;
/// Fixed-rate windows per repetition.
constexpr uint32_t kFixedWindows = 3;
/// The p99 a ladder rung must meet.  Generous on purpose: on a shared VM
/// hypervisor steal alone moves the p99 of an unloaded window between
/// 0.3 and 3.5 ms, while a rung a few percent over capacity queues
/// tickets well past 10 ms within one window.
constexpr double kP99LimitUs = 10000;

/// The offered-rate ladder serve_rps is searched on: 2000 to 40000
/// requests per second in 6% steps.
std::vector<double> makeLadder() {
  std::vector<double> L;
  for (double R = 2000; R <= 40000; R *= 1.06)
    L.push_back(std::round(R));
  return L;
}

bool sameObservables(const vm::RequestObservables &A,
                     const vm::RequestObservables &B) {
  return A.Ret == B.Ret && A.Output == B.Output && A.Faults == B.Faults &&
         A.Ok == B.Ok;
}

/// Sleeps, then spins, until the steady clock reaches \p DueNs.
void waitUntil(uint64_t DueNs) {
  for (uint64_t Now = nowNs(); Now < DueNs; Now = nowNs()) {
    if (DueNs - Now > 100000)
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(DueNs - Now - 50000));
  }
}

struct Window {
  /// Due time to completion, per ticket.
  std::vector<double> LatencyUs;
  double WaitSeconds = 0;
  uint64_t Failed = 0;
  bool BacklogGrew = false;
  vm::ServeStats Stats;
};

/// Runs one open-loop window at \p Rate offered requests per second.
Window serveWindow(Run &Ctx, double Rate) {
  const fleet::Workload &W = *Ctx.Compact.W;
  vm::ServerConfig C = vm::ServerConfigBuilder()
                           .cores(16)
                           .jitWorkerCores(2)
                           .serveWorkers(kWorkers)
                           .name("serve")
                           .build();
  // Admission keeps its default (Block, MaxInFlight 2 * ServeWorkers).
  // The workers call serve() synchronously, so at most three requests
  // are ever in flight: admission never blocks or sheds, and the queue
  // is the open-loop backlog, whose wait latency charges from the due
  // time.  vm.shed is therefore 0 by construction.
  C.Jit.ProfileRequestTarget = kServePrefix;
  // server_load's stretched optimized-compile cost: the retranslate-all
  // spans a few dozen grants, so snapshots publish throughout the window.
  C.Jit.OptCompileCostPerBytecode = 2500;
  vm::Server S(W.Repo, C, /*Seed=*/7);
  S.startup();

  Window Out;
  // Serial profiling prefix; the grant after the last request is
  // withheld so the retranslate-all it triggers is still queued when
  // the window opens.
  const uint32_t Prefix = kServePrefix;
  for (uint32_t I = 0; I < Prefix; ++I) {
    vm::RequestResult Res;
    {
      SpanLog::Scope Span(Ctx.Log, Ctx.Main, "vm.execute");
      Res = S.executeRequest(Ctx.Stream[I].Endpoint, Ctx.Stream[I].Args);
    }
    Out.Failed += !sameObservables(Res.Obs, Ctx.Reference[I]);
    if (I + 1 < Prefix) {
      SpanLog::Scope Span(Ctx.Log, Ctx.Main, "jit.grant");
      S.grantJitTime(0.25);
    }
  }
  {
    SpanLog::Scope Span(Ctx.Log, Ctx.Main, "vm.begin");
    S.beginConcurrentServing();
  }

  const uint32_t N = kServeTickets;
  std::vector<uint64_t> Due(N), Start(N), End(N);
  Rng Arrivals(deriveSeed(Ctx.Seed, 1000 + static_cast<uint64_t>(Rate)));
  double T = 0;
  for (uint32_t I = 0; I < N; ++I) {
    T += Arrivals.nextExponential(Rate);
    Due[I] = static_cast<uint64_t>(T * 1e9);
  }
  std::vector<vm::RequestResult> Results(N);
  std::vector<char> Early(N, 0);
  std::atomic<uint32_t> Next{0};
  const uint64_t T0 = nowNs() + 1000000;

  // The compiler paces its grants by the schedule: grant g runs once
  // ticket g * Step is due, so publications spread over the window.
  std::thread Compiler([&] {
    pinThread(3);
    SpanBuffer &Buf = Ctx.Log.newBuffer();
    const uint32_t Step = std::max<uint32_t>(1, N / 128);
    for (uint32_t Threshold = 0; S.theJit().hasPendingWork();
         Threshold += Step) {
      waitUntil(T0 + Due[std::min(Threshold, N - 1)]);
      SpanLog::Scope Span(Ctx.Log, Buf, "jit.background");
      S.runBackgroundJitWork(0.25);
    }
  });
  auto Worker = [&](uint32_t Cpu) {
    pinThread(Cpu);
    SpanBuffer &Buf = Ctx.Log.newBuffer();
    for (;;) {
      uint32_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        break;
      const Ticket &Tk = Ctx.Stream[Prefix + I];
      Early[I] = nowNs() < T0 + Due[I];
      waitUntil(T0 + Due[I]);
      Start[I] = nowNs();
      {
        SpanLog::Scope Span(Ctx.Log, Buf, "vm.serve", I);
        Results[I] = S.serve(Tk.Endpoint, Tk.Args, I);
      }
      End[I] = nowNs();
    }
  };
  std::vector<std::thread> Workers;
  for (uint32_t I = 0; I < kWorkers; ++I)
    Workers.emplace_back(Worker, I);
  for (std::thread &T : Workers)
    T.join();
  Compiler.join();
  Out.Stats = S.endConcurrentServing();

  Out.LatencyUs.resize(N);
  for (uint32_t I = 0; I < N; ++I) {
    uint64_t D = T0 + Due[I];
    Out.LatencyUs[I] = (End[I] - D) * 1e-3;
    Out.WaitSeconds += (Start[I] - D) * 1e-9;
    if (Early[I])
      Ctx.LagUs.push_back((Start[I] - D) * 1e-3);
    Out.Failed += Results[I].Shed ||
                  !sameObservables(Results[I].Obs, Ctx.Reference[Prefix + I]);
  }
  // Backlog (tickets due but not started) at the middle and at the end
  // of the schedule: a queue that keeps growing means the offered rate
  // is above what the server sustains, however the tail looks.
  auto Backlog = [&](uint32_t Mark) {
    uint64_t At = T0 + Due[Mark];
    uint32_t Started = 0;
    for (uint64_t S0 : Start)
      Started += S0 <= At;
    return static_cast<int64_t>(Mark + 1) - Started;
  };
  Out.BacklogGrew = Backlog(N - 1) > Backlog(N / 2) + N / 50;

  std::fprintf(stderr,
               "serve window: rate %.0f/s  p50 %.0fus  p99 %.0fus  max %.0fus  "
               "backlog %s  failed %llu\n",
               Rate, percentile(Out.LatencyUs, 0.5),
               percentile(Out.LatencyUs, 0.99), percentile(Out.LatencyUs, 1),
               Out.BacklogGrew ? "grew" : "flat",
               static_cast<unsigned long long>(Out.Failed));
  Ctx.R.check(Out.Stats.Submitted == Out.Stats.Served + Out.Stats.Shed &&
                  Out.Stats.Submitted == N,
              strFormat("serve accounting: submitted %llu, served %llu, "
                        "shed %llu, tickets %u",
                        static_cast<unsigned long long>(Out.Stats.Submitted),
                        static_cast<unsigned long long>(Out.Stats.Served),
                        static_cast<unsigned long long>(Out.Stats.Shed), N));
  Ctx.R.check(Out.Failed == 0,
              strFormat("%llu served requests were shed or differ from the "
                        "legacy-engine reference",
                        static_cast<unsigned long long>(Out.Failed)));
  Ctx.R.ops(Prefix + N, Out.Failed);
  Ctx.R.addLayer("vm.shed", "count", static_cast<double>(Out.Stats.Shed));
  Ctx.R.addLayer("vm.faults", "count", static_cast<double>(Out.Stats.Faults));
  Ctx.R.layer("jit.snapshots_published", "count",
              static_cast<double>(Out.Stats.SnapshotsPublished));
  Ctx.R.layer("jit.snapshots_reclaimed", "count",
              static_cast<double>(Out.Stats.SnapshotsReclaimed));
  return Out;
}

} // namespace

PhaseRep jumpstart::e2e::prepareServe(Run &Ctx) {
  // One unmeasured window first: the process's first concurrent window
  // pays one-time host costs (thread and allocator start-up).
  serveWindow(Ctx, kFixedRate);
  return [&Ctx] {
    for (uint32_t I = 0; I < kFixedWindows; ++I) {
      Window Fixed = serveWindow(Ctx, kFixedRate);
      Ctx.R.sample("serve_p50_us", "us", percentile(Fixed.LatencyUs, 0.50));
      double P99 = percentile(Fixed.LatencyUs, 0.99);
      Ctx.R.sample("serve_p99_us", "us", P99);
      Ctx.R.layer("vm.serve_p99_us", "us", P99);
      Ctx.R.layer("vm.serve_wait_s", "s", Fixed.WaitSeconds);
    }
  };
}

void jumpstart::e2e::searchServeCapacity(Run &Ctx) {
  // Bisect the ladder for the highest rung that meets the p99 limit with
  // no failure and no growing backlog (assumes one crossover).  A rung is
  // over the limit only when a second window confirms it, so one host
  // hiccup cannot send the search down the ladder.
  auto Meets = [&](double Rate) {
    for (int Try = 0; Try < 2; ++Try) {
      Window W = serveWindow(Ctx, Rate);
      if (W.Failed == 0 && !W.BacklogGrew &&
          percentile(W.LatencyUs, 0.99) <= kP99LimitUs)
        return true;
    }
    return false;
  };
  const std::vector<double> Ladder = makeLadder();
  int Lo = -1, Hi = static_cast<int>(Ladder.size());
  while (Hi - Lo > 1) {
    int Mid = (Lo + Hi) / 2;
    (Meets(Ladder[Mid]) ? Lo : Hi) = Mid;
  }
  double Rps = Lo >= 0 ? Ladder[Lo] : 0.0;
  Ctx.R.sample("serve_rps", "1/s", Rps);
  Ctx.R.layer("vm.serve_rps", "1/s", Rps);
}
