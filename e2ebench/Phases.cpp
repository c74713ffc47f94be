//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-threaded phases: `warmup` (the paper's Figure 4 lifecycle:
/// seeder, package, consumer boots, simulated warmup window with and
/// without Jump-Start) and `steady` (Figure 5: simulated steady-state
/// micro-architecture on a Jump-Start consumer and a self-warmed server).
/// Host timings are reported as medians over repetitions; exact outputs
/// must not change between repetitions.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "FigureCommon.h"

#include "analysis/Linter.h"
#include "core/PackageManager.h"
#include "support/StringUtil.h"

#include <optional>

using namespace jumpstart;
using namespace jumpstart::e2e;

namespace {

double secondsSince(uint64_t T0) { return (nowNs() - T0) * 1e-9; }

/// Sums every counter named \p Name, over all label sets.
uint64_t counterTotal(const obs::MetricsRegistry &M, std::string_view Name) {
  uint64_t Total = 0;
  for (const obs::MetricsRegistry::Entry &E : M.sortedEntries())
    if (E.MetricKind == obs::MetricsRegistry::Kind::Counter &&
        M.name(E.NameId) == Name)
      Total += M.counterAt(E.Index).value();
  return Total;
}

/// The seeder of fleet::runSeeder, spelled out so the warmup phase can
/// time request execution and JIT grants separately.
profile::ProfilePackage runSeederPass(Run &Ctx, const vm::ServerConfig &Base,
                                      uint32_t Requests) {
  vm::ServerConfig Config = Base;
  Config.Jit.SeederInstrumentation = true;
  const fleet::Workload &W = *Ctx.Standard.W;
  const fleet::TrafficModel &Traffic = *Ctx.Standard.Traffic;
  const uint32_t Region = Ctx.Spec.Region, Bucket = Ctx.Spec.Bucket;
  Rng R(deriveSeed(Ctx.Seed, 3));
  for (uint32_t I = 0; I < 8 && I < W.Endpoints.size(); ++I)
    Config.WarmupEndpoints.push_back(
        W.Endpoints[Traffic.sampleEndpoint(Region, Bucket, R)].raw());
  vm::Server S(W.Repo, Config, R.next());
  S.startup();
  uint64_t Failed = 0;
  for (uint32_t I = 0; I < Requests; ++I) {
    uint32_t E = Traffic.sampleEndpoint(Region, Bucket, R);
    std::vector<runtime::Value> Args = fleet::TrafficModel::makeArgs(R);
    {
      SpanLog::Scope Span(Ctx.Log, Ctx.Main, "vm.execute");
      vm::RequestResult Res = S.executeRequest(W.Endpoints[E], Args);
      Failed += !Res.Obs.Ok || Res.Obs.Faults;
    }
    SpanLog::Scope Span(Ctx.Log, Ctx.Main, "jit.grant");
    S.grantJitTime(0.25);
  }
  {
    SpanLog::Scope Span(Ctx.Log, Ctx.Main, "jit.grant");
    while (S.theJit().hasPendingWork())
      S.grantJitTime(1.0);
  }
  Ctx.R.ops(Requests, Failed);
  SpanLog::Scope Span(Ctx.Log, Ctx.Main, "profile.build");
  return S.buildSeederPackage(Region, Bucket, /*SeederId=*/1);
}

} // namespace

PhaseRep jumpstart::e2e::prepareWarmup(Run &Ctx) {
  return [&Ctx, FirstBytes = std::vector<uint8_t>()]() mutable {
    constexpr uint32_t kSeederRequests = 1200;
    constexpr uint32_t kBootsPerRep = 4;
    const vm::ServerConfig Config = bench::figureServerConfig();
    const core::JumpStartOptions Opts;
    const fleet::Workload &W = *Ctx.Standard.W;
    const uint32_t Region = Ctx.Spec.Region, Bucket = Ctx.Spec.Bucket;
    // Seeder: instrumented serving, package build, encode, publish.
    uint64_t T0 = nowNs();
    profile::ProfilePackage Pkg = runSeederPass(Ctx, Config, kSeederRequests);
    std::vector<uint8_t> Bytes;
    {
      SpanLog::Scope Span(Ctx.Log, Ctx.Main, "profile.encode");
      Bytes = Pkg.serialize();
    }
    core::PackageManager Manager;
    support::Status Published;
    {
      SpanLog::Scope Span(Ctx.Log, Ctx.Main, "core.publish");
      Published = Manager.publish(Region, Bucket, Bytes);
    }
    Ctx.R.sample("seed_s", "s", secondsSince(T0));
    Ctx.R.check(Published.ok(), "publish failed: " + Published.str());
    if (FirstBytes.empty())
      FirstBytes = Bytes;
    Ctx.R.check(Bytes == FirstBytes,
                "seeder package bytes differ across repetitions");
    Ctx.R.layer("profile.package_bytes", "bytes",
                static_cast<double>(Bytes.size()));

    // Checks, outside every timed region: the package round-trips byte
    // for byte and lints clean against the repo.
    profile::ProfilePackage Decoded;
    bool Parsed;
    {
      SpanLog::Scope Span(Ctx.Log, Ctx.Main, "profile.decode");
      Parsed = profile::ProfilePackage::deserialize(Bytes, Decoded);
    }
    Ctx.R.check(Parsed && Decoded.serialize() == Bytes,
                "seeder package does not round-trip byte-identically");
    size_t Findings;
    {
      SpanLog::Scope Span(Ctx.Log, Ctx.Main, "analysis.lint");
      analysis::Linter Linter(W.Repo,
                              static_cast<uint32_t>(
                                  runtime::BuiltinTable::standard().size()));
      Findings = Linter.lintPackage(Decoded, /*CrossCheckCallGraph=*/true)
                     .size();
    }
    Ctx.R.check(Findings == 0,
                strFormat("seeder package has %zu lint findings", Findings));
    Ctx.R.layer("analysis.findings", "count", static_cast<double>(Findings));

    // Consumers boot from the shelf.
    uint32_t Attempts = 0, Rejections = 0, Fallbacks = 0;
    for (uint32_t B = 0; B < kBootsPerRep; ++B) {
      core::ConsumerParams CP;
      CP.Region = Region;
      CP.Bucket = Bucket;
      CP.Seed = deriveSeed(Ctx.Seed, 5);
      uint64_t T1 = nowNs();
      core::ConsumerOutcome Out;
      {
        SpanLog::Scope Span(Ctx.Log, Ctx.Main, "core.boot");
        Out = core::startConsumer(W, Config, Opts, Manager, CP);
      }
      Ctx.R.sample("boot_s", "s", secondsSince(T1));
      Attempts += Out.Attempts;
      Rejections += static_cast<uint32_t>(Out.Rejections.size());
      Fallbacks += !Out.UsedJumpStart;
      Ctx.R.layer("jit.translations", "count",
                  static_cast<double>(Out.Server->theJit().transDb().size()));
      Ctx.R.layer("jit.code_bytes", "bytes",
                  static_cast<double>(Out.Server->theJit().totalCodeBytes()));
    }
    Ctx.R.ops(kBootsPerRep, Fallbacks);
    Ctx.R.check(Fallbacks == 0 && Rejections == 0,
                strFormat("%u of %u consumers fell back, %u rejections",
                          Fallbacks, kBootsPerRep, Rejections));
    Ctx.R.layer("core.boot_attempts", "count", Attempts);
    Ctx.R.layer("core.rejections", "count", Rejections);

    // The simulated warmup window, without and with Jump-Start: fig4's
    // first 600 virtual seconds at 340 offered requests per second.
    fleet::ServerSimParams P;
    P.DurationSeconds = 600;
    P.OfferedRps = 340;
    P.Region = Region;
    P.Bucket = Bucket;
    P.Seed = deriveSeed(Ctx.Seed, 4);
    uint64_t T2 = nowNs();
    fleet::WarmupResult NoJs, Js;
    {
      SpanLog::Scope Span(Ctx.Log, Ctx.Main, "fleet.warmup_nojs");
      NoJs = fleet::runWarmup(W, *Ctx.Standard.Traffic, Config, P);
    }
    {
      SpanLog::Scope Span(Ctx.Log, Ctx.Main, "fleet.warmup_js");
      Js = fleet::runWarmup(W, *Ctx.Standard.Traffic, Config, P, &Decoded);
    }
    Ctx.R.sample("warmup_sim_s", "s", secondsSince(T2));
    Ctx.R.ops(2, !Js.Init.UsedJumpStart);
    Ctx.R.check(Js.Init.UsedJumpStart && !NoJs.Init.UsedJumpStart,
                "warmup windows booted in the wrong mode");
    Ctx.R.exact("capacity_loss", "fraction", Js.CapacityLossFraction);
    Ctx.R.exact("capacity_loss_nojs", "fraction", NoJs.CapacityLossFraction);
    Ctx.R.exact("jit_code_bytes", "bytes",
                static_cast<double>(Js.Server->theJit().totalCodeBytes()));
    auto BothRuns = [&](std::string_view Counter) {
      return static_cast<double>(counterTotal(Js.Obs->Metrics, Counter) +
                                 counterTotal(NoJs.Obs->Metrics, Counter));
    };
    Ctx.R.layer("vm.sim_requests", "count",
                BothRuns("jumpstart.server.requests"));
    Ctx.R.layer("jit.jobs_completed", "count",
                BothRuns("jumpstart.jit.jobs_completed"));
  };
}

PhaseRep jumpstart::e2e::prepareSteady(Run &Ctx) {
  const fleet::Workload &W = *Ctx.Standard.W;
  const fleet::TrafficModel &Traffic = *Ctx.Standard.Traffic;
  vm::ServerConfig Config = bench::figureServerConfig();
  Config.Jit.ProfileRequestTarget = 400; // fig5: fast maturity

  // A seeder package for the Jump-Start consumer with every section V
  // optimisation, and a server that warmed itself.
  profile::ProfilePackage Pkg =
      bench::growPackage(W, Traffic, Config, Ctx.Spec.Region, Ctx.Spec.Bucket,
                         1200, deriveSeed(Ctx.Seed, 3));
  vm::ServerConfig JsConfig = Config;
  JsConfig.Jit.UseVasmCounters = true;
  JsConfig.Jit.UsePackageFuncOrder = true;
  JsConfig.ReorderProperties = true;
  std::shared_ptr<vm::Server> NoJs;
  {
    SpanLog::Scope Span(Ctx.Log, Ctx.Main, "fleet.self_warm");
    NoJs = fleet::runSeeder(W, Traffic, Config, Ctx.Spec.Region,
                            Ctx.Spec.Bucket, 1200, deriveSeed(Ctx.Seed, 6));
  }

  fleet::SteadyStateParams P;
  P.Requests = 400;
  P.WarmupRequests = 100;
  P.Region = Ctx.Spec.Region;
  P.Bucket = Ctx.Spec.Bucket;
  P.Seed = deriveSeed(Ctx.Seed, 7);
  P.Machine = bench::scaledMachine();
  return [&Ctx, &W, &Traffic, JsConfig, Pkg = std::move(Pkg), NoJs, P,
          First = std::optional<sim::PerfCounters>()]() mutable {
    // A fresh consumer every repetition: its boot (deserialize and
    // precompile) is part of the phase, its measurement must repeat.
    vm::Server Js(W.Repo, JsConfig, 77);
    support::Status Installed = Js.installPackage(Pkg);
    Ctx.R.check(Installed.ok(), "steady consumer rejected the package: " +
                                    Installed.str());
    {
      SpanLog::Scope Span(Ctx.Log, Ctx.Main, "vm.startup");
      Js.startup();
    }
    uint64_t T0 = nowNs();
    fleet::SteadyStateResult RJs, RNo;
    {
      SpanLog::Scope Span(Ctx.Log, Ctx.Main, "fleet.steady_run");
      RJs = fleet::measureSteadyState(W, Traffic, Js, P);
    }
    {
      SpanLog::Scope Span(Ctx.Log, Ctx.Main, "fleet.steady_run");
      RNo = fleet::measureSteadyState(W, Traffic, *NoJs, P);
    }
    double Requests = 2.0 * (P.Requests + P.WarmupRequests);
    Ctx.R.sample("steady_req_per_s", "1/s", Requests / secondsSince(T0));
    Ctx.R.ops(static_cast<uint64_t>(Requests), 0);
    Ctx.R.exact("sim_cycles_per_req", "cycles", RJs.CyclesPerRequest);
    Ctx.R.exact("sim_cycles_per_req_nojs", "cycles", RNo.CyclesPerRequest);

    // Per-request counters of both servers together; every counter must
    // repeat exactly.
    sim::PerfCounters Sum = RJs.Counters;
    const sim::PerfCounters &B = RNo.Counters;
    for (auto Field : {&sim::PerfCounters::Instructions,
                       &sim::PerfCounters::Branches,
                       &sim::PerfCounters::BranchMisses,
                       &sim::PerfCounters::L1IAccesses,
                       &sim::PerfCounters::L1IMisses,
                       &sim::PerfCounters::L1DAccesses,
                       &sim::PerfCounters::L1DMisses,
                       &sim::PerfCounters::LlcAccesses,
                       &sim::PerfCounters::LlcMisses,
                       &sim::PerfCounters::ITlbAccesses,
                       &sim::PerfCounters::ITlbMisses,
                       &sim::PerfCounters::DTlbAccesses,
                       &sim::PerfCounters::DTlbMisses}) {
      Sum.*Field += B.*Field;
      if (First)
        Ctx.R.check((*First).*Field == Sum.*Field,
                    "simulated counters differ across repetitions");
    }
    if (!First)
      First = Sum;
    double N = 2.0 * P.Requests;
    Ctx.R.layer("sim.l1i_accesses", "1/req", Sum.L1IAccesses / N);
    Ctx.R.layer("sim.l1d_accesses", "1/req", Sum.L1DAccesses / N);
    Ctx.R.layer("sim.branches", "1/req", Sum.Branches / N);
    Ctx.R.layer("sim.l1i_misses", "1/req", Sum.L1IMisses / N);
    Ctx.R.layer("sim.l1d_misses", "1/req", Sum.L1DMisses / N);
    Ctx.R.layer("sim.llc_misses", "1/req", Sum.LlcMisses / N);
    Ctx.R.layer("sim.itlb_misses", "1/req", Sum.ITlbMisses / N);
    Ctx.R.layer("sim.dtlb_misses", "1/req", Sum.DTlbMisses / N);
    Ctx.R.layer("sim.branch_misses", "1/req", Sum.BranchMisses / N);
  };
}
