//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "vm/Server.h"

#include "support/Assert.h"
#include "support/StringUtil.h"

using namespace jumpstart;
using namespace jumpstart::vm;

namespace jumpstart::vm {

std::vector<std::string> validateServerConfig(const ServerConfig &C) {
  std::vector<std::string> Diags;
  if (C.Cores < 1)
    Diags.push_back("Cores must be >= 1");
  if (C.JitWorkerCores < 1)
    Diags.push_back(
        "JitWorkerCores must be >= 1 (grantJitTime divides by it)");
  if (C.UnitLoadCost < 0)
    Diags.push_back("UnitLoadCost must be >= 0");
  if (C.UseAffinityPropOrder && !C.ReorderProperties)
    Diags.push_back("UseAffinityPropOrder requires ReorderProperties "
                    "(affinity ordering is a refinement of the hotness "
                    "reordering machinery)");
  if (C.ServeWorkers < 1)
    Diags.push_back("ServeWorkers must be >= 1");
  if (C.Admission.MaxInFlight != 0 &&
      C.Admission.MaxInFlight < C.ServeWorkers)
    Diags.push_back(strFormat(
        "Admission.MaxInFlight (%u) below ServeWorkers (%u) leaves "
        "execution contexts permanently idle",
        C.Admission.MaxInFlight, C.ServeWorkers));
  if (C.Name.empty())
    Diags.push_back("Name must be non-empty (it labels tracks and metrics)");
  return Diags;
}

ServerConfigBuilder &ServerConfigBuilder::cores(uint32_t V) {
  C.Cores = V;
  return *this;
}
ServerConfigBuilder &ServerConfigBuilder::jitWorkerCores(uint32_t V) {
  C.JitWorkerCores = V;
  return *this;
}
ServerConfigBuilder &ServerConfigBuilder::serveWorkers(uint32_t V) {
  C.ServeWorkers = V;
  return *this;
}
ServerConfigBuilder &ServerConfigBuilder::name(std::string V) {
  C.Name = std::move(V);
  return *this;
}

support::Status ServerConfigBuilder::tryBuild(ServerConfig &Out) const {
  std::vector<std::string> Diags = validateServerConfig(C);
  if (!Diags.empty())
    return support::Status::error(support::StatusCode::FailedPrecondition,
                                  Diags.front());
  Out = C;
  return support::Status::okStatus();
}

ServerConfig ServerConfigBuilder::build() const {
  ServerConfig Out;
  support::Status S = tryBuild(Out);
  alwaysAssert(S.ok(), "ServerConfigBuilder: invalid configuration");
  return Out;
}

} // namespace jumpstart::vm
