#include "vbr/run/fault_injection.hpp"

#include <stdexcept>

#include "vbr/common/error.hpp"

namespace vbr::run {

std::optional<FaultKind> FaultInjector::poll(const std::string& site) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t op = ops_[site]++;
  for (const ScheduledFault& f : plan_.faults) {
    if (f.site != site) continue;
    if (op >= f.at_op && op < f.at_op + f.times) {
      return f.kind;
    }
  }
  return std::nullopt;
}

void FaultInjector::maybe_throw(const std::string& site) {
  const auto fault = poll(site);
  if (!fault) return;
  switch (*fault) {
    case FaultKind::kPermanent:
      throw std::runtime_error("injected permanent fault at site '" + site + "'");
    case FaultKind::kTransient:
      throw TransientError("injected transient fault at site '" + site + "'");
  }
}

}  // namespace vbr::run
