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
      ++fired_[site];
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
    case FaultKind::kShortWrite:
    case FaultKind::kNoSpace:
    case FaultKind::kTornWrite:
      throw TransientError("injected transient fault at site '" + site + "'");
  }
}

std::uint64_t FaultInjector::fired(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = fired_.find(site);
  return it == fired_.end() ? 0 : it->second;
}

std::streamsize FaultyStreambuf::xsputn(const char* s, std::streamsize n) {
  const auto fault = injector_->poll(site_);
  if (!fault) return inner_->sputn(s, n);
  switch (*fault) {
    case FaultKind::kNoSpace:
      return 0;  // ENOSPC on the first byte; ostream::write sets badbit
    case FaultKind::kShortWrite:
      return inner_->sputn(s, n / 2);  // honest shortfall, badbit follows
    case FaultKind::kTornWrite:
      inner_->sputn(s, n / 2);
      return n;  // lies about success; only position/CRC checks can catch it
    case FaultKind::kTransient:
      throw TransientError("injected transient stream fault at site '" + site_ + "'");
    case FaultKind::kPermanent:
      throw std::runtime_error("injected permanent stream fault at site '" + site_ +
                               "'");
  }
  return 0;
}

FaultyStreambuf::int_type FaultyStreambuf::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) return inner_->pubsync() == 0
                                                                   ? traits_type::not_eof(ch)
                                                                   : traits_type::eof();
  const char c = traits_type::to_char_type(ch);
  return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
}

void FaultySink::push(std::span<const double> samples) {
  injector_->maybe_throw(site_);
  inner_->push(samples);
}

void FaultySink::merge(const Sink& other) {
  injector_->maybe_throw(site_ + ".merge");
  const auto& peer = stream::detail::merge_peer<FaultySink>(other, kind());
  inner_->merge(*peer.inner_);
}

std::unique_ptr<stream::Sink> FaultySink::clone_empty() const {
  return std::make_unique<FaultySink>(inner_->clone_empty(), injector_, site_);
}

}  // namespace vbr::run
