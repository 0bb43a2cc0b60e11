#include "pipeline/run_config.h"

#include "pipeline/fingerprint.h"

namespace netrev {

std::uint64_t RunConfig::parse_fingerprint() const {
  return pipeline::fingerprint(parse, max_errors);
}

std::uint64_t RunConfig::wordrec_fingerprint() const {
  return pipeline::fingerprint(wordrec);
}

std::uint64_t RunConfig::analysis_fingerprint() const {
  return pipeline::fingerprint(analysis);
}

std::uint64_t RunConfig::lift_fingerprint() const {
  return pipeline::fingerprint(lift);
}

std::uint64_t RunConfig::exec_fingerprint() const {
  return pipeline::fingerprint(exec.degrade);
}

}  // namespace netrev
