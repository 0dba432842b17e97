#include "parallel/parallel_finder.hpp"

#include <memory>
#include <vector>

#include "core/top_alignment_finder.hpp"
#include "util/check.hpp"

namespace repro::parallel {

core::FinderResult find_top_alignments_parallel(const seq::Sequence& s,
                                                const seq::Scoring& scoring,
                                                const ParallelOptions& options,
                                                const EngineFactory& factory) {
  REPRO_CHECK(options.threads >= 1);
  std::vector<std::unique_ptr<align::Engine>> owned;
  std::vector<align::Engine*> engines;
  for (int t = 0; t < options.threads; ++t) {
    owned.push_back(factory());
    REPRO_CHECK_MSG(owned.back() != nullptr, "engine factory returned null");
    engines.push_back(owned.back().get());
  }
  return core::run_scheduler(s, scoring, options.finder, engines, "parallel.");
}

}  // namespace repro::parallel
