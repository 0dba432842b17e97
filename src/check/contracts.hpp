// Runtime contract macros (the `checked` build preset).
//
// REPRO_DCHECK / REPRO_DCHECK_MSG state internal invariants of the hot
// paths — kernel cell properties, checkpoint-resume consistency, queue
// ordering, triangle monotonicity, the search's upper-bound and acceptance
// order (core/task_queue.cpp), and the cluster recovery protocol
// (cluster/master_worker.cpp with core::BestFirstSearch): a sweep may only be
// cancelled or committed while its queue key is unchanged, sync replies
// never shrink a worker's triangle version, and a first alignment must
// carry version-0 rows — the invariants that make timed-out work safe to
// requeue and duplicate results safe to drop. They are compiled in when
// REPRO_CONTRACTS_ENABLED is 1 (the `checked` CMake preset, or any
// non-NDEBUG build) and compile to *nothing* otherwise: the condition is
// not evaluated, no code is generated, and the failure handler symbol
// (repro::check::dcheck_failed) does not appear in Release objects —
// tools/lint.sh's codegen audit relies on that symbol being absent.
//
// Contract violations are programming errors, never input errors; they
// throw std::logic_error so the test suite (and the fuzz drivers) convert
// them into hard failures. Input validation belongs in REPRO_CHECK
// (util/check.hpp), which is always on.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

#ifndef REPRO_CONTRACTS_ENABLED
#ifdef NDEBUG
#define REPRO_CONTRACTS_ENABLED 0
#else
#define REPRO_CONTRACTS_ENABLED 1
#endif
#endif

namespace repro::check {

/// True in builds that evaluate REPRO_DCHECK conditions. Use it to guard
/// contract-only bookkeeping (e.g. capturing a previous value to state a
/// monotonicity invariant) so that Release builds carry zero overhead:
///   if constexpr (repro::check::kContractsEnabled) { ... }
inline constexpr bool kContractsEnabled = REPRO_CONTRACTS_ENABLED != 0;

#if REPRO_CONTRACTS_ENABLED
[[noreturn]] inline void dcheck_failed(const char* expr, const char* file,
                                       int line, const std::string& msg) {
  std::ostringstream os;
  os << "contract violated: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::logic_error(os.str());
}
#endif

}  // namespace repro::check

#if REPRO_CONTRACTS_ENABLED

#define REPRO_DCHECK(expr)                                                 \
  do {                                                                     \
    if (!(expr))                                                           \
      ::repro::check::dcheck_failed(#expr, __FILE__, __LINE__, {});        \
  } while (0)

#define REPRO_DCHECK_MSG(expr, msg)                                        \
  do {                                                                     \
    if (!(expr)) {                                                         \
      std::ostringstream repro_dcheck_os_;                                 \
      repro_dcheck_os_ << msg;                                             \
      ::repro::check::dcheck_failed(#expr, __FILE__, __LINE__,             \
                                    repro_dcheck_os_.str());               \
    }                                                                      \
  } while (0)

#else

// The condition is intentionally not evaluated (and not odr-used): a
// Release REPRO_DCHECK must generate zero code.
#define REPRO_DCHECK(expr) \
  do {                     \
  } while (0)

#define REPRO_DCHECK_MSG(expr, msg) \
  do {                              \
  } while (0)

#endif
