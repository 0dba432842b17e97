// Shared-memory dynamic speculative scheduler (paper §4.2).
//
// Worker threads share the task queue, the override triangle, and the
// bottom-row archive. Each idle worker takes the best *stale* group from the
// queue, realigns it with its private engine, and requeues it. A top
// alignment is accepted when the queue head is up to date — with one
// determinism refinement over the paper's prose: acceptance also waits until
// no in-flight realignment holds an upper bound that would order *before*
// the head (scores only decrease under a grown triangle, so an in-flight
// task whose bound precedes the head might still beat it). This makes the
// parallel finder produce byte-identical top alignments for every thread
// count, at the price of exactly the end-of-iteration idling the paper
// measures (§5.2).
//
// Speculation: realignments that overlap an acceptance are kept — their
// results are upper bounds for the grown triangle and are simply requeued
// (the paper's "the work for the superfluous tasks is not wasted").
//
// The scheduler itself is core::run_scheduler, whose one-worker case is the
// sequential finder; this entry point only builds one engine per worker.
// Every FinderOptions mode (low-memory rows, linear-space traceback,
// exhaustive sweep) works at any thread count.
#pragma once

#include "align/engine.hpp"
#include "core/options.hpp"
#include "seq/scoring.hpp"
#include "seq/sequence.hpp"

#include <functional>
#include <memory>

namespace repro::parallel {

/// Creates one engine per worker thread (engines are not thread-safe).
using EngineFactory = align::EngineFactory;

struct ParallelOptions {
  int threads = 2;
  core::FinderOptions finder;
};

/// Runs the shared-memory finder. Produces exactly the same top alignments
/// as the sequential finder with an identical-lane engine (and, for the
/// linear-space traceback, the same traceback mode). Publishes stats under
/// "parallel.".
core::FinderResult find_top_alignments_parallel(const seq::Sequence& s,
                                                const seq::Scoring& scoring,
                                                const ParallelOptions& options,
                                                const EngineFactory& factory);

}  // namespace repro::parallel
