// The traced run (--trace 1): per-layer numbers for one workload.
//
// The run replays the workload's sequence twice — sequentially through
// Server::HandleLine and through ServeStream, whose obs registry deltas
// give the layer counts — then times calls into each layer's public
// functions from the benchmark's own code: request parsing, front-end
// preparation, planning, plan execution, the path kernel under each
// PathAtom on both engines and thread counts, rendering, cache hits, and
// the store's writes, publishes and analytics views. Every timed call is
// a span (name, parent, start, end) kept in memory and written out at the
// end; the metrics are aggregated from the spans.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "common.h"
#include "graph/graph_view.h"
#include "obs/obs.h"
#include "pathalg/cfpq_matrix.h"
#include "pathalg/pairs.h"
#include "passes.h"
#include "plan/exec.h"
#include "plan/optimizer.h"
#include "plan/stats.h"
#include "query/match_query.h"
#include "rdf/bgp.h"
#include "rpq/cfpq_reference.h"
#include "rpq/crpq.h"
#include "rpq/path_nfa.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

using kgq::serve::Request;
using kgq::serve::Server;

/// Spans recorded by the benchmark around its calls into the layers.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  /// Opens a span as a child of the innermost open one.
  class Scope {
   public:
    Scope(Tracer* t, std::string name) : t_(t), index_(t->spans_.size()) {
      t_->spans_.push_back({std::move(name), t_->open_, NowNs(), 0});
      t_->open_ = static_cast<int>(index_);
    }
    ~Scope() { Close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Ends the span; returns its duration in ms.
    double Close() {
      Span& s = t_->spans_[index_];
      if (s.end_ns == 0) {
        s.end_ns = NowNs();
        t_->open_ = s.parent;
      }
      return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }

   private:
    Tracer* t_;
    size_t index_;
  };

  /// Sum and count of the durations of spans called `name`, in ms.
  std::pair<double, size_t> Total(const std::string& name) const {
    double ms = 0.0;
    size_t n = 0;
    for (const Span& s : spans_) {
      if (s.name != name) continue;
      ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      ++n;
    }
    return {ms, n};
  }
  double MeanMs(const std::string& name) const {
    const auto [ms, n] = Total(name);
    return n == 0 ? 0.0 : ms / static_cast<double>(n);
  }
  size_t size() const { return spans_.size(); }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}";
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

uint64_t Counter(const char* name) {
  return kgq::obs::Registry::Get().CounterValue(name);
}

/// Counters the traced run reads as deltas across the ServeStream pass.
constexpr const char* kCounters[] = {
    "rpq.successor.edges_scanned", "matrix_rpq.spgemm.word_ops",
    "cfpq.spgemm.entries",         "plan.rows.path_atom",
    "parallel_for.parallel_calls", "parallel_for.sequential_calls",
    "serve.view.advance",          "serve.view.rebuild",
    "serve.view.fallback",
};

void CollectPathAtoms(const kgq::LogicalOp& op,
                      std::vector<const kgq::LogicalOp*>* out) {
  if (op.kind == kgq::LogicalKind::kPathAtom) out->push_back(&op);
  for (const kgq::LogicalOpPtr& child : op.children) {
    CollectPathAtoms(*child, out);
  }
}

/// Runs the kernel of one PathAtom alone: AllPairs (ReachableFrom when
/// the source is bound) on the NFA or matrix engine, or the CFPQ
/// fixpoint / CYK reference for a grammar atom. Returns the pair count.
size_t RunKernel(const kgq::LogicalOp& op, const kgq::GraphView& view,
                 const kgq::CsrSnapshot* csr, bool matrix, size_t threads) {
  kgq::ParallelOptions par;
  par.num_threads = threads;
  size_t pairs = 0;
  if (op.path->kind() == kgq::PathExpr::Kind::kContextFree) {
    if (matrix) {
      kgq::Result<kgq::BoolCsr> rel = kgq::CfpqSolveMatrix(
          *csr, *op.path->grammar(), op.path->nonterminal(), par);
      if (rel.ok()) pairs = rel->nnz();
    } else {
      kgq::Result<std::vector<kgq::Bitset>> rel = kgq::CfpqReferenceRelation(
          view, *op.path->grammar(), op.path->nonterminal());
      if (rel.ok()) {
        for (const kgq::Bitset& row : *rel) pairs += row.Count();
      }
    }
    return pairs;
  }
  kgq::Result<kgq::PathNfa> nfa =
      kgq::PathNfa::Compile(view, *op.path->regex());
  if (!nfa.ok()) return 0;
  (void)nfa->AttachSnapshot(csr);
  kgq::PathQueryOptions popts;
  popts.parallel = par;
  popts.engine = matrix && nfa->snapshot() != nullptr ? kgq::PathEngine::kMatrix
                                                      : kgq::PathEngine::kNfa;
  if (op.has_bound_src && op.bound_src < view.num_nodes()) {
    return kgq::ReachableFrom(*nfa, op.bound_src, popts).Count();
  }
  for (const kgq::Bitset& row : kgq::AllPairs(*nfa, popts)) {
    pairs += row.Count();
  }
  return pairs;
}

/// Parses the front-end text and renders its canonical form — the work
/// Server::Prepare does before the cache lookup. Returns false on a
/// parse error.
bool PrepareFrontEnd(const Request& req, kgq::MatchQuery* match,
                     kgq::Crpq* crpq) {
  switch (req.lang) {
    case kgq::serve::QueryLang::kMatch: {
      kgq::Result<kgq::MatchQuery> q = kgq::ParseMatchQuery(req.text);
      if (!q.ok()) return false;
      (void)q->ToString();
      *match = *std::move(q);
      return true;
    }
    case kgq::serve::QueryLang::kCrpq: {
      kgq::Result<kgq::Crpq> q = kgq::ParseCrpq(req.text);
      if (!q.ok()) return false;
      (void)q->ToString();
      *crpq = *std::move(q);
      return true;
    }
    case kgq::serve::QueryLang::kBgp: {
      kgq::Result<std::vector<kgq::TriplePattern>> q = kgq::ParseBgp(req.text);
      if (!q.ok()) return false;
      for (const kgq::TriplePattern& p : *q) {
        if (p.path != nullptr) (void)p.path->ToString();
      }
      return true;
    }
  }
  return false;
}

}  // namespace

int RunTraced(const Args& args) {
  const Prepared prep = Prepare(args);
  const Workload& w = prep.workload;
  Tracer tr;
  bool correct = true;
  Tally tally;
  std::vector<double> cold_publish_ms;
  auto fail = [&](const std::string& what) {
    correct = false;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  };
  auto setup = [&]() {
    SetupResult s = Setup(args, prep, /*split_publish=*/true);
    cold_publish_ms.push_back(s.cold_publish_ms);
    tally.AddSetup(prep, s);
    if (!s.ok) fail("set-up responses differ from the model");
    return s;
  };

  // Sequential replay: HandleLine per line on the calling thread.
  std::vector<uint64_t> sequential;
  double sequential_s = 0.0;
  {
    SetupResult s = setup();
    std::array<uint64_t, kNumOps> pass_failed{};
    Tracer::Scope span(&tr, "server.handle_line_pass");
    for (const Line& line : w.sequence) {
      const std::string response = s.server->HandleLine(line.text);
      if (!ResponseOk(response)) ++pass_failed[static_cast<size_t>(line.op)];
      sequential.push_back(HashResponse(response));
    }
    sequential_s = span.Close() * 1e-3;
    tally.AddPass(w, pass_failed);
  }

  // ServeStream pass: obs registry deltas, cache tallies, response sizes.
  SetupResult served = setup();
  Server& server = *served.server;
  std::vector<uint64_t> before;
  for (const char* c : kCounters) before.push_back(Counter(c));
  PassResult piped;
  {
    Tracer::Scope span(&tr, "server.stream_pass");
    piped = PipelinedPass(&server, w.sequence);
  }
  std::vector<double> delta;
  for (size_t i = 0; i < std::size(kCounters); ++i) {
    delta.push_back(static_cast<double>(Counter(kCounters[i]) - before[i]));
  }
  tally.AddPass(w, piped.failed);
  if (piped.hashes != sequential) {
    fail("ServeStream responses differ from sequential HandleLine");
  }
  const kgq::serve::StatsBody stats = server.BuildStats();
  double read_bytes = 0.0, reads = 0.0;
  for (size_t i = 0; i < w.sequence.size(); ++i) {
    if (IsRead(w.sequence[i].op)) {
      read_bytes += static_cast<double>(piped.bytes[i]);
      reads += 1.0;
    }
  }

  // protocol: ParseRequestLine over every line of the sequence.
  for (const Line& line : w.sequence) {
    Request req;
    Tracer::Scope span(&tr, "protocol.parse");
    if (!kgq::serve::ParseRequestLine(line.text, &req).ok()) {
      fail("request does not parse: " + line.text);
    }
  }

  // Query layers on the served graph's final epoch, for up to 40
  // distinct queries spread evenly over their first appearances.
  std::vector<const Line*> queries;
  {
    std::vector<bool> seen(w.reads.size(), false);
    for (const Line& line : w.sequence) {
      if (line.op == Op::kQuery && !seen[line.read]) {
        seen[line.read] = true;
        queries.push_back(&line);
      }
    }
    constexpr size_t kMaxProbed = 40;
    if (queries.size() > kMaxProbed) {
      std::vector<const Line*> spread;
      for (size_t i = 0; i < kMaxProbed; ++i) {
        spread.push_back(queries[i * queries.size() / kMaxProbed]);
      }
      queries.swap(spread);
    }
  }
  const kgq::serve::EpochPtr snap = server.store().Acquire();
  const kgq::LabeledGraphView view(snap->graph());
  const kgq::GraphStats graph_stats = kgq::GraphStats::From(
      &view, snap->csr.get(), snap->node_label_counts.get());
  double kernel_chosen = 0, kernel_best = 0, kernel_1t = 0, kernel_4t = 0,
         kernel_4t_off = 0, materialize_ms = 0;
  size_t with_atoms = 0;
  for (const Line* line : queries) {
    Request req;
    (void)kgq::serve::ParseRequestLine(line->text, &req);
    Tracer::Scope query_span(&tr, "query");
    kgq::MatchQuery match;
    kgq::Crpq crpq;
    {
      Tracer::Scope span(&tr, "frontend.prepare");
      if (!PrepareFrontEnd(req, &match, &crpq)) fail("front-end: " + req.text);
    }
    // Warm the cache entry, then time a hit.
    kgq::Result<kgq::serve::QueryAnswer> warm = server.ExecuteQuery(req);
    Tracer::Scope hit_span(&tr, "query_cache.hit");
    kgq::Result<kgq::serve::QueryAnswer> hit = server.ExecuteQuery(req);
    const double hit_ms = hit_span.Close();
    if (!warm.ok() || !hit.ok() || !hit->cached || !(*hit == *warm)) {
      fail("cache hit differs from its miss: " + req.text);
      continue;
    }
    Tracer::Scope render_span(&tr, "protocol.render");
    (void)kgq::serve::RenderAnswer(req, *hit);
    const double render_ms = render_span.Close();
    // BGP constants resolve against the served graph inside the server
    // (no public compile step), so BGPs stop at the front-end.
    if (req.lang == kgq::serve::QueryLang::kBgp) continue;
    kgq::Result<kgq::ConjunctiveQuery> cq =
        req.lang == kgq::serve::QueryLang::kMatch ? kgq::CompileMatch(match)
                                                  : kgq::CompileCrpq(crpq);
    if (!cq.ok()) {
      fail("compile: " + req.text);
      continue;
    }
    kgq::Result<kgq::LogicalOpPtr> plan = [&] {
      Tracer::Scope span(&tr, "plan.optimize");
      return kgq::PlanQuery(*cq, graph_stats, server.options().planner);
    }();
    if (!plan.ok()) {
      fail("plan: " + req.text);
      continue;
    }
    kgq::ExecOptions eopts;
    eopts.parallel.num_threads = w.threads;
    eopts.snapshot = snap->csr.get();
    Tracer::Scope exec_span(&tr, "plan.execute");
    kgq::Result<kgq::RowSet> rows = kgq::ExecutePlan(view, **plan, eopts);
    const double execute_ms = exec_span.Close();
    if (!rows.ok() || rows->rows != warm->rows) {
      fail("ExecutePlan rows differ from the served answer: " + req.text);
      continue;
    }
    std::vector<const kgq::LogicalOp*> atoms;
    CollectPathAtoms(**plan, &atoms);
    if (atoms.empty()) continue;
    ++with_atoms;
    double query_kernel = 0.0, query_other = 0.0;
    std::string engines;
    for (const kgq::LogicalOp* op : atoms) {
      const bool matrix = op->use_matrix_rpq;
      engines += matrix ? " matrix" : " nfa";
      auto timed = [&](const char* name, bool engine, size_t threads) {
        Tracer::Scope span(&tr, name);
        (void)RunKernel(*op, view, snap->csr.get(), engine, threads);
        return span.Close();
      };
      const double chosen = timed("pathalg.kernel", matrix, w.threads);
      const double other = timed("pathalg.kernel_other_engine", !matrix,
                                 w.threads);
      query_kernel += chosen;
      query_other += other;
      kernel_chosen += chosen;
      kernel_best += std::min(chosen, other);
      kernel_1t += timed("pathalg.kernel_1t", matrix, 1);
      kernel_4t += timed("pathalg.kernel_4t", matrix, 4);
      kgq::obs::Registry::SetEnabled(false);
      kernel_4t_off += timed("pathalg.kernel_4t_obs_off", matrix, 4);
      kgq::obs::Registry::SetEnabled(true);
    }
    materialize_ms += execute_ms - query_kernel;
    std::printf("probe %-60.60s %8zu rows  execute %8.2f ms  kernel %8.2f ms "
                "(%s; other engine %.2f ms)  render %7.2f ms  hit %7.2f ms\n",
                req.text.c_str(), warm->rows.size(), execute_ms, query_kernel,
                engines.c_str() + 1, query_other, render_ms, hit_ms);
  }

  // Store layers on a fresh set-up: replay the sequence's writes and
  // publishes through DeltaStore, and time an analytics request right
  // after each publish (the sequence's own, or a components lookup).
  {
    SetupResult s = setup();
    Server& fresh = *s.server;
    bool has_analytics = false;
    for (const Line& line : w.sequence) has_analytics |= line.op == Op::kAnalytics;
    for (const Line& line : w.sequence) {
      if (line.op == Op::kInsertEdge || line.op == Op::kDeleteEdge) {
        Tracer::Scope span(&tr, "store.write");
        kgq::Result<bool> r =
            line.op == Op::kInsertEdge
                ? fresh.store().InsertEdge(line.from, line.to, line.label)
                : fresh.store().DeleteEdge(line.from, line.to, line.label);
        if (!r.ok()) fail("store write: " + line.text);
      } else if (line.op == Op::kPublish) {
        {
          Tracer::Scope span(&tr, "store.publish");
          fresh.store().Publish();
        }
        if (!has_analytics) {
          Tracer::Scope span(&tr, "views.analytics");
          if (!ResponseOk(fresh.HandleLine(
                  "{\"op\":\"analytics\",\"view\":\"components\",\"node\":0}"))) {
            fail("analytics request failed");
          }
        }
      } else if (line.op == Op::kAnalytics) {
        Tracer::Scope span(&tr, "views.analytics");
        if (!ResponseOk(fresh.HandleLine(line.text))) fail(line.text);
      }
    }
  }

  // The cost of one span, for the tracing-overhead note in the output.
  double span_ns = 0.0;
  {
    Tracer probe;
    constexpr int kSpans = 100000;
    const uint64_t start = NowNs();
    for (int i = 0; i < kSpans; ++i) Tracer::Scope s(&probe, "probe");
    span_ns = static_cast<double>(NowNs() - start) / kSpans;
  }
  if (!args.trace_out.empty() && !tr.Write(args.trace_out)) {
    std::fprintf(stderr, "warning: could not write %s\n", args.trace_out.c_str());
  }
  std::printf("workload %s: seed %llu, %zu rounds, %zu lines per pass; %zu "
              "queries probed (%zu with path atoms); %zu spans at %.0f ns "
              "each%s%s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.rounds, w.sequence.size(), queries.size(), with_atoms,
              tr.size(), span_ns, args.trace_out.empty() ? "" : ", dumped to ",
              args.trace_out.c_str());
  std::printf("sequential HandleLine %.3f s, ServeStream %.3f s (%.1f req/s "
              "with the traced run's probes off)\n",
              sequential_s, piped.wall_s,
              static_cast<double>(w.sequence.size()) / piped.wall_s);

  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto per_atom_query = [&](double ms) {
    return with_atoms == 0 ? 0.0 : ms / static_cast<double>(with_atoms);
  };
  const double hits = static_cast<double>(stats.cache_hits);
  const double misses = static_cast<double>(stats.cache_misses);
  if (tally.AnyFailed()) correct = false;
  PrintResult(
      correct, tally,
      {{"protocol.parse_us", tr.MeanMs("protocol.parse") * 1e3, "us"},
       {"frontend.prepare_us", tr.MeanMs("frontend.prepare") * 1e3, "us"},
       {"plan.optimize_us", tr.MeanMs("plan.optimize") * 1e3, "us"},
       {"plan.execute_ms", tr.MeanMs("plan.execute"), "ms"},
       {"pathalg.kernel_ms", per_atom_query(kernel_chosen), "ms"},
       {"plan.materialize_ms", per_atom_query(materialize_ms), "ms"},
       {"plan.engine_regret", ratio(kernel_chosen, kernel_best), "ratio"},
       {"pathalg.speedup_4t", ratio(kernel_1t, kernel_4t), "ratio"},
       {"obs.overhead_ratio", ratio(kernel_4t, kernel_4t_off), "ratio"},
       {"thread_pool.parallel_share", ratio(delta[4], delta[4] + delta[5]),
        "ratio"},
       {"protocol.render_ms", tr.MeanMs("protocol.render"), "ms"},
       {"protocol.response_kb", ratio(read_bytes, reads) / 1024.0, "KB"},
       {"query_cache.hit_ms", tr.MeanMs("query_cache.hit"), "ms"},
       {"query_cache.hit_ratio", ratio(hits, hits + misses), "ratio"},
       {"store.write_us", tr.MeanMs("store.write") * 1e3, "us"},
       {"store.cold_publish_ms", Median(cold_publish_ms), "ms"},
       {"store.publish_ms", tr.MeanMs("store.publish"), "ms"},
       {"views.analytics_ms", tr.MeanMs("views.analytics"), "ms"},
       {"views.advance_share", ratio(delta[6], delta[6] + delta[7] + delta[8]),
        "ratio"},
       {"server.stream_speedup", ratio(sequential_s, piped.wall_s), "ratio"},
       {"rpq.edges_scanned", delta[0], "count"},
       {"matrix_rpq.word_ops", delta[1], "count"},
       {"cfpq.entries", delta[2], "count"},
       {"plan.rows_path_atom", delta[3], "count"}});
  return correct ? 0 : 1;
}

}  // namespace perfbench
