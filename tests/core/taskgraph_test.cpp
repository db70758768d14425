// Task-graph structure and scheduling contracts (src/core/taskgraph/):
//
//  * the SummaGen graph is acyclic, every broadcast feeds at least one
//    DGEMM chunk, and chunk dependencies reproduce the plan's
//    prefix-of-comm_ops contract in ascending collective order;
//  * recovery pruning drops exactly what the historical row/column
//    liveness rule dropped, with node ids untouched;
//  * the SUMMA / 2.5D step chains have the expected shape (replication
//    heads, write-after-read workspace edges, reduction tail);
//  * both schedulers produce bit-identical numeric results and
//    identical counters on the chain graphs (SUMMA and 2.5D);
//  * each rank's node index walks exactly the nodes — and the eager
//    schedule executes exactly the sequence — that a scan of the whole
//    graph selects for that rank, pruned or not;
//  * every node's preds equal a brute-force oracle over the plan's
//    written and read rectangles, and a modeled-engine deadlock names the
//    node each blocked rank was running.
#include "src/core/taskgraph/taskgraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/plan.hpp"
#include "src/core/summa.hpp"
#include "src/core/taskgraph/executor.hpp"
#include "src/core/summa25d.hpp"
#include "src/device/platform.hpp"
#include "src/partition/areas.hpp"
#include "src/partition/nrrp.hpp"
#include "src/partition/shapes.hpp"
#include "src/util/rng.hpp"

namespace summagen::core {
namespace {

using taskgraph::NodeKind;
using taskgraph::TaskGraph;
using taskgraph::TaskNode;

partition::PartitionSpec shape_spec(partition::Shape shape,
                                    std::int64_t n = 120) {
  const auto areas = partition::partition_areas_cpm(n * n, {1.0, 2.0, 0.9});
  return partition::build_shape(shape, n, areas);
}

std::vector<partition::Shape> all_shapes() {
  return {partition::Shape::kSquareCorner, partition::Shape::kSquareRectangle,
          partition::Shape::kBlockRectangle,
          partition::Shape::kOneDimensional};
}

std::vector<int> vec(std::span<const int> ids) {
  return {ids.begin(), ids.end()};
}

/// Largest comm-node id among a node's predecessors, -1 when none.
int max_comm_pred(const TaskGraph& g, const TaskNode& n) {
  int dep = -1;
  for (int p : g.preds(n.id)) {
    if (g.node(p).is_comm()) dep = std::max(dep, p);
  }
  return dep;
}

TEST(SummagenGraph, NodeInventoryMatchesPlan) {
  for (const auto shape : all_shapes()) {
    const auto spec = shape_spec(shape);
    SummaGenOptions options;
    options.bcast_panel_rows = 16;  // panelled: several comms per line
    const ExecutionPlan plan = build_plan(spec, options);
    const TaskGraph g = taskgraph::build_summagen_graph(spec, plan);
    EXPECT_NO_THROW(g.validate());

    std::size_t chunks = 0;
    for (const auto& op : plan.gemm_ops) chunks += op.chunks.size();
    ASSERT_EQ(g.size(), plan.copy_ops.size() + plan.comm_ops.size() + chunks);

    // Construction order is copies, comms, chunks — and the comm nodes
    // preserve the plan's eager global (collective) order: node
    // |copy_ops| + i is plan comm op i, over the same subgroup.
    for (std::size_t i = 0; i < plan.copy_ops.size(); ++i) {
      EXPECT_EQ(g.node(static_cast<int>(i)).kind, NodeKind::kCopy);
    }
    for (std::size_t i = 0; i < plan.comm_ops.size(); ++i) {
      const TaskNode& n =
          g.node(static_cast<int>(plan.copy_ops.size() + i));
      EXPECT_EQ(n.kind, NodeKind::kBcast);
      EXPECT_EQ(n.payload, static_cast<int>(i));
      EXPECT_EQ(vec(g.owners(n.id)), plan.comm_ops[i].owners);
    }
  }
}

TEST(SummagenGraph, EveryBroadcastFeedsAGemmChunk) {
  for (const auto shape : all_shapes()) {
    const auto spec = shape_spec(shape);
    for (const std::int64_t panel_rows : {std::int64_t{0}, std::int64_t{16}}) {
      SummaGenOptions options;
      options.bcast_panel_rows = panel_rows;
      const ExecutionPlan plan = build_plan(spec, options);
      const TaskGraph g = taskgraph::build_summagen_graph(spec, plan);
      for (const TaskNode& n : g.nodes()) {
        if (n.kind != NodeKind::kBcast) continue;
        const auto succs = g.succs(n.id);
        const bool feeds_gemm = std::any_of(
            succs.begin(), succs.end(),
            [&](int s) { return g.node(s).kind == NodeKind::kGemm; });
        EXPECT_TRUE(feeds_gemm)
            << partition::shape_name(shape) << " bcast node " << n.id
            << " (plan comm op " << n.payload << ") feeds no DGEMM chunk";
      }
    }
  }
}

TEST(SummagenGraph, ChunkDepsReproducePlanPrefixes) {
  for (const auto shape : all_shapes()) {
    const auto spec = shape_spec(shape);
    SummaGenOptions options;
    options.bcast_panel_rows = 16;
    const ExecutionPlan plan = build_plan(spec, options);
    const TaskGraph g = taskgraph::build_summagen_graph(spec, plan);
    const int ncopies = static_cast<int>(plan.copy_ops.size());
    for (const TaskNode& n : g.nodes()) {
      if (n.kind != NodeKind::kGemm) continue;
      const GemmOp& op = plan.gemm_ops[static_cast<std::size_t>(n.payload)];
      const GemmChunk& ch = op.chunks[static_cast<std::size_t>(n.aux)];
      // A chunk's completion horizon — the largest comm node it waits for
      // — is exactly the plan's prefix bound, offset by the copy block.
      // Chunks of one op have strictly increasing dep, so the horizons of
      // the chunk chain are strictly increasing too.
      const int horizon = max_comm_pred(g, n);
      if (ch.dep < 0) {
        EXPECT_EQ(horizon, -1) << "dep-free chunk waits for a comm node";
      } else {
        EXPECT_EQ(horizon, ncopies + ch.dep)
            << partition::shape_name(shape) << " gemm op " << n.payload
            << " chunk " << n.aux;
      }
      if (n.aux > 0) {
        const TaskNode* prev = nullptr;
        for (int p : g.preds(n.id)) {
          const TaskNode& pn = g.node(p);
          if (pn.kind == NodeKind::kGemm && pn.payload == n.payload) {
            prev = &pn;
          }
        }
        ASSERT_NE(prev, nullptr) << "chunk chain broken";
        EXPECT_EQ(prev->aux, n.aux - 1);
        EXPECT_GT(horizon, max_comm_pred(g, *prev));
      }
    }
  }
}

/// Rows [r0, r1) x columns [c0, c1) of a global matrix.
struct Rect {
  std::int64_t r0, r1, c0, c1;
};

bool intersect(const Rect& x, const Rect& y) {
  return x.r0 < y.r1 && y.r0 < x.r1 && x.c0 < y.c1 && y.c0 < x.c1;
}

/// The SummaGen edge set by brute force in global index space, independent
/// of the builder's per-cell lookups: a chunk of GemmOp (bi, bj) reads A
/// rows of block bi x [k0, k1) and B rows [k0, k1) x columns of block bj,
/// so its preds are every copy or panel whose written A (WA) or B (WB)
/// rectangle meets what it reads, plus the previous chunk of its op.
/// Copies and panels have no preds. Indexed by node id; ascending.
std::vector<std::vector<int>> oracle_preds(const partition::PartitionSpec& spec,
                                           const ExecutionPlan& plan) {
  const auto roff = spec.row_offsets();
  const auto coff = spec.col_offsets();
  struct Write {
    bool is_a;
    Rect rect;
  };
  std::vector<Write> writes;  // node-id order: copies, then panels
  for (const CopyOp& op : plan.copy_ops) {
    writes.push_back({op.is_a,
                      {roff[op.bi], roff[op.bi + 1], coff[op.bj],
                       coff[op.bj + 1]}});
  }
  for (const CommOp& op : plan.comm_ops) {
    const std::int64_t r0 = roff[op.bi] + op.p0;
    writes.push_back(
        {op.is_a, {r0, r0 + op.rows, coff[op.bj], coff[op.bj + 1]}});
  }
  std::vector<std::vector<int>> preds(writes.size());
  for (const GemmOp& gop : plan.gemm_ops) {
    for (std::size_t ci = 0; ci < gop.chunks.size(); ++ci) {
      const GemmChunk& ch = gop.chunks[ci];
      const Rect a_read{roff[gop.bi], roff[gop.bi + 1], ch.k0, ch.k1};
      const Rect b_read{ch.k0, ch.k1, coff[gop.bj], coff[gop.bj + 1]};
      std::vector<int> p;
      for (std::size_t w = 0; w < writes.size(); ++w) {
        if (intersect(writes[w].rect, writes[w].is_a ? a_read : b_read)) {
          p.push_back(static_cast<int>(w));
        }
      }
      if (ci > 0) p.push_back(static_cast<int>(preds.size()) - 1);
      std::sort(p.begin(), p.end());
      preds.push_back(std::move(p));
    }
  }
  return preds;
}

TEST(SummagenGraph, EdgeSetMatchesBruteForceOracle) {
  std::vector<std::pair<std::string, partition::PartitionSpec>> specs;
  for (const auto shape : all_shapes()) {
    specs.emplace_back(partition::shape_name(shape), shape_spec(shape));
  }
  // The 16-rank multi-node spec of EngineEquivalenceCluster.
  const std::int64_t n = 1024;
  specs.emplace_back("nrrp-16",
                     partition::nrrp_partition(
                         n, partition::partition_areas_cpm(
                                n * n, std::vector<double>(16, 1.0))));
  for (const auto& [label, spec] : specs) {
    for (const std::int64_t panel_rows : {std::int64_t{0}, std::int64_t{32}}) {
      SummaGenOptions options;
      options.bcast_panel_rows = panel_rows;
      const ExecutionPlan plan = build_plan(spec, options);
      const TaskGraph g = taskgraph::build_summagen_graph(spec, plan);
      const auto oracle = oracle_preds(spec, plan);
      ASSERT_EQ(g.size(), oracle.size()) << label;
      for (std::size_t id = 0; id < oracle.size(); ++id) {
        ASSERT_EQ(vec(g.preds(static_cast<int>(id))), oracle[id])
            << label << " panel_rows=" << panel_rows << " node " << id;
      }
    }
  }
}

TEST(SummagenGraph, PruneMatchesRowColumnLiveness) {
  const auto spec = shape_spec(partition::Shape::kSquareCorner);
  SummaGenOptions options;
  options.bcast_panel_rows = 16;
  const ExecutionPlan plan = build_plan(spec, options);

  // Mark a couple of cells finished, covering "row fully done" and
  // "row partially done" cases.
  std::set<std::pair<int, int>> done;
  done.insert({plan.gemm_ops[0].bi, plan.gemm_ops[0].bj});
  done.insert({plan.gemm_ops.back().bi, plan.gemm_ops.back().bj});

  TaskGraph g = taskgraph::build_summagen_graph(spec, plan);
  taskgraph::prune_completed(g, plan, done);
  EXPECT_NO_THROW(g.validate());  // ids and edges survive pruning

  std::set<int> live_rows, live_cols;
  for (const auto& op : plan.gemm_ops) {
    if (done.count({op.bi, op.bj}) == 0) {
      live_rows.insert(op.bi);
      live_cols.insert(op.bj);
    }
  }
  for (const TaskNode& n : g.nodes()) {
    switch (n.kind) {
      case NodeKind::kGemm: {
        const GemmOp& op =
            plan.gemm_ops[static_cast<std::size_t>(n.payload)];
        EXPECT_EQ(n.dropped, done.count({op.bi, op.bj}) != 0);
        break;
      }
      case NodeKind::kBcast: {
        const CommOp& op =
            plan.comm_ops[static_cast<std::size_t>(n.payload)];
        const bool live = op.is_a ? live_rows.count(op.bi) != 0
                                  : live_cols.count(op.bj) != 0;
        EXPECT_EQ(n.dropped, !live) << "comm op " << n.payload;
        break;
      }
      case NodeKind::kCopy: {
        const CopyOp& op =
            plan.copy_ops[static_cast<std::size_t>(n.payload)];
        const bool live = op.is_a ? live_rows.count(op.bi) != 0
                                  : live_cols.count(op.bj) != 0;
        EXPECT_EQ(n.dropped, !live) << "copy op " << n.payload;
        break;
      }
      default:
        FAIL() << "unexpected node kind in a SummaGen graph";
    }
  }
}

/// Whether `rank` executes `n`: it owns the local node or is one of the
/// comm node's participants. The whole-graph scan the rank index replaces.
bool executes(const TaskGraph& g, const TaskNode& n, int rank) {
  const auto owners = g.owners(n.id);
  return n.is_comm()
             ? std::find(owners.begin(), owners.end(), rank) != owners.end()
             : n.owner == rank;
}

/// One executed step of the eager schedule: (first node id, fused chunk
/// count; 0 = an unfused run_local/run_comm call).
using Step = std::pair<int, int>;

/// The eager schedule by full scan over every node of the graph.
std::vector<Step> full_scan_program(const TaskGraph& g, int rank) {
  std::vector<Step> steps;
  const auto& nodes = g.nodes();
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const TaskNode& n = nodes[id];
    if (n.dropped || !executes(g, n, rank)) continue;
    if (n.kind == NodeKind::kGemm) {
      std::size_t count = 1;
      while (id + count < nodes.size() &&
             nodes[id + count].kind == NodeKind::kGemm &&
             nodes[id + count].payload == n.payload) {
        ++count;
      }
      steps.emplace_back(n.id, static_cast<int>(count));
      id += count - 1;
      continue;
    }
    steps.emplace_back(n.id, 0);
  }
  return steps;
}

std::vector<Step> indexed_program(const TaskGraph& g, int rank) {
  std::vector<Step> steps;
  taskgraph::ExecHooks hooks;
  hooks.run_local = [&](const TaskNode& n) { steps.emplace_back(n.id, 0); };
  hooks.run_comm = hooks.run_local;
  hooks.run_fused = [&](const TaskNode& n, int count) {
    steps.emplace_back(n.id, count);
  };
  taskgraph::run_graph(g, rank, taskgraph::GraphSchedule::kProgram, 0, hooks);
  return steps;
}

void expect_index_matches_full_scan(const TaskGraph& g, int nranks,
                                    const std::string& label) {
  for (int rank = 0; rank < nranks; ++rank) {
    std::vector<int> scanned;
    for (const TaskNode& n : g.nodes()) {
      if (executes(g, n, rank)) scanned.push_back(n.id);
    }
    const auto indexed = g.rank_nodes(rank);
    EXPECT_EQ(std::vector<int>(indexed.begin(), indexed.end()), scanned)
        << label << " rank " << rank;
    EXPECT_EQ(indexed_program(g, rank), full_scan_program(g, rank))
        << label << " rank " << rank;
  }
  EXPECT_TRUE(g.rank_nodes(nranks).empty()) << label;
  EXPECT_TRUE(g.rank_nodes(-1).empty()) << label;
}

TEST(RankIndex, MatchesFullScanOnPaperShapesAndCluster) {
  struct Case {
    std::string label;
    partition::PartitionSpec spec;
    int nranks;
  };
  std::vector<Case> cases;
  for (const auto shape : all_shapes()) {
    cases.push_back({partition::shape_name(shape), shape_spec(shape), 3});
  }
  // The 16-rank multi-node spec of EngineEquivalenceCluster.
  const std::int64_t n = 1024;
  cases.push_back(
      {"nrrp-16", partition::nrrp_partition(
                      n, partition::partition_areas_cpm(
                             n * n, std::vector<double>(16, 1.0))),
       16});
  for (const Case& c : cases) {
    for (const std::int64_t panel_rows : {std::int64_t{0}, std::int64_t{16}}) {
      SummaGenOptions options;
      options.bcast_panel_rows = panel_rows;
      const ExecutionPlan plan = build_plan(c.spec, options);
      TaskGraph g = taskgraph::build_summagen_graph(c.spec, plan);
      const std::string label =
          c.label + " panel_rows=" + std::to_string(panel_rows);
      expect_index_matches_full_scan(g, c.nranks, label);

      // Pruning only sets drop flags: the index of the pruned copy still
      // lists every node, and the eager schedule skips the dropped ones.
      std::set<std::pair<int, int>> done;
      done.insert({plan.gemm_ops.front().bi, plan.gemm_ops.front().bj});
      done.insert({plan.gemm_ops.back().bi, plan.gemm_ops.back().bj});
      taskgraph::prune_completed(g, plan, done);
      expect_index_matches_full_scan(g, c.nranks, label + " pruned");
    }
  }
}

TEST(RankIndex, RepeatedOwnerIsIndexedOnce) {
  TaskGraph g;
  const int c = g.add_comm(NodeKind::kBcast, {0, 2, 2}, 0);
  const int l = g.add_local(NodeKind::kCopy, 2, 0);
  const auto two = g.rank_nodes(2);
  EXPECT_EQ(std::vector<int>(two.begin(), two.end()), (std::vector<int>{c, l}));
  EXPECT_TRUE(g.rank_nodes(1).empty());
  EXPECT_THROW(g.add_local(NodeKind::kCopy, -1, 0), std::logic_error);
  EXPECT_THROW(g.add_comm(NodeKind::kBcast, {0, -1}, 0), std::logic_error);
  EXPECT_EQ(g.size(), 2u);  // refused nodes are not added
}

TEST(TaskGraphInvariants, RejectsBadEdgesAndCycles) {
  TaskGraph g;
  const int a = g.add_local(NodeKind::kCopy, 0, 0);
  const int b = g.add_local(NodeKind::kGemm, 0, 1);
  const int c = g.add_local(NodeKind::kGemm, 0, 2);
  g.add_dep(a, b);
  EXPECT_THROW(g.add_dep(a, b), std::logic_error);   // duplicate
  EXPECT_THROW(g.add_dep(a, a), std::logic_error);   // self edge
  EXPECT_THROW(g.add_dep(a, 99), std::logic_error);  // unknown node
  // A duplicate behind a non-ascending insertion: a -> c, then b < c.
  g.add_dep(a, c);
  g.add_dep(b, c);
  TaskGraph out_of_order;
  const int x = out_of_order.add_local(NodeKind::kCopy, 0, 0);
  const int y = out_of_order.add_local(NodeKind::kGemm, 0, 1);
  const int z = out_of_order.add_local(NodeKind::kGemm, 0, 2);
  out_of_order.add_dep(x, z);
  out_of_order.add_dep(x, y);
  EXPECT_THROW(out_of_order.add_dep(x, z), std::logic_error);
  EXPECT_THROW(out_of_order.add_dep(x, y), std::logic_error);
  EXPECT_THROW(g.validate(), std::logic_error);  // not sealed yet
  g.seal();
  EXPECT_NO_THROW(g.validate());
  // Preds ascending, succs in insertion order.
  EXPECT_EQ(vec(g.preds(c)), (std::vector<int>{a, b}));
  out_of_order.seal();
  EXPECT_EQ(vec(out_of_order.succs(x)), (std::vector<int>{z, y}));
  EXPECT_THROW(g.add_dep(b, a), std::logic_error);  // sealed
  EXPECT_THROW(g.add_local(NodeKind::kCopy, 0, 0), std::logic_error);

  TaskGraph cyclic;
  const int p = cyclic.add_local(NodeKind::kCopy, 0, 0);
  const int q = cyclic.add_local(NodeKind::kGemm, 0, 1);
  cyclic.add_dep(p, q);
  cyclic.add_dep(q, p);  // structurally fine, semantically a cycle
  cyclic.seal();
  EXPECT_THROW(cyclic.validate(), std::logic_error);
  EXPECT_THROW(g.add_comm(NodeKind::kBcast, {}, 0), std::logic_error);
}

TEST(DeadlockDiagnosis, NamesTheNodeEachBlockedRankWasRunning) {
  // Node 1 broadcasts over ranks 0-2, but rank 1's copy of the graph has
  // it dropped: ranks 0 and 2 wait in the broadcast forever. The engine's
  // DeadlockError names that node beside each wait site.
  TaskGraph full;
  full.add_local(NodeKind::kCopy, 0, 0);
  const int bcast = full.add_comm(NodeKind::kBcast, {0, 1, 2}, 0);
  full.seal();
  TaskGraph skipped = full;
  skipped.set_dropped(bcast, true);
  for (const auto schedule : {taskgraph::GraphSchedule::kProgram,
                              taskgraph::GraphSchedule::kDataflow}) {
    sgmpi::Config config;
    config.nranks = 3;
    sgmpi::Runtime runtime(config);
    try {
      runtime.run([&](sgmpi::Comm& world) {
        taskgraph::ExecHooks hooks;
        hooks.run_local = [](const TaskNode&) {};
        hooks.run_comm = [&](const TaskNode&) {
          double v = 1.0;
          world.bcast(&v, 1, 0);
        };
        taskgraph::run_graph(world.rank() == 1 ? skipped : full,
                             world.rank(), schedule, 0, hooks);
      });
      FAIL() << "run did not throw";
    } catch (const sgmpi::DeadlockError& e) {
      EXPECT_STREQ(e.what(),
                   "sgmpi: deadlock: no rank can make progress; blocked: "
                   "rank 0 in bcast slot (node 1 kBcast), "
                   "rank 2 in bcast slot (node 1 kBcast)");
    }
  }
}

TEST(StepChainGraph, SummaShape) {
  const std::vector<int> row = {0, 1};
  const std::vector<int> col = {0, 2};
  const TaskGraph g = taskgraph::build_summa_graph(3, /*rank=*/0, row, col);
  ASSERT_EQ(g.size(), 9u);  // (a, b, gemm) per step
  for (int s = 0; s < 3; ++s) {
    const TaskNode& a = g.node(3 * s);
    const TaskNode& b = g.node(3 * s + 1);
    const TaskNode& gm = g.node(3 * s + 2);
    EXPECT_EQ(a.kind, NodeKind::kBcast);
    EXPECT_EQ(vec(g.owners(a.id)), row);
    EXPECT_EQ(vec(g.owners(b.id)), col);
    EXPECT_EQ(gm.kind, NodeKind::kGemm);
    EXPECT_EQ(a.payload, s);
    EXPECT_EQ(gm.payload, s);
    // The GEMM reads both panels; the next step's panels write-after-read
    // the shared workspaces, so they wait for this GEMM.
    const std::vector<int> preds = vec(g.preds(gm.id));  // ascending
    if (s == 0) {
      EXPECT_EQ(preds, (std::vector<int>{a.id, b.id}));
    } else {
      EXPECT_EQ(preds, (std::vector<int>{g.node(3 * s - 1).id, a.id, b.id}));
      EXPECT_EQ(vec(g.preds(a.id)), (std::vector<int>{3 * s - 1}));
      EXPECT_EQ(vec(g.preds(b.id)), (std::vector<int>{3 * s - 1}));
    }
  }
}

TEST(StepChainGraph, TrivialAxisBecomesLocalPack) {
  const TaskGraph g =
      taskgraph::build_summa_graph(2, /*rank=*/3, {3}, {1, 3});
  for (int s = 0; s < 2; ++s) {
    const TaskNode& a = g.node(3 * s);
    EXPECT_EQ(a.kind, NodeKind::kPack);
    EXPECT_FALSE(a.is_comm());
    EXPECT_EQ(a.owner, 3);
    EXPECT_EQ(g.node(3 * s + 1).kind, NodeKind::kBcast);
  }
}

TEST(StepChainGraph, Summa25dAddsReplicationAndReduction) {
  const std::vector<int> row = {0, 1};
  const std::vector<int> col = {0, 2};
  const std::vector<int> stack = {0, 4};
  const TaskGraph g =
      taskgraph::build_summa25d_graph(2, /*rank=*/0, row, col, stack);
  ASSERT_EQ(g.size(), 2u + 6u + 1u);
  const TaskNode& rep_a = g.node(0);
  const TaskNode& rep_b = g.node(1);
  const TaskNode& red = g.node(static_cast<int>(g.size()) - 1);
  EXPECT_EQ(rep_a.kind, NodeKind::kBcast);
  EXPECT_EQ(rep_a.payload, -1);
  EXPECT_EQ(vec(g.owners(rep_a.id)), stack);
  EXPECT_EQ(rep_b.payload, -1);
  EXPECT_EQ(red.kind, NodeKind::kReduce);
  EXPECT_EQ(red.payload, -2);
  EXPECT_EQ(vec(g.owners(red.id)), stack);
  // Depth-communicator collective order: A replication, B replication,
  // then (after the last GEMM) the reduction.
  EXPECT_EQ(g.succs(rep_a.id).front(), rep_b.id);
  const auto rep_b_succs = g.succs(rep_b.id);
  EXPECT_TRUE(std::count(rep_b_succs.begin(), rep_b_succs.end(), 3));
  const auto red_preds = g.preds(red.id);
  ASSERT_EQ(red_preds.size(), 1u);
  EXPECT_EQ(g.node(red_preds.front()).kind, NodeKind::kGemm);
  EXPECT_EQ(g.node(red_preds.front()).payload, 1);
}

/// One numeric SUMMA run: gathered C plus every rank's report.
struct SummaOutcome {
  util::Matrix c;
  std::vector<SummaReport> reports;
};

SummaOutcome run_summa(std::int64_t n, SummaConfig config,
                       Scheduler scheduler) {
  config.scheduler = scheduler;
  const int p = config.pr * config.pc;
  const auto platform = device::Platform::homogeneous(p);
  const auto processors = platform.processors();
  util::Matrix a(n, n), b(n, n);
  util::fill_random(a, util::derive_seed(29, 1));
  util::fill_random(b, util::derive_seed(29, 2));
  std::vector<std::unique_ptr<SummaLocalData>> locals;
  for (int r = 0; r < p; ++r) {
    locals.push_back(std::make_unique<SummaLocalData>(n, config, r, a, b));
  }
  sgmpi::Config mpi_config;
  mpi_config.nranks = p;
  sgmpi::Runtime runtime(mpi_config);
  SummaOutcome out;
  out.reports.resize(static_cast<std::size_t>(p));
  runtime.run([&](sgmpi::Comm& world) {
    const std::size_t r = static_cast<std::size_t>(world.rank());
    out.reports[r] =
        summa_rank(world, n, config, processors[r], locals[r].get());
  });
  out.c = util::Matrix(n, n);
  for (int r = 0; r < p; ++r) {
    locals[static_cast<std::size_t>(r)]->gather_c(out.c);
  }
  return out;
}

TEST(StepChainSchedulerMatrix, SummaBitIdenticalAcrossSchedulers) {
  const std::int64_t n = 100;
  const SummaConfig config{2, 3, 32};
  const SummaOutcome eager = run_summa(n, config, Scheduler::kEager);
  const SummaOutcome other = run_summa(n, config, Scheduler::kTaskGraph);
  EXPECT_EQ(util::Matrix::max_abs_diff(eager.c, other.c), 0.0);
  for (std::size_t r = 0; r < eager.reports.size(); ++r) {
    EXPECT_EQ(eager.reports[r].steps, other.reports[r].steps);
    EXPECT_EQ(eager.reports[r].bcasts, other.reports[r].bcasts);
    EXPECT_EQ(eager.reports[r].bcast_bytes, other.reports[r].bcast_bytes);
    EXPECT_EQ(eager.reports[r].mpi_time_s, other.reports[r].mpi_time_s);
    EXPECT_EQ(eager.reports[r].flops, other.reports[r].flops);
  }
}

/// One numeric 2.5D run: layer-0 gathered C plus every rank's report.
struct Summa25dOutcome {
  util::Matrix c;
  std::vector<Summa25dReport> reports;
};

Summa25dOutcome run_25d(std::int64_t n, Summa25dConfig config,
                        Scheduler scheduler) {
  config.scheduler = scheduler;
  const int p = config.q * config.q * config.c;
  const auto platform = device::Platform::homogeneous(p);
  const auto processors = platform.processors();
  util::Matrix a(n, n), b(n, n);
  util::fill_random(a, util::derive_seed(31, 1));
  util::fill_random(b, util::derive_seed(31, 2));
  std::vector<std::unique_ptr<Summa25dLocalData>> locals;
  for (int r = 0; r < p; ++r) {
    locals.push_back(std::make_unique<Summa25dLocalData>(n, config, r, a, b));
  }
  sgmpi::Config mpi_config;
  mpi_config.nranks = p;
  sgmpi::Runtime runtime(mpi_config);
  Summa25dOutcome out;
  out.reports.resize(static_cast<std::size_t>(p));
  runtime.run([&](sgmpi::Comm& world) {
    const std::size_t r = static_cast<std::size_t>(world.rank());
    out.reports[r] =
        summa25d_rank(world, n, config, processors[r], locals[r].get());
  });
  out.c = util::Matrix(n, n);
  for (int r = 0; r < config.q * config.q; ++r) {
    locals[static_cast<std::size_t>(r)]->gather_c(out.c);
  }
  return out;
}

TEST(StepChainSchedulerMatrix, Summa25dBitIdenticalAcrossSchedulers) {
  const std::int64_t n = 60;
  const Summa25dConfig config{2, 3, 7};  // nothing divides anything
  const Summa25dOutcome eager = run_25d(n, config, Scheduler::kEager);
  const Summa25dOutcome other = run_25d(n, config, Scheduler::kTaskGraph);
  EXPECT_EQ(util::Matrix::max_abs_diff(eager.c, other.c), 0.0);
  for (std::size_t r = 0; r < eager.reports.size(); ++r) {
    EXPECT_EQ(eager.reports[r].steps, other.reports[r].steps);
    EXPECT_EQ(eager.reports[r].bcasts, other.reports[r].bcasts);
    EXPECT_EQ(eager.reports[r].bcast_bytes, other.reports[r].bcast_bytes);
    EXPECT_EQ(eager.reports[r].replication_bytes,
              other.reports[r].replication_bytes);
    EXPECT_EQ(eager.reports[r].reduce_bytes, other.reports[r].reduce_bytes);
    EXPECT_EQ(eager.reports[r].mpi_time_s, other.reports[r].mpi_time_s);
  }
}

}  // namespace
}  // namespace summagen::core
