#include "src/core/taskgraph/taskgraph.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace summagen::core::taskgraph {

int TaskGraph::add_local(NodeKind kind, int owner, int payload, int aux) {
  if (owner < 0) throw std::logic_error("TaskGraph: negative owner rank");
  return add_node(kind, owner, {}, payload, aux);
}

int TaskGraph::add_comm(NodeKind kind, const std::vector<int>& owners,
                        int payload, int aux) {
  if (owners.empty()) {
    throw std::logic_error("TaskGraph: comm node without owners");
  }
  if (*std::min_element(owners.begin(), owners.end()) < 0) {
    throw std::logic_error("TaskGraph: negative owner rank");
  }
  return add_node(kind, -1, owners, payload, aux);
}

int TaskGraph::add_node(NodeKind kind, int owner, std::span<const int> owners,
                        int payload, int aux) {
  if (sealed_) throw std::logic_error("TaskGraph: node added after seal()");
  TaskNode n;
  n.id = static_cast<int>(nodes_.size());
  n.owner = owner;
  n.payload = payload;
  n.aux = aux;
  n.kind = kind;
  n.comm = !owners.empty();
  nodes_.push_back(n);
  owner_ids_.insert(owner_ids_.end(), owners.begin(), owners.end());
  owner_off_.push_back(static_cast<int>(owner_ids_.size()));
  max_succ_.push_back(-1);
  first_out_.push_back(-1);
  if (n.comm) {
    for (int rank : owners) index(rank, n.id);
  } else {
    index(owner, n.id);
  }
  return n.id;
}

void TaskGraph::reserve(std::size_t nodes) {
  nodes_.reserve(nodes);
  owner_off_.reserve(nodes + 1);
  max_succ_.reserve(nodes);
  first_out_.reserve(nodes);
}

void TaskGraph::index(int rank, int id) {
  const auto r = static_cast<std::size_t>(rank);
  if (r >= rank_nodes_.size()) rank_nodes_.resize(r + 1);
  std::vector<int>& ids = rank_nodes_[r];
  if (ids.empty() || ids.back() != id) ids.push_back(id);  // owner listed twice
}

std::span<const int> TaskGraph::rank_nodes(int rank) const {
  const auto r = static_cast<std::size_t>(rank);
  if (rank < 0 || r >= rank_nodes_.size()) return {};
  return rank_nodes_[r];
}

void TaskGraph::check_id(int id) const {
  if (id < 0 || id >= static_cast<int>(nodes_.size())) {
    throw std::logic_error("TaskGraph: node id out of range");
  }
}

void TaskGraph::check_sealed() const {
  if (!sealed_) throw std::logic_error("TaskGraph: graph is not sealed");
}

void TaskGraph::set_dropped(int id, bool dropped) {
  check_id(id);
  nodes_[static_cast<std::size_t>(id)].dropped = dropped;
}

const TaskNode& TaskGraph::node(int id) const {
  check_id(id);
  return nodes_[static_cast<std::size_t>(id)];
}

namespace {

/// Row `id` of a CSR array.
std::span<const int> csr_row(const std::vector<int>& off,
                             const std::vector<int>& ids, int id) {
  const auto i = static_cast<std::size_t>(id);
  return std::span<const int>(ids).subspan(
      static_cast<std::size_t>(off[i]),
      static_cast<std::size_t>(off[i + 1] - off[i]));
}

}  // namespace

std::span<const int> TaskGraph::owners(int id) const {
  check_id(id);
  return csr_row(owner_off_, owner_ids_, id);
}

std::span<const int> TaskGraph::preds(int id) const {
  check_sealed();
  check_id(id);
  return csr_row(pred_off_, pred_ids_, id);
}

std::span<const int> TaskGraph::succs(int id) const {
  check_sealed();
  check_id(id);
  return csr_row(succ_off_, succ_ids_, id);
}

void TaskGraph::add_dep(int pred, int succ) {
  if (sealed_) throw std::logic_error("TaskGraph: edge added after seal()");
  if (pred < 0 || succ < 0 || pred >= static_cast<int>(nodes_.size()) ||
      succ >= static_cast<int>(nodes_.size()) || pred == succ) {
    throw std::logic_error("TaskGraph: bad edge " + std::to_string(pred) +
                           " -> " + std::to_string(succ));
  }
  if (edges_.size() >= static_cast<std::size_t>(
                           std::numeric_limits<int>::max())) {
    throw std::length_error("TaskGraph: too many edges");
  }
  const auto p = static_cast<std::size_t>(pred);
  if (succ > max_succ_[p]) {
    max_succ_[p] = succ;  // above every earlier successor: cannot repeat one
  } else {
    // Non-ascending insertion: look for the edge among those added since
    // pred's first out-edge.
    for (auto e = edges_.begin() + first_out_[p]; e != edges_.end(); ++e) {
      if (e->pred == pred && e->succ == succ) {
        throw std::logic_error("TaskGraph: duplicate edge " +
                               std::to_string(pred) + " -> " +
                               std::to_string(succ));
      }
    }
  }
  if (first_out_[p] < 0) first_out_[p] = static_cast<int>(edges_.size());
  edges_.push_back({pred, succ});
}

void TaskGraph::seal() {
  if (sealed_) return;
  const std::size_t n = nodes_.size();
  succ_off_.assign(n + 1, 0);
  pred_off_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++succ_off_[static_cast<std::size_t>(e.pred) + 1];
    ++pred_off_[static_cast<std::size_t>(e.succ) + 1];
  }
  std::partial_sum(succ_off_.begin(), succ_off_.end(), succ_off_.begin());
  std::partial_sum(pred_off_.begin(), pred_off_.end(), pred_off_.begin());

  // Succs: a stable counting sort of the edge list by source, so each
  // node's succs keep insertion order.
  std::vector<int> cursor(succ_off_.begin(), succ_off_.end() - 1);
  succ_ids_.resize(edges_.size());
  for (const Edge& e : edges_) {
    succ_ids_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(e.pred)]++)] = e.succ;
  }
  std::vector<Edge>().swap(edges_);
  std::vector<int>().swap(max_succ_);
  std::vector<int>().swap(first_out_);

  // Preds: visiting the sources in ascending id appends each node's preds
  // in ascending order.
  std::copy(pred_off_.begin(), pred_off_.end() - 1, cursor.begin());
  pred_ids_.resize(succ_ids_.size());
  for (int u = 0; u < static_cast<int>(n); ++u) {
    for (int v : csr_row(succ_off_, succ_ids_, u)) {
      pred_ids_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(v)]++)] = u;
    }
  }
  sealed_ = true;
}

void TaskGraph::validate() const {
  check_sealed();
  const int n = static_cast<int>(nodes_.size());
  const auto asymmetric = [](int from, int to) {
    return std::logic_error("TaskGraph: asymmetric edge " +
                            std::to_string(from) + " -> " +
                            std::to_string(to));
  };
  // Edge symmetry: preds are ascending, so walking every succ list in
  // ascending source order must meet each node's preds in order — one
  // cursor per node, no search.
  std::vector<int> cursor(pred_off_.begin(), pred_off_.end() - 1);
  for (int u = 0; u < n; ++u) {
    for (int v : csr_row(succ_off_, succ_ids_, u)) {
      if (v < 0 || v >= n) {
        throw std::logic_error("TaskGraph: node id out of range");
      }
      int& c = cursor[static_cast<std::size_t>(v)];
      if (c == pred_off_[static_cast<std::size_t>(v) + 1] ||
          pred_ids_[static_cast<std::size_t>(c)] != u) {
        throw asymmetric(u, v);
      }
      ++c;
    }
  }
  for (int v = 0; v < n; ++v) {
    const int c = cursor[static_cast<std::size_t>(v)];
    if (c != pred_off_[static_cast<std::size_t>(v) + 1]) {
      throw asymmetric(pred_ids_[static_cast<std::size_t>(c)], v);
    }
  }
  // Acyclicity: Kahn's algorithm must consume every node (dropped nodes
  // included — their edges are still present). `cursor` becomes the
  // remaining in-degree.
  std::vector<int> ready;
  for (int v = 0; v < n; ++v) {
    const auto i = static_cast<std::size_t>(v);
    cursor[i] = pred_off_[i + 1] - pred_off_[i];
    if (cursor[i] == 0) ready.push_back(v);
  }
  int seen = 0;
  while (!ready.empty()) {
    const int id = ready.back();
    ready.pop_back();
    ++seen;
    for (int s : csr_row(succ_off_, succ_ids_, id)) {
      if (--cursor[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
    }
  }
  if (seen != n) {
    throw std::logic_error("TaskGraph: cycle detected (" +
                           std::to_string(n - seen) + " nodes unreachable)");
  }
}

namespace {

/// Items grouped by key in CSR form: the items of key c are
/// items[off[c], off[c+1]), in ascending item order.
struct Buckets {
  std::vector<int> off;
  std::vector<int> items;

  std::span<const int> at(std::size_t key) const {
    return csr_row(off, items, static_cast<int>(key));
  }
};

/// Buckets item i under key_of[i]; items with a negative key are left out.
Buckets bucket(std::size_t nkeys, const std::vector<int>& key_of) {
  Buckets b;
  b.off.assign(nkeys + 1, 0);
  for (int key : key_of) {
    if (key >= 0) ++b.off[static_cast<std::size_t>(key) + 1];
  }
  std::partial_sum(b.off.begin(), b.off.end(), b.off.begin());
  b.items.resize(static_cast<std::size_t>(b.off.back()));
  std::vector<int> cursor(b.off.begin(), b.off.end() - 1);
  for (std::size_t i = 0; i < key_of.size(); ++i) {
    const int key = key_of[i];
    if (key < 0) continue;
    b.items[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(key)]++)] = static_cast<int>(i);
  }
  return b;
}

/// Blocks [first, last) of the offsets `off` (block b spans
/// [off[b], off[b+1])) that intersect [k0, k1), with 0 <= k0 < off.back().
std::pair<std::size_t, std::size_t> crossing_blocks(
    const std::vector<std::int64_t>& off, std::int64_t k0, std::int64_t k1) {
  const auto first = static_cast<std::size_t>(
      std::upper_bound(off.begin(), off.end(), k0) - off.begin() - 1);
  const auto last = static_cast<std::size_t>(
      std::lower_bound(off.begin(), off.end() - 1, k1) - off.begin());
  return {first, last};
}

}  // namespace

TaskGraph build_summagen_graph(const partition::PartitionSpec& spec,
                               const ExecutionPlan& plan) {
  TaskGraph g;
  const auto roff = spec.row_offsets();
  const auto coff = spec.col_offsets();
  std::size_t nchunks = 0;
  for (const GemmOp& gop : plan.gemm_ops) nchunks += gop.chunks.size();
  g.reserve(plan.copy_ops.size() + plan.comm_ops.size() + nchunks);

  // Per-cell lookups are flat: cell (bi, bj) is key bi * ncols + bj.
  const std::size_t ncols = spec.subpw.size();
  const auto cell = [ncols](int bi, int bj) {
    return static_cast<std::size_t>(bi) * ncols +
           static_cast<std::size_t>(bj);
  };
  const std::size_t ncells = spec.subph.size() * ncols;

  // Copy nodes first (ids 0..|copy_ops|-1, plan order), then comm nodes in
  // plan order: node id = |copy_ops| + plan index, so ascending-id
  // completion preserves the plan's subgroup collective order. Both are
  // bucketed by the A or B cell they write, so chunk nodes can depend on
  // them — the cascade prune needs copy->chunk edges just like comm->chunk
  // edges.
  const int comm0 = static_cast<int>(plan.copy_ops.size());
  std::vector<int> a_key(plan.copy_ops.size() + plan.comm_ops.size(), -1);
  std::vector<int> b_key(a_key.size(), -1);
  for (std::size_t i = 0; i < plan.copy_ops.size(); ++i) {
    const CopyOp& op = plan.copy_ops[i];
    const int id = g.add_local(NodeKind::kCopy, spec.owner(op.bi, op.bj),
                               static_cast<int>(i));
    (op.is_a ? a_key : b_key)[static_cast<std::size_t>(id)] =
        static_cast<int>(cell(op.bi, op.bj));
  }
  for (std::size_t i = 0; i < plan.comm_ops.size(); ++i) {
    const CommOp& op = plan.comm_ops[i];
    const int id =
        g.add_comm(NodeKind::kBcast, op.owners, static_cast<int>(i));
    (op.is_a ? a_key : b_key)[static_cast<std::size_t>(id)] =
        static_cast<int>(cell(op.bi, op.bj));
  }
  const Buckets a_writes = bucket(ncells, a_key);
  const Buckets b_writes = bucket(ncells, b_key);

  // Chunk nodes last, grouped per GemmOp in plan order. Each chunk reads
  // A row bi x [k0, k1) — every copy and panel of the A cells whose column
  // blocks cross the interval — and [k0, k1) x B column bj — the copies
  // and the panels whose rows meet it in the crossing row blocks. It also
  // chains on the previous chunk of its op: accumulation into C(bi, bj)
  // must stay in ascending-k order for the bit-identity invariant.
  for (std::size_t gi = 0; gi < plan.gemm_ops.size(); ++gi) {
    const GemmOp& gop = plan.gemm_ops[gi];
    int prev = -1;
    for (std::size_t ci = 0; ci < gop.chunks.size(); ++ci) {
      const GemmChunk& ch = gop.chunks[ci];
      const int id = g.add_local(NodeKind::kGemm, gop.owner,
                                 static_cast<int>(gi), static_cast<int>(ci));
      if (prev >= 0) g.add_dep(prev, id);
      prev = id;
      const auto [c0, c1] = crossing_blocks(coff, ch.k0, ch.k1);
      for (std::size_t cb = c0; cb < c1; ++cb) {
        for (int w : a_writes.at(cell(gop.bi, static_cast<int>(cb)))) {
          g.add_dep(w, id);
        }
      }
      const auto [r0, r1] = crossing_blocks(roff, ch.k0, ch.k1);
      for (std::size_t rb = r0; rb < r1; ++rb) {
        for (int w : b_writes.at(cell(static_cast<int>(rb), gop.bj))) {
          if (w >= comm0) {  // a panel writes only some rows of its cell
            const CommOp& op =
                plan.comm_ops[static_cast<std::size_t>(w - comm0)];
            const std::int64_t k0 = roff[rb] + op.p0;
            if (k0 >= ch.k1 || k0 + op.rows <= ch.k0) continue;
          }
          g.add_dep(w, id);
        }
      }
    }
  }
  g.seal();
  g.validate();
  return g;
}

void prune_completed(TaskGraph& graph, const ExecutionPlan& plan,
                     const std::set<std::pair<int, int>>& done) {
  const auto& nodes = graph.nodes();
  for (const TaskNode& n : nodes) {
    if (n.kind != NodeKind::kGemm) continue;
    const GemmOp& gop = plan.gemm_ops[static_cast<std::size_t>(n.payload)];
    if (done.count({gop.bi, gop.bj}) != 0) graph.set_dropped(n.id, true);
  }
  // A broadcast/copy survives iff some remaining DGEMM still reads it.
  // Every panel of row bi feeds a chunk of every DGEMM in row bi (a DGEMM
  // reads its whole row line), so this is exactly the historical rule
  // "keep an A op iff its row has a surviving DGEMM" (B: column).
  for (const TaskNode& n : nodes) {
    if (n.kind != NodeKind::kBcast && n.kind != NodeKind::kCopy) continue;
    const auto succs = graph.succs(n.id);
    const bool live_succ = std::any_of(succs.begin(), succs.end(), [&](int s) {
      return !nodes[static_cast<std::size_t>(s)].dropped;
    });
    graph.set_dropped(n.id, !live_succ);
  }
}

namespace {

/// Shared step-chain builder: SUMMA is the stack-less special case of the
/// 2.5D graph.
TaskGraph build_step_chain(int steps, int rank,
                           const std::vector<int>& row_members,
                           const std::vector<int>& col_members,
                           const std::vector<int>& stack_members) {
  TaskGraph g;
  int rep_a = -1, rep_b = -1;
  if (stack_members.size() > 1) {
    rep_a = g.add_comm(NodeKind::kBcast, stack_members, /*payload=*/-1,
                       /*aux=*/0);
    rep_b = g.add_comm(NodeKind::kBcast, stack_members, /*payload=*/-1,
                       /*aux=*/1);
    g.add_dep(rep_a, rep_b);  // depth-communicator collective order
  }
  int prev_gemm = -1;
  for (int s = 0; s < steps; ++s) {
    const int a = row_members.size() > 1
                      ? g.add_comm(NodeKind::kBcast, row_members, s, 0)
                      : g.add_local(NodeKind::kPack, rank, s, 0);
    const int b = col_members.size() > 1
                      ? g.add_comm(NodeKind::kBcast, col_members, s, 1)
                      : g.add_local(NodeKind::kPack, rank, s, 1);
    const int gm = g.add_local(NodeKind::kGemm, rank, s, 2);
    g.add_dep(a, gm);
    g.add_dep(b, gm);
    if (prev_gemm >= 0) {
      // Ascending-k accumulation chain, plus write-after-read: step s
      // overwrites the shared WA/WB panel workspaces step s-1's GEMM read.
      g.add_dep(prev_gemm, gm);
      g.add_dep(prev_gemm, a);
      g.add_dep(prev_gemm, b);
    } else {
      if (rep_a >= 0) g.add_dep(rep_a, a);
      if (rep_b >= 0) g.add_dep(rep_b, b);
    }
    prev_gemm = gm;
  }
  if (stack_members.size() > 1) {
    const int red = g.add_comm(NodeKind::kReduce, stack_members,
                               /*payload=*/-2, /*aux=*/0);
    if (prev_gemm >= 0) {
      g.add_dep(prev_gemm, red);
    } else if (rep_b >= 0) {
      g.add_dep(rep_b, red);
    }
  }
  g.seal();
  g.validate();
  return g;
}

}  // namespace

TaskGraph build_summa_graph(int steps, int rank,
                            const std::vector<int>& row_members,
                            const std::vector<int>& col_members) {
  return build_step_chain(steps, rank, row_members, col_members, {});
}

TaskGraph build_summa25d_graph(int steps, int rank,
                               const std::vector<int>& row_members,
                               const std::vector<int>& col_members,
                               const std::vector<int>& stack_members) {
  return build_step_chain(steps, rank, row_members, col_members,
                          stack_members);
}

}  // namespace summagen::core::taskgraph
