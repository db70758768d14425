// Data-dependency task graph for the SUMMA-family executions.
//
// The task graph splits *what must happen before what* from *when it
// happens*: nodes are panel broadcasts, local copies, B/A-panel packs,
// k-chunked GEMM accumulations, and 2.5D reductions; edges are read/write
// dependencies. Schedulers (src/core/taskgraph/executor.hpp) then execute
// a legal topological order — the eager schedule replays the construction
// (program) order, and the dataflow schedule runs whatever is ready.
//
// Determinism contract: every rank builds the graph from the same
// deterministic inputs (the per-rank identical ExecutionPlan, or the
// rank's own grid coordinates), so node ids agree wherever they must: the
// sub-sequence of comm nodes on any one subgroup communicator is identical
// across its members in ascending-id order — the MPI collective-ordering
// rule, inherited from the plan's eager global order.
//
// Recovery contract: shrink-and-repartition recovery prunes the graph
// (prune_completed) instead of rewriting op lists. Node ids are stable
// under pruning — dropped nodes stay in place and every executor skips
// them — so chunk->broadcast dependencies survive filtering and both
// schedulers remain legal on the un-run subgraph.
//
// Rank index: the graph keeps, per world rank, the ascending ids of the
// nodes that rank executes, so a rank's executor walks its own nodes only
// — O(its work), not O(graph) — even when p ranks share one graph.
// Pruning only sets drop flags, so the index stays valid in pruned copies.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "src/core/plan.hpp"
#include "src/partition/spec.hpp"

namespace summagen::core::taskgraph {

/// What a node does when executed. Comm kinds (kBcast, kReduce) carry the
/// participating ranks in TaskGraph::owners(id); local kinds carry the
/// executing rank in `owner`.
enum class NodeKind : std::uint8_t {
  kBcast,   ///< panel/block broadcast over a subgroup communicator
  kCopy,    ///< single-owner local copy into WA/WB (zero virtual cost)
  kPack,    ///< local panel pack (a degenerate one-rank broadcast axis)
  kGemm,    ///< one k-chunk of a local DGEMM accumulation
  kReduce,  ///< 2.5D partial-C sum-reduction over the depth communicator
};

/// One node of the graph: a plain value. Its participants and edges live
/// in the graph's flat arrays (TaskGraph::owners/preds/succs).
/// `payload`/`aux` are algorithm-defined cookies (SummaGen: plan op index
/// + chunk index; SUMMA/2.5D: step index + axis).
struct TaskNode {
  int id = -1;
  int owner = -1;  ///< executing world rank (local nodes; -1 for comm)
  int payload = -1;
  int aux = 0;
  NodeKind kind = NodeKind::kCopy;
  bool comm = false;     ///< collective over TaskGraph::owners(id)
  bool dropped = false;  ///< pruned by recovery; executors skip it

  bool is_comm() const { return comm; }
};

/// A DAG of TaskNodes. Ids are dense and assigned in construction order;
/// construction order therefore IS the program (eager) order.
///
/// Storage is flat. Comm participants sit in one CSR array (offsets per
/// node). Edges are appended to one flat list while the graph is built;
/// seal() freezes them once into CSR pred and succ arrays: each node's
/// preds in ascending id, each node's succs in insertion order. A graph
/// is built (add_*), sealed, then read (preds/succs/validate/executors);
/// only the drop flags change after sealing.
class TaskGraph {
 public:
  /// Adds a local node executed by world rank `owner` (>= 0).
  int add_local(NodeKind kind, int owner, int payload, int aux = 0);
  /// Adds a collective node over `owners` (ascending world ranks, >= 0).
  int add_comm(NodeKind kind, const std::vector<int>& owners, int payload,
               int aux = 0);
  /// Adds the edge pred -> succ. Both must already exist; duplicates and
  /// self-edges throw (they would corrupt the executors' pred counts).
  /// O(1) while each node's successors arrive in ascending id (every
  /// builder here); otherwise the duplicate check scans the edges added
  /// since `pred`'s first successor.
  void add_dep(int pred, int succ);
  /// Freezes the edge list into the CSR pred/succ arrays in O(V+E). Adding
  /// nodes or edges afterwards throws; sealing twice is a no-op.
  void seal();

  const std::vector<TaskNode>& nodes() const { return nodes_; }
  const TaskNode& node(int id) const;
  std::size_t size() const { return nodes_.size(); }
  /// Reserves storage so that adding up to `nodes` nodes never reallocates.
  void reserve(std::size_t nodes);

  /// Participating world ranks of comm node `id` (empty for local nodes).
  std::span<const int> owners(int id) const;
  /// Predecessors of `id` in ascending id (sealed graphs only).
  std::span<const int> preds(int id) const;
  /// Successors of `id` in insertion order (sealed graphs only).
  std::span<const int> succs(int id) const;

  /// Marks node `id` pruned (or live again); executors skip dropped nodes.
  void set_dropped(int id, bool dropped);

  /// Ids of the nodes world rank `rank` executes — its local nodes and the
  /// comm nodes it participates in — in ascending order. Empty for a rank
  /// that owns no node.
  std::span<const int> rank_nodes(int rank) const;

  /// Structural invariants of a sealed graph in O(V+E): edge symmetry
  /// (pred and succ arrays hold the same edges) and acyclicity (Kahn
  /// topological sort must consume every node). Throws std::logic_error.
  void validate() const;

 private:
  int add_node(NodeKind kind, int owner, std::span<const int> owners,
               int payload, int aux);
  void index(int rank, int id);
  void check_id(int id) const;
  void check_sealed() const;

  std::vector<TaskNode> nodes_;
  // owners(id) = owner_ids_[owner_off_[id], owner_off_[id + 1]).
  std::vector<int> owner_off_{0};
  std::vector<int> owner_ids_;
  std::vector<std::vector<int>> rank_nodes_;  ///< see rank_nodes()

  // Building state (released by seal()): the flat edge list, and per node
  // its largest successor so far and the index of its first out-edge.
  struct Edge {
    int pred, succ;
  };
  std::vector<Edge> edges_;
  std::vector<int> max_succ_;
  std::vector<int> first_out_;

  // Sealed state: CSR edge arrays indexed by node id.
  bool sealed_ = false;
  std::vector<int> pred_off_, pred_ids_;
  std::vector<int> succ_off_, succ_ids_;
};

/// Builds the SummaGen graph from the per-rank identical plan: one kCopy
/// node per CopyOp, one kBcast node per CommOp (in plan order, preserving
/// the subgroup collective order), and one kGemm node per GemmChunk.
/// Chunk nodes depend on every panel/copy covering their k-interval and on
/// the previous chunk of the same GemmOp (the ascending-k accumulation
/// chain that keeps every schedule bit-identical).
TaskGraph build_summagen_graph(const partition::PartitionSpec& spec,
                               const ExecutionPlan& plan);

/// Recovery pruning: drops every kGemm node whose C cell is in `done`,
/// then every kBcast/kCopy node left without a live successor (its row or
/// column has no unfinished DGEMM). Node ids are untouched, so the
/// remaining dependencies — including the comm completion order — stay
/// valid for all schedulers. Every rank prunes the identical graph with
/// the identical `done` set, keeping collectives matched.
void prune_completed(TaskGraph& graph, const ExecutionPlan& plan,
                     const std::set<std::pair<int, int>>& done);

/// Builds one rank's SUMMA step chain: per step an A panel node (kBcast
/// over `row_members`, or kPack when the row is trivial), a B panel node
/// over `col_members`, and a kGemm node reading both. The GEMM of step s
/// also writes-after-reads the shared panel workspaces, so it precedes the
/// panel nodes of step s+1. payload = step index; aux: 0 = A, 1 = B.
TaskGraph build_summa_graph(int steps, int rank,
                            const std::vector<int>& row_members,
                            const std::vector<int>& col_members);

/// The SUMMA chain plus 2.5D replication and reduction over
/// `stack_members` (when > 1 deep): repA -> repB precede step 0's panels
/// (payload -1, aux 0/1), and a kReduce node (payload -2) follows the last
/// GEMM.
TaskGraph build_summa25d_graph(int steps, int rank,
                               const std::vector<int>& row_members,
                               const std::vector<int>& col_members,
                               const std::vector<int>& stack_members);

}  // namespace summagen::core::taskgraph
