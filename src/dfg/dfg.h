// Hierarchical data flow graph (DFG) intermediate representation.
//
// This is the behavioral input of H-SYN (paper Section 2, Fig. 1(a)).
// A DFG has primary inputs/outputs, operation nodes (add, mult, ...) and
// *hierarchical* nodes that reference another behavior by name. Edges are
// single-producer, multi-consumer values ("variables" in the paper, each
// eventually bound to a register). Edges entering/exiting hierarchical
// nodes carry port numbers that identify the corresponding primary
// input/output of the child behavior, mirroring the paper's edge
// annotations in Fig. 1(a).
//
// Loop-carried state (the feedback edges of IIR/lattice filters) is
// modeled as a (state-in primary input, state-out primary output) pair for
// one iteration of the behavior, the standard per-sample formulation used
// by the HYPER-era benchmarks the paper evaluates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hsyn {

/// Operation kinds supported by simple functional units.
enum class Op {
  Add,
  Sub,
  Mult,
  ShiftL,
  ShiftR,
  Cmp,   // less-than comparison, produces 0/1
  And,
  Or,
  Xor,
  Neg,
  Hier,  // hierarchical node: executes a named child behavior
};

/// Human-readable name of an operation kind ("add", "mult", ...).
const char* op_name(Op op);

/// Number of data inputs an operation consumes (2 except Neg). For Hier
/// nodes the count is carried by the node itself.
int op_arity(Op op);

/// True when swapping the two operands never changes the result
/// (add/mult/and/or/xor). Sub, the shifts and Cmp are order-sensitive;
/// unary and hierarchical nodes have no operand pair to swap.
bool op_commutative(Op op);

/// Marker node ids used in PortRef: an edge source/sink can be a primary
/// input/output of the DFG rather than a node terminal.
inline constexpr int kPrimaryIn = -1;
inline constexpr int kPrimaryOut = -2;

/// A terminal reference: (node id, port index), or a primary input/output
/// when node is kPrimaryIn / kPrimaryOut (port then indexes the primary).
struct PortRef {
  int node = kPrimaryIn;
  int port = 0;

  friend bool operator==(const PortRef&, const PortRef&) = default;
};

/// One node of a DFG.
struct Node {
  int id = -1;
  Op op = Op::Add;
  std::string behavior;  ///< child behavior name, only for Op::Hier
  std::string label;     ///< optional display label, e.g. "+1", "*2"
  int num_inputs = 2;
  int num_outputs = 1;

  [[nodiscard]] bool is_hier() const { return op == Op::Hier; }
};

/// One edge (value / variable). Single producer, many consumers.
struct Edge {
  int id = -1;
  PortRef src;                 ///< producer terminal or primary input
  std::vector<PortRef> dsts;   ///< consumer terminals and/or primary outputs
  std::string label;           ///< optional variable name (paper Fig. 3)
};

/// A single data flow graph. Construct with add_node / add_hier_node /
/// connect, then call validate() once before use.
class Dfg {
 public:
  Dfg() = default;
  explicit Dfg(std::string name, int num_inputs = 0, int num_outputs = 0)
      : name_(std::move(name)), num_inputs_(num_inputs), num_outputs_(num_outputs) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  int num_inputs() const { return num_inputs_; }
  int num_outputs() const { return num_outputs_; }
  void set_io(int ins, int outs) {
    num_inputs_ = ins;
    num_outputs_ = outs;
    invalidate();
  }

  /// Add an operation node; returns its id.
  int add_node(Op op, std::string label = {});

  /// Add a hierarchical node referencing `behavior` with the given port
  /// counts; returns its id.
  int add_hier_node(std::string behavior, int num_inputs, int num_outputs,
                    std::string label = {});

  /// Create an edge from `src` to each terminal in `dsts`; returns edge id.
  int connect(PortRef src, std::vector<PortRef> dsts, std::string label = {});

  /// Append another consumer to an existing edge.
  void add_consumer(int edge_id, PortRef dst);

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }
  const Node& node(int id) const { return nodes_.at(static_cast<std::size_t>(id)); }
  const Edge& edge(int id) const { return edges_.at(static_cast<std::size_t>(id)); }
  Node& node_mut(int id) { return nodes_.at(static_cast<std::size_t>(id)); }
  Edge& edge_mut(int id) { return edges_.at(static_cast<std::size_t>(id)); }

  /// Edge feeding input port `port` of node `node_id` (-1 if unconnected).
  int input_edge(int node_id, int port) const;

  /// Edge produced at output port `port` of node `node_id` (-1 if none).
  int output_edge(int node_id, int port) const;

  /// Edge attached to primary input `idx` (-1 if none).
  int primary_input_edge(int idx) const;

  /// Edge feeding primary output `idx` (-1 if none).
  int primary_output_edge(int idx) const;

  /// All input edge ids of a node, in port order (-1 for unconnected ports).
  std::vector<int> node_input_edges(int node_id) const;

  /// All output edge ids of a node, in port order (-1 for missing ports).
  std::vector<int> node_output_edges(int node_id) const;

  /// Topological order of node ids. Requires validate() to have passed.
  const std::vector<int>& topo_order() const { return topo_; }

  /// True if any node is hierarchical.
  bool has_hierarchy() const;

  /// Count of operation (non-hierarchical) nodes.
  int num_operation_nodes() const;

  /// Rebuild lookup tables and check structural invariants:
  /// every node input port driven by exactly one edge, port indices in
  /// range, graph acyclic. Throws std::logic_error on violation.
  void validate();

  /// True when validate() succeeded since the last mutation.
  bool validated() const { return validated_; }

  /// Structural content hash over ops, hier behavior names, arities and the
  /// id-indexed edge structure. Two DFGs with equal node/edge tables (ids
  /// included, labels and name excluded) hash equal; any structural mutation
  /// changes the hash. Computed once by validate() and cached -- mutators
  /// invalidate, so a validated DFG's hash is always current. This is the
  /// identity used by evaluation caches, where node/edge *indices* matter
  /// (bindings and edge-value tables are id-addressed).
  std::uint64_t content_hash() const;

  /// Canonical DAG hash: invariant under node/edge renumbering and
  /// construction order. Two DFGs describing the same graph -- however their
  /// nodes were added -- hash equal; any structural change (op, wiring,
  /// arity, hier behavior) changes the hash. Computed once by validate().
  std::uint64_t canonical_hash() const;

 private:
  void invalidate() { validated_ = false; }
  void build_tables();
  void compute_topo();
  void compute_hashes();

  std::string name_;
  int num_inputs_ = 0;
  int num_outputs_ = 0;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;

  // Lookup tables, built by validate().
  bool validated_ = false;
  std::vector<std::vector<int>> node_in_;   // [node][port] -> edge id
  std::vector<std::vector<int>> node_out_;  // [node][port] -> edge id
  std::vector<int> pin_edge_;               // [primary input] -> edge id
  std::vector<int> pout_edge_;              // [primary output] -> edge id
  std::vector<int> topo_;
  std::uint64_t content_hash_ = 0;
  std::uint64_t canonical_hash_ = 0;
};

}  // namespace hsyn
