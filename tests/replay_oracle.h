// Reference interpreter for trace replay: the differential oracle the
// compiled kernel (power/replay.h) is tested and benchmarked against.
//
// It walks the DFG's topological order once per sample, deciding per
// node what to do, and recurses into hierarchical children one sample at
// a time through itself -- never through eval_dfg, which would route the
// children through the compiled kernel and make the oracle compare that
// kernel against itself. Samples are independent; each fills its own
// row.
#pragma once

#include <cstdint>
#include <vector>

#include "dfg/dfg.h"
#include "power/replay.h"
#include "power/trace.h"
#include "util/fmt.h"

namespace hsyn::testing_support {

/// Every edge value of `dfg` for one input sample, indexed by edge id.
inline std::vector<std::int32_t> oracle_eval_sample(const Dfg& dfg,
                                                    const BehaviorResolver& res,
                                                    const Sample& in) {
  check(static_cast<int>(in.size()) == dfg.num_inputs(),
        "eval_dfg_edges: input arity mismatch");
  std::vector<std::int32_t> ev(dfg.edges().size(), 0);
  const auto at = [&ev](int eid) -> std::int32_t& {
    return ev[static_cast<std::size_t>(eid)];
  };
  for (int i = 0; i < dfg.num_inputs(); ++i) {
    const int eid = dfg.primary_input_edge(i);
    if (eid >= 0) at(eid) = in[static_cast<std::size_t>(i)];
  }
  for (const int nid : dfg.topo_order()) {
    const Node& n = dfg.node(nid);
    if (!n.is_hier()) {
      const int eid = dfg.output_edge(nid, 0);
      if (eid < 0) continue;
      const std::int32_t a = at(dfg.input_edge(nid, 0));
      const std::int32_t b = n.num_inputs > 1 ? at(dfg.input_edge(nid, 1)) : 0;
      at(eid) = eval_op(n.op, a, b);
      continue;
    }
    const Dfg* child = res(n.behavior);
    check(child != nullptr, "unresolved behavior " + n.behavior);
    check(child->num_inputs() == n.num_inputs,
          "eval_dfg_edges: input arity mismatch");
    check(child->num_outputs() == n.num_outputs,
          "eval_dfg_edges: output arity mismatch");
    Sample cin(static_cast<std::size_t>(n.num_inputs));
    for (int p = 0; p < n.num_inputs; ++p) {
      cin[static_cast<std::size_t>(p)] = at(dfg.input_edge(nid, p));
    }
    const std::vector<std::int32_t> cev = oracle_eval_sample(*child, res, cin);
    for (int p = 0; p < n.num_outputs; ++p) {
      const int eid = dfg.output_edge(nid, p);
      if (eid < 0) continue;
      const int ce = child->primary_output_edge(p);
      check(ce >= 0, "replay: hier output without child output edge");
      at(eid) = cev[static_cast<std::size_t>(ce)];
    }
  }
  return ev;
}

/// Every edge of `dfg` over `inputs`, in the compiled kernel's edge-major
/// shape so the two compare with ==.
inline EdgeMatrix oracle_eval_matrix(const Dfg& dfg, const BehaviorResolver& res,
                                     const Trace& inputs) {
  std::vector<std::vector<std::int32_t>> rows(inputs.size());
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    rows[t] = oracle_eval_sample(dfg, res, inputs[t]);
  }
  EdgeMatrix mat(static_cast<int>(dfg.edges().size()), inputs.size());
  for (std::size_t t = 0; t < rows.size(); ++t) {
    for (int e = 0; e < mat.num_edges(); ++e) {
      mat.col_mut(e)[t] = rows[t][static_cast<std::size_t>(e)];
    }
  }
  return mat;
}

}  // namespace hsyn::testing_support
