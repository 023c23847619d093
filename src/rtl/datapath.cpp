#include "rtl/datapath.h"

#include <algorithm>

#include "util/fmt.h"

namespace hsyn {

Datapath::Datapath(const Datapath& other)
    : name(other.name),
      fus(other.fus),
      regs(other.regs),
      children(other.children),
      behaviors(other.behaviors),
      fp_cache_(other.fp_cache_.load(std::memory_order_relaxed)) {}

Datapath& Datapath::operator=(const Datapath& other) {
  if (this != &other) {
    name = other.name;
    fus = other.fus;
    regs = other.regs;
    children = other.children;
    behaviors = other.behaviors;
    fp_cache_.store(other.fp_cache_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  }
  return *this;
}

Datapath::Datapath(Datapath&& other) noexcept
    : name(std::move(other.name)),
      fus(std::move(other.fus)),
      regs(std::move(other.regs)),
      children(std::move(other.children)),
      behaviors(std::move(other.behaviors)),
      fp_cache_(other.fp_cache_.load(std::memory_order_relaxed)) {}

Datapath& Datapath::operator=(Datapath&& other) noexcept {
  if (this != &other) {
    name = std::move(other.name);
    fus = std::move(other.fus);
    regs = std::move(other.regs);
    children = std::move(other.children);
    behaviors = std::move(other.behaviors);
    fp_cache_.store(other.fp_cache_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  }
  return *this;
}

Datapath& Datapath::mut_child(int i) {
  ChildUnit& c = children.at(static_cast<std::size_t>(i));
  check(c.impl != nullptr, "null child impl");
  // A copy keeps the source's cached fingerprint (not its behavior
  // table); the caller is about to write, so drop it.
  auto own = std::make_shared<Datapath>(*c.impl);
  own->invalidate_fingerprint();
  Datapath& out = *own;
  c.impl = std::move(own);
  invalidate_fingerprint();
  return out;
}

const Dfg* BehaviorTable::find(const std::string& name) const {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const auto& e, const std::string& n) { return e.first < n; });
  return it != entries.end() && it->first == name ? it->second : nullptr;
}

namespace {

void collect_behaviors(const Datapath& dp,
                       std::vector<std::pair<std::string, const Dfg*>>& out) {
  for (const ChildUnit& c : dp.children) {
    for (const BehaviorImpl& bi : c.impl->behaviors) {
      out.emplace_back(bi.behavior, bi.dfg);
    }
    collect_behaviors(*c.impl, out);
  }
}

}  // namespace

std::shared_ptr<const BehaviorTable> Datapath::behavior_table() const {
  const std::uint64_t fp = fingerprint();
  auto cur = beh_table_.load(std::memory_order_acquire);
  if (cur != nullptr && cur->fp == fp) return cur;
  auto table = std::make_shared<BehaviorTable>();
  table->fp = fp;
  collect_behaviors(*this, table->entries);
  // Stable sort + first-wins dedup preserves pre-order priority for
  // duplicate behavior names, matching the old std::map::emplace
  // collector (any implementation of a name is value-equivalent by the
  // BehaviorResolver contract, but determinism wants one canonical pick).
  std::stable_sort(table->entries.begin(), table->entries.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  table->entries.erase(
      std::unique(table->entries.begin(), table->entries.end(),
                  [](const auto& a, const auto& b) { return a.first == b.first; }),
      table->entries.end());
  beh_table_.store(table, std::memory_order_release);
  return table;
}

void BehaviorImpl::unschedule() {
  scheduled = false;
  inv_start.clear();
  makespan = 0;
  profile.in.clear();
  profile.out.clear();
}

int BehaviorImpl::inv_of(int node) const {
  check(node >= 0 && node < static_cast<int>(node_inv.size()),
        "inv_of: node out of range");
  const int i = node_inv[static_cast<std::size_t>(node)];
  check(i >= 0, "inv_of: node not bound to an invocation");
  return i;
}

int Datapath::find_behavior(const std::string& behavior) const {
  for (std::size_t i = 0; i < behaviors.size(); ++i) {
    if (behaviors[i].behavior == behavior) return static_cast<int>(i);
  }
  return -1;
}

int Datapath::inv_latency(int b, int i, const Library& lib, const OpPoint& pt) const {
  const BehaviorImpl& bi = behaviors.at(static_cast<std::size_t>(b));
  const Invocation& inv = bi.invs.at(static_cast<std::size_t>(i));
  if (inv.unit.kind == UnitRef::Kind::Fu) {
    return lib.cycles(fus.at(static_cast<std::size_t>(inv.unit.idx)).type, pt);
  }
  const Datapath& child = *children.at(static_cast<std::size_t>(inv.unit.idx)).impl;
  const Node& n = bi.dfg->node(inv.nodes.front());
  const int cb = child.find_behavior(n.behavior);
  if (cb < 0) check_failed("child lacks behavior " + n.behavior);
  return child.busy_cycles(cb);
}

int Datapath::busy_cycles(int b) const {
  const BehaviorImpl& bi = behaviors.at(static_cast<std::size_t>(b));
  check(bi.scheduled, "busy_cycles: behavior not scheduled");
  return bi.makespan;
}

int Datapath::unit_load(const UnitRef& u) const {
  int load = 0;
  for (const BehaviorImpl& bi : behaviors) {
    for (const Invocation& inv : bi.invs) {
      if (inv.unit == u) ++load;
    }
  }
  return load;
}

int Datapath::reg_load(int r) const {
  int load = 0;
  for (const BehaviorImpl& bi : behaviors) {
    for (int er : bi.edge_reg) {
      if (er == r) ++load;
    }
  }
  return load;
}

std::vector<int> Datapath::inv_input_edges(int b, int i) const {
  std::vector<int> out;
  append_inv_input_edges(b, i, out);
  return out;
}

void Datapath::append_inv_input_edges(int b, int i, std::vector<int>& out) const {
  const BehaviorImpl& bi = behaviors.at(static_cast<std::size_t>(b));
  const Invocation& inv = bi.invs.at(static_cast<std::size_t>(i));
  // In a chain, node k's output edge feeds node k + 1 internally; chains
  // are a few nodes long, so a linear scan of the links beats a set.
  const std::size_t links = inv.nodes.size() - 1;
  for (const int nid : inv.nodes) {
    const Node& n = bi.dfg->node(nid);
    for (int p = 0; p < n.num_inputs; ++p) {
      const int eid = bi.dfg->input_edge(nid, p);
      bool internal = false;
      for (std::size_t k = 0; k < links && !internal; ++k) {
        const int link = bi.dfg->output_edge(inv.nodes[k], 0);
        internal = link >= 0 && link == eid;
      }
      if (!internal) out.push_back(eid);
    }
  }
}

std::vector<int> Datapath::inv_output_edges(int b, int i) const {
  const BehaviorImpl& bi = behaviors.at(static_cast<std::size_t>(b));
  const Invocation& inv = bi.invs.at(static_cast<std::size_t>(i));
  const int last = inv.nodes.back();
  const Node& n = bi.dfg->node(last);
  std::vector<int> out;
  for (int p = 0; p < n.num_outputs; ++p) {
    const int eid = bi.dfg->output_edge(last, p);
    if (eid >= 0) out.push_back(eid);
  }
  return out;
}

namespace {

/// The scheduled behavior `b` of `dp`, checked against the operating
/// point a query asks for.
const BehaviorImpl& scheduled_at(const Datapath& dp, int b, const Library& lib,
                                 const OpPoint& pt, const char* what) {
  const BehaviorImpl& bi = dp.behaviors.at(static_cast<std::size_t>(b));
  if (!bi.scheduled) check_failed(strf("%s: behavior not scheduled", what));
  if (!bi.scheduled_at(lib, pt)) {
    check_failed(strf("%s: behavior '%s' was scheduled at another operating "
                      "point or library",
                      what, bi.behavior.c_str()));
  }
  return bi;
}

}  // namespace

int Datapath::edge_ready_time(int b, int e, const Library& lib,
                              const OpPoint& pt) const {
  const BehaviorImpl& bi = scheduled_at(*this, b, lib, pt, "edge_ready_time");
  const Edge& edge = bi.dfg->edge(e);
  if (edge.src.node == kPrimaryIn) {
    return bi.input_arrival.at(static_cast<std::size_t>(edge.src.port));
  }
  check(edge.src.node >= 0, "edge_ready_time: edge has no producer");
  const int i = bi.inv_of(edge.src.node);
  const Invocation& inv = bi.invs.at(static_cast<std::size_t>(i));
  const int start = bi.inv_start.at(static_cast<std::size_t>(i));
  if (inv.unit.kind == UnitRef::Kind::Child) {
    const Datapath& child = *children.at(static_cast<std::size_t>(inv.unit.idx)).impl;
    const Node& n = bi.dfg->node(inv.nodes.front());
    const int cb = child.find_behavior(n.behavior);
    if (cb < 0) check_failed("child lacks behavior " + n.behavior);
    return start + child.profile(cb, lib, pt)
                       .out.at(static_cast<std::size_t>(edge.src.port));
  }
  // Chain-internal producers complete with the whole chain.
  return start + inv_latency(b, i, lib, pt);
}

const Profile& Datapath::profile(int b, const Library& lib,
                                 const OpPoint& pt) const {
  return scheduled_at(*this, b, lib, pt, "profile").profile;
}

int Datapath::total_components() const {
  int n = static_cast<int>(fus.size() + regs.size());
  for (const ChildUnit& c : children) {
    if (c.impl) n += c.impl->total_components();
  }
  return n;
}

namespace {

/// Keep the marked entries of `v` in order; `map[i]` becomes entry i's
/// new index (unmarked entries keep -1).
template <typename T>
void compact(std::vector<T>& v, int* map) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (map[i] < 0) continue;
    map[i] = static_cast<int>(w);
    if (w != i) v[w] = std::move(v[i]);
    ++w;
  }
  v.erase(v.begin() + static_cast<std::ptrdiff_t>(w), v.end());
}

}  // namespace

bool Datapath::prune_unused() {
  // Old -> new index maps of fus, children and registers, back to back
  // in one per-thread buffer (-1 = unused); nothing here re-enters.
  thread_local std::vector<int> maps;
  maps.assign(fus.size() + children.size() + regs.size(), -1);
  int* const fu_map = maps.data();
  int* const child_map = fu_map + fus.size();
  int* const reg_map = child_map + children.size();
  for (const BehaviorImpl& bi : behaviors) {
    for (const Invocation& inv : bi.invs) {
      (inv.unit.kind == UnitRef::Kind::Fu ? fu_map : child_map)
          [static_cast<std::size_t>(inv.unit.idx)] = 0;
    }
    for (const int r : bi.edge_reg) {
      if (r >= 0) reg_map[static_cast<std::size_t>(r)] = 0;
    }
  }
  if (std::find(maps.begin(), maps.end(), -1) == maps.end()) return false;
  compact(fus, fu_map);
  compact(children, child_map);
  compact(regs, reg_map);
  for (BehaviorImpl& bi : behaviors) {
    for (Invocation& inv : bi.invs) {
      const int* map = inv.unit.kind == UnitRef::Kind::Fu ? fu_map : child_map;
      inv.unit.idx = map[static_cast<std::size_t>(inv.unit.idx)];
    }
    for (int& r : bi.edge_reg) {
      if (r >= 0) r = reg_map[static_cast<std::size_t>(r)];
    }
  }
  invalidate_fingerprint();
  return true;
}

void Datapath::validate(const Library& lib) const {
  for (std::size_t b = 0; b < behaviors.size(); ++b) {
    const BehaviorImpl& bi = behaviors[b];
    check(bi.dfg != nullptr, "behavior without dfg");
    check(bi.dfg->validated(), "behavior dfg not validated");
    check(bi.node_inv.size() == bi.dfg->nodes().size(), "node_inv size mismatch");
    check(bi.edge_reg.size() == bi.dfg->edges().size(), "edge_reg size mismatch");
    check(static_cast<int>(bi.input_arrival.size()) == bi.dfg->num_inputs(),
          "input_arrival size mismatch");
    // Every node in exactly one invocation.
    std::vector<int> covered(bi.dfg->nodes().size(), 0);
    for (std::size_t i = 0; i < bi.invs.size(); ++i) {
      const Invocation& inv = bi.invs[i];
      check(!inv.nodes.empty(), "empty invocation");
      for (const int nid : inv.nodes) {
        covered[static_cast<std::size_t>(nid)]++;
        check(bi.node_inv[static_cast<std::size_t>(nid)] == static_cast<int>(i),
              "node_inv inconsistent");
      }
      if (inv.unit.kind == UnitRef::Kind::Fu) {
        check(inv.unit.idx >= 0 && inv.unit.idx < static_cast<int>(fus.size()),
              "fu index out of range");
        const FuType& t = lib.fu(fus[static_cast<std::size_t>(inv.unit.idx)].type);
        if (static_cast<int>(inv.nodes.size()) > t.chain_depth) {
          check_failed("chain longer than unit depth on " + t.name);
        }
        for (const int nid : inv.nodes) {
          const Node& n = bi.dfg->node(nid);
          check(!n.is_hier(), "hier node bound to simple unit");
          if (!t.supports(n.op)) {
            check_failed(
                strf("unit %s cannot execute %s", t.name.c_str(), op_name(n.op)));
          }
        }
        // Chains must be contiguous dependence chains whose intermediate
        // values have no external consumers (they are never latched).
        for (std::size_t k = 0; k + 1 < inv.nodes.size(); ++k) {
          const int eid = bi.dfg->output_edge(inv.nodes[k], 0);
          check(eid >= 0, "chain link missing edge");
          const Edge& e = bi.dfg->edge(eid);
          check(e.dsts.size() == 1 && e.dsts[0].node == inv.nodes[k + 1],
                "chain intermediate value escapes the chain");
          check(bi.edge_reg[static_cast<std::size_t>(eid)] == -1,
                "chain-internal edge must not be registered");
        }
      } else {
        check(inv.nodes.size() == 1, "child invocation must hold one node");
        check(inv.unit.idx >= 0 && inv.unit.idx < static_cast<int>(children.size()),
              "child index out of range");
        const Node& n = bi.dfg->node(inv.nodes[0]);
        check(n.is_hier(), "operation node bound to child module");
        const Datapath& child = *children[static_cast<std::size_t>(inv.unit.idx)].impl;
        if (child.find_behavior(n.behavior) < 0) {
          check_failed("child does not implement behavior " + n.behavior);
        }
      }
    }
    for (std::size_t nid = 0; nid < covered.size(); ++nid) {
      if (covered[nid] != 1) {
        check_failed(strf("node %zu covered %d times", nid, covered[nid]));
      }
    }
    // Every non-chain-internal edge must have a register.
    for (const Edge& e : bi.dfg->edges()) {
      const int r = bi.edge_reg[static_cast<std::size_t>(e.id)];
      if (r >= 0) {
        check(r < static_cast<int>(regs.size()), "register index out of range");
      }
    }
  }
  for (const ChildUnit& c : children) {
    check(c.impl != nullptr, "null child impl");
    c.impl->validate(lib);
  }
}

}  // namespace hsyn
