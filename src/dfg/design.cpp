#include "dfg/design.h"

#include <functional>
#include <set>

#include "util/fmt.h"

namespace hsyn {

void Design::add_behavior(Dfg dfg) {
  if (!dfg.validated()) dfg.validate();
  const std::string name = dfg.name();
  check(!name.empty(), "behavior must be named");
  if (behaviors_.count(name) != 0) check_failed("duplicate behavior " + name);
  behaviors_.emplace(name, std::move(dfg));
  order_.push_back(name);
  eq_parent_[name] = name;
}

namespace {
std::string find_root(std::map<std::string, std::string>& parent, std::string x) {
  while (parent.at(x) != x) {
    parent[x] = parent.at(parent.at(x));
    x = parent.at(x);
  }
  return x;
}
}  // namespace

void Design::declare_equivalent(const std::string& a, const std::string& b) {
  check(has_behavior(a) && has_behavior(b), "equivalence on unknown behavior");
  const Dfg& da = behavior(a);
  const Dfg& db = behavior(b);
  if (da.num_inputs() != db.num_inputs() || da.num_outputs() != db.num_outputs()) {
    check_failed(strf("equivalent behaviors %s/%s must share I/O signature",
                      a.c_str(), b.c_str()));
  }
  const std::string ra = find_root(eq_parent_, a);
  const std::string rb = find_root(eq_parent_, b);
  if (ra != rb) eq_parent_[ra] = rb;
}

const Dfg& Design::behavior(const std::string& name) const {
  auto it = behaviors_.find(name);
  if (it == behaviors_.end()) check_failed("unknown behavior " + name);
  return it->second;
}

Dfg& Design::behavior_mut(const std::string& name) {
  auto it = behaviors_.find(name);
  if (it == behaviors_.end()) check_failed("unknown behavior " + name);
  return it->second;
}

std::vector<std::string> Design::equivalents(const std::string& name) const {
  if (!has_behavior(name)) check_failed("unknown behavior " + name);
  auto parent = eq_parent_;  // copy: find_root path-compresses
  const std::string root = find_root(parent, name);
  std::vector<std::string> out;
  for (const std::string& b : order_) {
    if (find_root(parent, b) == root) out.push_back(b);
  }
  return out;
}

void Design::validate() const {
  check(!top_.empty() && has_behavior(top_), "design top not set/registered");
  // Port-count agreement and existence.
  for (const auto& [name, dfg] : behaviors_) {
    for (const Node& n : dfg.nodes()) {
      if (!n.is_hier()) continue;
      if (!has_behavior(n.behavior)) {
        check_failed(strf("behavior %s references unknown child %s", name.c_str(),
                          n.behavior.c_str()));
      }
      const Dfg& child = behavior(n.behavior);
      if (child.num_inputs() != n.num_inputs ||
          child.num_outputs() != n.num_outputs) {
        check_failed(strf("behavior %s node %d: port mismatch with child %s",
                          name.c_str(), n.id, n.behavior.c_str()));
      }
    }
  }
  // Non-recursive hierarchy: DFS with on-stack detection.
  std::set<std::string> done;
  std::set<std::string> on_stack;
  std::function<void(const std::string&)> dfs = [&](const std::string& name) {
    if (done.count(name)) return;
    if (!on_stack.insert(name).second) check_failed("recursive hierarchy at " + name);
    for (const Node& n : behavior(name).nodes()) {
      if (n.is_hier()) dfs(n.behavior);
    }
    on_stack.erase(name);
    done.insert(name);
  };
  for (const std::string& b : order_) dfs(b);
}

int Design::flattened_size(const std::string& name) const {
  const Dfg& dfg = behavior(name);
  int total = 0;
  for (const Node& n : dfg.nodes()) {
    total += n.is_hier() ? flattened_size(n.behavior) : 1;
  }
  return total;
}

int Design::depth(const std::string& name) const {
  const Dfg& dfg = behavior(name);
  int d = 0;
  for (const Node& n : dfg.nodes()) {
    if (n.is_hier()) d = std::max(d, 1 + depth(n.behavior));
  }
  return d;
}

}  // namespace hsyn
