#include "rtl/complex_library.h"

#include <algorithm>

#include "util/fmt.h"

namespace hsyn {

void ComplexLibrary::add(Template t) {
  check(!t.name.empty(), "template must be named");
  check(find(t.name) == nullptr, "duplicate template " + t.name);
  check(t.impl.behaviors.size() == 1, "templates are single-behavior modules");
  check(t.impl.behaviors[0].behavior == t.implements,
        "template behavior label must match `implements`");
  templates_.push_back(std::move(t));
}

const ComplexLibrary::Template* ComplexLibrary::find(const std::string& name) const {
  for (const Template& t : templates_) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

std::vector<const ComplexLibrary::Template*> ComplexLibrary::for_behavior(
    const Design& design, const std::string& behavior) const {
  std::vector<const Template*> out;
  if (!design.has_behavior(behavior)) return out;
  const std::vector<std::string> eq = design.equivalents(behavior);
  for (const Template& t : templates_) {
    if (std::find(eq.begin(), eq.end(), t.implements) != eq.end()) {
      out.push_back(&t);
    }
  }
  return out;
}

Datapath ComplexLibrary::instantiate(const Template& t, const std::string& behavior) {
  Datapath dp = t.impl;
  dp.name = t.name;
  dp.behaviors[0].behavior = behavior;
  dp.behaviors[0].unschedule();
  return dp;
}

}  // namespace hsyn
