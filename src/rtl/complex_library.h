// Library of complex RTL module templates (paper Fig. 2: C1..C5).
//
// A template is a pre-designed RTL module bound to one DFG variant. Move
// A may instantiate a template for any hierarchical node whose behavior
// is the variant itself or a user-declared functional equivalent of it
// (Example 2: C2 replaces C1 because "C1 and C2 implement functionally
// equivalent behavior"). Sealed templates may be instantiated but never
// resynthesized by move B ("modules whose internal descriptions are not
// available or cannot be altered are not resynthesized").
#pragma once

#include <string>
#include <vector>

#include "dfg/design.h"
#include "rtl/datapath.h"

namespace hsyn {

class ComplexLibrary {
 public:
  struct Template {
    std::string name;        ///< library name, e.g. "C1"
    std::string implements;  ///< DFG (variant) name the module executes
    Datapath impl;           ///< single-behavior module; unscheduled is fine
    bool sealed = false;
  };

  void add(Template t);

  const std::vector<Template>& all() const { return templates_; }
  bool empty() const { return templates_.empty(); }

  /// Template by name; nullptr when absent.
  const Template* find(const std::string& name) const;

  /// Templates usable for interface behavior `behavior`, i.e. whose
  /// variant is `behavior` or an equivalent of it per `design`.
  std::vector<const Template*> for_behavior(const Design& design,
                                            const std::string& behavior) const;

  /// Instantiate `t` to serve interface behavior `behavior`: a copy
  /// whose BehaviorImpl is relabeled to the interface name (its DFG stays
  /// the template's variant). Unscheduled.
  static Datapath instantiate(const Template& t, const std::string& behavior);

 private:
  std::vector<Template> templates_;
};

}  // namespace hsyn
