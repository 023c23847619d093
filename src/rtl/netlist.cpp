#include "rtl/netlist.h"

#include <sstream>

#include "rtl/cost.h"
#include "util/fmt.h"

namespace hsyn {
namespace {

std::string source_name(const SourceKey& s) {
  switch (s.kind) {
    case 0: return strf("r%d", s.idx);
    case 1: return strf("fu%d.out", s.idx);
    case 2: return strf("child%d.out%d", s.idx, s.port);
    default: return strf("in%d", s.idx);
  }
}

void emit(const Datapath& dp, const Library& lib, int depth,
          std::ostringstream& out) {
  const std::string ind(static_cast<std::size_t>(depth) * 2, ' ');
  out << ind << "module " << (dp.name.empty() ? "datapath" : dp.name) << " {\n";
  const std::string ind2 = ind + "  ";
  for (std::size_t i = 0; i < dp.fus.size(); ++i) {
    const FuType& t = lib.fu(dp.fus[i].type);
    out << ind2
        << strf("%s fu%zu;  // area %.0f, delay %.0f ns%s", t.name.c_str(), i,
                t.area, t.delay_ns,
                dp.fus[i].name.empty() ? "" : (" (" + dp.fus[i].name + ")").c_str())
        << "\n";
  }
  for (std::size_t r = 0; r < dp.regs.size(); ++r) {
    out << ind2
        << strf("%s r%zu;%s", lib.reg().name.c_str(), r,
                dp.regs[r].name.empty() ? "" : ("  // " + dp.regs[r].name).c_str())
        << "\n";
  }
  const Connectivity conn = connectivity_of(dp);
  auto emit_ports = [&](const std::string& uname,
                        const std::vector<std::vector<int>>& ports) {
    for (std::size_t p = 0; p < ports.size(); ++p) {
      if (ports[p].empty()) continue;
      if (ports[p].size() == 1) {
        out << ind2
            << strf("wire r%d -> %s.p%zu;", *ports[p].begin(), uname.c_str(), p)
            << "\n";
      } else {
        out << ind2 << strf("mux%zu %s_p%zu_mux(", ports[p].size(), uname.c_str(), p);
        bool first = true;
        for (const int r : ports[p]) {
          if (!first) out << ", ";
          out << strf("r%d", r);
          first = false;
        }
        out << strf(") -> %s.p%zu;", uname.c_str(), p) << "\n";
      }
    }
  };
  for (std::size_t i = 0; i < dp.fus.size(); ++i) {
    emit_ports(strf("fu%zu", i), conn.fu_port_srcs[i]);
  }
  for (std::size_t i = 0; i < dp.children.size(); ++i) {
    emit_ports(strf("child%zu", i), conn.child_port_srcs[i]);
  }
  for (std::size_t r = 0; r < dp.regs.size(); ++r) {
    const auto& srcs = conn.reg_srcs[r];
    if (srcs.empty()) continue;
    if (srcs.size() == 1) {
      out << ind2 << strf("wire %s -> r%zu;", source_name(*srcs.begin()).c_str(), r)
          << "\n";
    } else {
      out << ind2 << strf("mux%zu r%zu_mux(", srcs.size(), r);
      bool first = true;
      for (const SourceKey& s : srcs) {
        if (!first) out << ", ";
        out << source_name(s);
        first = false;
      }
      out << strf(") -> r%zu;", r) << "\n";
    }
  }
  for (std::size_t cix = 0; cix < dp.children.size(); ++cix) {
    out << ind2
        << strf("// child%zu: %s%s", cix, dp.children[cix].name.c_str(),
                dp.children[cix].sealed ? " (sealed)" : "")
        << "\n";
    emit(*dp.children[cix].impl, lib, depth + 1, out);
  }
  out << ind << "}\n";
}

}  // namespace

std::string netlist_to_text(const Datapath& dp, const Library& lib) {
  std::ostringstream out;
  emit(dp, lib, 0, out);
  return out.str();
}

}  // namespace hsyn
