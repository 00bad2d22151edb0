// Pass B — lock-order analysis (rules K1, K2). Clang's Thread Safety
// Analysis proves per-mutex discipline inside one translation unit but
// cannot see cross-mutex *ordering*; this pass recovers the static
// lock-acquisition graph from three sources and checks it for cycles:
//
//   * declared edges: `Mutex b_ PALB_ACQUIRED_AFTER(a_);` => a_ -> b_
//     (and PALB_ACQUIRED_BEFORE the other way around);
//   * contract edges: a function annotated PALB_REQUIRES(a_) whose
//     inline body acquires b_ => a_ -> b_;
//   * observed edges: a MutexLock / .lock() / .try_lock() acquisition
//     made while an earlier MutexLock scope (or manual lock) is still
//     open => held -> acquired.
//
// Mutex identity is `component::name`, where component is the file-pair
// stem (src/core/plan_handle.{hpp,cpp} -> core/plan_handle), so a
// header's declared order and its .cpp's observed order land on the
// same nodes. A cycle in the union graph — including an observed edge
// contradicting a declared one — is a K1 finding. The walk is
// brace-scoped tokens, not a CFG: an acquisition through a function
// call is invisible, which is exactly why the PALB_ACQUIRED_AFTER
// declarations exist for the cross-function contracts.
//
// K2: while a designated route-path/publish mutex (the `fastpath`
// entries in layers.txt) is held, blocking identifiers — pool submits,
// waits, joins, sleeps, stream I/O — are findings: the serving fast
// path's zero-stall contract (docs/SERVING.md) dies the moment a
// reader-visible lock waits on anything.
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze.hpp"

namespace palb_analyze {
namespace {

struct Edge {
  std::string from;  // qualified: component::mutex
  std::string to;
  std::string path;
  std::size_t line = 0;
  bool declared = false;  // from PALB_ACQUIRED_AFTER/BEFORE
};

// Blocking in call position (`submit(...)`, `cv.wait(mu)`, ...).
bool blocking_call(const std::string& name) {
  static const std::set<std::string> kCalls = {
      "submit",     "for_each_slot", "run_replications", "wait",
      "wait_for",   "wait_until",    "join",             "sleep_for",
      "sleep_until", "getline",      "fopen",            "fread",
      "fwrite",     "system",        "popen",            "flush",
  };
  return kCalls.count(name) != 0;
}

// Blocking by mere appearance (constructing a file stream or touching
// a std stream under a fast-path lock is already the bug).
bool blocking_bare(const std::string& name) {
  static const std::set<std::string> kBare = {
      "ifstream", "ofstream", "fstream", "cin", "cout", "cerr", "clog",
  };
  return kBare.count(name) != 0;
}

// src/core/plan_handle.cpp -> core/plan_handle (the .hpp maps to the
// same stem, unifying declared and observed edges of one class).
std::string component_of(const std::string& rel) {
  std::string stem = rel;
  if (stem.rfind("src/", 0) == 0) stem.erase(0, 4);
  const std::size_t dot = stem.rfind('.');
  if (dot != std::string::npos) stem.erase(dot);
  return stem;
}

struct Hold {
  std::string mutex;  // unqualified member name
  int depth = 0;      // brace depth the hold was opened at
  bool manual = false;  // .lock()/.try_lock(), released by .unlock()
};

// One file's contribution: edges into *edges, K2 findings directly.
void scan_file_locks(const FileScan& scan, const Config& config,
                     std::vector<Edge>* edges,
                     std::vector<Finding>* findings) {
  const std::string comp = component_of(scan.rel);
  const auto qual = [&](const std::string& name) { return comp + "::" + name; };
  const std::string& code = scan.code;
  const std::size_t n = code.size();

  std::size_t i = 0;
  std::size_t line = 1;
  int depth = 0;
  std::vector<Hold> holds;
  std::vector<std::string> pending_requires;  // from a signature, until { or ;
  std::string prev_ident;

  // Collect identifier tokens inside the (...) group starting at or
  // after `pos`; advances *out past the closing ')'. Line counter is
  // updated for the consumed span.
  const auto parens_idents = [&](std::size_t pos, std::size_t* out) {
    std::vector<std::string> idents;
    while (pos < n && code[pos] != '(') {
      if (code[pos] == '\n') ++line;
      ++pos;
    }
    int nest = 0;
    while (pos < n) {
      const char c = code[pos];
      if (c == '\n') ++line;
      if (c == '(') ++nest;
      if (c == ')') {
        --nest;
        if (nest == 0) {
          ++pos;
          break;
        }
      }
      if (is_ident_char(c) && !(c >= '0' && c <= '9')) {
        std::string tok;
        while (pos < n && is_ident_char(code[pos])) tok.push_back(code[pos++]);
        idents.push_back(std::move(tok));
        continue;
      }
      ++pos;
    }
    *out = pos;
    return idents;
  };

  const auto add_edges_for_acquire = [&](const std::string& acquired,
                                         std::size_t at_line) {
    std::set<std::string> emitted;
    for (const Hold& h : holds) {
      if (h.mutex == acquired) continue;
      if (!emitted.insert(h.mutex).second) continue;
      edges->push_back({qual(h.mutex), qual(acquired), scan.rel, at_line, false});
    }
  };

  const auto fastpath_held = [&]() -> const Hold* {
    for (const Hold& h : holds) {
      if (config.fastpath.count(qual(h.mutex)) != 0) return &h;
    }
    return nullptr;
  };

  while (i < n) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == '{') {
      ++depth;
      // A signature-level PALB_REQUIRES binds to the body that opens
      // here: the required mutexes are held for the whole scope.
      for (const std::string& m : pending_requires)
        holds.push_back({m, depth, false});
      pending_requires.clear();
      ++i;
      continue;
    }
    if (c == '}') {
      --depth;
      while (!holds.empty() && holds.back().depth > depth) holds.pop_back();
      ++i;
      continue;
    }
    if (c == ';') {
      // `PALB_REQUIRES(m);` on a pure declaration: no body, no holds.
      pending_requires.clear();
      ++i;
      continue;
    }
    if (!is_ident_char(c) || (c >= '0' && c <= '9')) {
      ++i;
      continue;
    }

    const std::size_t tok_begin = i;
    std::string tok;
    while (i < n && is_ident_char(code[i])) tok.push_back(code[i++]);

    if (tok == "MutexLock") {
      // MutexLock <var>(<expr>); the mutex is the last identifier in
      // the parens (handles `mu_` and `handle.publish_mutex()` alike).
      std::size_t after = i;
      const std::vector<std::string> idents = parens_idents(i, &after);
      if (!idents.empty()) {
        const std::string mutex = idents.back();
        add_edges_for_acquire(mutex, line);
        holds.push_back({mutex, depth, false});
      }
      i = after;
      prev_ident = tok;
      continue;
    }
    if (tok == "PALB_REQUIRES") {
      std::size_t after = i;
      for (std::string& m : parens_idents(i, &after))
        pending_requires.push_back(std::move(m));
      i = after;
      prev_ident = tok;
      continue;
    }
    if (tok == "PALB_ACQUIRED_AFTER" || tok == "PALB_ACQUIRED_BEFORE") {
      // `Mutex b_ PALB_ACQUIRED_AFTER(a_);` — prev_ident is the mutex
      // being declared, the parens list its predecessors (AFTER) or
      // successors (BEFORE).
      std::size_t after = i;
      const std::vector<std::string> others = parens_idents(i, &after);
      if (!prev_ident.empty()) {
        for (const std::string& other : others) {
          if (tok == "PALB_ACQUIRED_AFTER")
            edges->push_back({qual(other), qual(prev_ident), scan.rel, line, true});
          else
            edges->push_back({qual(prev_ident), qual(other), scan.rel, line, true});
        }
      }
      i = after;
      prev_ident = tok;
      continue;
    }

    const bool call_form = next_nonspace_is(code, i, '(');
    const bool member = is_member_access(code, tok_begin);

    if ((tok == "lock" || tok == "try_lock") && call_form && member &&
        !prev_ident.empty()) {
      add_edges_for_acquire(prev_ident, line);
      holds.push_back({prev_ident, depth, true});
      prev_ident = tok;
      continue;
    }
    if (tok == "unlock" && call_form && member && !prev_ident.empty()) {
      for (std::size_t h = holds.size(); h-- > 0;) {
        if (holds[h].manual && holds[h].mutex == prev_ident) {
          holds.erase(holds.begin() + static_cast<std::ptrdiff_t>(h));
          break;
        }
      }
      prev_ident = tok;
      continue;
    }

    if ((call_form && blocking_call(tok)) || blocking_bare(tok)) {
      if (const Hold* held = fastpath_held()) {
        findings->push_back(
            {scan.rel, line, "K2",
             "blocking '" + tok + "' while fast-path mutex '" + held->mutex +
                 "' is held; the route/publish path must never wait "
                 "(layers.txt fastpath designation, docs/SERVING.md)",
             true});
      }
    }
    prev_ident = tok;
  }
}

// Depth-first cycle search over the union graph; reports each cycle
// once, anchored at its lexicographically smallest node so reruns are
// deterministic.
struct CycleFinder {
  const std::map<std::string, std::vector<const Edge*>>& adj;
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<const Edge*> stack;
  std::vector<std::vector<const Edge*>> cycles;

  void dfs(const std::string& node) {
    color[node] = 1;
    const auto it = adj.find(node);
    if (it != adj.end()) {
      for (const Edge* e : it->second) {
        const int c = color.count(e->to) != 0 ? color[e->to] : 0;
        if (c == 1) {
          // Back edge: unwind the stack to the cycle start.
          std::vector<const Edge*> cycle;
          bool in_cycle = false;
          for (const Edge* s : stack) {
            if (s->from == e->to) in_cycle = true;
            if (in_cycle) cycle.push_back(s);
          }
          cycle.push_back(e);
          cycles.push_back(std::move(cycle));
        } else if (c == 0) {
          stack.push_back(e);
          dfs(e->to);
          stack.pop_back();
        }
      }
    }
    color[node] = 2;
  }
};

}  // namespace

void pass_lockorder(const std::vector<FileScan>& scans, const Config& config,
                    std::vector<Finding>* findings) {
  std::vector<Edge> edges;
  for (const FileScan& scan : scans) {
    scan_file_locks(scan, config, &edges, findings);
  }

  // Dedup parallel edges (same from -> to), keeping the first
  // provenance; a declared edge wins so messages cite the contract.
  std::map<std::pair<std::string, std::string>, const Edge*> unique;
  for (const Edge& e : edges) {
    auto [it, inserted] = unique.insert({{e.from, e.to}, &e});
    if (!inserted && e.declared && !it->second->declared) it->second = &e;
  }

  std::map<std::string, std::vector<const Edge*>> adj;
  for (const auto& [key, edge] : unique) {
    (void)key;
    adj[edge->from].push_back(edge);
  }

  CycleFinder finder{adj, {}, {}, {}};
  for (const auto& [node, out] : adj) {
    (void)out;
    if (finder.color.count(node) == 0 || finder.color[node] == 0)
      finder.dfs(node);
  }

  for (const std::vector<const Edge*>& cycle : finder.cycles) {
    std::string path_desc;
    for (const Edge* e : cycle) {
      path_desc += e->from + " -> ";
    }
    path_desc += cycle.back()->to;
    std::string provenance;
    for (const Edge* e : cycle) {
      provenance += "\n    " + e->from + " -> " + e->to + " (" +
                    (e->declared ? "declared at " : "acquired at ") + e->path +
                    ":" + std::to_string(e->line) + ")";
    }
    const Edge* anchor = cycle.back();
    findings->push_back(
        {anchor->path, anchor->line, "K1",
         "lock-order cycle: " + path_desc +
             " — two threads taking these mutexes in the orders shown can "
             "deadlock; fix the acquisition order or the "
             "PALB_ACQUIRED_AFTER declaration" + provenance,
         true});
  }
}

}  // namespace palb_analyze
