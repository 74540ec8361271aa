// The §2 bug catalog as a registry of runnable scenarios.
//
// Replaces the old free-function catalog (C3831Spec() & friends) and the
// name->spec switch statements that every CLI/bench target used to duplicate:
//
//   const BugSpec& bug = BugCatalog::Get("C3831");
//   for (const BugSpec& spec : BugCatalog::All()) { ... }
//
// The catalog is immutable and built once at first use; entries are returned
// by reference and remain valid for the process lifetime.

#ifndef SCALECHECK_SRC_SCALECHECK_BUG_CATALOG_H_
#define SCALECHECK_SRC_SCALECHECK_BUG_CATALOG_H_

#include <string>
#include <vector>

#include "src/scalecheck/scale_check.h"

namespace scalecheck {

class BugCatalog {
 public:
  // Returns the spec for `id` (e.g. "C3831", "C5456-fixed"); CHECK-fails on
  // unknown ids — use TryGet when the id comes from user input.
  static const BugSpec& Get(const std::string& id);

  // Returns nullptr for unknown ids.
  static const BugSpec* TryGet(const std::string& id);

  // Every catalogued scenario, in a stable order (buggy generations first,
  // then their fixes, mirroring the §2 bug->fix->bug narrative).
  static const std::vector<BugSpec>& All();

  // Catalog ids in All() order (usage strings, reports).
  static std::vector<std::string> Ids();
};

// The §8 colocation-limit probe: a small scale-out (+N/32 nodes, 20 s
// transitions, 120 s horizon) with the fast vnode-aware calculator, varied
// only in deployment engineering. Not a catalog entry: it probes the
// harness's colocation limit, not a studied bug. The id names the variant
// ("probe-process", "probe-seda", "probe-oblivious").
BugSpec ColocationProbeSpec(ExecModel exec_model, bool space_oblivious);

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_SCALECHECK_BUG_CATALOG_H_
