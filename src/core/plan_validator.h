// Training-plan validation: an independent checker of planner output.
//
// PlanValidator re-derives what a legal plan must satisfy from the model
// and its profiles alone, without sharing code with core::Planner: every
// layer assigned exactly once, GPU counts drawn from the search candidates
// and within the cluster, positive timing entries; it also audits each
// layer's GPU-sec amplification against the plan's declared limit. The
// planner property tests run every generated plan through it, so a planner
// bug cannot hide behind the planner's own bookkeeping.
#pragma once

#include <string>
#include <vector>

#include "core/plan.h"
#include "core/profile.h"

namespace deeppool::core {

struct PlanIssue {
  enum class Severity { kError, kWarning };
  Severity severity = Severity::kError;
  models::LayerId layer = -1;  ///< -1 for plan-level issues
  std::string message;
};

struct ValidationReport {
  std::vector<PlanIssue> issues;

  bool ok() const noexcept;  ///< no errors (warnings allowed)
  std::size_t error_count() const noexcept;
  std::size_t warning_count() const noexcept;
  std::string to_string() const;
};

class PlanValidator {
 public:
  explicit PlanValidator(const ProfileSet& profiles);

  /// Checks `plan` against the profiled model:
  ///  errors  — wrong model name, missing/duplicate/unknown layers, GPU
  ///            counts that are not search candidates or exceed the cluster,
  ///            non-positive timing entries;
  ///  warnings — per-layer amplification above the plan's declared limit
  ///            (beyond the DP's relaxation tolerance), stale timing
  ///            estimates that disagree with the current profiles by more
  ///            than 25%.
  ValidationReport validate(const TrainingPlan& plan) const;

 private:
  const ProfileSet& profiles_;
};

}  // namespace deeppool::core
