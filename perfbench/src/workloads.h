#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Sets up, measures and checks one workload. An error means the run could
/// not be made at all (no result is printed); a wrong result is reported
/// through `report->correct` instead.
Status RunWorkload(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
