#ifndef ROADPART_PERFBENCH_WORKLOADS_H_
#define ROADPART_PERFBENCH_WORKLOADS_H_

#include "perfbench/harness.h"

namespace roadpart::perfbench {

/// cold_asg: repeated 1-thread cold ASG partitions of one congested city,
/// with query windows served between them.
void RunCold(const Config& config, Report& report);

/// live: the supervised refresh -> publish -> serve pipeline over a drift
/// series, with a query window served after every interval.
void RunLive(const Config& config, Report& report);

}  // namespace roadpart::perfbench

#endif  // ROADPART_PERFBENCH_WORKLOADS_H_
