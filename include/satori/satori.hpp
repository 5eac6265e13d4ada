/**
 * @file
 * Umbrella header: the full public API of the SATORI library.
 *
 * Quickstart:
 * @code
 *   using namespace satori;
 *   auto platform = PlatformSpec::paperTestbed();
 *   auto mix = workloads::mixOf({"canneal", "streamcluster", "vips"});
 *   auto server = harness::makeServer(platform, mix);
 *   core::SatoriController satori(platform, server.numJobs());
 *   harness::ExperimentRunner runner;
 *   auto result = runner.run(server, satori, mix.label);
 * @endcode
 */

#ifndef SATORI_SATORI_HPP
#define SATORI_SATORI_HPP

#include "satori/analysis/invariants.hpp"

#include "satori/common/logging.hpp"
#include "satori/common/math.hpp"
#include "satori/common/rng.hpp"
#include "satori/common/stats.hpp"
#include "satori/common/table.hpp"
#include "satori/common/types.hpp"

#include "satori/linalg/cholesky.hpp"
#include "satori/linalg/matrix.hpp"

#include "satori/config/configuration.hpp"
#include "satori/config/enumeration.hpp"
#include "satori/config/platform.hpp"

#include "satori/metrics/metrics.hpp"

#include "satori/perfmodel/mrc.hpp"
#include "satori/perfmodel/perf.hpp"
#include "satori/perfmodel/phase.hpp"

#include "satori/workloads/loader.hpp"
#include "satori/workloads/mixes.hpp"
#include "satori/workloads/profile.hpp"
#include "satori/workloads/suites.hpp"

#include "satori/sim/job.hpp"
#include "satori/sim/monitor.hpp"
#include "satori/sim/server.hpp"

#include "satori/bo/acquisition.hpp"
#include "satori/bo/candidates.hpp"
#include "satori/bo/engine.hpp"
#include "satori/bo/gp.hpp"
#include "satori/bo/kernel.hpp"

#include "satori/core/controller.hpp"
#include "satori/core/goal_record.hpp"
#include "satori/core/objective.hpp"
#include "satori/core/telemetry_guard.hpp"
#include "satori/core/weights.hpp"

#include "satori/faults/injector.hpp"
#include "satori/faults/plan.hpp"

#include "satori/policies/clite_policy.hpp"
#include "satori/policies/copart_policy.hpp"
#include "satori/policies/dcat_policy.hpp"
#include "satori/policies/equal_policy.hpp"
#include "satori/policies/oracle_policy.hpp"
#include "satori/policies/parties_policy.hpp"
#include "satori/policies/policy.hpp"
#include "satori/policies/random_policy.hpp"
#include "satori/policies/restricted_policy.hpp"

#include "satori/obs/audit.hpp"
#include "satori/obs/obs.hpp"
#include "satori/obs/registry.hpp"
#include "satori/obs/tracer.hpp"

#include "satori/harness/experiment.hpp"
#include "satori/sim/offline_eval.hpp"
#include "satori/harness/parallel.hpp"
#include "satori/harness/report.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/harness/trace.hpp"

#endif // SATORI_SATORI_HPP
