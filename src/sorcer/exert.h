#pragma once
// The requestor entry point of exertion-oriented programming:
//
//   Exertion.exert(Transaction) : Exertion            (§IV.D)
//
// "Requestors do not have to look up for any network provider at all; they
// can submit an exertion onto the network." exert() forms the federation:
// a task binds to a matching task peer; a job routes to a rendezvous peer —
// a Jobber under PUSH access, a Spacer under PULL.

#include <vector>

#include "registry/transaction.h"
#include "sorcer/accessor.h"
#include "sorcer/exertion.h"
#include "sorcer/invoke.h"

namespace sensorcer::sorcer {

/// Exert `exertion` onto the network reachable through `accessor`. On
/// routing failure (no matching provider / no rendezvous peer) the exertion
/// is returned with kFailed status and the error recorded on it; the Result
/// itself is an error only for null input and for an accessor with no
/// invoker (kFailedPrecondition, also recorded on the exertion).
util::Result<ExertionPtr> exert(const ExertionPtr& exertion,
                                ServiceAccessor& accessor,
                                registry::Transaction* txn = nullptr);

/// Scatter-gather exert(): submit every exertion in `batch` with the same
/// routing, substitution-retry, metric and tracing semantics as exert() —
/// but overlapped. Every call is scattered onto the fabric through
/// begin_invoke() and one shared pump gathers them, so the batch costs
/// ~max(latency) instead of the sum; a task that times out is re-resolved
/// with exclusion and re-issued while its siblings keep flying. Outcomes
/// land on the exertions (kFailedPrecondition on each when the accessor has
/// no invoker).
void exert_all(const std::vector<ExertionPtr>& batch,
               ServiceAccessor& accessor,
               registry::Transaction* txn = nullptr);

}  // namespace sensorcer::sorcer
