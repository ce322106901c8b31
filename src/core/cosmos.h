#ifndef COSMOS_CORE_COSMOS_H_
#define COSMOS_CORE_COSMOS_H_

// Umbrella header for library users: pulls in the whole public COSMOS API.
// Most applications only need CosmosSystem (core/system.h) plus a topology
// (overlay/topology.h, overlay/spanning_tree.h); include this when
// exploring or prototyping.

#include "cbn/codec.h"            // IWYU pragma: export
#include "cbn/covering.h"         // IWYU pragma: export
#include "cbn/network.h"          // IWYU pragma: export
#include "core/containment.h"     // IWYU pragma: export
#include "core/grouping.h"        // IWYU pragma: export
#include "core/merger.h"          // IWYU pragma: export
#include "core/processor.h"       // IWYU pragma: export
#include "core/profile_composer.h"// IWYU pragma: export
#include "core/query_distribution.h"  // IWYU pragma: export
#include "core/rate_estimator.h"  // IWYU pragma: export
#include "core/statistics.h"      // IWYU pragma: export
#include "core/system.h"          // IWYU pragma: export
#include "core/workload.h"        // IWYU pragma: export
#include "overlay/optimizer.h"    // IWYU pragma: export
#include "overlay/spanning_tree.h"// IWYU pragma: export
#include "overlay/topology.h"     // IWYU pragma: export
#include "query/parser.h"         // IWYU pragma: export
#include "query/unparser.h"       // IWYU pragma: export
#include "spe/plan.h"             // IWYU pragma: export
#include "stream/auction_dataset.h"  // IWYU pragma: export
#include "stream/sensor_dataset.h"   // IWYU pragma: export

#endif  // COSMOS_CORE_COSMOS_H_
