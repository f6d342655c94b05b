/**
 * @file
 * Stage-to-mesh placement: assign each chip stage of a multi-chip
 * plan to a NoC node so the heaviest inter-stage traffic travels the
 * fewest hops.
 *
 * The pass is a union-find contraction (`common/union_find.hh`, the
 * same one `compiler::splitLayersUnderBudget` uses): every stage
 * starts as its own chain, then cut edges are contracted
 * heaviest-traffic-first (ties by edge index) whenever both
 * endpoints sit at the ends of their chains — the merge concatenates
 * the chains so the two stages become physical neighbours. The final
 * chains are laid along the mesh's boustrophedon (snake) order,
 * where consecutive nodes are always adjacent, so every contracted
 * edge gets hop distance 1.
 *
 * Everything is a pure function of (stage count, edge list, mesh
 * dims): the placement — and therefore every packet route — is
 * deterministic across rebuilds and thread counts.
 */

#ifndef SUSHI_NOC_PLACEMENT_HH
#define SUSHI_NOC_PLACEMENT_HH

#include <vector>

#include "noc/topology.hh"

namespace sushi::noc {

/** One weighted traffic edge between two stages. */
struct CutTraffic
{
    int a = 0;       ///< stage index
    int b = 0;       ///< stage index
    long weight = 0; ///< wires (worst-case pulses per step)
};

/** The placement result. */
struct Placement
{
    int width = 0;  ///< mesh width actually used
    int height = 0; ///< mesh height actually used
    /** Mesh node id per stage. */
    std::vector<int> stage_node;
    /** Node whose NIC carries the host ingress/egress port. */
    int host_node = 0;
};

/**
 * Place @p n_stages stages connected by @p edges onto a mesh.
 * Dimensions of 0 auto-size to the smallest near-square mesh with
 * enough nodes; explicit dimensions must fit every stage (throws
 * NocError otherwise).
 */
Placement placeStages(int n_stages,
                      const std::vector<CutTraffic> &edges,
                      int width = 0, int height = 0);

} // namespace sushi::noc

#endif // SUSHI_NOC_PLACEMENT_HH
