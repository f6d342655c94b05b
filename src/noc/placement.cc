#include "noc/placement.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/union_find.hh"

namespace sushi::noc {

Placement
placeStages(int n_stages, const std::vector<CutTraffic> &edges,
            int width, int height)
{
    if (n_stages <= 0)
        throw NocError("placement needs at least one stage");
    if (width <= 0 || height <= 0) {
        width = static_cast<int>(std::ceil(
            std::sqrt(static_cast<double>(n_stages))));
        height = (n_stages + width - 1) / width;
    }
    if (width * height < n_stages)
        throw NocError("mesh " + std::to_string(width) + "x" +
                       std::to_string(height) + " has " +
                       std::to_string(width * height) +
                       " nodes for " + std::to_string(n_stages) +
                       " stages");

    // Contract edges heaviest-first (ties by index, for rebuild
    // stability); a contraction concatenates the two endpoint
    // chains, committing the stages to adjacent snake slots.
    std::vector<int> parent(static_cast<std::size_t>(n_stages));
    std::iota(parent.begin(), parent.end(), 0);
    std::vector<std::vector<int>> chain(
        static_cast<std::size_t>(n_stages));
    for (int s = 0; s < n_stages; ++s)
        chain[static_cast<std::size_t>(s)] = {s};

    std::vector<std::size_t> order(edges.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t i, std::size_t j) {
                         return edges[i].weight > edges[j].weight;
                     });

    for (std::size_t e : order) {
        const CutTraffic &edge = edges[e];
        if (edge.a < 0 || edge.a >= n_stages || edge.b < 0 ||
            edge.b >= n_stages)
            throw NocError("cut edge references stage outside the "
                           "plan");
        const int ra = findRoot(parent, edge.a);
        const int rb = findRoot(parent, edge.b);
        if (ra == rb)
            continue;
        auto &ca = chain[static_cast<std::size_t>(ra)];
        auto &cb = chain[static_cast<std::size_t>(rb)];
        // Adjacency is only realizable when both endpoints sit at a
        // chain end; interior stages already committed both of their
        // snake neighbours to heavier cuts.
        const bool a_end =
            ca.front() == edge.a || ca.back() == edge.a;
        const bool b_end =
            cb.front() == edge.b || cb.back() == edge.b;
        if (!a_end || !b_end)
            continue;
        if (ca.front() == edge.a)
            std::reverse(ca.begin(), ca.end());
        if (cb.back() == edge.b)
            std::reverse(cb.begin(), cb.end());
        ca.insert(ca.end(), cb.begin(), cb.end());
        cb.clear();
        parent[static_cast<std::size_t>(rb)] = ra;
    }

    // Deterministic global order: chains sorted by their smallest
    // stage id, each oriented so its smaller endpoint leads.
    std::vector<std::vector<int> *> chains;
    for (int s = 0; s < n_stages; ++s)
        if (findRoot(parent, s) == s)
            chains.push_back(&chain[static_cast<std::size_t>(s)]);
    for (auto *c : chains)
        if (c->front() > c->back())
            std::reverse(c->begin(), c->end());
    std::stable_sort(chains.begin(), chains.end(),
                     [](const std::vector<int> *x,
                        const std::vector<int> *y) {
                         return *std::min_element(x->begin(),
                                                  x->end()) <
                                *std::min_element(y->begin(),
                                                  y->end());
                     });

    Placement placement;
    placement.width = width;
    placement.height = height;
    placement.stage_node.assign(static_cast<std::size_t>(n_stages),
                                0);
    const std::vector<int> snake =
        MeshTopology(width, height).snakeOrder();
    std::size_t slot = 0;
    for (const auto *c : chains)
        for (const int stage : *c)
            placement.stage_node[static_cast<std::size_t>(stage)] =
                snake[slot++];
    placement.host_node = 0;
    return placement;
}

} // namespace sushi::noc
