/**
 * @file
 * Union-find root lookup for greedy contraction passes.
 *
 * The multi-chip layer splitter and the NoC stage placement both
 * start with every element in its own set and merge sets
 * heaviest-first; this is their shared find.
 */

#ifndef SUSHI_COMMON_UNION_FIND_HH
#define SUSHI_COMMON_UNION_FIND_HH

#include <cstddef>
#include <vector>

namespace sushi {

/** Root of @p x in the forest @p parent (parent[r] == r at a root),
 *  halving the path on the way up. */
inline int
findRoot(std::vector<int> &parent, int x)
{
    while (parent[static_cast<std::size_t>(x)] != x) {
        parent[static_cast<std::size_t>(x)] =
            parent[static_cast<std::size_t>(
                parent[static_cast<std::size_t>(x)])];
        x = parent[static_cast<std::size_t>(x)];
    }
    return x;
}

} // namespace sushi

#endif // SUSHI_COMMON_UNION_FIND_HH
