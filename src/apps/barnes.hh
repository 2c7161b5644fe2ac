/**
 * @file
 * Barnes: Barnes-Hut N-body force evaluation (in the style of SPLASH
 * Barnes).
 *
 * Bodies live in a 2-D box; setup builds a quadtree over them
 * (functionally, as the sequential tree-build phase). The parallel
 * section is the force-evaluation sweep: every processor walks the
 * shared tree for each of its bodies with an explicit stack, using a
 * node's center of mass when the opening criterion allows and
 * descending into children otherwise -- irregular pointer chasing over
 * a read-shared tree with heavy reuse of the top levels, a pattern
 * between PTHOR (no locality) and the array codes (all stride).
 *
 * Extension workload; registry name "barnes". The tree is rebuilt
 * between the two time steps by the sequential phase, mirroring the
 * paper's convention of measuring only the parallel section.
 */

#ifndef PSIM_APPS_BARNES_HH
#define PSIM_APPS_BARNES_HH

#include <vector>

#include "apps/workload.hh"

namespace psim::apps
{

class BarnesWorkload : public Workload
{
  public:
    explicit BarnesWorkload(unsigned scale);

    void setup(Machine &m) override;
    Task thread(ThreadCtx &ctx) override;
    bool verify(Machine &m) override;

    unsigned bodies() const { return _nbody; }

    /** Tree node: 64 bytes = 2 blocks. */
    static constexpr unsigned kNodeBytes = 64;
    static constexpr unsigned kBodyBytes = 64;

    // node fields (byte offsets)
    static constexpr unsigned kNodeCmX = 0;
    static constexpr unsigned kNodeCmY = 8;
    static constexpr unsigned kNodeMass = 16;
    static constexpr unsigned kNodeSize = 24;   ///< cell side length
    static constexpr unsigned kNodeChild = 32;  ///< 4 x u64 child index

    // body fields
    static constexpr unsigned kBodyX = 0;
    static constexpr unsigned kBodyY = 8;
    static constexpr unsigned kBodyMass = 16;
    static constexpr unsigned kBodyVx = 24;
    static constexpr unsigned kBodyVy = 32;

    static constexpr std::uint64_t kNoChild = ~0ULL;

  private:
    struct Node
    {
        double cmx = 0, cmy = 0, mass = 0, size = 0;
        std::uint64_t child[4] = {kNoChild, kNoChild, kNoChild,
                                  kNoChild};
        bool leaf = true;
        unsigned body = 0; ///< body index when a leaf with one body
        bool hasBody = false;
    };

    Addr
    nodeAddr(std::uint64_t n, unsigned off) const
    {
        return _nodes + n * kNodeBytes + off;
    }

    Addr
    bodyAddr(unsigned b, unsigned off) const
    {
        return _bodies + static_cast<Addr>(b) * kBodyBytes + off;
    }

    /** Build the quadtree over current body positions (functional). */
    void buildTree(std::vector<Node> &tree,
                   const std::vector<double> &x,
                   const std::vector<double> &y,
                   const std::vector<double> &mass) const;

    /** Write the tree into simulated shared memory. */
    void publishTree(Machine &m, const std::vector<Node> &tree) const;

    /** Force on body b from the tree (native; identical walk order). */
    static void walkNative(const std::vector<Node> &tree, double bx,
                           double by, double &fx, double &fy);

    unsigned _nbody = 0;
    unsigned _steps = 0;
    Addr _bodies = 0;
    Addr _nodes = 0;
    Addr _bar = 0;
    std::vector<double> _refX;
    std::vector<double> _refY;

    // Tree state shared between setup-built steps; the intermediate
    // tree for step 2 is rebuilt inside the run via a callback from the
    // barrier master (see thread()).
    mutable std::vector<Node> _tree;
};

} // namespace psim::apps

#endif // PSIM_APPS_BARNES_HH
