/**
 * @file
 * Workload framework.
 *
 * A Workload owns the simulated application: setup() initializes shared
 * data directly in the backing store (the sequential initialization
 * phase, which the paper excludes from statistics), thread() is the
 * parallel section run by every simulated processor, and verify()
 * checks the computed result against a natively computed reference --
 * proving that the coherence protocol and synchronization actually
 * delivered correct data.
 */

#ifndef PSIM_APPS_WORKLOAD_HH
#define PSIM_APPS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "apps/ctx.hh"
#include "apps/shmem.hh"
#include "sys/machine.hh"
#include "sys/task.hh"

namespace psim::apps
{

class Workload
{
  public:
    /**
     * @param scale 1 = the paper-sized (scaled-down) input; larger
     *        values grow the data set (Table 4 uses scale 2)
     */
    explicit Workload(unsigned scale) : _scale(scale) {}

    virtual ~Workload() = default;

    /** Sequential initialization (functional, untimed). */
    virtual void setup(Machine &m) = 0;

    /** The parallel section executed by thread @p ctx. */
    virtual Task thread(ThreadCtx &ctx) = 0;

    /** Check the result against a native reference computation. */
    virtual bool verify(Machine &m) = 0;

    unsigned scale() const { return _scale; }

    /**
     * Run setup() and bind one thread per processor. Call once, before
     * Machine::run().
     */
    void
    attach(Machine &m)
    {
        _shm = std::make_unique<ShmAllocator>(m.cfg());
        setup(m);
        unsigned n = m.numProcs();
        _ctxs.reserve(n);
        for (NodeId tid = 0; tid < n; ++tid) {
            _ctxs.push_back(std::make_unique<ThreadCtx>(m, tid, n));
            m.bindProgram(tid, thread(*_ctxs.back()));
        }
    }

  protected:
    ShmAllocator &shm() { return *_shm; }

    unsigned _scale;
    std::unique_ptr<ShmAllocator> _shm;
    std::vector<std::unique_ptr<ThreadCtx>> _ctxs;
};

/**
 * Construct a workload by name (see the registry table in
 * src/apps/registry.cc); unknown names are fatal and the message
 * lists every valid name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       unsigned scale = 1);

/** The six applications of the paper, in its table order. */
const std::vector<std::string> &paperWorkloads();

/** The server request-driven suite: kvstore, hashjoin, bfs, logappend. */
const std::vector<std::string> &serverWorkloads();

} // namespace psim::apps

#endif // PSIM_APPS_WORKLOAD_HH
