/**
 * @file
 * Water: N-body molecular dynamics (SPLASH Water).
 *
 * Each molecule is a 672-byte record -- 21 cache blocks, matching the
 * paper's observation that Water's dominant stride is 21 blocks: the
 * pairwise force phase sweeps a fixed set of fields across consecutive
 * molecule records, producing multi-block stride sequences. The fields
 * read per molecule live in *adjacent* blocks of the record, which is
 * the "high spatial locality of accesses belonging to different stride
 * sequences" that lets sequential prefetching keep up with stride
 * prefetching on Water despite the large stride.
 */

#ifndef PSIM_APPS_WATER_HH
#define PSIM_APPS_WATER_HH

#include <vector>

#include "apps/workload.hh"

namespace psim::apps
{

class WaterWorkload : public Workload
{
  public:
    explicit WaterWorkload(unsigned scale);

    void setup(Machine &m) override;
    Task thread(ThreadCtx &ctx) override;
    bool verify(Machine &m) override;

    unsigned molecules() const { return _nmol; }

    /** Bytes per molecule record: 84 doubles = 21 blocks of 32 B. */
    static constexpr unsigned kRecordBytes = 672;

    // Record field offsets (bytes). Position and dipole occupy the
    // first two blocks; forces live further into the record.
    static constexpr unsigned kPosX = 0;
    static constexpr unsigned kPosY = 8;
    static constexpr unsigned kPosZ = 16;
    static constexpr unsigned kDipole = 32;
    static constexpr unsigned kCharge = 40;
    static constexpr unsigned kVelX = 320;
    static constexpr unsigned kVelY = 328;
    static constexpr unsigned kVelZ = 336;
    static constexpr unsigned kForceX = 352;
    static constexpr unsigned kForceY = 360;
    static constexpr unsigned kForceZ = 368;

  private:
    Addr
    field(unsigned mol, unsigned off) const
    {
        return _mols + static_cast<Addr>(mol) * kRecordBytes + off;
    }

    unsigned _nmol = 0;
    unsigned _steps = 0;
    Addr _mols = 0;
    Addr _bar = 0;
    std::vector<double> _refPos; ///< reference positions (x,y,z per mol)
};

} // namespace psim::apps

#endif // PSIM_APPS_WATER_HH
