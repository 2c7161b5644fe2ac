/**
 * @file
 * MP3D: rarefied-fluid particle simulation (SPLASH MP3D).
 *
 * Particles are 40-byte records (1.25 blocks), so a record usually
 * straddles two cache blocks -- the source of the paper's observation
 * that MP3D's misses have "fairly high spatial locality" even though
 * only ~9% of them belong to stride sequences: the collision phase
 * reads pseudo-random partner particles (no stride), but reading one
 * record touches adjacent blocks, which sequential prefetching exploits
 * and stride detection cannot.
 *
 * Each step also reads the space-cell array (written by per-cell owners
 * every step), with indices that ascend with jitter -- spatially local
 * but never equidistant.
 */

#ifndef PSIM_APPS_MP3D_HH
#define PSIM_APPS_MP3D_HH

#include <vector>

#include "apps/workload.hh"

namespace psim::apps
{

class Mp3dWorkload : public Workload
{
  public:
    explicit Mp3dWorkload(unsigned scale);

    void setup(Machine &m) override;
    Task thread(ThreadCtx &ctx) override;
    bool verify(Machine &m) override;

    unsigned particles() const { return _npart; }

    static constexpr unsigned kRecordBytes = 40; ///< 5 doubles
    static constexpr unsigned kPos = 0;
    static constexpr unsigned kVel = 8;
    static constexpr unsigned kEnergy = 16;
    static constexpr unsigned kSpin = 24;
    static constexpr unsigned kWeight = 32;

  private:
    Addr
    pfield(unsigned p, unsigned off) const
    {
        return _parts + static_cast<Addr>(p) * kRecordBytes + off;
    }

    Addr
    cellAddr(unsigned c) const
    {
        return _cells + static_cast<Addr>(c) * 32;
    }

    /** Deterministic collision partner of particle @p p at @p step. */
    unsigned partnerOf(unsigned p, unsigned step) const;

    unsigned _npart = 0;
    unsigned _ncell = 0;
    unsigned _steps = 0;
    double _space = 0; ///< 1-D space extent
    Addr _parts = 0;
    Addr _cells = 0;
    Addr _bar = 0;
    std::vector<double> _refPos;
    std::vector<double> _refVel;
};

} // namespace psim::apps

#endif // PSIM_APPS_MP3D_HH
