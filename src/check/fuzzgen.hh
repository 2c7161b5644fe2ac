/**
 * @file
 * Seeded synthetic-workload generator for differential fuzzing.
 *
 * A ProgramSpec is a small grammar instance: a thread count, a
 * prefetch degree, and a list of phases, each one of five sharing
 * patterns (strided sweeps with positive/negative and page-straddling
 * strides, lock-protected shared counters, migratory records,
 * barrier-staged producer/consumer rounds, and a seeded random mix of
 * private accesses). ProgramSpec::generate(seed) derives every choice
 * deterministically from the seed, and FuzzWorkload executes the spec
 * through the ordinary apps::Ctx task API -- so a fuzz program is a
 * first-class workload and exercises the full machine.
 *
 * Two properties are load-bearing for differential checking:
 *
 *  - programs are data-race-free by construction: cross-thread
 *    communication happens only under locks or across barriers, and
 *    every lock-protected update is commutative -- so the final memory
 *    image is a deterministic function of the spec, identical across
 *    schemes, timings and job counts;
 *
 *  - every random choice a simulated thread makes is drawn from an Rng
 *    seeded by (spec seed, thread, phase) alone, never from machine
 *    state -- so the native model in verify() can replay the program
 *    exactly.
 */

#ifndef PSIM_CHECK_FUZZGEN_HH
#define PSIM_CHECK_FUZZGEN_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/workload.hh"

namespace psim::check
{

/** One phase of a generated program. */
struct PhaseSpec
{
    enum class Kind : std::uint8_t
    {
        StridedSweep,     ///< per-thread disjoint strided read+write walk
        SharedCounter,    ///< lock-protected commutative counters
        Migratory,        ///< one hot record per lane, migrating writers
        ProducerConsumer, ///< barrier-staged produce/consume rounds
        RandomMix,        ///< seeded random private ops + shared reads
    };
    static constexpr unsigned kNumKinds = 5;

    Kind kind = Kind::StridedSweep;

    /** Shrinking disables phases instead of deleting them, so the
     *  shared-memory layout (and thus the repro) stays stable. */
    bool enabled = true;

    /** Sweep stride in bytes; may be negative, a non-multiple of the
     *  block size, and larger than a page (page-straddling). */
    std::int64_t stride = 64;

    unsigned iters = 32; ///< per-thread operations (or rounds)
    unsigned lanes = 4;  ///< counters / records / slots per thread
    std::uint64_t salt = 0; ///< extra seed material (RandomMix)
};

const char *toString(PhaseSpec::Kind k);

/** A complete generated program. */
struct ProgramSpec
{
    std::uint64_t seed = 0;
    unsigned threads = 4;
    unsigned degree = 1; ///< prefetch degree the runs use
    std::vector<PhaseSpec> phases;

    /** Derive a full program deterministically from @p seed. */
    static ProgramSpec generate(std::uint64_t seed);

    /** One-line grammar rendering (seed, threads, every phase). */
    std::string describe() const;

    unsigned enabledPhases() const;
};

/**
 * Executes a ProgramSpec as a workload. setup() lays out and
 * initializes the shared regions, thread() runs the phases separated
 * by barriers, and verify() checks the final memory image against the
 * natively computed expectation.
 */
class FuzzWorkload : public apps::Workload
{
  public:
    explicit FuzzWorkload(ProgramSpec spec);

    const char *name() const override { return "fuzz"; }
    void setup(Machine &m) override;
    Task thread(apps::ThreadCtx &ctx) override;
    bool verify(Machine &m) override;

  private:
    /** Per-phase shared-memory layout (all addresses 4-byte words). */
    struct PhaseLayout
    {
        Addr region = 0;   ///< sweep area / record array / slot array
        Addr locks = 0;    ///< lane locks (sync-aligned, lane-strided)
        Addr out = 0;      ///< per-thread deterministic result words
        std::size_t span = 0; ///< per-thread bytes within region
    };

    Task run(apps::ThreadCtx &ctx);

    /** Native model: replay the program into _expected. */
    void computeExpected();

    std::uint32_t initValue(Addr a) const;
    Addr sweepAddr(const PhaseSpec &ph, const PhaseLayout &lay,
                   unsigned tid, unsigned i) const;
    Rng phaseRng(unsigned tid, std::size_t phase) const;

    ProgramSpec _spec;
    Addr _barrier = 0;
    Addr _sharedTable = 0; ///< read-only table (RandomMix reads it)
    std::vector<PhaseLayout> _lay;
    std::map<Addr, std::uint32_t> _expected;
};

} // namespace psim::check

#endif // PSIM_CHECK_FUZZGEN_HH
