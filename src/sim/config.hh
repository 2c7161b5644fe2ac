/**
 * @file
 * Machine configuration.
 *
 * Defaults reproduce Table 1 of the paper: 16 processors, 4 KB FLC,
 * 32 B blocks, infinite SLC, 4 KB pages allocated round-robin, a 256-bit
 * 33 MHz local bus, 90 ns memory and a 4x4 wormhole mesh at 100 MHz with
 * 32-bit flits and a 3-cycle node fall-through.
 */

#ifndef PSIM_SIM_CONFIG_HH
#define PSIM_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace psim
{

/** Which prefetching scheme the SLCs run. */
enum class PrefetchScheme
{
    None,       ///< baseline architecture, no prefetching
    Sequential, ///< prefetch the next d consecutive blocks
    IDet,       ///< RPT-based stride prefetching (Baer/Chen style)
    DDet,       ///< Hagersten data-address stride detection
    Adaptive,   ///< sequential with usefulness-adapted degree (Sec. 6)
    IDetLookahead, ///< Baer/Chen lookahead-PC stride scheme (Sec. 6)
    MultiStride, ///< RPT tracking several concurrent strides per PC
    PtrChase,   ///< content-directed pointer/index chase over a base scheme
    Perceptron, ///< perceptron-gated filter wrapping a base scheme
};

/** Human-readable scheme name as used in the paper's figures. */
const char *toString(PrefetchScheme s);

/**
 * Parse a scheme name. Accepts every canonical name and alias from the
 * scheme registry (see kSchemeNames in config.cc); schemeNames() prints
 * the same set. Currently: "none"/"baseline", "seq"/"sequential",
 * "idet"/"i-det", "ddet"/"d-det", "adaptive"/"adaptive-seq",
 * "idet-la"/"i-det-la"/"lookahead", "mstride"/"m-stride"/"multi-stride",
 * "chase"/"ptr-chase"/"pointer-chase", "ptron"/"perceptron".
 * Unknown names are fatal and list the valid set.
 */
PrefetchScheme parseScheme(const std::string &name);

/**
 * Comma-separated list of every canonical scheme name, generated from
 * the same registry parseScheme() and toString() use (error messages,
 * usage strings).
 */
std::string schemeNames();

/**
 * Default for MachineConfig::audit: true when the build has the audit
 * layer compiled in (PSIM_AUDIT CMake option) and the PSIM_AUDIT
 * environment variable is set to a value other than "0" -- so CI can
 * run every bench and test under the audit without code changes.
 */
bool auditDefault();

struct PrefetchConfig
{
    PrefetchScheme scheme = PrefetchScheme::None;

    /** Degree of prefetching d; the paper's headline results use 1. */
    unsigned degree = 1;

    /** RPT entries (I-detection); paper: 256, direct-mapped. */
    static constexpr unsigned rptEntries = 256;

    /** Entries in each of Hagersten's four tables; paper: 16, LRU. */
    static constexpr unsigned ddetEntries = 16;

    /**
     * Occurrences of a stride before it is recorded as common
     * (D-detection); paper: 3.
     */
    static constexpr unsigned strideThreshold = 3;

    /** Maximum degree for the adaptive sequential scheme. */
    static constexpr unsigned adaptiveMaxDegree = 8;

    /**
     * Strides the virtual lookahead PC runs ahead of the processor
     * (lookahead I-detection variant).
     */
    unsigned lookaheadStrides = 2;

    /** Prefetch outcomes per adaptation decision (adaptive scheme). */
    static constexpr unsigned adaptiveWindow = 16;

    // ---- Post-paper schemes (ROADMAP item 2) ----

    /** Concurrent (stride, confidence) ways per PC (multi-stride RPT). */
    static constexpr unsigned mstrideWays = 4;

    /** Confidence a way needs before its stride is prefetched. */
    static constexpr unsigned mstrideConf = 2;

    /**
     * Maximum chained prefetch-fill depth for the pointer-chase scheme:
     * 1 chases only from demand-visible blocks, d allows a prefetched
     * block's content to trigger further chases d - 1 more times.
     */
    static constexpr unsigned chaseDepth = 2;

    /** Indirect-pattern table entries (pointer-chase), power of two. */
    static constexpr unsigned chaseEntries = 64;
    static_assert(isPowerOf2(chaseEntries));

    /**
     * Conventional scheme the chase prefetcher runs on top of --
     * content-directed candidates augment, not replace, a streaming
     * scheme. Must not itself be a wrapper scheme.
     */
    static constexpr PrefetchScheme chaseBase = PrefetchScheme::Sequential;

    /** Scheme whose candidates the perceptron filter gates. */
    static constexpr PrefetchScheme ptronBase = PrefetchScheme::Sequential;

    static_assert(chaseBase != PrefetchScheme::PtrChase &&
                  chaseBase != PrefetchScheme::Perceptron &&
                  ptronBase != PrefetchScheme::PtrChase &&
                  ptronBase != PrefetchScheme::Perceptron,
                  "a wrapper base would make construction recurse");

    /** Perceptron training threshold (weights train while |sum| <= theta). */
    static constexpr unsigned ptronTheta = 8;
};

/**
 * Fault-injection hooks for the differential checker's self-tests.
 * All-zero (the default) means every hook is inert; a period-N hook
 * fires on every Nth opportunity. The hooks are honored only when the
 * PSIM_TEST_HOOKS CMake option compiled them in, and they exist for
 * exactly one purpose: proving that check::Oracle rejects a machine
 * that returns wrong data (tests/test_check.cc). Nothing else may set
 * them.
 */
struct TestHooks
{
    /** Flip a bit in every Nth load value a processor consumes. */
    unsigned corruptReadPeriod = 0;

    /** Silently drop every Nth functional store (timing unchanged). */
    unsigned dropStorePeriod = 0;

    /** Let every Nth prefetch candidate bypass the page-cross filter. */
    unsigned allowPageCrossPeriod = 0;
};

/**
 * Knobs for the server workload suite (kvstore, hashjoin, bfs,
 * logappend): the request-driven front end layered on the paper's
 * machine. All requests are pure functions of (seed, thread, request
 * index) -- see src/apps/reqgen.hh -- so these knobs, not wall-clock
 * or machine state, fully determine every stream. Each workload picks
 * its own scale-dependent request count.
 */
struct ServerConfig
{
    /**
     * Zipf skew of key popularity, in [0, 1): 0 is uniform, 0.99 is
     * YCSB's default hot-key skew.
     */
    double zipfTheta = 0.99;

    /**
     * Mean open-loop inter-arrival think gap in pclocks. The actual
     * gap per request is uniform in [1, 2*interArrival - 1]; 0
     * disables arrival gaps entirely (closed-loop saturation).
     */
    static constexpr Tick interArrival = 16;
};

struct MachineConfig
{
    /** Number of processing nodes; paper: 16 (4x4 mesh). */
    unsigned numProcs = 16;

    /** Cache block size for both FLC and SLC; paper: 32 bytes. */
    unsigned blockSize = 32;

    /** First-level cache size; paper: 4 Kbyte, direct-mapped. */
    unsigned flcSize = 4096;

    /**
     * Second-level cache size in bytes; 0 means infinite (the paper's
     * default). Section 5.3 uses 16 Kbyte direct-mapped.
     */
    unsigned slcSize = 0;

    /** SLC associativity when finite; paper: direct-mapped. */
    unsigned slcAssoc = 1;

    /** Virtual-memory page size; paper: 4 Kbyte, round-robin homes. */
    unsigned pageSize = 4096;

    /** First-level write buffer entries; paper: 8. */
    unsigned flwbEntries = 8;

    /** Second-level write buffer (pending-transaction) entries; paper: 16. */
    unsigned slwbEntries = 16;

    // ---- Timing (ticks are pclocks; 1 pclock = 10 ns) ----
    //
    // Only memAccessLat is settable; the rest are constants calibrated
    // to Table 1. Its 3-pclock FLC fill is not charged: fills are free.

    /** FLC read hit; paper: 1 pclock. */
    static constexpr Tick flcReadLat = 1;

    /** SLC SRAM access; paper: 30 ns = 3 pclocks. */
    static constexpr Tick slcAccessLat = 3;

    /**
     * Latency from FLC miss detection to the request being presented to
     * the SLC (FLWB traversal). Calibrated so an SLC hit totals the
     * paper's 6 pclocks: 1 (FLC) + 1 (FLWB) + 3 (SRAM) + 1 (return).
     */
    static constexpr Tick flwbLat = 1;

    /** Returning data from SLC to the processor. */
    static constexpr Tick slcToCpuLat = 1;

    /** DRAM access time; paper: 90 ns = 9 pclocks. */
    Tick memAccessLat = 9;

    /** Directory state lookup/update overhead at the home memory. */
    static constexpr Tick dirLat = 1;

    /** Local split-transaction bus cycle; paper: 33 MHz = 3 pclocks. */
    static constexpr Tick busCycle = 3;

    /**
     * Bus cycles for one transaction phase. The bus is 256 bits wide, so
     * one address phase and one data phase (32 B block) each take a
     * single bus cycle. Calibrated so a clean local-memory read totals
     * the paper's 28 pclocks (see tests/test_latency.cc).
     */
    static constexpr unsigned busPhaseCycles = 1;

    // ---- Network (paper Section 4) ----

    /** Mesh columns (4x4 for 16 nodes). */
    unsigned meshCols = 4;

    /** Flit size in bits; paper: 32. */
    static constexpr unsigned flitBits = 32;
    static_assert(flitBits % 8 == 0, "flit size must be whole bytes");

    /** Node fall-through latency in network cycles; paper: 3. */
    Tick fallThrough = 3;

    /** Network clock in pclocks per cycle; paper: 100 MHz = 1 pclock. */
    static constexpr Tick netCycle = 1;

    /** Header flits on every message (routing + command + address). */
    static constexpr unsigned headerFlits = 2;

    // ---- Consistency & protocol options ----

    /**
     * Sequential consistency: stores stall the processor until they
     * are globally performed. The paper assumes release consistency
     * (citing Gharachorloo et al. [11]); this switch quantifies why.
     */
    bool sequentialConsistency = false;

    /**
     * Migratory-sharing optimization at the directory (the protocol
     * extension the authors combine with prefetching in their ISCA'94
     * companion paper): blocks observed to migrate between writers are
     * handed to readers in exclusive state, eliminating the upgrade.
     */
    bool migratoryOpt = false;

    /**
     * Run the invariant-audit layer (sim/audit.hh): per-node prefetch
     * lifecycle conservation, coherence cross-checks on every message
     * receive, and quiesce-time machine checks. Defaults to the
     * PSIM_AUDIT environment variable; costs a hash lookup per audited
     * event when on, nothing when off.
     */
    bool audit = auditDefault();

    /** Fault injection for oracle self-tests; inert by default. */
    TestHooks testHooks;

    // ---- Execution engine ----

    /**
     * 0 (default): the classic serial event engine, byte-identical to
     * every earlier release. N >= 1: the windowed parallel engine with
     * N shards (clamped to numProcs), whose deterministic
     * (tick, owner, counter) event order is identical at every shard
     * count -- `shards = 1` is the single-threaded reference for
     * `shards = 8`. The two engines order same-tick events differently,
     * so their statistics are compared within a mode, not across modes.
     */
    unsigned shards = 0;

    // ---- Prefetching ----

    PrefetchConfig prefetch;

    // ---- Server workload suite ----

    ServerConfig server;

    /** PRNG seed so runs are reproducible. */
    std::uint64_t seed = 12345;

    // ---- Derived helpers ----

    Addr blockAddr(Addr a) const { return alignDown(a, blockSize); }
    Addr pageAddr(Addr a) const { return alignDown(a, pageSize); }

    /** Home node of the page containing @p a (round-robin placement). */
    NodeId
    homeOf(Addr a) const
    {
        return static_cast<NodeId>((a / pageSize) % numProcs);
    }

    /** Number of flits in a message carrying @p payload_bytes of data. */
    unsigned
    flitsFor(unsigned payload_bytes) const
    {
        unsigned flit_bytes = flitBits / 8;
        return headerFlits + (payload_bytes + flit_bytes - 1) / flit_bytes;
    }

    unsigned meshRows() const { return numProcs / meshCols; }

    /** Validate internal consistency; fatal() on bad user configs. */
    void validate() const;
};

/**
 * The mesh-column count a `--procs N` override gets: N divided by its
 * largest divisor no greater than sqrt(N) -- the squarest mesh the
 * count allows (so 16 -> 4x4, 12 -> 3x4, 8 -> 2x4).
 */
unsigned squarestMeshCols(unsigned procs);

/**
 * Apply a processor-count override to @p cfg: sets numProcs and the
 * squarest mesh shape per squarestMeshCols(). Prime and other awkward
 * counts only tile as a degenerate near-chain (7 -> 1x7); that mesh
 * has very different distance and congestion behaviour from a 2-D
 * grid, so a loud warning names the chosen shape instead of silently
 * skewing the results (see EXPERIMENTS.md, "Choosing --procs").
 */
void applyProcCount(MachineConfig &cfg, unsigned procs);

} // namespace psim

#endif // PSIM_SIM_CONFIG_HH
