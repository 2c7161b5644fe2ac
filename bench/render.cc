#include "render.hh"

#include <cmath>
#include <cstdio>
#include <initializer_list>

namespace psim::bench
{

namespace
{

using spec::AxisValue;
using spec::CellResult;
using spec::Results;
using spec::Spec;

/**
 * Format a prefetch efficiency for a table cell: "0.63"-style, or an
 * em dash when the run issued no prefetches (efficiency is NaN).
 */
std::string
fmtEff(double eff, int width = 0)
{
    char buf[32];
    if (std::isnan(eff)) {
        // The em dash is 3 UTF-8 bytes but one display column; widen
        // the field so printf's byte-counting padding still lines up.
        std::snprintf(buf, sizeof(buf), "%*s", width ? width + 2 : 0,
                      "—");
    } else {
        std::snprintf(buf, sizeof(buf), "%*.2f", width, eff);
    }
    return buf;
}

/** Format the dominant strides like the paper: "1(93%), 65(42%)". */
std::string
dominantStrides(const StrideCharacterizer::Report &r, unsigned max_entries)
{
    std::string out;
    unsigned shown = 0;
    for (const auto &[stride, fraction] : r.topStrides) {
        if (shown >= max_entries || fraction < 0.05)
            break;
        if (shown)
            out += ", ";
        out += std::to_string(stride) + "(" +
               std::to_string(static_cast<int>(fraction * 100 + 0.5)) +
               "%)";
        ++shown;
    }
    if (out.empty())
        out = "-";
    return out;
}

void
hr(unsigned width = 78)
{
    for (unsigned i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

const CellResult &
cellAt(const Spec &s, const Results &r, std::size_t group,
       std::initializer_list<std::size_t> idx)
{
    return r.cells.at(s.cellIndex(group, idx));
}

// ---- Table 2: application characteristics, infinite SLC ----

void
renderTable2(const Spec &s, const Results &r)
{
    const std::vector<AxisValue> &apps = s.axis(0, "app").values;

    std::printf("Table 2: application characteristics, infinite SLC "
                "(baseline, 16 procs, 32 B blocks)\n");
    std::printf("paper reference:  MP3D 9.2%% / 5.2 / 1(76%%)  "
                "Chol 80%% / 7.2 / 1(95%%)  Water 79%% / 8.0 / 21(99%%)\n");
    std::printf("                  LU 93%% / 16.9 / 1(93%%)  "
                "Ocean 66%% / 7.6 / 65(42%%),1(31%%)  "
                "PTHOR 4.1%% / 3.4 / -\n\n");
    hr();
    std::printf("%-10s %14s %14s %12s   %s\n", "app",
                "stride misses", "avg seq len", "read misses",
                "dominant strides (blocks)");
    hr();

    for (std::size_t w = 0; w < apps.size(); ++w) {
        const CellResult &c = cellAt(s, r, 0, {w});
        const auto &report = c.characterizer;
        std::printf("%-10s %13.1f%% %14.1f %12llu   %s\n",
                    apps[w].id.c_str(), 100.0 * report.strideFraction,
                    report.avgSequenceLength,
                    static_cast<unsigned long long>(report.totalMisses),
                    dominantStrides(report, 3).c_str());
    }
    hr();
    std::printf("\nstride misses = %% of demand read misses inside "
                "stride sequences (>=3 equidistant\naccesses from one "
                "load instruction); strides shorter than a block count "
                "as 1 block.\n");
}

// ---- Table 3: application characteristics, 16 KB SLC ----

void
renderTable3(const Spec &s, const Results &r)
{
    const std::vector<AxisValue> &apps = s.axis(0, "app").values;

    std::printf("Table 3: application characteristics, 16 KB "
                "direct-mapped SLC (baseline, 16 procs)\n");
    std::printf("paper reference:  repl%%: MP3D 32 Chol 45 Water 45 "
                "LU 76 Ocean 82 PTHOR 39\n");
    std::printf("                  stride misses rise for MP3D (34%%) "
                "and Ocean (81%%), stride 1 dominates\n\n");
    hr(86);
    std::printf("%-10s %12s %14s %14s %12s   %s\n", "app",
                "repl misses", "stride misses", "avg seq len",
                "read misses", "dominant strides (blocks)");
    hr(86);

    for (std::size_t w = 0; w < apps.size(); ++w) {
        const CellResult &c = cellAt(s, r, 0, {w});
        const auto &report = c.characterizer;
        double total = c.node0DemandReadMisses;
        double repl = total > 0
                ? 100.0 * c.node0ReplacementMisses / total
                : 0.0;
        std::printf("%-10s %11.1f%% %13.1f%% %14.1f %12llu   %s\n",
                    apps[w].id.c_str(), repl,
                    100.0 * report.strideFraction,
                    report.avgSequenceLength,
                    static_cast<unsigned long long>(report.totalMisses),
                    dominantStrides(report, 3).c_str());
    }
    hr(86);
    std::printf("\nrepl misses = replacement misses as %% of node 0's "
                "demand read misses.\n");
}

// ---- Table 4: characteristics for larger data sets ----

const char *
trend(double small, double big, double tol = 0.05)
{
    if (big > small * (1.0 + tol))
        return "higher";
    if (big < small * (1.0 - tol))
        return "lower";
    return "about the same";
}

std::int64_t
dominantStride(const StrideCharacterizer::Report &report)
{
    return report.topStrides.empty() ? 0 : report.topStrides[0].first;
}

void
renderTable4(const Spec &s, const Results &r)
{
    const std::vector<AxisValue> &apps = s.axis(0, "app").values;

    std::printf("Table 4: characteristics for larger data sets, "
                "infinite SLC (scale 1 vs scale 2)\n");
    std::printf("paper expectation: stride fraction higher for "
                "Chol/Water/LU/Ocean, about the same for MP3D;\n"
                "sequence length longer except MP3D (limited); "
                "dominant stride unchanged except Ocean (longer)\n\n");
    hr(96);
    std::printf("%-10s | %21s | %21s | %12s\n", "app",
                "stride misses  s1->s2", "avg seq len    s1->s2",
                "dom stride");
    hr(96);

    for (std::size_t w = 0; w < apps.size(); ++w) {
        const auto &small = cellAt(s, r, 0, {w, 0}).characterizer;
        const auto &big = cellAt(s, r, 0, {w, 1}).characterizer;
        std::printf("%-10s | %5.1f%% -> %5.1f%% %6s | %5.1f -> %5.1f "
                    "%8s | %3lld -> %3lld\n",
                    apps[w].id.c_str(), 100 * small.strideFraction,
                    100 * big.strideFraction,
                    trend(small.strideFraction, big.strideFraction),
                    small.avgSequenceLength, big.avgSequenceLength,
                    trend(small.avgSequenceLength, big.avgSequenceLength),
                    static_cast<long long>(dominantStride(small)),
                    static_cast<long long>(dominantStride(big)));
    }
    hr(96);
}

// ---- Figure 6: the headline scheme comparison ----

/**
 * The five-panel app x scheme comparison grid shared by fig6 and the
 * server-suite variant: same panels, same relative-to-baseline math,
 * only the headline differs. Axis 0 must be app x scheme with the
 * baseline scheme first.
 */
void
renderSchemeGrid(const Spec &s, const Results &r, const char *title)
{
    const std::vector<AxisValue> &apps = s.axis(0, "app").values;
    const std::vector<AxisValue> &schemes = s.axis(0, "scheme").values;

    auto panel = [&](const char *title, auto value) {
        std::printf("\n%s\n", title);
        hr();
        std::printf("%-10s", "app");
        for (const AxisValue &sv : schemes)
            std::printf(" %10s", sv.id.c_str());
        std::printf("\n");
        hr();
        for (std::size_t w = 0; w < apps.size(); ++w) {
            std::printf("%-10s", apps[w].id.c_str());
            const CellResult &base = cellAt(s, r, 0, {w, 0});
            for (std::size_t sc = 0; sc < schemes.size(); ++sc)
                std::printf(" %10s",
                            value(cellAt(s, r, 0, {w, sc}), base).c_str());
            std::printf("\n");
        }
        hr();
    };

    auto rel = [](double v, double base) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", base > 0 ? v / base : 1.0);
        return std::string(buf);
    };

    std::printf("%s\n", title);

    panel("(top) read misses relative to the baseline architecture",
          [&](const CellResult &c, const CellResult &base) {
              return rel(c.metrics.readMisses, base.metrics.readMisses);
          });

    panel("(middle) prefetch efficiency (useful / issued prefetches)",
          [](const CellResult &c, const CellResult &) {
              return fmtEff(c.metrics.prefetchEfficiency());
          });

    panel("(bottom) read stall time relative to the baseline",
          [&](const CellResult &c, const CellResult &base) {
              return rel(c.metrics.readStall, base.metrics.readStall);
          });

    panel("(support) network traffic (flits) relative to the baseline",
          [&](const CellResult &c, const CellResult &base) {
              return rel(c.metrics.flits, base.metrics.flits);
          });

    panel("(support) execution time relative to the baseline",
          [&](const CellResult &c, const CellResult &base) {
              return rel(static_cast<double>(c.metrics.execTicks),
                         static_cast<double>(base.metrics.execTicks));
          });

    std::printf("\nAll %zu runs verified numerically against native "
                "references.\n", r.cells.size());
}

void
renderFig6(const Spec &s, const Results &r)
{
    renderSchemeGrid(s, r,
                     "Figure 6: stride vs. sequential prefetching "
                     "(16 procs, infinite SLC, d = 1)");
}

// ---- Server suite: request-stream characteristics ----

void
renderServerTable2(const Spec &s, const Results &r)
{
    const std::vector<AxisValue> &apps = s.axis(0, "app").values;
    const std::vector<AxisValue> &thetas =
            s.axis(0, "server.zipfTheta").values;

    std::printf("Server suite: request-stream characteristics, "
                "infinite SLC (baseline, 16 procs, 32 B blocks)\n");
    std::printf("Zipf key skew theta per row; every request stream is "
                "a pure function of (seed, thread, index)\n\n");
    hr(92);
    std::printf("%-10s %8s %14s %14s %12s   %s\n", "app", "theta",
                "stride misses", "avg seq len", "read misses",
                "dominant strides (blocks)");
    hr(92);

    for (std::size_t w = 0; w < apps.size(); ++w) {
        for (std::size_t t = 0; t < thetas.size(); ++t) {
            const CellResult &c = cellAt(s, r, 0, {w, t});
            const auto &report = c.characterizer;
            std::printf("%-10s %8s %13.1f%% %14.1f %12llu   %s\n",
                        apps[w].id.c_str(), thetas[t].id.c_str(),
                        100.0 * report.strideFraction,
                        report.avgSequenceLength,
                        static_cast<unsigned long long>(
                                report.totalMisses),
                        dominantStrides(report, 3).c_str());
        }
        hr(92);
    }
    std::printf("\nstride misses = %% of demand read misses inside "
                "stride sequences (>=3 equidistant\naccesses from one "
                "load instruction); strides shorter than a block count "
                "as 1 block.\n");
}

// ---- Server suite: the fig6 grid over the server workloads ----

void
renderServerFig6(const Spec &s, const Results &r)
{
    renderSchemeGrid(s, r,
                     "Server suite: stride vs. sequential prefetching "
                     "(16 procs, infinite SLC, d = 1)");
}

// ---- Extension: next-generation schemes over the server suite ----

void
renderNextgen(const Spec &s, const Results &r)
{
    renderSchemeGrid(s, r,
                     "Extension: pointer-chase, multi-stride and "
                     "perceptron-filtered prefetching on the server "
                     "suite (16 procs, infinite SLC, d = 1)");
}

// ---- Ablation: block size ----

void
renderBlocksize(const Spec &s, const Results &r)
{
    const std::vector<AxisValue> &apps = s.axis(0, "app").values;
    const std::vector<AxisValue> &blocks = s.axis(0, "blockSize").values;

    std::printf("Ablation: block size 32 B vs 128 B (16 procs, "
                "infinite SLC, d = 1)\n");
    std::printf("paper: larger blocks make sequential prefetching "
                "effective for larger strides\n\n");
    hr(92);
    std::printf("%-10s %6s %14s %14s %14s %14s\n", "app", "block",
                "base misses", "seq misses", "seq rel", "seq pf eff");
    hr(92);

    for (std::size_t w = 0; w < apps.size(); ++w) {
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            const CellResult &base = cellAt(s, r, 0, {w, 0, b});
            const CellResult &seq = cellAt(s, r, 0, {w, 1, b});
            unsigned block = static_cast<unsigned>(
                    blocks[b].scalar.asNumber("blockSize"));
            std::printf("%-10s %5uB %14.0f %14.0f %14.2f %s\n",
                        apps[w].id.c_str(), block,
                        base.metrics.readMisses, seq.metrics.readMisses,
                        seq.metrics.readMisses / base.metrics.readMisses,
                        fmtEff(seq.metrics.prefetchEfficiency(), 14)
                                .c_str());
        }
        hr(92);
    }
}

// ---- Ablation: degree of prefetching ----

void
renderDegree(const Spec &s, const Results &r)
{
    const std::vector<AxisValue> &apps = s.axis(0, "app").values;
    const std::vector<AxisValue> &schemes = s.axis(1, "scheme").values;
    const std::vector<AxisValue> &degrees =
            s.axis(1, "prefetch.degree").values;

    std::printf("Ablation: degree of prefetching d (16 procs, "
                "infinite SLC)\n");
    std::printf("paper: \"little difference between different values "
                "of d\" for this prefetch phase\n\n");
    hr(92);
    std::printf("%-8s %-7s %4s %14s %14s %10s %12s\n", "app", "scheme",
                "d", "rel misses", "rel stall", "pf eff", "rel flits");
    hr(92);

    for (std::size_t w = 0; w < apps.size(); ++w) {
        const CellResult &base = cellAt(s, r, 0, {w, 0});
        for (std::size_t sc = 0; sc < schemes.size(); ++sc) {
            for (std::size_t di = 0; di < degrees.size(); ++di) {
                const CellResult &run = cellAt(s, r, 1, {w, sc, di});
                unsigned d = static_cast<unsigned>(
                        degrees[di].scalar.asNumber("prefetch.degree"));
                std::printf("%-8s %-7s %4u %14.2f %14.2f %s "
                            "%12.2f\n",
                            apps[w].id.c_str(), schemes[sc].id.c_str(), d,
                            run.metrics.readMisses /
                                    base.metrics.readMisses,
                            run.metrics.readStall /
                                    base.metrics.readStall,
                            fmtEff(run.metrics.prefetchEfficiency(), 10)
                                    .c_str(),
                            run.metrics.flits / base.metrics.flits);
            }
        }
        hr(92);
    }
}

// ---- Extension: adaptive sequential prefetching ----

void
renderAdaptive(const Spec &s, const Results &r)
{
    const std::vector<AxisValue> &apps = s.axis(0, "app").values;
    const std::vector<AxisValue> &schemes = s.axis(1, "scheme").values;

    std::printf("Extension: adaptive sequential prefetching "
                "(16 procs, infinite SLC)\n\n");
    hr(92);
    std::printf("%-10s %-9s %12s %12s %10s %12s\n", "app", "scheme",
                "rel misses", "rel stall", "pf eff", "rel flits");
    hr(92);

    for (std::size_t w = 0; w < apps.size(); ++w) {
        const CellResult &base = cellAt(s, r, 0, {w, 0});
        for (std::size_t sc = 0; sc < schemes.size(); ++sc) {
            const CellResult &run = cellAt(s, r, 1, {w, sc});
            std::printf("%-10s %-9s %12.2f %12.2f %s %12.2f\n",
                        apps[w].id.c_str(), schemes[sc].id.c_str(),
                        run.metrics.readMisses / base.metrics.readMisses,
                        run.metrics.readStall / base.metrics.readStall,
                        fmtEff(run.metrics.prefetchEfficiency(), 10)
                                .c_str(),
                        run.metrics.flits / base.metrics.flits);
        }
        hr(92);
    }
}

// ---- Extension: tagged-continuation vs lookahead-PC I-det ----

void
renderLookahead(const Spec &s, const Results &r)
{
    const std::vector<AxisValue> &apps = s.axis(0, "app").values;
    const std::vector<AxisValue> &variants = s.axis(1, "variant").values;

    std::printf("Extension: tagged-continuation I-det vs lookahead-PC "
                "I-det (16 procs, infinite SLC)\n\n");
    hr(92);
    std::printf("%-10s %-10s %4s %12s %12s %10s %12s\n", "app",
                "scheme", "LA", "rel misses", "rel stall", "pf eff",
                "rel flits");
    hr(92);

    for (std::size_t w = 0; w < apps.size(); ++w) {
        const CellResult &base = cellAt(s, r, 0, {w, 0});
        for (std::size_t v = 0; v < variants.size(); ++v) {
            const CellResult &run = cellAt(s, r, 1, {w, v});
            const char *scheme =
                    variants[v].id == "idet" ? "i-det" : "i-det-la";
            std::printf("%-10s %-10s %4s %12.2f %12.2f %s %12.2f\n",
                        apps[w].id.c_str(), scheme,
                        variants[v].label.c_str(),
                        run.metrics.readMisses / base.metrics.readMisses,
                        run.metrics.readStall / base.metrics.readStall,
                        fmtEff(run.metrics.prefetchEfficiency(), 10)
                                .c_str(),
                        run.metrics.flits / base.metrics.flits);
        }
        hr(92);
    }
    std::printf("\npaper's claim: for long stride sequences the two "
                "mechanisms are nearly identical.\n");
}

// ---- Extension: consistency model and migratory optimization ----

void
renderProtocol(const Spec &s, const Results &r)
{
    const std::vector<AxisValue> &apps1 = s.axis(0, "app").values;
    const std::vector<AxisValue> &models = s.axis(0, "model").values;
    const std::vector<AxisValue> &schemes1 = s.axis(0, "scheme").values;

    std::printf("Part 1: release vs sequential consistency "
                "(16 procs, infinite SLC)\n\n");
    hr(92);
    std::printf("%-8s %-6s %-9s %12s %12s %12s\n", "app", "model",
                "scheme", "exec ticks", "write stall", "read stall");
    hr(92);
    for (std::size_t w = 0; w < apps1.size(); ++w) {
        for (std::size_t m = 0; m < models.size(); ++m) {
            for (std::size_t sc = 0; sc < schemes1.size(); ++sc) {
                const CellResult &run = cellAt(s, r, 0, {w, m, sc});
                std::printf("%-8s %-6s %-9s %12llu %12.0f %12.0f\n",
                            apps1[w].id.c_str(), models[m].label.c_str(),
                            schemes1[sc].id.c_str(),
                            static_cast<unsigned long long>(
                                    run.metrics.execTicks),
                            run.writeStall, run.metrics.readStall);
            }
        }
        hr(92);
    }

    const std::vector<AxisValue> &apps2 = s.axis(1, "app").values;
    const std::vector<AxisValue> &dirs = s.axis(1, "dir").values;
    const std::vector<AxisValue> &schemes2 = s.axis(1, "scheme").values;

    std::printf("\nPart 2: migratory-sharing optimization "
                "(16 procs, infinite SLC)\n\n");
    hr(92);
    std::printf("%-8s %-10s %-9s %12s %12s %12s %12s\n", "app", "dir",
                "scheme", "exec ticks", "upgrades", "mig grants",
                "net flits");
    hr(92);
    for (std::size_t w = 0; w < apps2.size(); ++w) {
        for (std::size_t d = 0; d < dirs.size(); ++d) {
            for (std::size_t sc = 0; sc < schemes2.size(); ++sc) {
                const CellResult &run = cellAt(s, r, 1, {w, d, sc});
                std::printf("%-8s %-10s %-9s %12llu %12.0f %12.0f "
                            "%12.0f\n",
                            apps2[w].id.c_str(), dirs[d].label.c_str(),
                            schemes2[sc].id.c_str(),
                            static_cast<unsigned long long>(
                                    run.metrics.execTicks),
                            run.upgrades, run.migratoryGrants,
                            run.metrics.flits);
            }
        }
        hr(92);
    }
}

// ---- Sensitivity: architectural parameters ----

void
renderSensitivity(const Spec &s, const Results &r)
{
    const std::vector<AxisValue> &points = s.axis(0, "point").values;
    const std::vector<AxisValue> &apps = s.axis(0, "app").values;

    std::printf("Sensitivity: does the seq-vs-stride winner survive "
                "parameter changes?\n");
    std::printf("(expected: seq wins LU, i-det wins Ocean, at every "
                "point)\n\n");
    hr(86);
    std::printf("%-26s %-6s %12s %12s\n", "configuration", "app",
                "seq misses", "idet misses");
    hr(86);
    for (std::size_t p = 0; p < points.size(); ++p) {
        for (std::size_t w = 0; w < apps.size(); ++w) {
            const CellResult &base = cellAt(s, r, 0, {p, w, 0});
            const CellResult &seq = cellAt(s, r, 0, {p, w, 1});
            const CellResult &idet = cellAt(s, r, 0, {p, w, 2});
            const char *winner =
                    seq.metrics.readMisses < idet.metrics.readMisses
                            ? "seq" : "i-det";
            std::printf("%-26s %-6s %12.2f %12.2f   winner: %s\n",
                        points[p].label.c_str(), apps[w].id.c_str(),
                        seq.metrics.readMisses / base.metrics.readMisses,
                        idet.metrics.readMisses /
                                base.metrics.readMisses,
                        winner);
        }
    }
    hr(86);
}

void
renderNone(const Spec &, const Results &)
{
}

struct Entry
{
    const char *id;
    Renderer fn;
};

constexpr Entry kRenderers[] = {
    {"table2", renderTable2},
    {"table3", renderTable3},
    {"table4", renderTable4},
    {"fig6", renderFig6},
    {"server_table2", renderServerTable2},
    {"server_fig6", renderServerFig6},
    {"ablation_blocksize", renderBlocksize},
    {"ablation_degree", renderDegree},
    {"extension_adaptive", renderAdaptive},
    {"extension_lookahead", renderLookahead},
    {"extension_protocol", renderProtocol},
    {"extension_nextgen", renderNextgen},
    {"sensitivity_arch", renderSensitivity},
    {"none", renderNone},
};

} // namespace

Renderer
findRenderer(const std::string &report)
{
    for (const Entry &e : kRenderers) {
        if (report == e.id)
            return e.fn;
    }
    return nullptr;
}

std::string
knownReports()
{
    std::string out;
    for (const Entry &e : kRenderers) {
        if (!out.empty())
            out += ", ";
        out += e.id;
    }
    return out;
}

} // namespace psim::bench
