#include "check/oracle.hh"

#include <algorithm>
#include <cstring>

#include "sim/audit.hh"
#include "sim/logging.hh"

namespace psim::check
{

namespace
{

/** Up-to-8 little-endian bytes as one hex literal (MSB first). */
std::string
hexValue(const std::uint8_t (&bytes)[8], unsigned len)
{
    std::string s = "0x";
    for (unsigned i = len; i-- > 0;)
        s += strfmt("%02x", bytes[i]);
    return s;
}

std::uint64_t
asU64(const std::uint8_t (&bytes)[8])
{
    std::uint64_t v;
    std::memcpy(&v, bytes, sizeof(v));
    return v;
}

} // namespace

std::string
Divergence::describe() const
{
    switch (kind) {
    case Kind::LoadValue:
        return strfmt("load-value: node %u tick %llu addr %#llx "
                      "(%u bytes): machine returned %s, SC replay of "
                      "access #%zu expects %s",
                      node, (unsigned long long)tick,
                      (unsigned long long)addr, len,
                      hexValue(got, len).c_str(), seq,
                      hexValue(expected, len).c_str());
    case Kind::FinalImage:
        return strfmt("final-image: addr %#llx holds %s, the replayed "
                      "SC image has %s",
                      (unsigned long long)addr,
                      hexValue(got, len).c_str(),
                      hexValue(expected, len).c_str());
    case Kind::PageCross:
        // expected[] carries the triggering demand address.
        return strfmt("page-cross: node %u tick %llu issued a prefetch "
                      "for block %#llx outside the page of its trigger "
                      "%#llx",
                      node, (unsigned long long)tick,
                      (unsigned long long)addr,
                      (unsigned long long)asU64(expected));
    case Kind::Ledger:
        return strfmt("fate-ledger: node %u issued %llu prefetches but "
                      "its terminal fates sum to %llu",
                      node, (unsigned long long)asU64(expected),
                      (unsigned long long)asU64(got));
    }
    return "?";
}

void
Oracle::snapshotInitial(const BackingStore &store)
{
    _initial.clear();
    store.forEachPage(
            [this](Addr base, const std::uint8_t *bytes, unsigned len) {
                _initial.emplace_back(base,
                        std::vector<std::uint8_t>(bytes, bytes + len));
            });
}

OracleReport
Oracle::check(const AccessLog &log, const BackingStore &final_store,
              const audit::LedgerSnapshot *ledger) const
{
    OracleReport rep;
    auto add = [&rep](const Divergence &d) {
        ++rep.total;
        if (rep.divergences.size() < kMaxReported)
            rep.divergences.push_back(d);
    };

    // 1. Replay the committed access order against the shadow memory,
    //    checking every load value against what an SC memory holds at
    //    that point. The shadow is never "resynchronized" from a bad
    //    load: it tracks what memory must contain given the recorded
    //    stores, which is the canonical image.
    BackingStore shadow;
    for (const auto &[base, bytes] : _initial)
        shadow.write(base, bytes.data(),
                static_cast<unsigned>(bytes.size()));

    const auto &accesses = log.accesses();
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        const AccessRecord &rec = accesses[i];
        psim_assert(rec.len <= 8, "oversized access record");
        if (rec.kind == AccessRecord::Kind::Write) {
            shadow.write(rec.addr, rec.value, rec.len);
            ++rep.storesReplayed;
            continue;
        }
        ++rep.loadsChecked;
        std::uint8_t expect[8]{};
        shadow.read(rec.addr, expect, rec.len);
        if (std::memcmp(expect, rec.value, rec.len) != 0) {
            Divergence d;
            d.kind = Divergence::Kind::LoadValue;
            d.seq = i;
            d.tick = rec.tick;
            d.node = rec.node;
            d.addr = rec.addr;
            d.len = rec.len;
            std::memcpy(d.expected, expect, sizeof(d.expected));
            std::memcpy(d.got, rec.value, sizeof(d.got));
            add(d);
        }
    }

    // 2. Final image: after all stores replayed, the shadow and the
    //    machine's functional memory must agree bytewise. Both are
    //    sparse with absent pages reading as zero, so walk the union
    //    of their materialized pages by merging the two page lists in
    //    address order (for deterministic reports). A page that
    //    matches as a whole costs one memcmp; only a differing page is
    //    scanned in 8-byte chunks.
    using PageRef = std::pair<Addr, const std::uint8_t *>;
    auto sortedPages = [](const BackingStore &store) {
        std::vector<PageRef> pages;
        store.forEachPage(
                [&](Addr base, const std::uint8_t *bytes, unsigned) {
                    pages.emplace_back(base, bytes);
                });
        std::sort(pages.begin(), pages.end());
        return pages;
    };
    const std::vector<PageRef> want_pages = sortedPages(shadow);
    const std::vector<PageRef> got_pages = sortedPages(final_store);
    const std::vector<std::uint8_t> zeros(_pageSize, 0);
    auto comparePage = [&](Addr base, const std::uint8_t *want,
                           const std::uint8_t *got) {
        if (std::memcmp(want, got, _pageSize) == 0)
            return;
        for (unsigned off = 0; off < _pageSize; off += 8) {
            unsigned n = std::min(8u, _pageSize - off);
            if (std::memcmp(want + off, got + off, n) == 0)
                continue;
            Divergence d;
            d.kind = Divergence::Kind::FinalImage;
            d.addr = base + off;
            d.len = n;
            std::memcpy(d.expected, want + off, n);
            std::memcpy(d.got, got + off, n);
            add(d);
        }
    };
    auto w = want_pages.begin();
    auto g = got_pages.begin();
    while (w != want_pages.end() || g != got_pages.end()) {
        if (g == got_pages.end() ||
            (w != want_pages.end() && w->first < g->first)) {
            comparePage(w->first, w->second, zeros.data());
            ++w;
        } else if (w == want_pages.end() || g->first < w->first) {
            comparePage(g->first, zeros.data(), g->second);
            ++g;
        } else {
            comparePage(w->first, w->second, g->second);
            ++w;
            ++g;
        }
    }

    // 3. The page rule: an issued prefetch must stay inside the page
    //    of the demand access that triggered it (paper Section 2).
    for (const auto &p : log.prefetchIssues()) {
        ++rep.prefetchesChecked;
        if (alignDown(p.block, _pageSize) ==
            alignDown(p.trigger, _pageSize))
            continue;
        Divergence d;
        d.kind = Divergence::Kind::PageCross;
        d.tick = p.tick;
        d.node = p.node;
        d.addr = p.block;
        d.len = 8;
        std::uint64_t trig = p.trigger;
        std::memcpy(d.expected, &trig, sizeof(trig));
        add(d);
    }

    // 4. The audit fate ledger, re-verified independently of the
    //    audit's own finalize(): every issue has exactly one terminal
    //    fate, so per node issued == sum of fates (and no issue may
    //    still carry the non-terminal fate None).
    if (ledger) {
        for (std::size_t n = 0; n < ledger->nodes.size(); ++n) {
            const auto &node = ledger->nodes[n];
            std::uint64_t fates = 0;
            for (std::size_t f = 1; f < audit::kNumFates; ++f)
                fates += node.fates[f];
            if (fates == node.issued && node.fates[0] == 0)
                continue;
            Divergence d;
            d.kind = Divergence::Kind::Ledger;
            d.node = static_cast<NodeId>(n);
            d.len = 8;
            std::uint64_t issued = node.issued;
            std::memcpy(d.expected, &issued, sizeof(issued));
            std::memcpy(d.got, &fates, sizeof(fates));
            add(d);
        }
    }

    return rep;
}

} // namespace psim::check
