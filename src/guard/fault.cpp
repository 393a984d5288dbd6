#include "guard/fault.hpp"

#include <cstdlib>
#include <mutex>
#include <vector>

#include "obs/log.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace lp::guard {

namespace detail {
std::atomic<int> g_faultState{0};
} // namespace detail

namespace {

struct SiteInfo
{
    const char *name;
    ErrorCode code;
};

/** The registry of named injection points (docs/robustness.md). */
constexpr SiteInfo kSites[] = {
    {"parser", ErrorCode::Parse},
    {"verify", ErrorCode::Verify},
    {"interp", ErrorCode::Trap},
    {"io", ErrorCode::Io},
    {"engine", ErrorCode::Io},
};

std::mutex g_mu;
std::string g_armedSite;
std::uint64_t g_armedNth = 0;
std::uint64_t g_hits[std::size(kSites)] = {};

int
siteIndex(const std::string &site)
{
    for (std::size_t i = 0; i < std::size(kSites); ++i)
        if (site == kSites[i].name)
            return static_cast<int>(i);
    return -1;
}

/** "parser|verify|interp|io" — built from the registry, never stale. */
std::string
knownSites()
{
    std::string out;
    for (const SiteInfo &s : kSites) {
        if (!out.empty())
            out += '|';
        out += s.name;
    }
    return out;
}

/**
 * One-time warning for an unrecognized site name, mirroring the LP_LOG /
 * LP_JOBS misconfiguration warnings: the first bad name warns loudly
 * (bypassing LP_LOG=off), repeats stay silent so a sweep retrying the
 * same misconfigured cell does not flood the log.  Call under g_mu.
 */
void
warnUnknownSiteLocked(const std::string &origin, const std::string &site)
{
    static bool warned = false;
    if (warned)
        return;
    warned = true;
    obs::logMessage(obs::Level::Warn,
                    origin + " names unknown fault site '" + site +
                        "' (known sites: " + knownSites() +
                        "); fault injection off",
                    /*force=*/true);
}

/** Arm/disarm under g_mu; resets counters either way. */
void
armLocked(const std::string &site, std::uint64_t nth)
{
    for (std::uint64_t &h : g_hits)
        h = 0;
    if (site.empty() || nth == 0 || siteIndex(site) < 0) {
        g_armedSite.clear();
        g_armedNth = 0;
        detail::g_faultState.store(1, std::memory_order_relaxed);
        return;
    }
    g_armedSite = site;
    g_armedNth = nth;
    detail::g_faultState.store(2, std::memory_order_relaxed);
}

[[noreturn]] void
throwFor(ErrorCode code, const std::string &msg)
{
    switch (code) {
      case ErrorCode::Parse: throw ParseError(msg);
      case ErrorCode::Verify: throw VerifyError(msg);
      case ErrorCode::Io: throw IoError(msg);
      default: throw InterpreterTrap(msg);
    }
}

} // namespace

namespace detail {

bool
faultStateSlow()
{
    std::lock_guard<std::mutex> lock(g_mu);
    if (g_faultState.load(std::memory_order_relaxed) != 0)
        return g_faultState.load(std::memory_order_relaxed) == 2;
    const char *env = std::getenv("LP_FAULT");
    if (!env || !*env) {
        armLocked("", 0);
        return false;
    }
    std::string spec(env);
    std::size_t colon = spec.find(':');
    std::string site = spec.substr(0, colon);
    std::uint64_t nth = 0;
    if (colon != std::string::npos) {
        char *end = nullptr;
        nth = std::strtoull(spec.c_str() + colon + 1, &end, 10);
        if (*end != '\0')
            nth = 0;
    }
    if (siteIndex(site) < 0) {
        warnUnknownSiteLocked("LP_FAULT", site);
        armLocked("", 0);
        return false;
    }
    if (nth == 0) {
        obs::logMessage(obs::Level::Warn,
                        "LP_FAULT spec not understood: " + spec +
                            " (want <site>:<nth> with site one of " +
                            knownSites() + "); fault injection off",
                        /*force=*/true);
        armLocked("", 0);
        return false;
    }
    armLocked(site, nth);
    return true;
}

void
faultPointHit(const char *site)
{
    ErrorCode code;
    std::uint64_t hit;
    {
        std::lock_guard<std::mutex> lock(g_mu);
        int idx = siteIndex(site);
        if (idx < 0 || g_armedSite != site)
            return;
        hit = ++g_hits[idx];
        if (hit != g_armedNth)
            return;
        code = kSites[idx].code;
    }
    LP_LOG_WARN("fault injection: tripping site '%s' (hit %llu)", site,
                static_cast<unsigned long long>(hit));
    throwFor(code, strf("injected fault at site '%s' (hit %llu)", site,
                        static_cast<unsigned long long>(hit)));
}

} // namespace detail

void
setFault(const std::string &site, std::uint64_t nth)
{
    std::lock_guard<std::mutex> lock(g_mu);
    if (!site.empty() && nth != 0 && siteIndex(site) < 0)
        warnUnknownSiteLocked("setFault", site);
    armLocked(site, nth);
}

std::uint64_t
faultSiteHits(const std::string &site)
{
    std::lock_guard<std::mutex> lock(g_mu);
    int idx = siteIndex(site);
    return idx < 0 ? 0 : g_hits[idx];
}

} // namespace lp::guard
